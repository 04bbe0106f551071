#ifndef OCULAR_COMMON_HASH_H_
#define OCULAR_COMMON_HASH_H_

#include <cstddef>
#include <cstdint>

namespace ocular {

/// FNV-1a 64 offset basis: the hash of zero bytes.
inline constexpr uint64_t kFnv1a64Offset = 14695981039346656037ull;

/// FNV-1a 64 over `bytes` bytes at `data`, continuing from `h`, so hashing
/// a buffer in pieces gives the one-shot result. One dependent multiply per
/// byte: use it for short inputs (journal records, file fingerprints) and
/// for reading OCLR v2 checksums; bulk data goes through Xxh64.
uint64_t Fnv1a64(const void* data, size_t bytes, uint64_t h = kFnv1a64Offset);

/// Streaming XXH64: Update() with the input in any number of pieces, then
/// Digest() is Xxh64 of their concatenation. Holds the four lanes and at
/// most one partial 32-byte stripe, so hashing a mapped file block by
/// block needs no read buffer and no heap.
class Xxh64State {
 public:
  explicit Xxh64State(uint64_t seed = 0);

  /// Hashes `bytes` more bytes at `data` (no alignment needed).
  void Update(const void* data, size_t bytes);

  /// XXH64 of everything passed to Update so far; the state stays usable.
  uint64_t Digest() const;

 private:
  uint64_t lanes_[4];
  uint64_t seed_;
  uint64_t total_bytes_ = 0;
  unsigned char stripe_[32] = {};  // the pending partial stripe
  size_t buffered_ = 0;            // bytes of it filled
};

/// XXH64 (seed 0 unless given) over `bytes` bytes at `data`: the OCLR v3/v4
/// section checksum. Four independent 64-bit lanes over 32-byte stripes,
/// so it runs at memory bandwidth rather than multiply latency. `data`
/// needs no alignment. One Xxh64State::Update and Digest.
uint64_t Xxh64(const void* data, size_t bytes, uint64_t seed = 0);

}  // namespace ocular

#endif  // OCULAR_COMMON_HASH_H_
