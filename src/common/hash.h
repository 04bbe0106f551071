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

/// XXH64 (seed 0 unless given) over `bytes` bytes at `data`: the OCLR v3
/// section checksum. Four independent 64-bit lanes over 32-byte stripes,
/// so it runs at memory bandwidth rather than multiply latency. `data`
/// needs no alignment.
uint64_t Xxh64(const void* data, size_t bytes, uint64_t seed = 0);

}  // namespace ocular

#endif  // OCULAR_COMMON_HASH_H_
