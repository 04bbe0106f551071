#include "common/hash.h"

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstring>

namespace ocular {

namespace {

constexpr uint64_t kFnv1a64Prime = 1099511628211ull;

constexpr uint64_t kXxhPrime1 = 0x9E3779B185EBCA87ull;
constexpr uint64_t kXxhPrime2 = 0xC2B2AE3D27D4EB4Full;
constexpr uint64_t kXxhPrime3 = 0x165667B19E3779F9ull;
constexpr uint64_t kXxhPrime4 = 0x85EBCA77C2B2AE63ull;
constexpr uint64_t kXxhPrime5 = 0x27D4EB2F165667C5ull;

constexpr size_t kStripeBytes = 32;

// XXH64 reads its input as little-endian words. Its only callers hash OCLR
// sections, whose readers and writers refuse to run on big-endian hosts,
// so the native load is the little-endian load.
uint64_t Load64(const unsigned char* p) {
  uint64_t v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

uint32_t Load32(const unsigned char* p) {
  uint32_t v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

uint64_t Round(uint64_t acc, uint64_t input) {
  acc += input * kXxhPrime2;
  acc = std::rotl(acc, 31);
  return acc * kXxhPrime1;
}

uint64_t MergeRound(uint64_t acc, uint64_t lane) {
  acc ^= Round(0, lane);
  return acc * kXxhPrime1 + kXxhPrime4;
}

// Runs the four lanes over every whole stripe in [p, end) and returns
// where the first incomplete stripe starts.
const unsigned char* ConsumeStripes(uint64_t lanes[4], const unsigned char* p,
                                    const unsigned char* end) {
  uint64_t v1 = lanes[0];
  uint64_t v2 = lanes[1];
  uint64_t v3 = lanes[2];
  uint64_t v4 = lanes[3];
  for (; end - p >= static_cast<ptrdiff_t>(kStripeBytes); p += kStripeBytes) {
    v1 = Round(v1, Load64(p));
    v2 = Round(v2, Load64(p + 8));
    v3 = Round(v3, Load64(p + 16));
    v4 = Round(v4, Load64(p + 24));
  }
  lanes[0] = v1;
  lanes[1] = v2;
  lanes[2] = v3;
  lanes[3] = v4;
  return p;
}

}  // namespace

uint64_t Fnv1a64(const void* data, size_t bytes, uint64_t h) {
  const unsigned char* p = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < bytes; ++i) {
    h ^= p[i];
    h *= kFnv1a64Prime;
  }
  return h;
}

Xxh64State::Xxh64State(uint64_t seed)
    : lanes_{seed + kXxhPrime1 + kXxhPrime2, seed + kXxhPrime2, seed,
             seed - kXxhPrime1},
      seed_(seed) {}

void Xxh64State::Update(const void* data, size_t bytes) {
  if (bytes == 0) return;  // `data` may be null
  const unsigned char* p = static_cast<const unsigned char*>(data);
  const unsigned char* const end = p + bytes;
  total_bytes_ += bytes;
  if (buffered_ > 0) {
    const size_t take = std::min(bytes, kStripeBytes - buffered_);
    std::memcpy(stripe_ + buffered_, p, take);
    buffered_ += take;
    p += take;
    if (buffered_ < kStripeBytes) return;
    ConsumeStripes(lanes_, stripe_, stripe_ + kStripeBytes);
  }
  p = ConsumeStripes(lanes_, p, end);
  buffered_ = static_cast<size_t>(end - p);
  std::memcpy(stripe_, p, buffered_);
}

uint64_t Xxh64State::Digest() const {
  uint64_t h;
  if (total_bytes_ >= kStripeBytes) {
    const auto [v1, v2, v3, v4] = lanes_;
    h = std::rotl(v1, 1) + std::rotl(v2, 7) + std::rotl(v3, 12) +
        std::rotl(v4, 18);
    h = MergeRound(h, v1);
    h = MergeRound(h, v2);
    h = MergeRound(h, v3);
    h = MergeRound(h, v4);
  } else {
    h = seed_ + kXxhPrime5;
  }
  h += total_bytes_;

  const unsigned char* p = stripe_;
  const unsigned char* const end = stripe_ + buffered_;
  for (; end - p >= 8; p += 8) {
    h ^= Round(0, Load64(p));
    h = std::rotl(h, 27) * kXxhPrime1 + kXxhPrime4;
  }
  if (end - p >= 4) {
    h ^= Load32(p) * kXxhPrime1;
    h = std::rotl(h, 23) * kXxhPrime2 + kXxhPrime3;
    p += 4;
  }
  for (; p < end; ++p) {
    h ^= *p * kXxhPrime5;
    h = std::rotl(h, 11) * kXxhPrime1;
  }

  h ^= h >> 33;
  h *= kXxhPrime2;
  h ^= h >> 29;
  h *= kXxhPrime3;
  h ^= h >> 32;
  return h;
}

uint64_t Xxh64(const void* data, size_t bytes, uint64_t seed) {
  Xxh64State state(seed);
  state.Update(data, bytes);
  return state.Digest();
}

}  // namespace ocular
