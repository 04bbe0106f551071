#include "common/hash.h"

#include <bit>
#include <cstring>

namespace ocular {

namespace {

constexpr uint64_t kFnv1a64Prime = 1099511628211ull;

constexpr uint64_t kXxhPrime1 = 0x9E3779B185EBCA87ull;
constexpr uint64_t kXxhPrime2 = 0xC2B2AE3D27D4EB4Full;
constexpr uint64_t kXxhPrime3 = 0x165667B19E3779F9ull;
constexpr uint64_t kXxhPrime4 = 0x85EBCA77C2B2AE63ull;
constexpr uint64_t kXxhPrime5 = 0x27D4EB2F165667C5ull;

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

}  // namespace

uint64_t Fnv1a64(const void* data, size_t bytes, uint64_t h) {
  const unsigned char* p = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < bytes; ++i) {
    h ^= p[i];
    h *= kFnv1a64Prime;
  }
  return h;
}

uint64_t Xxh64(const void* data, size_t bytes, uint64_t seed) {
  const unsigned char* p = static_cast<const unsigned char*>(data);
  const unsigned char* const end = p + bytes;
  uint64_t h;
  if (bytes >= 32) {
    uint64_t v1 = seed + kXxhPrime1 + kXxhPrime2;
    uint64_t v2 = seed + kXxhPrime2;
    uint64_t v3 = seed;
    uint64_t v4 = seed - kXxhPrime1;
    const unsigned char* const last_stripe = end - 32;
    do {
      v1 = Round(v1, Load64(p));
      v2 = Round(v2, Load64(p + 8));
      v3 = Round(v3, Load64(p + 16));
      v4 = Round(v4, Load64(p + 24));
      p += 32;
    } while (p <= last_stripe);
    h = std::rotl(v1, 1) + std::rotl(v2, 7) + std::rotl(v3, 12) +
        std::rotl(v4, 18);
    h = MergeRound(h, v1);
    h = MergeRound(h, v2);
    h = MergeRound(h, v3);
    h = MergeRound(h, v4);
  } else {
    h = seed + kXxhPrime5;
  }
  h += bytes;

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

}  // namespace ocular
