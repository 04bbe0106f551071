#include "data/scale.h"

#include <cstdint>

namespace ocular {
namespace {

// splitmix64 finalizer (Steele, Lea & Flood) — a full-avalanche mix so
// adjacent (user, dim) pairs land on statistically independent values.
uint64_t Mix(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

// Top 53 bits as a double in [0, 1).
double Unit(uint64_t h) { return static_cast<double>(h >> 11) * 0x1.0p-53; }

// Domain tags keep the user and item streams disjoint even where a user
// index collides with an item index under the same seed.
constexpr uint64_t kUserTag = 0x75736572ULL;  // "user"
constexpr uint64_t kItemTag = 0x6974656dULL;  // "item"

double Draw(const ScaleCatalogSpec& spec, uint64_t tag, uint32_t row,
            uint32_t dim) {
  const uint64_t h = Mix(Mix(spec.seed ^ (tag << 32) ^ row) + dim);
  return spec.min_affinity +
         (spec.max_affinity - spec.min_affinity) * Unit(h);
}

}  // namespace

void ScaleUserRow(const ScaleCatalogSpec& spec, uint32_t user,
                  std::span<double> out) {
  for (uint32_t d = 0; d < spec.k && d < out.size(); ++d) {
    out[d] = Draw(spec, kUserTag, user, d);
  }
}

DenseMatrix ScaleItemFactorsTransposed(const ScaleCatalogSpec& spec) {
  DenseMatrix t(spec.k, spec.num_items);
  for (uint32_t i = 0; i < spec.num_items; ++i) {
    for (uint32_t d = 0; d < spec.k; ++d) {
      t.At(d, i) = Draw(spec, kItemTag, i, d);
    }
  }
  return t;
}

}  // namespace ocular
