#ifndef OCULAR_DATA_SCALE_H_
#define OCULAR_DATA_SCALE_H_

#include <cstdint>
#include <span>

#include "sparse/dense.h"

namespace ocular {

/// \file
/// \brief Deterministic multi-million-user factor catalogs for scale
/// tests and benchmarks.
///
/// A planted-co-cluster draw (data/synthetic.h) materializes the whole
/// interaction matrix, which caps it far below catalog scale. This
/// generator instead defines the *trained* factors directly as a pure
/// hash of (seed, user, dim): any single user row can be regenerated in
/// O(k) at any time, in any order, on any machine. That purity is the
/// point — the writer streams rows to disk one shard at a time (peak
/// memory: one shard), and the verifier later regenerates the exact row
/// for any sampled user to serve as an offline oracle, without either
/// side ever holding the n_u x K matrix.

/// Parameters of a deterministic scale catalog. Factors are Uniform
/// [min_affinity, max_affinity) per (seed, user/item, dim); with the
/// defaults an average inner product sits well inside the
/// 1 - e^{-<f_u,f_i>} probability map's dynamic range.
struct ScaleCatalogSpec {
  uint32_t num_users = 2'000'000;
  uint32_t num_items = 128;
  uint32_t k = 8;
  uint64_t seed = 1;
  double min_affinity = 0.0;
  double max_affinity = 0.6;
};

/// Writes `user`'s factor row into `out` (out.size() must be spec.k).
/// Pure: the same (spec, user) always yields the same row, independent of
/// call order — callers rely on this to re-derive rows as an oracle.
void ScaleUserRow(const ScaleCatalogSpec& spec, uint32_t user,
                  std::span<double> out);

/// The item factors (k x num_items, the transposed serving layout the
/// OCLR items file stores), deterministic in spec. Items are few
/// (hundreds) even at catalog scale, so materializing them is cheap.
DenseMatrix ScaleItemFactorsTransposed(const ScaleCatalogSpec& spec);

}  // namespace ocular

#endif  // OCULAR_DATA_SCALE_H_
