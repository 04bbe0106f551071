#include "core/incremental.h"

#include <algorithm>
#include <cmath>
#include <utility>

namespace ocular {

namespace {

/// Grows `m` to `rows` rows: existing rows keep their values, new rows
/// get the cold-start distribution. Reallocates once and frees the old
/// storage; a matrix that already has `rows` rows is left alone.
void GrowRows(DenseMatrix* m, uint32_t rows, double scale, Rng* rng) {
  if (rows == m->rows()) return;
  DenseMatrix out(rows, m->cols());
  std::copy(m->data(), m->data() + m->size(), out.data());
  for (uint32_t r = m->rows(); r < rows; ++r) {
    for (auto& v : out.Row(r)) v = rng->Uniform(0.0, scale);
  }
  *m = std::move(out);
}

}  // namespace

uint64_t DeriveExpandSeed(uint32_t old_users, uint32_t old_items,
                          uint32_t num_users, uint32_t num_items,
                          uint32_t k) {
  // splitmix64-style finalization of the packed shape transition: any
  // change to either shape lands in a different stream, and repeating the
  // same transition (replay) lands in the same one.
  uint64_t h = (static_cast<uint64_t>(old_users) << 32) | old_items;
  h ^= ((static_cast<uint64_t>(num_users) << 32) | num_items) +
       0x9e3779b97f4a7c15ULL + k;
  h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9ULL;
  h = (h ^ (h >> 27)) * 0x94d049bb133111ebULL;
  h ^= h >> 31;
  // Stay clear of 0 so a derived seed can never alias the "derive me"
  // sentinel when fed back through ExpandOptions.
  return h == 0 ? 0x9e3779b97f4a7c15ULL : h;
}

Result<OcularModel> ExpandModel(OcularModel model, uint32_t num_users,
                                uint32_t num_items,
                                const ExpandOptions& options) {
  if (num_users < model.num_users() || num_items < model.num_items()) {
    return Status::InvalidArgument(
        "ExpandModel cannot shrink: retrain from scratch instead");
  }
  if (model.k() == 0) {
    return Status::InvalidArgument("model has no factor dimensions");
  }
  const uint64_t seed =
      options.seed != 0
          ? options.seed
          : DeriveExpandSeed(model.num_users(), model.num_items(), num_users,
                             num_items, model.k());
  Rng rng(seed);
  const double scale =
      options.init_scale / std::sqrt(static_cast<double>(model.k()));
  GrowRows(model.mutable_user_factors(), num_users, scale, &rng);
  GrowRows(model.mutable_item_factors(), num_items, scale, &rng);
  return model;
}

Result<OcularFitResult> UpdateModel(OcularModel model,
                                    const CsrMatrix& interactions,
                                    const OcularConfig& config,
                                    const ExpandOptions& options) {
  OCULAR_RETURN_IF_ERROR(config.Validate());
  if (config.TotalDims() != model.k()) {
    return Status::InvalidArgument(
        "config dimensions do not match the model being updated");
  }
  const uint32_t old_users = model.num_users();
  const uint32_t old_items = model.num_items();
  OCULAR_ASSIGN_OR_RETURN(
      OcularModel grown,
      ExpandModel(std::move(model), interactions.num_rows(),
                  interactions.num_cols(), options));
  // Bias extension: new rows must keep the pinned coordinate at exactly 1.
  if (config.use_biases) {
    DenseMatrix& fu = *grown.mutable_user_factors();
    for (uint32_t u = old_users; u < fu.rows(); ++u) {
      fu.At(u, config.k + 1) = 1.0;
    }
    DenseMatrix& fi = *grown.mutable_item_factors();
    for (uint32_t i = old_items; i < fi.rows(); ++i) {
      fi.At(i, config.k) = 1.0;
    }
  }
  OcularTrainer trainer(config);
  return trainer.FitFrom(interactions, std::move(grown));
}

}  // namespace ocular
