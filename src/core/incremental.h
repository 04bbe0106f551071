#ifndef OCULAR_CORE_INCREMENTAL_H_
#define OCULAR_CORE_INCREMENTAL_H_

#include <cstdint>

#include "common/result.h"
#include "core/ocular_trainer.h"

namespace ocular {

/// \file
/// \brief Incremental model maintenance for a live deployment (Section
/// VIII).
///
/// New clients sign up, new products launch, and new purchases arrive
/// daily — retraining from scratch wastes the previous solution. This
/// module grows a fitted model to a larger catalog and warm-starts the
/// trainer from it, which converges in a fraction of the cold-start
/// sweeps (verified in tests and the deployment example).
///
/// The serving daemon's `update` does not retrain: it folds the touched
/// rows in against fixed factors (FoldInUpdate, core/fold_in.h). This
/// warm start is the offline counterpart, and the quality baseline the
/// fold-in is held to.
///
/// ExpandModel and UpdateModel take the model by value. A caller that
/// moves its model in lends its factor storage: a shape that does not
/// grow is trained in place, so an update holds one factor copy. An
/// lvalue argument is copied once and left untouched. Both paths return
/// bit-identical results.

/// \brief Options for growing a model to a new shape.
struct ExpandOptions {
  /// New rows are initialized iid Uniform(0, init_scale / sqrt(K)) — the
  /// same distribution the cold trainer uses.
  double init_scale = 1.0;
  /// Seed of the new-row initialization stream. 0 (the default) derives
  /// the seed from the old and new model shapes, so successive expansions
  /// of a growing catalog draw from decorrelated streams (a constant seed
  /// would hand every daily update batch the identical "random" rows)
  /// while each individual call stays deterministic. Nonzero pins the
  /// stream explicitly for reproducibility.
  uint64_t seed = 0;
};

/// \brief The shape-derived stream seed ExpandModel uses when
/// ExpandOptions::seed is 0 — exposed so tests (and operators replaying an
/// update) can reproduce it. Never returns 0.
uint64_t DeriveExpandSeed(uint32_t old_users, uint32_t old_items,
                          uint32_t num_users, uint32_t num_items, uint32_t k);

/// \brief Returns `model` grown to (num_users, num_items).
///
/// Existing factors are preserved and new rows initialized randomly: new
/// user rows first, then new item rows, from one stream. A side that does
/// not grow is returned as it came in, without a copy; a side that grows
/// is reallocated once and its old storage freed before the other side
/// grows. Shrinking is InvalidArgument (retrain instead — factor rows
/// cannot be meaningfully dropped), and so is a model with no factor
/// dimensions.
Result<OcularModel> ExpandModel(OcularModel model, uint32_t num_users,
                                uint32_t num_items,
                                const ExpandOptions& options = {});

/// \brief Warm-start update: grows `model` to the shape of `interactions`
/// and runs the trainer from it.
///
/// `interactions` may contain new users/items appended after the old id
/// range. With config.use_biases, new rows get the pinned bias coordinate
/// set to exactly 1. `config.max_sweeps` bounds the refresh cost; a
/// handful of sweeps typically suffices because the old factors are
/// already near-stationary. The fitted model in the result is `model`'s
/// storage, trained in place, whenever the shape does not grow.
/// InvalidArgument when config.TotalDims() differs from model.k(), plus
/// every error of ExpandModel and OcularTrainer::FitFrom.
Result<OcularFitResult> UpdateModel(OcularModel model,
                                    const CsrMatrix& interactions,
                                    const OcularConfig& config,
                                    const ExpandOptions& options = {});

}  // namespace ocular

#endif  // OCULAR_CORE_INCREMENTAL_H_
