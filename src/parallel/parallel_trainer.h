#ifndef OCULAR_PARALLEL_PARALLEL_TRAINER_H_
#define OCULAR_PARALLEL_PARALLEL_TRAINER_H_

#include <cstddef>
#include <utility>

#include "core/ocular_trainer.h"

namespace ocular {

/// The former name of a multi-thread OcularTrainer, kept only for the
/// end-to-end benchmark's sources (benchmark/src/main.cc), which are
/// frozen. New code constructs OcularTrainer(config, num_threads).
class ParallelOcularTrainer : public OcularTrainer {
 public:
  /// A trainer that runs each half-sweep on `num_threads` threads.
  ParallelOcularTrainer(OcularConfig config, size_t num_threads)
      : OcularTrainer(std::move(config), num_threads) {}
};

}  // namespace ocular

#endif  // OCULAR_PARALLEL_PARALLEL_TRAINER_H_
