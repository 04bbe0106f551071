#ifndef OCULAR_OCULAR_OCULAR_H_
#define OCULAR_OCULAR_OCULAR_H_

/// Umbrella header: pulls in the whole public API of the OCuLaR library.
/// Fine-grained headers remain available for users who care about compile
/// times; this is the "just give me everything" entry point used by the
/// examples in README.md.

// Substrate.
#include "common/flags.h"        // IWYU pragma: export
#include "common/json.h"         // IWYU pragma: export
#include "common/logging.h"      // IWYU pragma: export
#include "common/result.h"       // IWYU pragma: export
#include "common/rng.h"          // IWYU pragma: export
#include "common/status.h"       // IWYU pragma: export
#include "common/strings.h"      // IWYU pragma: export
#include "common/thread_pool.h"  // IWYU pragma: export
#include "common/timer.h"        // IWYU pragma: export

// Sparse linear algebra.
#include "sparse/coo.h"     // IWYU pragma: export
#include "sparse/csr.h"     // IWYU pragma: export
#include "sparse/dense.h"   // IWYU pragma: export
#include "sparse/linalg.h"  // IWYU pragma: export

// Data.
#include "data/dataset.h"    // IWYU pragma: export
#include "data/loaders.h"    // IWYU pragma: export
#include "data/split.h"      // IWYU pragma: export
#include "data/stats.h"      // IWYU pragma: export
#include "data/synthetic.h"  // IWYU pragma: export

// Evaluation.
#include "eval/cross_validation.h"  // IWYU pragma: export
#include "eval/grid_search.h"       // IWYU pragma: export
#include "eval/metrics.h"           // IWYU pragma: export
#include "eval/recommender.h"       // IWYU pragma: export

// Core algorithm.
#include "core/coclusters.h"          // IWYU pragma: export
#include "core/early_stopping.h"      // IWYU pragma: export
#include "core/explain.h"             // IWYU pragma: export
#include "core/fold_in.h"             // IWYU pragma: export
#include "core/incremental.h"         // IWYU pragma: export
#include "core/model_io.h"            // IWYU pragma: export
#include "core/ocular_model.h"        // IWYU pragma: export
#include "core/ocular_recommender.h"  // IWYU pragma: export
#include "core/ocular_trainer.h"      // IWYU pragma: export

// Baselines.
#include "baselines/bpr.h"      // IWYU pragma: export
#include "baselines/coclust.h"  // IWYU pragma: export
#include "baselines/ials.h"     // IWYU pragma: export
#include "baselines/knn.h"   // IWYU pragma: export
#include "baselines/wals.h"  // IWYU pragma: export

// Graph / community detection.
#include "graph/bigclam.h"  // IWYU pragma: export
#include "graph/graph.h"    // IWYU pragma: export
#include "graph/louvain.h"  // IWYU pragma: export

// Parallel substrates.
#include "parallel/gradient_kernel.h"  // IWYU pragma: export

// Serving.
#include "serving/batch.h"         // IWYU pragma: export
#include "serving/render.h"        // IWYU pragma: export
#include "serving/score_engine.h"  // IWYU pragma: export

#endif  // OCULAR_OCULAR_OCULAR_H_
