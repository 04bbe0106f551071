// Per-layer timings of the traced run. Each probe calls a public function
// of one layer of the product, in-process, on the same inputs the end-to-
// end phases send, with spans recorded from the benchmark's side of the
// call.

#ifndef OCULAR_BENCHMARK_LAYERS_H_
#define OCULAR_BENCHMARK_LAYERS_H_

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/result.h"
#include "core/ocular_trainer.h"
#include "sparse/csr.h"
#include "trace.h"

namespace ocular::bench {

/// Means per request over the replayed lines of one kind, in microseconds,
/// leaving out the 1% of lines a host stall hit hardest. The layers of a
/// kind add up to its HandleLine time.
struct LineKindStats {
  size_t lines = 0;    ///< lines the means cover
  size_t dropped = 0;  ///< timed lines left out as stalled
  double parse_us = 0.0;   ///< JsonValue::Parse
  double get_us = 0.0;     ///< ModelRegistry::Get
  /// ServeTopM on stored-user lines (kernel and selection fused);
  /// FoldInUserInto and the ranking on history lines (the two halves of
  /// RecommendForHistoryInto).
  double work_us = 0.0;
  double render_us = 0.0;  ///< JsonWriter + WriteRankedItems
  double handle_us = 0.0;  ///< RequestServer::HandleLine
};

/// Means per request over the replayed lines, in microseconds unless
/// named otherwise.
struct ReplayStats {
  LineKindStats user;     ///< stored-user `recommend` lines
  LineKindStats history;  ///< `history` fold-in lines
  double kernel_us = 0.0;  ///< Recommender::RawScoreBlock over every tile
  double kernel_bytes = 0.0;  ///< active user dims x items x 8, computed
  double select_us = 0.0;  ///< TopMSelector: Begin, per-tile ScanRun, FinishRaw
  double foldin_solve_us = 0.0;  ///< FoldInUserInto
  double foldin_rank_us = 0.0;   ///< RecommendForHistoryInto after the solve
  double handle_p50_us = 0.0;    ///< HandleLine median over every line
  /// First line whose reply, built layer by layer, differed from
  /// HandleLine's ("" when all agreed).
  std::string mismatch;
};

/// Replays `lines` (stored-user and history requests, newline-free) on
/// one thread against the model at `model_path` with exclusions `train`:
/// each line is parsed, resolved, scored, selected and rendered layer by
/// layer, then served by ServeTopM and by RequestServer::HandleLine.
/// The first `warmup` lines are run untimed.
Result<ReplayStats> ReplayLayers(const std::string& model_path,
                                 std::shared_ptr<const CsrMatrix> train,
                                 const std::vector<std::string>& lines,
                                 size_t warmup, uint32_t m,
                                 TraceBuffer* trace);

/// Medians over the timed repetitions of the update pipeline, in ms.
struct UpdateStepStats {
  double journal_append_ms = 0.0;  ///< AppendUpdate + AppendCommit
  double retrain_ms = 0.0;         ///< UpdateModel warm start, 1 sweep
  double save_ms = 0.0;    ///< SaveModelBinary + FsyncFile + DurableRename
  double open_ms = 0.0;    ///< ModelStore::Open
  double registry_load_ms = 0.0;  ///< ModelRegistry::Load
  double handle_ms = 0.0;  ///< HandleLine on an `update` line
};

/// Runs each update step by step on a private copy of the model in
/// `work_dir`, then whole through RequestServer::HandleLine on another
/// copy. Uses the first few entries of `adds`/`lines`.
Result<UpdateStepStats> TimeUpdateSteps(
    const std::string& model_path, const CsrMatrix& train,
    const std::vector<std::vector<std::pair<uint32_t, uint32_t>>>& adds,
    const std::vector<std::string>& lines, const std::string& work_dir);

/// Median wall time of sweeps 2..`sweeps` of a fit's trace (the first
/// sweep also pays the fit's set-up), in seconds.
double MedianSweepSeconds(const std::vector<SweepStats>& trace,
                          uint32_t sweeps);

/// Serial-vs-parallel training on the same protocol.
struct TrainLayerStats {
  double serial_sweep_s = 0.0;    ///< OcularTrainer, MedianSweepSeconds
  double parallel_sweep_s = 0.0;  ///< the parallel fit, same sweeps
  double imbalance = 0.0;  ///< max/mean nnz of 2 BalancedRowRanges, R and Rᵀ
};

/// Times `sweeps` serial sweeps and compares them with the same sweeps of
/// `parallel_fit` (a ParallelOcularTrainer run of the same config).
Result<TrainLayerStats> CompareSerialTraining(
    const CsrMatrix& train, const OcularConfig& config, uint32_t sweeps,
    const OcularFitResult& parallel_fit);

/// Best single-thread streaming-read bandwidth over a buffer of `bytes`,
/// in GB/s, from `passes` full passes.
double StreamReadGbps(size_t bytes, int passes);

}  // namespace ocular::bench

#endif  // OCULAR_BENCHMARK_LAYERS_H_
