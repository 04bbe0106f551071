// The benchmark's workloads and the seeded inputs each one runs: the
// dataset, its train/test split, the read and update request streams, and
// the fingerprints that guard them against drift.

#ifndef OCULAR_BENCHMARK_WORKLOADS_H_
#define OCULAR_BENCHMARK_WORKLOADS_H_

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/result.h"
#include "data/split.h"
#include "loadgen.h"
#include "sparse/csr.h"

namespace ocular::bench {

enum class Corpus { kCiteULike, kB2B, kMovieLens };

/// One workload. Every size is a fixed constant, so numbers compare across
/// commits on the same machine.
struct WorkloadSpec {
  std::string_view name;
  Corpus corpus;
  double scale;
  uint32_t k;
  /// Training sweeps (tolerance 0, so all of them run).
  uint32_t sweeps;
  /// Read connections; the writer, when on, adds one more.
  uint32_t read_connections;
  /// Outstanding requests per connection in the closed loop.
  uint32_t closed_depth;
  /// Items per recommend request.
  uint32_t m;
  /// Share of reads that recommend by `history` (fold-in).
  double history_share;
  /// An `update` on an extra connection at the start of every open-loop
  /// window, with the update journal on.
  bool writer;
  /// Serve through `ocular_fleet --spawn=2` instead of one daemon.
  bool fleet;
  /// Open-loop rate, requests/s: light load, where latency is steady.
  double rate;
};

inline constexpr double kTrainFraction = 0.75;
inline constexpr double kLambda = 1.0;
inline constexpr uint32_t kRecallAtM = 50;
inline constexpr size_t kReadStreamLength = 1 << 17;
inline constexpr uint32_t kHistoryPool = 1024;
inline constexpr uint32_t kHistoryLength = 8;
inline constexpr uint32_t kUpdateCount = 64;
inline constexpr uint32_t kAddsPerUpdate = 20;
inline constexpr uint64_t kDefaultSeed = 1;
/// Seed of every workload's catalog, train/test split and training
/// initialization, whatever the run seed: the work a fit does (and the
/// recall it reaches) varies by tens of percent between catalogs, splits
/// and initializations, which would swamp the run-to-run spread of
/// sweep_s and recall_at_50. The run seed varies the traffic.
inline constexpr uint64_t kCatalogSeed = 1;

/// Seed tags of the generated streams (see DeriveSeed).
enum SeedTag : uint64_t {
  kDatasetTag = 1,
  kSplitTag,
  kHistoryTag,
  kReadTag,
  kUpdateTag,
  kTrainTag,
  kSampleTag,
  kPhaseTagBase = 100,
};

std::span<const WorkloadSpec> AllWorkloads();
const WorkloadSpec* FindWorkload(std::string_view name);

/// A named FNV-1a fingerprint of one generated input.
struct Fingerprint {
  std::string name;
  uint64_t value = 0;
  /// Generated from the run seed (the traffic), so only comparable with
  /// the record on the default seed; otherwise from kCatalogSeed.
  bool per_seed = false;
};

/// Everything a run feeds the system, generated from the workload and
/// the run seed alone.
struct Inputs {
  CsrMatrix interactions;
  TrainTestSplit split;
  /// Seeded fold-in histories: ids of one user's training row, unsorted,
  /// possibly repeated (the daemon sanitizes them).
  std::vector<std::vector<uint32_t>> histories;
  std::vector<Request> reads;
  std::vector<std::vector<std::pair<uint32_t, uint32_t>>> update_adds;
  std::vector<std::string> updates;
  std::vector<Fingerprint> fingerprints;
};

Result<Inputs> MakeInputs(const WorkloadSpec& spec, uint64_t seed);

/// Wire lines of the three request kinds (newline-terminated).
std::string UserRequestLine(uint32_t user, uint32_t m);
std::string HistoryRequestLine(std::span<const uint32_t> history, uint32_t m);
std::string UpdateLine(std::span<const std::pair<uint32_t, uint32_t>> adds);

/// The schedule seed of phase `index` of a run.
uint64_t PhaseSeed(uint64_t seed, uint32_t index);

}  // namespace ocular::bench

#endif  // OCULAR_BENCHMARK_WORKLOADS_H_
