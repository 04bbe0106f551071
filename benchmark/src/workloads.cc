#include "workloads.h"

#include <array>

#include "common/rng.h"
#include "data/synthetic.h"
#include "measure.h"

namespace ocular::bench {

namespace {

// `rate` comes from the calibration recorded in README.md: about a tenth
// of the closed-loop rps measured when the benchmark was added, where
// latency stays steady from run to run.
constexpr std::array<WorkloadSpec, 4> kWorkloads = {{
    // CiteULike shape: the widest catalog; the kernel and top-M
    // selection dominate each request.
    {"serve-cul", Corpus::kCiteULike, 1.0, 50, 40, 4, 8, 50, 0.0, false,
     false, 3500},
    // B2B deployment: stored-user and fold-in reads beside live updates.
    {"live-b2b", Corpus::kB2B, 0.1, 24, 60, 3, 8, 20, 0.25, true, false,
     10000},
    // The same B2B model read through the fleet front tier.
    {"fleet-b2b", Corpus::kB2B, 0.1, 24, 60, 2, 8, 10, 0.0, false, true,
     4500},
    // MovieLens-1M shape: the paper's training-time dataset.
    {"train-ml", Corpus::kMovieLens, 1.0, 50, 20, 4, 8, 50, 0.0, false,
     false, 5500},
}};

uint64_t HashCsr(const CsrMatrix& m, uint64_t h = kFnvOffset) {
  h = Fnv1aOf(std::span<const uint64_t>(m.row_ptr()), h);
  return Fnv1aOf(std::span<const uint32_t>(m.col_idx()), h);
}

Result<CsrMatrix> Generate(const WorkloadSpec& spec, Rng* rng) {
  Result<PlantedCoClusterData> data = Status::Internal("unknown corpus");
  switch (spec.corpus) {
    case Corpus::kCiteULike:
      data = MakeCiteULikeLike(spec.scale, rng);
      break;
    case Corpus::kB2B:
      data = MakeB2BLike(spec.scale, rng);
      break;
    case Corpus::kMovieLens:
      data = MakeMovieLensLike(spec.scale, rng);
      break;
  }
  if (!data.ok()) return data.status();
  return data->dataset.interactions();
}

}  // namespace

std::span<const WorkloadSpec> AllWorkloads() { return kWorkloads; }

const WorkloadSpec* FindWorkload(std::string_view name) {
  for (const WorkloadSpec& spec : kWorkloads) {
    if (spec.name == name) return &spec;
  }
  return nullptr;
}

uint64_t PhaseSeed(uint64_t seed, uint32_t index) {
  return DeriveSeed(seed, kPhaseTagBase + index);
}

std::string UserRequestLine(uint32_t user, uint32_t m) {
  return "{\"user\":" + std::to_string(user) + ",\"m\":" + std::to_string(m) +
         "}\n";
}

std::string HistoryRequestLine(std::span<const uint32_t> history, uint32_t m) {
  std::string line = "{\"cmd\":\"recommend\",\"history\":[";
  for (size_t i = 0; i < history.size(); ++i) {
    if (i > 0) line += ',';
    line += std::to_string(history[i]);
  }
  return line + "],\"m\":" + std::to_string(m) + "}\n";
}

std::string UpdateLine(std::span<const std::pair<uint32_t, uint32_t>> adds) {
  std::string line = "{\"cmd\":\"update\",\"adds\":[";
  for (size_t i = 0; i < adds.size(); ++i) {
    if (i > 0) line += ',';
    line += "[" + std::to_string(adds[i].first) + "," +
            std::to_string(adds[i].second) + "]";
  }
  return line + "],\"sweeps\":1}\n";
}

Result<Inputs> MakeInputs(const WorkloadSpec& spec, uint64_t seed) {
  Inputs in;
  // The catalog, its split and so the trained model are the same on every
  // run; the seed varies the traffic.
  Rng data_rng(DeriveSeed(kCatalogSeed, kDatasetTag));
  OCULAR_ASSIGN_OR_RETURN(in.interactions, Generate(spec, &data_rng));
  Rng split_rng(DeriveSeed(kCatalogSeed, kSplitTag));
  OCULAR_ASSIGN_OR_RETURN(
      in.split, SplitInteractions(in.interactions, kTrainFraction, &split_rng));
  const CsrMatrix& train = in.split.train;
  const uint32_t users = train.num_rows();
  const uint32_t items = train.num_cols();

  Rng history_rng(DeriveSeed(seed, kHistoryTag));
  uint64_t history_hash = kFnvOffset;
  for (uint32_t h = 0; h < kHistoryPool; ++h) {
    std::span<const uint32_t> row;
    for (int attempt = 0; attempt < 10000 && row.size() < kHistoryLength;
         ++attempt) {
      row = train.Row(static_cast<uint32_t>(history_rng.UniformInt(users)));
    }
    if (row.size() < kHistoryLength) {
      return Status::FailedPrecondition("no training row long enough for a "
                                        "history");
    }
    std::vector<uint32_t> history(kHistoryLength);
    for (uint32_t& id : history) {
      id = row[history_rng.UniformInt(row.size())];
    }
    history_hash = Fnv1aOf(std::span<const uint32_t>(history), history_hash);
    in.histories.push_back(std::move(history));
  }

  Rng read_rng(DeriveSeed(seed, kReadTag));
  uint64_t read_hash = kFnvOffset;
  in.reads.reserve(kReadStreamLength);
  for (size_t r = 0; r < kReadStreamLength; ++r) {
    Request req;
    if (read_rng.Uniform() < spec.history_share) {
      const auto h = static_cast<uint32_t>(read_rng.UniformInt(kHistoryPool));
      req.line = HistoryRequestLine(in.histories[h], spec.m);
      req.key = users + h;
      req.history = true;
    } else {
      const uint32_t u = static_cast<uint32_t>(read_rng.UniformInt(users));
      req.line = UserRequestLine(u, spec.m);
      req.key = u;
    }
    read_hash = Fnv1a(req.line, read_hash);
    in.reads.push_back(std::move(req));
  }

  // Every workload gets an update stream: the writer sends it, and the
  // traced run times the update pipeline on it in-process.
  Rng update_rng(DeriveSeed(seed, kUpdateTag));
  uint64_t update_hash = kFnvOffset;
  for (uint32_t n = 0; n < kUpdateCount; ++n) {
    std::vector<std::pair<uint32_t, uint32_t>> adds;
    while (adds.size() < kAddsPerUpdate) {
      const auto u = static_cast<uint32_t>(update_rng.UniformInt(users));
      const auto i = static_cast<uint32_t>(update_rng.UniformInt(items));
      if (!train.HasEntry(u, i)) adds.emplace_back(u, i);
    }
    in.updates.push_back(UpdateLine(adds));
    update_hash = Fnv1a(in.updates.back(), update_hash);
    in.update_adds.push_back(std::move(adds));
  }

  // The first second of the first open-loop window's arrivals.
  const std::vector<int64_t> schedule =
      PoissonSchedule(PhaseSeed(seed, 1), spec.rate, 1.0);
  in.fingerprints = {
      {"dataset", HashCsr(in.interactions), false},
      {"split", HashCsr(in.split.test, HashCsr(train)), false},
      {"histories", history_hash, true},
      {"reads", read_hash, true},
      {"updates", update_hash, true},
      {"schedule", Fnv1aOf(std::span<const int64_t>(schedule)), true},
  };
  return in;
}

}  // namespace ocular::bench
