// Measurement primitives of the benchmark: the clock, input fingerprints,
// percentile reporting and seeded arrival schedules.

#ifndef OCULAR_BENCHMARK_MEASURE_H_
#define OCULAR_BENCHMARK_MEASURE_H_

#include <cstdint>
#include <span>
#include <string_view>
#include <vector>

namespace ocular::bench {

/// CLOCK_MONOTONIC in nanoseconds (the clock every stamp of a run uses).
int64_t NowNs();

inline constexpr uint64_t kFnvOffset = 0xcbf29ce484222325ULL;

/// FNV-1a over `bytes`, continuing from `h`.
uint64_t Fnv1a(std::string_view bytes, uint64_t h = kFnvOffset);

/// FNV-1a over the object representation of a span of integers.
template <typename T>
uint64_t Fnv1aOf(std::span<const T> values, uint64_t h = kFnvOffset) {
  return Fnv1a(std::string_view(reinterpret_cast<const char*>(values.data()),
                                values.size_bytes()),
               h);
}

/// Derives an independent 64-bit seed for stream `tag` of run seed `seed`
/// (splitmix64 finalizer), so each generated input has its own stream.
uint64_t DeriveSeed(uint64_t seed, uint64_t tag);

/// Nearest-rank percentile of ascending `sorted`: sorted[ceil(p n) - 1].
/// Returns 0 for an empty span.
double NearestRank(std::span<const double> sorted, double p);

/// Median of `samples` (nearest rank, p = 0.5); 0 when empty.
double Median(std::vector<double> samples);

/// Mean of `samples` without their smallest and their largest value (the
/// plain mean of fewer than three); 0 when empty.
double TrimmedMean(std::vector<double> samples);

/// A percentile as reported: which one, its value, and the sample count.
struct TailPercentile {
  double percentile = 0.0;  ///< e.g. 0.99
  double value = 0.0;
  size_t n = 0;
};

/// The highest of p99.9, p99, p90 and p50 that leaves at least ten samples
/// beyond it (n - ceil(p n) >= 10), with its value. Fewer than 20 samples
/// support no percentile: the result then has percentile 0 and the maximum
/// as its value.
TailPercentile HighestSupportedPercentile(std::vector<double> samples);

/// Seeded Poisson arrival offsets in nanoseconds from the phase start:
/// exponential gaps of mean 1/rate, every arrival strictly before
/// `seconds`. The same (seed, rate, seconds) always yields the same
/// schedule.
std::vector<int64_t> PoissonSchedule(uint64_t seed, double rate_per_s,
                                     double seconds);

}  // namespace ocular::bench

#endif  // OCULAR_BENCHMARK_MEASURE_H_
