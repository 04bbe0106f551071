#include "measure.h"

#include <time.h>

#include <algorithm>
#include <cmath>

#include "common/rng.h"

namespace ocular::bench {

int64_t NowNs() {
  struct timespec ts;
  ::clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<int64_t>(ts.tv_sec) * 1000000000LL + ts.tv_nsec;
}

uint64_t Fnv1a(std::string_view bytes, uint64_t h) {
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

uint64_t DeriveSeed(uint64_t seed, uint64_t tag) {
  uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (tag + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

double NearestRank(std::span<const double> sorted, double p) {
  if (sorted.empty()) return 0.0;
  const double rank = std::ceil(p * static_cast<double>(sorted.size()));
  const size_t idx = rank < 1.0 ? 0 : static_cast<size_t>(rank) - 1;
  return sorted[std::min(idx, sorted.size() - 1)];
}

double Median(std::vector<double> samples) {
  std::sort(samples.begin(), samples.end());
  return NearestRank(samples, 0.5);
}

double TrimmedMean(std::vector<double> samples) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const size_t trim = samples.size() >= 3 ? 1 : 0;
  double sum = 0.0;
  for (size_t i = trim; i < samples.size() - trim; ++i) sum += samples[i];
  return sum / static_cast<double>(samples.size() - 2 * trim);
}

TailPercentile HighestSupportedPercentile(std::vector<double> samples) {
  std::sort(samples.begin(), samples.end());
  TailPercentile out;
  out.n = samples.size();
  for (const double p : {0.999, 0.99, 0.9, 0.5}) {
    const double rank = std::ceil(p * static_cast<double>(out.n));
    if (static_cast<double>(out.n) - rank >= 10.0) {
      out.percentile = p;
      out.value = NearestRank(samples, p);
      return out;
    }
  }
  out.value = samples.empty() ? 0.0 : samples.back();
  return out;
}

std::vector<int64_t> PoissonSchedule(uint64_t seed, double rate_per_s,
                                     double seconds) {
  std::vector<int64_t> offsets;
  if (rate_per_s <= 0.0 || seconds <= 0.0) return offsets;
  offsets.reserve(static_cast<size_t>(rate_per_s * seconds * 1.1) + 16);
  Rng rng(seed);
  double t = 0.0;
  while (true) {
    t += rng.Exponential(rate_per_s);
    if (t >= seconds) break;
    offsets.push_back(static_cast<int64_t>(t * 1e9));
  }
  return offsets;
}

}  // namespace ocular::bench
