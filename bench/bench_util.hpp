// Shared helpers for the experiment-reproduction benches: console formatting
// and steady-clock micro-timing. The JSON writer the benches use for the
// machine-readable perf trajectory (BENCH_*.json) lives in common/json.hpp,
// shared with the batch mapping service's JSONL output.
#pragma once

#include <algorithm>
#include <chrono>
#include <iostream>
#include <string>
#include <vector>

#include "common/json.hpp"
#include "core/qspr.hpp"

namespace qspr_bench {

using JsonWriter = ::qspr::JsonWriter;

inline void print_header(const std::string& title) {
  std::cout << "\n=== " << title << " ===\n\n";
}

/// "x.x%" improvement of `better` over `worse`.
inline std::string improvement(qspr::Duration worse, qspr::Duration better) {
  if (worse == 0) return "n/a";
  return qspr::format_fixed(
             100.0 * static_cast<double>(worse - better) /
                 static_cast<double>(worse),
             2) +
         "%";
}

/// Wall-clock nanoseconds per repetition of `fn` over `reps` runs (reps>=1).
template <typename Fn>
double time_ns_per_rep(int reps, Fn&& fn) {
  const auto start = std::chrono::steady_clock::now();
  for (int i = 0; i < reps; ++i) fn();
  const auto elapsed = std::chrono::steady_clock::now() - start;
  return std::chrono::duration<double, std::nano>(elapsed).count() /
         static_cast<double>(reps);
}

/// Median of `blocks` timings of time_ns_per_rep(reps, fn): one block
/// slowed by a descheduled runner or a noisy neighbour cannot move it.
template <typename Fn>
double median_ns_per_rep(int blocks, int reps, Fn&& fn) {
  std::vector<double> samples;
  for (int block = 0; block < blocks; ++block) {
    samples.push_back(time_ns_per_rep(reps, fn));
  }
  std::sort(samples.begin(), samples.end());
  return samples[samples.size() / 2];
}

}  // namespace qspr_bench
