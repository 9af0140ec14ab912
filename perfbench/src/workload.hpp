// Shared vocabulary of the perfbench workloads: run settings, the result
// of one measured phase, and the statistics every workload reports with.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "circuit/program.hpp"
#include "common/json.hpp"
#include "core/mapper.hpp"
#include "fabric/fabric.hpp"
#include "tracer.hpp"

namespace perfbench {

struct RunSettings {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  /// Self-test size: tiny m and few connections, same code paths.
  bool tiny = false;
  /// Self-test hook: corrupt one mapped trace before the correctness gate.
  bool corrupt_trace = false;
  std::string serve_binary;
  std::string out_dir;
  /// This program's own path, spawned in set-up probe mode for setup_s.
  std::string self_binary;
  /// Digest of the library and benchmark sources (see run.py).
  std::string source_digest = "unknown";
};

/// One distinct mapping the phase produced, kept (outside the timing) for
/// the correctness gate and the traced replays.
struct MappedProgram {
  std::string request;
  std::string qasm;
  qspr::Program program;
  qspr::MapperOptions options;
  qspr::MapResult result;
};

/// Everything one measured phase of a workload yields.
struct PhaseResult {
  /// End-to-end metric values by name (units live with the metric list).
  std::map<std::string, double> end_to_end;
  /// Per-layer figures read from the phase itself (reply fields, engine
  /// counters); replay-derived layers are added by the traced run.
  std::map<std::string, double> layers;
  long long attempted = 0;
  /// Indices (workload-defined) of requests that failed or broke a check.
  std::set<long long> failed;
  std::vector<std::string> failures;
  std::vector<MappedProgram> distinct;
  /// JSON object with the workload's detail rows and sample counts.
  std::string detail;
};

using Clock = std::chrono::steady_clock;

inline double ms_between(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double, std::milli>(to - from).count();
}

double median(std::vector<double> values);

/// The highest nearest-rank percentile that still has at least ten samples
/// above it. With ten or fewer samples no such percentile exists and the
/// maximum is reported (percentile 100).
struct Tail {
  double value = 0.0;
  double percentile = 100.0;
  std::size_t samples = 0;
};
Tail tail_of(std::vector<double> values);

double geometric_mean(const std::vector<double>& values);

/// VmHWM (peak resident set) of `pid` in MB; pid 0 reads this process.
double peak_rss_mb(long pid);

/// Adds map_ms_p50 / map_ms_tail / programs_per_s / circuit_latency_ratio /
/// setup_s / peak_rss_mb to `phase`, and the sample counts and the tail's
/// percentile as a "samples" member of the open `detail` object. The p50
/// and the tail are taken over `typical_ms` (workloads differ in how their
/// requests group); `requests` and `wall_s` give programs_per_s.
void add_end_to_end(PhaseResult& phase, const std::vector<double>& typical_ms,
                    std::size_t requests, double wall_s,
                    const std::vector<double>& latency_ratios,
                    const std::vector<double>& setup_s, double rss_mb,
                    qspr::JsonWriter& detail);

/// Checks a mapped result the way every workload does: the trace must be
/// physically legal and the latency must not beat the ideal bound. Returns
/// the violations (empty = correct). Records a validation span.
std::vector<std::string> check_mapping(const MappedProgram& mapped,
                                       const qspr::Fabric& fabric,
                                       Tracer& tracer, int parent,
                                       bool corrupt);

/// Set-up probe mode (`perfbench --setup-probe <workers>`): builds a
/// MappingEngine with `workers` workers, the paper fabric and its artifact
/// bundle, prints "ready <build ms>" and exits. The paper workloads time it from spawn
/// to that line. Returns the exit code.
int setup_probe_main(int workers);

PhaseResult run_paper(const RunSettings& settings, int workers,
                      Tracer& tracer, bool check);
PhaseResult run_serve(const RunSettings& settings, Tracer& tracer,
                      bool check);

/// Replays each distinct result through the layers the engine only calls
/// internally, under spans, and derives the replay per-layer metrics from
/// the tracer's self times.
void replay_layers(const std::vector<MappedProgram>& distinct, Tracer& tracer,
                   int parent, std::map<std::string, double>& layers);

}  // namespace perfbench
