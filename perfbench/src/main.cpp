// perfbench — end-to-end benchmark of the QSPR mapper.
//
//   perfbench --workload paper_serial --seed 1 --seconds 20 --trace 0
//       --serve-bin <qspr_serve> --out-dir <dir>
//
// Runs one workload and prints, as the last stdout line, one JSON object
// {"correct", "attempted", "failed", "metrics"}: the end-to-end metrics with
// --trace 0, the per-layer metrics with --trace 1. The line before it is a
// detail record (build stamp, sample counts, per-program rows). Exits 1
// when any correctness check fails, 2 on bad arguments.
//
// `perfbench --setup-probe <workers>` is the set-up probe the paper
// workloads spawn to time setup_s (see paper.cpp).
//
// --trace 1 runs the workload twice in one process: untraced, then traced
// with spans kept in memory, followed by the layer replays. The difference
// of the two phases' end-to-end numbers is the tracing overhead; the spans
// are written as Chrome trace-event JSON to <out-dir>.
#include <algorithm>
#include <cctype>
#include <filesystem>
#include <iostream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "build_info.hpp"
#include "common/executor.hpp"
#include "common/json.hpp"
#include "workload.hpp"

namespace {

using perfbench::PhaseResult;
using perfbench::RunSettings;
using perfbench::Tracer;

const std::vector<std::pair<const char*, const char*>> kEndToEnd = {
    {"map_ms_p50", "ms"},   {"map_ms_tail", "ms"},
    {"programs_per_s", "1/s"}, {"circuit_latency_ratio", "ratio"},
    {"setup_s", "s"},       {"peak_rss_mb", "MB"},
};

const std::vector<std::pair<const char*, const char*>> kPerLayer = {
    {"fabric.traps_by_distance_ns", "ns"},
    {"sim.event_sim.run_ms", "ms"},
    {"sim.event_sim.runs_per_cpu_s", "1/s"},
    {"route.router.query_ns", "ns"},
    {"route.router.queries", "count"},
    {"core.mvfb.placement_runs", "count"},
    {"core.mvfb.trial_cpu_ms", "ms"},
    {"core.engine.setup_ms", "ms"},
    {"core.engine.build_ms", "ms"},
    {"core.engine.parallel_efficiency", "ratio"},
    {"core.engine.idle_frac", "ratio"},
    {"route.pathfinder.negotiate_ms", "ms"},
    {"route.pathfinder.searches", "count"},
    {"route.pathfinder.nodes_settled", "count"},
    {"route.pathfinder.iterations", "count"},
    {"route.pathfinder.converged_frac", "ratio"},
    {"core.result_cache.hit_ratio", "ratio"},
    {"core.result_cache.insertions", "count"},
    {"core.result_cache.evictions", "count"},
    {"core.result_cache.bytes", "bytes"},
    {"core.artifact_cache.builds", "count"},
    {"core.artifact_cache.hits", "count"},
    {"service.queue_ms_p50", "ms"},
    {"service.map_ms_p50", "ms"},
    {"service.wire_ms_p50", "ms"},
    {"service.overloaded", "count"},
    {"service.edit_ms_p50", "ms"},
    {"service.resubmit_ms_p50", "ms"},
    {"qasm.parse_us", "us"},
    {"qasm.parse_mb_per_s", "MB/s"},
    {"circuit.qidg_build_us", "us"},
    {"core.scheduler.rank_us", "us"},
    {"sim.trace_validator.validate_ms", "ms"},
    {"trace.overhead_ms", "ms"},
    {"trace.overhead_frac", "ratio"},
};

int usage() {
  std::cerr << "usage: perfbench --workload "
               "<paper_serial|paper_parallel|serve_sessions> --seed <n> "
               "--seconds <s> --trace <0|1> --serve-bin <path> "
               "--out-dir <dir> [--commit <id>] [--source-digest <hex>] "
               "[--tiny] [--corrupt-trace]\n"
               "       perfbench --setup-probe <workers>\n";
  return 2;
}

PhaseResult run_phase(const RunSettings& settings, Tracer& tracer, bool check) {
  if (settings.workload == "paper_serial") {
    return perfbench::run_paper(settings, 1, tracer, check);
  }
  if (settings.workload == "paper_parallel") {
    return perfbench::run_paper(
        settings, qspr::Executor::default_worker_count(), tracer, check);
  }
  return perfbench::run_serve(settings, tracer, check);
}

void write_stamp(qspr::JsonWriter& json, const RunSettings& settings,
                 const std::string& commit) {
  json.key("stamp").begin_object();
  json.field("hardware_concurrency",
             static_cast<long long>(std::thread::hardware_concurrency()));
  json.field("build_type", PERFBENCH_BUILD_TYPE);
  json.field("cxx_flags", PERFBENCH_CXX_FLAGS);
  json.field("compiler", PERFBENCH_COMPILER);
  json.field("git_commit", commit);
  json.field("source_digest", settings.source_digest);
  json.field("workload", settings.workload);
  json.field("seed", static_cast<long long>(settings.seed));
  json.field("run_seconds", settings.seconds);
  json.field("tiny", settings.tiny);
  json.end_object();
}

void write_metrics(qspr::JsonWriter& json, const std::string& key,
                   const std::map<std::string, double>& metrics) {
  json.key(key).begin_object();
  for (const auto& [name, value] : metrics) json.field(name, value);
  json.end_object();
}

}  // namespace

int main(int argc, char** argv) {
  RunSettings settings;
  bool trace = false;
  std::string commit = "unknown";
  settings.self_binary = argv[0];
  if (argc == 3 && std::string(argv[1]) == "--setup-probe") {
    try {
      return perfbench::setup_probe_main(std::stoi(argv[2]));
    } catch (const std::exception&) {
      return usage();
    }
  }
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      const auto next = [&]() -> std::string {
        if (i + 1 >= argc) throw std::invalid_argument("missing value for " + arg);
        return argv[++i];
      };
      if (arg == "--workload") {
        settings.workload = next();
      } else if (arg == "--seed") {
        settings.seed = std::stoull(next());
      } else if (arg == "--seconds") {
        settings.seconds = std::stod(next());
      } else if (arg == "--trace") {
        const std::string value = next();
        if (value != "0" && value != "1") return usage();
        trace = value == "1";
      } else if (arg == "--serve-bin") {
        settings.serve_binary = next();
      } else if (arg == "--out-dir") {
        settings.out_dir = next();
      } else if (arg == "--commit") {
        commit = next();
      } else if (arg == "--source-digest") {
        settings.source_digest = next();
      } else if (arg == "--tiny") {
        settings.tiny = true;
      } else if (arg == "--corrupt-trace") {
        settings.corrupt_trace = true;
      } else {
        return usage();
      }
    }
  } catch (const std::exception&) {
    return usage();
  }
  if (settings.workload != "paper_serial" &&
      settings.workload != "paper_parallel" &&
      settings.workload != "serve_sessions") {
    return usage();
  }
  if (settings.out_dir.empty() || settings.seconds <= 0.0 ||
      (settings.workload == "serve_sessions" && settings.serve_binary.empty())) {
    return usage();
  }
  // The digest names the determinism record file.
  if (settings.source_digest.empty() ||
      !std::all_of(settings.source_digest.begin(), settings.source_digest.end(),
                   [](unsigned char c) { return std::isalnum(c) != 0; })) {
    return usage();
  }

  try {
    std::filesystem::create_directories(settings.out_dir);
    PhaseResult baseline;
    Tracer tracer(trace);
    if (trace) {
      Tracer off(false);
      baseline = run_phase(settings, off, false);
    }
    PhaseResult phase = run_phase(settings, tracer, true);
    std::string trace_path;
    // Recorder cost per span (ns) and the traced minus the untraced phase's
    // map_ms_p50 (ms).
    std::pair<double, double> trace_detail;
    if (trace) {
      // Tracing overhead per request: the recorder's measured cost per
      // span times the spans the traced phase opened per request inside the
      // timed region (its "map" spans). The difference of the two phases'
      // medians is kept as a detail only: each phase runs for the whole
      // --seconds, and the box's speed drifts more between them than the
      // tracing costs.
      const auto map_spans = tracer.layers()["map"].calls;
      const double span_ns = Tracer::span_cost_ns();
      const double untraced = baseline.end_to_end.at("map_ms_p50");
      const double overhead_ms =
          phase.attempted > 0
              ? span_ns * static_cast<double>(map_spans) /
                    static_cast<double>(phase.attempted) / 1e6
              : 0.0;
      phase.layers["trace.overhead_ms"] = overhead_ms;
      phase.layers["trace.overhead_frac"] =
          untraced > 0.0 ? overhead_ms / untraced : 0.0;
      trace_detail = {span_ns, phase.end_to_end.at("map_ms_p50") - untraced};
      {
        Tracer::Scope replays(tracer, "replays");
        perfbench::replay_layers(phase.distinct, tracer, replays.id(),
                                 phase.layers);
      }
      trace_path = (std::filesystem::path(settings.out_dir) /
                    ("trace-" + settings.workload + "-seed" +
                     std::to_string(settings.seed) + ".json"))
                       .string();
      tracer.write_chrome(
          trace_path,
          {{"workload", settings.workload},
           {"seed", std::to_string(settings.seed)},
           {"hardware_concurrency",
            std::to_string(std::thread::hardware_concurrency())},
           {"build_type", PERFBENCH_BUILD_TYPE},
           {"cxx_flags", PERFBENCH_CXX_FLAGS},
           {"compiler", PERFBENCH_COMPILER},
           {"git_commit", commit},
           {"source_digest", settings.source_digest}});
    }

    const long long failed = static_cast<long long>(phase.failed.size());
    const bool correct = phase.failures.empty() && failed == 0;
    for (const std::string& failure : phase.failures) {
      std::cerr << "perfbench: check failed: " << failure << "\n";
    }

    qspr::JsonWriter detail;
    detail.begin_object();
    detail.field("perfbench", "detail");
    write_stamp(detail, settings, commit);
    detail.field("failed_frac", phase.attempted > 0
                                    ? static_cast<double>(failed) /
                                          static_cast<double>(phase.attempted)
                                    : 0.0);
    write_metrics(detail, "end_to_end", phase.end_to_end);
    if (trace) {
      write_metrics(detail, "end_to_end_untraced", baseline.end_to_end);
      detail.field("trace_file", trace_path);
      detail.field("replayed_results", phase.layers["replay.results"]);
      detail.field("spans", static_cast<long long>(tracer.span_count()));
      detail.field("span_cost_ns", trace_detail.first);
      detail.field("phase_diff_map_ms_p50", trace_detail.second);
    }
    detail.key("workload_detail");
    detail.end_object();
    // JsonWriter has no raw-value call: splice the workload's own object in
    // as the value of the last key.
    const std::string head = detail.str();
    std::cout << head.substr(0, head.size() - 1) << phase.detail << "}\n";

    qspr::JsonWriter result;
    result.begin_object();
    result.field("correct", correct);
    result.field("attempted", phase.attempted);
    result.field("failed", failed);
    result.key("metrics").begin_object();
    for (const auto& [name, unit] : trace ? kPerLayer : kEndToEnd) {
      double value = 0.0;
      if (trace) {
        const auto it = phase.layers.find(name);
        if (it != phase.layers.end()) value = it->second;
      } else {
        value = phase.end_to_end.at(name);
      }
      result.key(name).begin_object();
      result.field("value", value);
      result.field("unit", unit);
      result.end_object();
    }
    result.end_object();
    result.end_object();
    std::cout << result.str() << std::endl;
    return correct ? 0 : 1;
  } catch (const std::exception& e) {
    std::cerr << "perfbench: error: " << e.what() << "\n";
    return 1;
  }
}
