#include "workload.hpp"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <sstream>

#include "circuit/dependency_graph.hpp"
#include "sim/trace_validator.hpp"

namespace perfbench {

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                : (values[mid - 1] + values[mid]) / 2.0;
}

Tail tail_of(std::vector<double> values) {
  Tail tail;
  tail.samples = values.size();
  if (values.empty()) return tail;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  if (n <= 10) {
    tail.value = values.back();
    return tail;
  }
  // Nearest rank r (1-based) leaves n - r samples above it; r = n - 10 is
  // the highest rank with ten beyond.
  const std::size_t rank = n - 10;
  tail.value = values[rank - 1];
  tail.percentile = 100.0 * static_cast<double>(rank) / static_cast<double>(n);
  return tail;
}

double geometric_mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double log_sum = 0.0;
  for (const double value : values) log_sum += std::log(value);
  return std::exp(log_sum / static_cast<double>(values.size()));
}

double peak_rss_mb(long pid) {
  const std::string path =
      pid == 0 ? "/proc/self/status" : "/proc/" + std::to_string(pid) + "/status";
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream fields(line.substr(6));
      double kb = 0.0;
      fields >> kb;
      return kb / 1024.0;
    }
  }
  return 0.0;
}

void add_end_to_end(PhaseResult& phase, const std::vector<double>& typical_ms,
                    std::size_t requests, double wall_s,
                    const std::vector<double>& latency_ratios,
                    const std::vector<double>& setup_s, double rss_mb,
                    qspr::JsonWriter& detail) {
  const Tail tail = tail_of(typical_ms);
  auto& metrics = phase.end_to_end;
  metrics["map_ms_p50"] = median(typical_ms);
  metrics["map_ms_tail"] = tail.value;
  metrics["programs_per_s"] =
      wall_s > 0.0 ? static_cast<double>(requests) / wall_s : 0.0;
  metrics["circuit_latency_ratio"] = geometric_mean(latency_ratios);
  metrics["setup_s"] = median(setup_s);
  metrics["peak_rss_mb"] = rss_mb;

  detail.key("samples").begin_object();
  detail.field("requests", requests);
  detail.field("map_ms", typical_ms.size());
  detail.field("map_ms_tail_percentile", tail.percentile);
  detail.field("latency_ratio", latency_ratios.size());
  detail.field("setup", setup_s.size());
  detail.field("workload_wall_s", wall_s);
  detail.end_object();
}

std::vector<std::string> check_mapping(const MappedProgram& mapped,
                                       const qspr::Fabric& fabric,
                                       Tracer& tracer, int parent,
                                       bool corrupt) {
  std::vector<std::string> violations;
  const qspr::MapResult& result = mapped.result;
  if (result.latency < result.ideal_latency) {
    violations.push_back(mapped.request + ": latency " +
                         std::to_string(result.latency) + " below ideal " +
                         std::to_string(result.ideal_latency));
  }
  qspr::Trace trace = result.trace;
  if (corrupt) {
    // Stretch the first gate by 1 us: a wrong gate delay the validator must
    // catch.
    qspr::Trace broken;
    bool stretched = false;
    for (qspr::MicroOp op : trace.ops()) {
      if (!stretched && op.kind == qspr::MicroOpKind::Gate) {
        op.end += 1;
        stretched = true;
      }
      broken.add(op);
    }
    trace = std::move(broken);
  }
  const qspr::DependencyGraph graph =
      qspr::DependencyGraph::build(mapped.program);
  std::vector<std::string> trace_violations;
  {
    Tracer::Scope span(tracer, "sim.trace_validator.validate", parent,
                       mapped.request);
    trace_violations =
        qspr::validate_trace(trace, graph, fabric,
                             result.initial_placement, mapped.options.tech);
  }
  for (const std::string& violation : trace_violations) {
    violations.push_back(mapped.request + ": " + violation);
  }
  return violations;
}

}  // namespace perfbench
