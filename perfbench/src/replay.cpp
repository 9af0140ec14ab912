// Traced-run replays of the layers the engine only calls internally. Each
// distinct mapped result is pushed again through the layer's public
// function, under a span, outside every end-to-end timing:
//   qasm.parse                 parse_qasm on the request text
//   circuit.qidg_build         DependencyGraph::build
//   core.scheduler.rank        make_schedule_rank
//   fabric.traps_by_distance   at every gate anchor of the winning trace
//   sim.event_sim.run          execute_circuit from the winning placement
//   route.router.query         route_trap_to_trap over the relocations
//   route.pathfinder.negotiate route_nets_negotiated over the relocation batch
#include <map>

#include "circuit/dependency_graph.hpp"
#include "core/artifact_cache.hpp"
#include "core/scheduler.hpp"
#include "fabric/quale_fabric.hpp"
#include "qasm/parser.hpp"
#include "route/pathfinder.hpp"
#include "route/router.hpp"
#include "sim/event_sim.hpp"
#include "workload.hpp"

namespace perfbench {

namespace {

/// At most this many distinct results are replayed (the serve workload can
/// produce hundreds; the paper workloads produce six).
constexpr std::size_t kMaxReplays = 64;

/// Trap-to-trap relocations of a control trace: per (instruction, qubit) the
/// trap its first move left and the trap its last move reached — the net
/// list the engine's negotiation diagnostic routes.
std::vector<qspr::NetRequest> relocation_nets(const qspr::Trace& trace,
                                              const qspr::Fabric& fabric) {
  std::map<std::pair<std::int32_t, std::int32_t>,
           std::pair<qspr::Position, qspr::Position>>
      spans;
  std::vector<std::pair<std::int32_t, std::int32_t>> order;
  for (const qspr::MicroOp& op : trace.ops()) {
    if (op.kind != qspr::MicroOpKind::Move) continue;
    const auto key = std::make_pair(op.instruction.value(), op.qubit.value());
    const auto [it, inserted] = spans.try_emplace(key, op.from, op.to);
    if (inserted) {
      order.push_back(key);
    } else {
      it->second.second = op.to;
    }
  }
  std::vector<qspr::NetRequest> nets;
  for (const auto& key : order) {
    const auto& [from_cell, to_cell] = spans.at(key);
    const qspr::TrapId from = fabric.trap_at(from_cell);
    const qspr::TrapId to = fabric.trap_at(to_cell);
    if (from.is_valid() && to.is_valid() && from != to) {
      nets.push_back({from, to});
    }
  }
  return nets;
}

double per_call(const Tracer::Layer& layer, double unit_ns) {
  return layer.calls > 0 ? layer.self_ns / unit_ns / layer.calls : 0.0;
}

}  // namespace

void replay_layers(const std::vector<MappedProgram>& distinct, Tracer& tracer,
                   int parent, std::map<std::string, double>& layers) {
  const qspr::FabricArtifacts artifacts(qspr::make_paper_fabric());
  const qspr::Fabric& fabric = artifacts.fabric;
  long long parsed_bytes = 0;
  long long searches = 0;
  long long nodes_settled = 0;
  long long iterations = 0;
  long long converged = 0;

  const std::size_t count = std::min(distinct.size(), kMaxReplays);
  for (std::size_t i = 0; i < count; ++i) {
    const MappedProgram& mapped = distinct[i];
    const qspr::MapperOptions& options = mapped.options;
    const qspr::TechnologyParams& tech = options.tech;
    const qspr::Trace& trace = mapped.result.trace;
    Tracer::Scope replay(tracer, "replay", parent, mapped.request);

    {
      Tracer::Scope span(tracer, "qasm.parse", replay.id(), mapped.request);
      (void)qspr::parse_qasm(mapped.qasm);
    }
    parsed_bytes += static_cast<long long>(mapped.qasm.size());
    const qspr::DependencyGraph graph = [&] {
      Tracer::Scope span(tracer, "circuit.qidg_build", replay.id(),
                         mapped.request);
      return qspr::DependencyGraph::build(mapped.program);
    }();
    const std::vector<int> rank = [&] {
      Tracer::Scope span(tracer, "core.scheduler.rank", replay.id(),
                         mapped.request);
      return qspr::make_schedule_rank(graph, tech,
                                      qspr::schedule_options_for(options));
    }();
    {
      Tracer::Scope span(tracer, "fabric.traps_by_distance", replay.id(),
                         mapped.request);
      long long calls = 0;
      for (const qspr::MicroOp& op : trace.ops()) {
        if (op.kind != qspr::MicroOpKind::Gate) continue;
        (void)fabric.traps_by_distance(op.from);
        ++calls;
      }
      span.set_calls(calls);
    }
    const qspr::ExecutionOptions exec = qspr::execution_options_for(options);
    {
      Tracer::Scope span(tracer, "sim.event_sim.run", replay.id(),
                         mapped.request);
      (void)qspr::execute_circuit(graph, fabric, artifacts.graph, rank,
                                  mapped.result.initial_placement, exec);
    }
    const std::vector<qspr::NetRequest> nets = relocation_nets(trace, fabric);
    {
      Tracer::Scope span(tracer, "route.router.query", replay.id(),
                         mapped.request);
      const qspr::Router router(artifacts.graph, tech, exec.router);
      const qspr::CongestionState congestion(fabric.segment_count(),
                                             fabric.junction_count());
      qspr::SearchArena<qspr::Duration> arena;
      for (const qspr::NetRequest& net : nets) {
        (void)router.route_trap_to_trap(net.from, net.to, congestion, arena);
      }
      span.set_calls(static_cast<long long>(nets.size()));
    }
    if (nets.empty()) continue;
    // Same search configuration as the engine's negotiation diagnostic;
    // the landmark tables are built (once, cached) before the span opens.
    qspr::PathFinderOptions negotiate;
    negotiate.route_jobs = 1;
    negotiate.alt_landmarks = options.route_landmarks;
    negotiate.heuristic_weight = options.route_heuristic_weight;
    std::shared_ptr<const qspr::LandmarkTables> landmarks;
    if (negotiate.alt_landmarks > 0) {
      const double turn_cost =
          negotiate.turn_aware ? static_cast<double>(tech.t_turn) : 0.1;
      landmarks = artifacts.landmark_tables(static_cast<double>(tech.t_move),
                                            turn_cost, negotiate.alt_landmarks);
      negotiate.landmarks = landmarks.get();
    }
    {
      Tracer::Scope span(tracer, "route.pathfinder.negotiate", replay.id(),
                         mapped.request);
      qspr::PathFinderScratch scratch;
      const qspr::PathFinderResult result = qspr::route_nets_negotiated(
          artifacts.graph, tech, nets, negotiate, scratch);
      searches += result.searches_performed;
      nodes_settled += result.nodes_settled;
      iterations += result.iterations_used;
      converged += result.converged ? 1 : 0;
    }
  }

  const std::map<std::string, Tracer::Layer> self = tracer.layers();
  const auto layer = [&](const std::string& name) {
    const auto it = self.find(name);
    return it != self.end() ? it->second : Tracer::Layer{};
  };
  const Tracer::Layer parse = layer("qasm.parse");
  const Tracer::Layer router = layer("route.router.query");
  const Tracer::Layer pathfinder = layer("route.pathfinder.negotiate");
  layers["qasm.parse_us"] = per_call(parse, 1e3);
  layers["qasm.parse_mb_per_s"] =
      parse.self_ns > 0.0 ? static_cast<double>(parsed_bytes) / 1e6 /
                                (parse.self_ns / 1e9)
                          : 0.0;
  layers["circuit.qidg_build_us"] = per_call(layer("circuit.qidg_build"), 1e3);
  layers["core.scheduler.rank_us"] = per_call(layer("core.scheduler.rank"), 1e3);
  layers["fabric.traps_by_distance_ns"] =
      per_call(layer("fabric.traps_by_distance"), 1.0);
  layers["sim.event_sim.run_ms"] = per_call(layer("sim.event_sim.run"), 1e6);
  layers["route.router.query_ns"] = per_call(router, 1.0);
  layers["route.router.queries"] = static_cast<double>(router.calls);
  layers["route.pathfinder.negotiate_ms"] = per_call(pathfinder, 1e6);
  layers["route.pathfinder.searches"] = static_cast<double>(searches);
  layers["route.pathfinder.nodes_settled"] = static_cast<double>(nodes_settled);
  layers["route.pathfinder.iterations"] = static_cast<double>(iterations);
  layers["route.pathfinder.converged_frac"] =
      pathfinder.calls > 0 ? static_cast<double>(converged) / pathfinder.calls
                           : 0.0;
  layers["sim.trace_validator.validate_ms"] =
      per_call(layer("sim.trace_validator.validate"), 1e6);
  layers["core.mvfb.placement_runs"] = [&] {
    double runs = 0.0;
    for (const MappedProgram& mapped : distinct) {
      runs += mapped.result.placement_runs;
    }
    return runs;
  }();
  layers["replay.results"] = static_cast<double>(count);
}

}  // namespace perfbench
