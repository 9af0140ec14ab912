#include "core/report.hpp"

#include <sstream>

#include "circuit/dependency_graph.hpp"
#include "common/table.hpp"
#include "sim/utilization.hpp"

namespace qspr {

std::string make_report(const MapResult& result, const Program& program,
                        const Fabric& fabric, const ReportOptions& options) {
  std::ostringstream os;
  os << "=== mapping report: "
     << (program.name().empty() ? "<unnamed>" : program.name()) << " ===\n"
     << "mapper " << to_string(result.kind) << " on "
     << (fabric.name().empty() ? "fabric" : fabric.name()) << " ("
     << fabric.rows() << "x" << fabric.cols() << ")\n"
     << "latency " << result.latency << " us, ideal lower bound "
     << result.ideal_latency << " us (overhead "
     << format_percent(
            static_cast<double>(result.latency - result.ideal_latency),
            static_cast<double>(result.ideal_latency))
     << ")\n"
     << "transport: " << result.stats.moves << " moves, "
     << result.stats.turns << " turns; Eq.1 sums: T_routing "
     << result.stats.total_routing << " us, T_congestion "
     << result.stats.total_congestion << " us\n"
     << "mapping cpu: " << format_fixed(result.wall_ms, 1) << " ms wall, "
     << format_fixed(result.trial_cpu_ms, 1) << " ms aggregate trial cpu ("
     << result.placement_runs << " placement runs on " << result.jobs
     << " worker" << (result.jobs == 1 ? "" : "s") << ")\n";

  if (result.negotiation.has_value()) {
    const NegotiationDiagnostics& n = *result.negotiation;
    os << "negotiated routing: " << n.nets
       << " relocations batch-routed (PathFinder), ";
    if (n.converged) {
      os << "converged in " << n.iterations_used << " iteration"
         << (n.iterations_used == 1 ? "" : "s");
    } else {
      os << "NOT converged after " << n.iterations_used << " iterations ("
         << n.overused_resources << " resources over capacity, worst +"
         << n.max_overuse << ", excess " << n.total_excess
         << ", structural floor " << n.min_feasible_excess << ")";
    }
    os << "; " << n.searches_performed << " searches, batch delay "
       << n.total_delay << " us";
    // Search-quality knobs: ALT landmark count (0 = grid bound only), the
    // bounded-suboptimality weight, and the nodes the searches settled.
    os << "\n  search: " << n.landmarks_used << " landmark"
       << (n.landmarks_used == 1 ? "" : "s") << ", heuristic weight "
       << format_fixed(n.heuristic_weight, 2) << ", " << n.nodes_settled
       << " nodes settled\n";
  }

  const DependencyGraph graph = DependencyGraph::build(program);

  if (options.include_timing_table && !result.timings.empty()) {
    TextTable table({"#", "Gate", "Ready", "Issue", "Gate start", "Gate end",
                     "T_cong", "T_rout"});
    for (std::size_t i = 0; i < result.timings.size(); ++i) {
      const InstructionTiming& t = result.timings[i];
      const Instruction& instr =
          graph.instruction(InstructionId::from_index(i));
      std::string gate{mnemonic(instr.kind)};
      if (instr.is_two_qubit()) {
        gate += " " + program.qubit(instr.control).name + "," +
                program.qubit(instr.target).name;
      } else {
        gate += " " + program.qubit(instr.target).name;
      }
      table.add_row({std::to_string(i), gate, std::to_string(t.ready),
                     std::to_string(t.issue), std::to_string(t.gate_start),
                     std::to_string(t.gate_end),
                     std::to_string(t.t_congestion()),
                     std::to_string(t.t_routing())});
    }
    os << "\ninstruction timing (us):\n" << table.to_string();
  }

  if (options.include_utilization && result.trace.size() > 0) {
    const ResourceUtilization utilization =
        analyze_utilization(result.trace, fabric);
    os << "\n" << utilization_summary(utilization, fabric);
  }

  if (options.include_gantt && !result.timings.empty()) {
    os << "\nexecution timeline:\n" << render_gantt(result.timings, graph);
  }

  if (options.include_fidelity && result.trace.size() > 0) {
    const FidelityEstimate estimate = estimate_fidelity(
        result.trace, program.qubit_count(), program.two_qubit_gate_count(),
        options.error_model);
    os << "\nfidelity estimate (T2 = "
       << format_fixed(options.error_model.t2_us / 1000.0, 0)
       << " ms): " << format_fixed(estimate.circuit_fidelity, 4)
       << " (operations " << format_fixed(estimate.operation_fidelity, 4)
       << ", decoherence " << format_fixed(estimate.decoherence_fidelity, 4)
       << ", " << format_fixed(reliability_nines(estimate), 2)
       << " nines)\n";
  }
  return os.str();
}

}  // namespace qspr
