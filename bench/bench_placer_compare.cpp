// Placement-engine comparison (§IV.A discussion): center placement (QUALE),
// connectivity-driven placement ("standard VLSI" — netlist only, schedule
// ignored), best-of-N Monte Carlo, and MVFB, all feeding the same QSPR
// scheduler/router.
#include "bench_util.hpp"

using namespace qspr;

int main() {
  qspr_bench::print_header(
      "Placer comparison - center vs connectivity vs Monte Carlo vs MVFB");

  const Fabric fabric = make_paper_fabric();
  const RoutingGraph routing(fabric);
  MappingEngine engine;

  TextTable table({"Circuit", "Center", "Connectivity", "MC (matched)",
                   "MVFB m=25", "MVFB gain vs center"});
  Duration totals[4] = {0, 0, 0, 0};
  for (const PaperNumbers& paper : paper_benchmarks()) {
    const Program program = make_encoder(paper.code);
    const DependencyGraph graph = DependencyGraph::build(program);
    const ExecutionOptions exec;
    const auto rank = make_schedule_rank(graph, exec.tech);
    EventSimulator sim(graph, fabric, routing, rank, exec);

    const Duration center =
        sim.run(center_placement(fabric, program.qubit_count())).latency;
    const Duration connectivity =
        sim.run(connectivity_placement(fabric, program)).latency;

    MapperOptions options;
    options.mvfb_seeds = 25;
    const MapResult mvfb = engine.map(program, fabric, options);
    options.placer = PlacerKind::MonteCarlo;
    options.monte_carlo_trials = mvfb.placement_runs;
    const MapResult mc = engine.map(program, fabric, options);

    totals[0] += center;
    totals[1] += connectivity;
    totals[2] += mc.latency;
    totals[3] += mvfb.latency;
    table.add_row({code_name(paper.code), std::to_string(center),
                   std::to_string(connectivity),
                   std::to_string(mc.latency),
                   std::to_string(mvfb.latency),
                   qspr_bench::improvement(center, mvfb.latency)});
  }
  table.add_separator();
  table.add_row({"total", std::to_string(totals[0]),
                 std::to_string(totals[1]), std::to_string(totals[2]),
                 std::to_string(totals[3]),
                 qspr_bench::improvement(totals[0], totals[3])});
  std::cout << table.to_string();
  std::cout << "\nMVFB exploits the *schedule* (forward/backward executions), "
               "which connectivity-only placement cannot see (§IV.A) — it "
               "should post the lowest totals.\n";
  return 0;
}
