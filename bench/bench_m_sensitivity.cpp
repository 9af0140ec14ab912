// Sensitivity of MVFB to the number of random seeds m (§IV.A / §V.B: more
// seeds help; MVFB beats the best of an equal budget of random center
// placements).
#include "bench_util.hpp"

using namespace qspr;

int main() {
  qspr_bench::print_header("MVFB sensitivity to the multi-start count m");

  const Fabric fabric = make_paper_fabric();
  MappingEngine engine;
  const int sweep[] = {1, 5, 10, 25, 50, 100};

  for (const QeccCode code : {QeccCode::Q9_1_3, QeccCode::Q23_1_7}) {
    const Program program = make_encoder(code);
    std::cout << code_name(code) << " (ideal baseline "
              << DependencyGraph::build(program).critical_path_latency(
                     TechnologyParams{})
              << " us)\n";
    TextTable table({"m", "MVFB latency", "MVFB runs", "MC latency (same "
                     "budget)", "MVFB wins"});
    Duration previous = kInfiniteDuration;
    bool monotone = true;
    for (const int m : sweep) {
      MapperOptions options;
      options.mvfb_seeds = m;
      const MapResult mvfb = engine.map(program, fabric, options);
      options.placer = PlacerKind::MonteCarlo;
      options.monte_carlo_trials = mvfb.placement_runs;
      const MapResult mc = engine.map(program, fabric, options);
      table.add_row({std::to_string(m), std::to_string(mvfb.latency),
                     std::to_string(mvfb.placement_runs),
                     std::to_string(mc.latency),
                     mvfb.latency <= mc.latency ? "yes" : "no"});
      if (mvfb.latency > previous) monotone = false;
      previous = mvfb.latency;
    }
    std::cout << table.to_string();
    std::cout << "latency non-increasing in m: " << (monotone ? "yes" : "no")
              << " (same RNG stream, larger m explores a superset)\n\n";
  }
  return 0;
}
