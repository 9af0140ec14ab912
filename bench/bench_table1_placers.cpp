// Reproduces paper Table 1: MVFB vs the Monte Carlo placer at m = 25 and
// m = 100 — execution latency, CPU runtime and number of placement runs.
//
// Budgeting follows the paper's design of experiment: MVFB uses a variable
// number of runs per seed (stop after 3 consecutive non-improving placement
// runs); the MC placer is then given exactly twice the number of MVFB
// *iterations* (forward+backward pairs), i.e. the same number of full
// schedule-and-route passes, so CPU runtimes are comparable by construction.
#include "bench_util.hpp"

using namespace qspr;

namespace {

struct Row {
  Duration mvfb_latency = 0;
  double mvfb_ms = 0;
  int mvfb_runs = 0;
  Duration mc_latency = 0;
  double mc_ms = 0;
  int mc_trials = 0;
};

MapResult map_with(MappingEngine& engine, const Program& program,
                   const Fabric& fabric, PlacerKind placer, int budget) {
  MapperOptions options;  // QSPR physics and schedule
  options.placer = placer;
  options.mvfb_seeds = budget;
  options.monte_carlo_trials = budget;
  return engine.map(program, fabric, options);
}

Row run_case(MappingEngine& engine, const Program& program,
             const Fabric& fabric, int m) {
  Row row;
  {
    const MapResult result =
        map_with(engine, program, fabric, PlacerKind::Mvfb, m);
    row.mvfb_ms = result.wall_ms;
    row.mvfb_latency = result.latency;
    row.mvfb_runs = result.placement_runs;
  }
  {
    // 2x the MVFB iterations = as many full passes as MVFB performed.
    const MapResult result = map_with(engine, program, fabric,
                                      PlacerKind::MonteCarlo, row.mvfb_runs);
    row.mc_ms = result.wall_ms;
    row.mc_latency = result.latency;
    row.mc_trials = result.placement_runs;
  }
  return row;
}

}  // namespace

int main() {
  qspr_bench::print_header(
      "Table 1 - MVFB vs Monte Carlo placer (m = 25 and m = 100)");

  const Fabric fabric = make_paper_fabric();
  MappingEngine engine;  // one worker, artifacts shared across rows

  TextTable table({"Circuit", "Heuristic", "m=25 latency", "m=25 cpu (ms)",
                   "m=25 runs", "m=100 latency", "m=100 cpu (ms)",
                   "m=100 runs", "paper m=25/m=100 latency"});

  int mvfb_wins = 0;
  for (const PaperNumbers& paper : paper_benchmarks()) {
    const Program program = make_encoder(paper.code);
    const Row m25 = run_case(engine, program, fabric, 25);
    const Row m100 = run_case(engine, program, fabric, 100);

    table.add_separator();
    table.add_row({code_name(paper.code), "MVFB",
                   std::to_string(m25.mvfb_latency),
                   format_fixed(m25.mvfb_ms, 0),
                   std::to_string(m25.mvfb_runs),
                   std::to_string(m100.mvfb_latency),
                   format_fixed(m100.mvfb_ms, 0),
                   std::to_string(m100.mvfb_runs),
                   std::to_string(paper.mvfb_latency_m25) + " / " +
                       std::to_string(paper.mvfb_latency_m100)});
    table.add_row({"", "MC", std::to_string(m25.mc_latency),
                   format_fixed(m25.mc_ms, 0), std::to_string(m25.mc_trials),
                   std::to_string(m100.mc_latency),
                   format_fixed(m100.mc_ms, 0),
                   std::to_string(m100.mc_trials),
                   std::to_string(paper.mc_latency_m25) + " / " +
                       std::to_string(paper.mc_latency_m100)});
    if (m25.mvfb_latency <= m25.mc_latency &&
        m100.mvfb_latency <= m100.mc_latency) {
      ++mvfb_wins;
    }
  }
  std::cout << table.to_string();
  std::cout << "\nMVFB <= MC at both budgets on " << mvfb_wins
            << "/6 circuits (paper: 6/6).\n"
            << "Paper run counts for reference (m=25 / m=100): 88/312, "
               "78/312, 86/308, 83/316, 82/311, 89/315.\n";
  return 0;
}
