// Differential fuzz harness over the whole mapping stack: seeded random
// programs driven through map_program under every configuration that must
// not change the result — trial-parallel jobs and the batch service — asserting bit-identical MapResults (latency, trace,
// placements) and identical negotiation diagnostics across all of them.
// Agreement alone would let a bug shared by every configuration pass, so
// every fuzzed mapping is also checked for physical legality with
// validate_trace.
#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "circuit/dependency_graph.hpp"
#include "common/rng.hpp"
#include "core/engine.hpp"
#include "core/mapper.hpp"
#include "fabric/quale_fabric.hpp"
#include "qecc/random_circuit.hpp"
#include "service/batch_mapper.hpp"
#include "sim/trace_validator.hpp"

namespace qspr {
namespace {

constexpr int kCases = 50;

struct FuzzCase {
  Program program;
  MapperOptions options;
  int fabric = 0;  // index into the shared fabric set
};

/// Deterministic case generator: program shape, placer flavour and RNG seed
/// all derive from the case index alone.
std::vector<FuzzCase> make_cases() {
  std::vector<FuzzCase> cases;
  for (int c = 0; c < kCases; ++c) {
    RandomCircuitOptions shape;
    shape.qubits = 5 + c % 5;            // 5..9
    shape.gates = 18 + (c * 7) % 23;     // 18..40
    shape.two_qubit_fraction = c % 3 == 0 ? 0.5 : 0.7;
    Rng rng(1000 + static_cast<std::uint64_t>(c));
    FuzzCase fuzz{make_random_circuit(shape, rng), MapperOptions{}, c % 2};
    fuzz.program.set_name("fuzz_" + std::to_string(c));
    fuzz.options.placer =
        c % 2 == 0 ? PlacerKind::MonteCarlo : PlacerKind::Mvfb;
    fuzz.options.monte_carlo_trials = 4;
    fuzz.options.mvfb_seeds = 3;
    fuzz.options.rng_seed = static_cast<std::uint64_t>(c) + 1;
    fuzz.options.negotiation_report = true;
    cases.push_back(std::move(fuzz));
  }
  return cases;
}

std::vector<Fabric> make_fabrics() {
  std::vector<Fabric> fabrics;
  fabrics.push_back(make_quale_fabric({3, 3, 4}));
  fabrics.push_back(make_quale_fabric({4, 4, 4}));
  return fabrics;
}

std::size_t trace_hash(const MapResult& result) {
  return std::hash<std::string>{}(result.trace.to_string());
}

/// The mapped trace must be a physically legal execution of the program.
void expect_legal(const FuzzCase& fuzz, const Fabric& fabric,
                  const MapResult& result, const std::string& label) {
  const std::vector<std::string> violations = validate_trace(
      result.trace, DependencyGraph::build(fuzz.program), fabric,
      result.initial_placement, execution_options_for(fuzz.options).tech);
  EXPECT_TRUE(violations.empty())
      << label << ": " << (violations.empty() ? "" : violations.front());
}

/// map_program plus the legality check on its trace.
MapResult map_legal(const FuzzCase& fuzz, const Fabric& fabric,
                    const MapperOptions& options, const std::string& label) {
  MapResult result = map_program(fuzz.program, fabric, options);
  expect_legal(fuzz, fabric, result, label);
  return result;
}

/// Serial reference mapping of every case (jobs 1).
std::vector<MapResult> map_serial(const std::vector<FuzzCase>& cases,
                                  const std::vector<Fabric>& fabrics) {
  std::vector<MapResult> serial;
  serial.reserve(cases.size());
  for (std::size_t c = 0; c < cases.size(); ++c) {
    MapperOptions options = cases[c].options;
    options.jobs = 1;
    serial.push_back(map_legal(cases[c], fabrics[cases[c].fabric], options,
                               "serial/case" + std::to_string(c)));
  }
  return serial;
}

void expect_identical(const MapResult& reference, const MapResult& other,
                      const std::string& label) {
  EXPECT_EQ(reference.latency, other.latency) << label;
  EXPECT_EQ(reference.ideal_latency, other.ideal_latency) << label;
  EXPECT_EQ(reference.placement_runs, other.placement_runs) << label;
  EXPECT_EQ(reference.initial_placement, other.initial_placement) << label;
  EXPECT_EQ(reference.final_placement, other.final_placement) << label;
  EXPECT_EQ(trace_hash(reference), trace_hash(other)) << label;
  // Negotiation diagnostics: every field must agree.
  ASSERT_EQ(reference.negotiation.has_value(), other.negotiation.has_value())
      << label;
  if (reference.negotiation.has_value()) {
    const NegotiationDiagnostics& a = *reference.negotiation;
    const NegotiationDiagnostics& b = *other.negotiation;
    EXPECT_EQ(a.nets, b.nets) << label;
    EXPECT_EQ(a.iterations_used, b.iterations_used) << label;
    EXPECT_EQ(a.converged, b.converged) << label;
    EXPECT_EQ(a.overused_resources, b.overused_resources) << label;
    EXPECT_EQ(a.max_overuse, b.max_overuse) << label;
    EXPECT_EQ(a.total_excess, b.total_excess) << label;
    EXPECT_EQ(a.min_feasible_excess, b.min_feasible_excess) << label;
    EXPECT_EQ(a.searches_performed, b.searches_performed) << label;
    EXPECT_EQ(a.nodes_settled, b.nodes_settled) << label;
    EXPECT_EQ(a.landmarks_used, b.landmarks_used) << label;
    EXPECT_EQ(a.heuristic_weight, b.heuristic_weight) << label;
    EXPECT_EQ(a.total_delay, b.total_delay) << label;
  }
}

TEST(FuzzDifferential, JobsMatchSerialAcrossSeededPrograms) {
  // Trial parallelism is a pure performance knob: a repeat serial run and a
  // 4-job run must both reproduce the serial result bit for bit,
  // diagnostics included.
  const std::vector<Fabric> fabrics = make_fabrics();
  const std::vector<FuzzCase> cases = make_cases();
  const std::vector<MapResult> serial = map_serial(cases, fabrics);

  for (const int jobs : {1, 4}) {
    for (std::size_t c = 0; c < cases.size(); ++c) {
      MapperOptions options = cases[c].options;
      options.jobs = jobs;
      const std::string label =
          "jobs" + std::to_string(jobs) + "/case" + std::to_string(c);
      expect_identical(
          serial[c],
          map_legal(cases[c], fabrics[cases[c].fabric], options, label),
          label);
    }
  }
}

TEST(FuzzDifferential, BatchServiceMatchesSerialAcrossSeededPrograms) {
  const std::vector<Fabric> fabrics = make_fabrics();
  const std::vector<FuzzCase> cases = make_cases();

  const std::vector<MapResult> serial = map_serial(cases, fabrics);

  // The whole case set as one batch on a shared 4-worker engine, with the
  // negotiation diagnostic enabled per job.
  std::vector<BatchJob> manifest;
  for (const FuzzCase& fuzz : cases) {
    BatchJob job;
    job.name = fuzz.program.name();
    job.program = &fuzz.program;
    job.fabric = &fabrics[fuzz.fabric];
    job.options = fuzz.options;
    manifest.push_back(std::move(job));
  }
  MappingEngine engine(4);
  BatchMapper batch(engine);
  const BatchResult result = batch.run(manifest);
  ASSERT_EQ(result.summary.failed, 0);
  ASSERT_EQ(result.records.size(), cases.size());
  for (std::size_t c = 0; c < cases.size(); ++c) {
    ASSERT_TRUE(result.records[c].ok) << c;
    EXPECT_EQ(result.records[c].name, cases[c].program.name());
    const std::string label = "batch/case" + std::to_string(c);
    expect_legal(cases[c], fabrics[cases[c].fabric], result.records[c].result,
                 label);
    expect_identical(serial[c], result.records[c].result, label);
  }
}

TEST(FuzzDifferential, AltUnitWeightMatchesGridAcrossJobs) {
  // ALT landmarks at heuristic_weight = 1.0 are an exact-search
  // implementation detail: across the whole fuzz corpus the mapped output
  // (latency, placements, trace hash) must be identical to the grid
  // heuristic, and the ALT-enabled run itself must stay bit-identical at
  // every jobs value — including the diagnostics.
  const std::vector<Fabric> fabrics = make_fabrics();
  const std::vector<FuzzCase> cases = make_cases();

  for (std::size_t c = 0; c < cases.size(); ++c) {
    const FuzzCase& fuzz = cases[c];
    const Fabric& fabric = fabrics[fuzz.fabric];
    const std::string suffix = "/case" + std::to_string(c);
    MapperOptions grid = fuzz.options;
    grid.jobs = 1;
    grid.route_landmarks = 0;
    const MapResult grid_serial =
        map_legal(fuzz, fabric, grid, "grid" + suffix);

    MapperOptions alt = grid;
    alt.route_landmarks = 8;
    alt.route_heuristic_weight = 1.0;
    const MapResult alt_serial = map_legal(fuzz, fabric, alt, "alt" + suffix);

    const std::string label = "alt_vs_grid" + suffix;
    EXPECT_EQ(grid_serial.latency, alt_serial.latency) << label;
    EXPECT_EQ(grid_serial.initial_placement, alt_serial.initial_placement)
        << label;
    EXPECT_EQ(grid_serial.final_placement, alt_serial.final_placement)
        << label;
    EXPECT_EQ(trace_hash(grid_serial), trace_hash(alt_serial)) << label;
    ASSERT_TRUE(alt_serial.negotiation.has_value()) << label;
    EXPECT_EQ(alt_serial.negotiation->landmarks_used, 8) << label;
    EXPECT_EQ(alt_serial.negotiation->heuristic_weight, 1.0) << label;

    for (const int jobs : {1, 4}) {
      MapperOptions options = alt;
      options.jobs = jobs;
      const std::string config =
          "alt/jobs" + std::to_string(jobs) + suffix;
      expect_identical(alt_serial, map_legal(fuzz, fabric, options, config),
                       config);
    }

    // The bounded-suboptimal knob must not break the determinism contract
    // either: w = 1.5 serial equals w = 1.5 trial-parallel.
    MapperOptions weighted = alt;
    weighted.route_heuristic_weight = 1.5;
    const MapResult weighted_serial =
        map_legal(fuzz, fabric, weighted, "alt_w1.5/jobs1" + suffix);
    weighted.jobs = 4;
    expect_identical(weighted_serial,
                     map_legal(fuzz, fabric, weighted, "alt_w1.5/jobs4" + suffix),
                     "alt_w1.5/jobs4" + suffix);
  }
}

}  // namespace
}  // namespace qspr
