// Unit tests for the placement-trial flows behind MappingEngine: MVFB
// (§IV.A), the budget-matched Monte Carlo baseline (§V.A) and center
// placement (QUALE/QPOS, §I), plus a golden anchor pinning their results.
#include <gtest/gtest.h>

#include <map>

#include "circuit/dependency_graph.hpp"
#include "core/engine.hpp"
#include "core/mapper.hpp"
#include "core/placement_trials.hpp"
#include "fabric/quale_fabric.hpp"
#include "qecc/codes.hpp"
#include "service/request_codec.hpp"
#include "sim/trace_validator.hpp"

namespace qspr {
namespace {

MapperOptions mvfb_options(int seeds, std::uint64_t rng_seed) {
  MapperOptions options;
  options.placer = PlacerKind::Mvfb;
  options.mvfb_seeds = seeds;
  options.rng_seed = rng_seed;
  return options;
}

MapperOptions monte_carlo_options(int trials, std::uint64_t rng_seed) {
  MapperOptions options;
  options.placer = PlacerKind::MonteCarlo;
  options.monte_carlo_trials = trials;
  options.rng_seed = rng_seed;
  return options;
}

void expect_valid(const MapResult& result, const Program& program,
                  const Fabric& fabric, const MapperOptions& options,
                  const std::string& label) {
  const auto violations =
      validate_trace(result.trace, DependencyGraph::build(program), fabric,
                     result.initial_placement,
                     execution_options_for(options).tech);
  EXPECT_TRUE(violations.empty())
      << label << ": " << violations.size() << " violations, e.g. "
      << (violations.empty() ? "" : violations[0]);
}

/// Where the trace leaves every qubit: the destination trap of its last
/// move, or its initial trap when it never moves.
Placement final_placement_of(const Trace& trace, const Fabric& fabric,
                             const Placement& initial) {
  Placement placement = initial;
  std::map<std::int32_t, TimePoint> last_move;
  for (const MicroOp& op : trace.ops()) {
    if (op.kind != MicroOpKind::Move) continue;
    const auto [it, inserted] = last_move.try_emplace(op.qubit.value(), op.end);
    if (!inserted && op.end < it->second) continue;
    it->second = op.end;
    const TrapId trap = fabric.trap_at(op.to);
    if (trap.is_valid()) placement.set(op.qubit, trap);
  }
  return placement;
}

class MvfbTest : public ::testing::Test {
 protected:
  MvfbTest()
      : fabric_(make_quale_fabric({4, 4, 4})),
        program_(make_encoder(QeccCode::Q5_1_3)) {}

  MapResult map(const MapperOptions& options) {
    return engine_.map(program_, fabric_, options);
  }

  Fabric fabric_;
  Program program_;
  MappingEngine engine_;
};

TEST_F(MvfbTest, ProducesAValidatedForwardTrace) {
  const MapperOptions options = mvfb_options(4, 1);
  const MapResult result = map(options);

  ASSERT_LT(result.latency, kInfiniteDuration);
  EXPECT_EQ(result.latency, result.trace.makespan());
  // The reported trace must be a physically consistent *forward* execution
  // from the reported initial placement — this is the §IV.A reversal claim.
  expect_valid(result, program_, fabric_, options, "mvfb m=4");
}

TEST_F(MvfbTest, BeatsOrMatchesSingleCenterPlacement) {
  const MapResult result = map(mvfb_options(6, 1));
  MapperOptions center;
  center.placer = PlacerKind::Center;
  EXPECT_LE(result.latency, map(center).latency);
  EXPECT_GE(result.latency, result.ideal_latency);  // ideal lower bound
}

TEST_F(MvfbTest, RunCountsFollowTheStopRule) {
  const int seeds = 5;
  const MapResult result = map(mvfb_options(seeds, 1));
  // Every seed performs at least kMvfbStopAfter runs before giving up.
  EXPECT_GE(result.placement_runs, seeds * kMvfbStopAfter);
  EXPECT_LE(result.placement_runs, seeds * kMvfbMaxRunsPerSeed);
}

TEST_F(MvfbTest, DeterministicForFixedSeed) {
  const MapResult a = map(mvfb_options(3, 99));
  const MapResult b = map(mvfb_options(3, 99));
  EXPECT_EQ(a.latency, b.latency);
  EXPECT_EQ(a.placement_runs, b.placement_runs);
  EXPECT_EQ(a.initial_placement, b.initial_placement);
}

TEST_F(MvfbTest, MoreSeedsNeverHurt) {
  // Same RNG stream: the large run explores a superset of seeds.
  EXPECT_LE(map(mvfb_options(10, 5)).latency,
            map(mvfb_options(2, 5)).latency);
}

TEST_F(MvfbTest, RejectsBadTrialCounts) {
  EXPECT_THROW(map(mvfb_options(0, 1)), Error);
  EXPECT_THROW(map(monte_carlo_options(0, 1)), Error);
}

TEST_F(MvfbTest, ReportedPlacementsBracketTheTrace) {
  // rng_seed 6 makes a backward (UIDG) run win on the paper fabric, rng_seed
  // 1 a forward one: either way the reported initial placement starts the
  // reported trace and the reported final placement is where it ends.
  const Fabric paper = make_paper_fabric();
  for (const std::uint64_t rng_seed : {1, 6}) {
    const MapperOptions options = mvfb_options(8, rng_seed);
    const MapResult result = engine_.map(program_, paper, options);
    const std::string label = "rng_seed " + std::to_string(rng_seed);
    EXPECT_EQ(result.trace.gate_count(), program_.instructions().size())
        << label;
    expect_valid(result, program_, paper, options, label);
    EXPECT_EQ(result.final_placement,
              final_placement_of(result.trace, paper, result.initial_placement))
        << label;
  }
}

TEST_F(MvfbTest, MonteCarloBaselineWorks) {
  const MapperOptions options = monte_carlo_options(10, 1);
  const MapResult result = map(options);
  EXPECT_EQ(result.placement_runs, 10);
  ASSERT_LT(result.latency, kInfiniteDuration);
  EXPECT_GE(result.latency, result.ideal_latency);
  expect_valid(result, program_, fabric_, options, "monte carlo");
}

TEST_F(MvfbTest, MonteCarloMoreTrialsNeverHurt) {
  EXPECT_LE(map(monte_carlo_options(30, 7)).latency,
            map(monte_carlo_options(3, 7)).latency);
}

// ---------------------------------------------------------------------------
// Golden anchor: every placement flow on the paper fabric, recorded before
// the MVFB, Monte Carlo and center-placement fan-outs shared one trial loop.
// ---------------------------------------------------------------------------

struct GoldenCase {
  const char* flow;
  MapperKind kind;
  PlacerKind placer;
  QeccCode code;
  std::uint64_t rng_seed;
  Duration latency;
  int placement_runs;
  const char* fingerprint;
};

TEST(PlacementFlowGolden, PaperFabricResultsMatchRecordedOutcomes) {
  constexpr MapperKind Q = MapperKind::Qspr;
  const GoldenCase cases[] = {
      {"mvfb", Q, PlacerKind::Mvfb, QeccCode::Q5_1_3, 1, 564, 60,
       "52727d3453dc13f1"},
      {"mvfb", Q, PlacerKind::Mvfb, QeccCode::Q7_1_3, 1, 566, 54,
       "6e886e6fcc5f7215"},
      {"mvfb", Q, PlacerKind::Mvfb, QeccCode::Q23_1_7, 1, 1614, 86,
       "e618cf7fe3b3821e"},
      // A backward winner: reversed trace, swapped placements.
      {"mvfb", Q, PlacerKind::Mvfb, QeccCode::Q5_1_3, 6, 564, 52,
       "4f318587d1874d23"},
      {"mc", Q, PlacerKind::MonteCarlo, QeccCode::Q5_1_3, 1, 578, 8,
       "b0e4a851a20bb33e"},
      {"mc", Q, PlacerKind::MonteCarlo, QeccCode::Q7_1_3, 1, 630, 8,
       "aa45bbcd16a283ab"},
      {"mc", Q, PlacerKind::MonteCarlo, QeccCode::Q23_1_7, 1, 1776, 8,
       "b6e6d42c1d06fa25"},
      {"center", Q, PlacerKind::Center, QeccCode::Q5_1_3, 1, 686, 1,
       "21763f6fd1e6686e"},
      {"center", Q, PlacerKind::Center, QeccCode::Q7_1_3, 1, 644, 1,
       "aa62a1de60975826"},
      {"center", Q, PlacerKind::Center, QeccCode::Q23_1_7, 1, 1822, 1,
       "25ce9ce8412423bd"},
      {"quale", MapperKind::Quale, PlacerKind::Mvfb, QeccCode::Q5_1_3, 1, 748,
       1, "11361a969cb1a72e"},
      {"quale", MapperKind::Quale, PlacerKind::Mvfb, QeccCode::Q7_1_3, 1, 872,
       1, "ac2e7cfbfaacc134"},
      {"quale", MapperKind::Quale, PlacerKind::Mvfb, QeccCode::Q23_1_7, 1,
       2304, 1, "4b1eabc6a3653570"},
      {"qpos", MapperKind::Qpos, PlacerKind::Mvfb, QeccCode::Q5_1_3, 1, 770, 1,
       "b45ec2168adafd7a"},
      {"qpos", MapperKind::Qpos, PlacerKind::Mvfb, QeccCode::Q7_1_3, 1, 738, 1,
       "6f5922d752f9d6bf"},
      {"qpos", MapperKind::Qpos, PlacerKind::Mvfb, QeccCode::Q23_1_7, 1, 1846,
       1, "2fcbd667936bfb60"},
  };
  const Fabric fabric = make_paper_fabric();
  for (const GoldenCase& golden : cases) {
    const Program program = make_encoder(golden.code);
    for (const int jobs : {1, 4}) {
      MapperOptions options;
      options.kind = golden.kind;
      options.placer = golden.placer;
      options.mvfb_seeds = 8;
      options.monte_carlo_trials = 8;
      options.rng_seed = golden.rng_seed;
      options.jobs = jobs;
      const MapResult result = map_program(program, fabric, options);
      const std::string label = std::string(golden.flow) + " " +
                                code_name(golden.code) + " rng_seed " +
                                std::to_string(golden.rng_seed) + " jobs " +
                                std::to_string(jobs);
      EXPECT_EQ(result.latency, golden.latency) << label;
      EXPECT_EQ(result.placement_runs, golden.placement_runs) << label;
      EXPECT_EQ(map_result_fingerprint(result), golden.fingerprint) << label;
      expect_valid(result, program, fabric, options, label);
    }
  }
}

// Every reported timing lives in the reported trace's frame, backward
// winners included: the same rows as the golden anchor above.
TEST(PlacementFlowGolden, TimingsFollowTheReportedTrace) {
  struct Row {
    const char* flow;
    MapperKind kind;
    PlacerKind placer;
    std::uint64_t rng_seed;
  };
  const Row rows[] = {
      {"mvfb", MapperKind::Qspr, PlacerKind::Mvfb, 1},
      {"mvfb", MapperKind::Qspr, PlacerKind::Mvfb, 6},  // backward winner
      {"mc", MapperKind::Qspr, PlacerKind::MonteCarlo, 1},
      {"center", MapperKind::Qspr, PlacerKind::Center, 1},
      {"quale", MapperKind::Quale, PlacerKind::Mvfb, 1},
      {"qpos", MapperKind::Qpos, PlacerKind::Mvfb, 1},
  };
  const Fabric fabric = make_paper_fabric();
  for (const Row& row : rows) {
    for (const QeccCode code :
         {QeccCode::Q5_1_3, QeccCode::Q7_1_3, QeccCode::Q23_1_7}) {
      if (row.rng_seed == 6 && code != QeccCode::Q5_1_3) continue;
      const Program program = make_encoder(code);
      const DependencyGraph qidg = DependencyGraph::build(program);
      for (const int jobs : {1, 4}) {
        MapperOptions options;
        options.kind = row.kind;
        options.placer = row.placer;
        options.mvfb_seeds = 8;
        options.monte_carlo_trials = 8;
        options.rng_seed = row.rng_seed;
        options.jobs = jobs;
        const MapResult result = map_program(program, fabric, options);
        const std::string label = std::string(row.flow) + " " +
                                  code_name(code) + " rng_seed " +
                                  std::to_string(row.rng_seed) + " jobs " +
                                  std::to_string(jobs);
        ASSERT_EQ(result.timings.size(), qidg.node_count()) << label;
        int gates = 0;
        for (const MicroOp& op : result.trace.ops()) {
          if (op.kind != MicroOpKind::Gate) continue;
          ++gates;
          const InstructionTiming& timing =
              result.timings[op.instruction.index()];
          EXPECT_EQ(timing.gate_start, op.start) << label;
          EXPECT_EQ(timing.gate_end, op.end) << label;
        }
        EXPECT_EQ(gates, static_cast<int>(qidg.node_count())) << label;
        Duration routing = 0;
        Duration congestion = 0;
        for (std::size_t i = 0; i < result.timings.size(); ++i) {
          const InstructionTiming& timing = result.timings[i];
          EXPECT_LE(timing.ready, timing.issue) << label << " #" << i;
          EXPECT_LE(timing.issue, timing.gate_start) << label << " #" << i;
          for (const InstructionId pred :
               qidg.predecessors(InstructionId::from_index(i))) {
            EXPECT_GE(timing.ready, result.timings[pred.index()].gate_end)
                << label << " #" << i;
          }
          routing += timing.t_routing();
          congestion += timing.t_congestion();
        }
        EXPECT_EQ(result.stats.total_routing, routing) << label;
        EXPECT_EQ(result.stats.total_congestion, congestion) << label;
      }
    }
  }
}

}  // namespace
}  // namespace qspr
