// Tests for the end-to-end mapper flows (QSPR, QUALE, QPOS, IdealBaseline)
// and their option plumbing.
#include <gtest/gtest.h>

#include "circuit/dependency_graph.hpp"
#include "core/mapper.hpp"
#include "core/placer.hpp"
#include "fabric/quale_fabric.hpp"
#include "qecc/codes.hpp"
#include "sim/trace_validator.hpp"

namespace qspr {
namespace {

MapperOptions fast_qspr() {
  MapperOptions options;
  options.kind = MapperKind::Qspr;
  options.mvfb_seeds = 4;
  return options;
}

TEST(Mapper, IdealBaselineIsTheCriticalPath) {
  const Program program = make_encoder(QeccCode::Q5_1_3);
  const Fabric fabric = make_quale_fabric({4, 4, 4});
  MapperOptions options;
  options.kind = MapperKind::IdealBaseline;
  const MapResult result = map_program(program, fabric, options);
  EXPECT_EQ(result.latency, 510);
  EXPECT_EQ(result.ideal_latency, 510);
  EXPECT_EQ(result.trace.size(), 0u);
  EXPECT_EQ(result.placement_runs, 0);
}

TEST(Mapper, ExecutionOptionsPerKind) {
  MapperOptions options;
  options.kind = MapperKind::Qspr;
  ExecutionOptions qspr = execution_options_for(options);
  EXPECT_TRUE(qspr.router.turn_aware);
  EXPECT_TRUE(qspr.dual_move);
  EXPECT_FALSE(qspr.return_home_after_gate);
  EXPECT_EQ(qspr.tech.channel_capacity, 2);

  options.kind = MapperKind::Quale;
  ExecutionOptions quale = execution_options_for(options);
  EXPECT_FALSE(quale.router.turn_aware);
  EXPECT_FALSE(quale.dual_move);
  EXPECT_TRUE(quale.return_home_after_gate);
  EXPECT_EQ(quale.tech.channel_capacity, 1);

  options.kind = MapperKind::Qpos;
  ExecutionOptions qpos = execution_options_for(options);
  EXPECT_FALSE(qpos.router.turn_aware);
  EXPECT_FALSE(qpos.return_home_after_gate);
}

TEST(Mapper, AblationOverridesApply) {
  MapperOptions options;
  options.kind = MapperKind::Qspr;
  options.turn_aware = false;
  options.dual_move = false;
  options.channel_capacity = 4;
  options.return_home = true;
  const ExecutionOptions exec = execution_options_for(options);
  EXPECT_FALSE(exec.router.turn_aware);
  EXPECT_FALSE(exec.dual_move);
  EXPECT_TRUE(exec.return_home_after_gate);
  EXPECT_EQ(exec.tech.channel_capacity, 4);

  options.schedule_policy = SchedulePolicy::Alap;
  EXPECT_EQ(schedule_options_for(options).policy, SchedulePolicy::Alap);
}

TEST(Mapper, SchedulePoliciesPerKind) {
  MapperOptions options;
  options.kind = MapperKind::Qspr;
  EXPECT_EQ(schedule_options_for(options).policy,
            SchedulePolicy::QsprPriority);
  options.kind = MapperKind::Quale;
  EXPECT_EQ(schedule_options_for(options).policy, SchedulePolicy::Alap);
  options.kind = MapperKind::Qpos;
  EXPECT_EQ(schedule_options_for(options).policy,
            SchedulePolicy::AsapDependents);
}

TEST(Mapper, AllMappersProduceValidTraces) {
  const Program program = make_encoder(QeccCode::Q5_1_3);
  const Fabric fabric = make_paper_fabric();
  const DependencyGraph graph = DependencyGraph::build(program);

  for (const MapperKind kind :
       {MapperKind::Qspr, MapperKind::Quale, MapperKind::Qpos}) {
    MapperOptions options = fast_qspr();
    options.kind = kind;
    const MapResult result = map_program(program, fabric, options);
    EXPECT_GE(result.latency, result.ideal_latency) << to_string(kind);
    EXPECT_EQ(result.trace.makespan(), result.latency) << to_string(kind);
    EXPECT_EQ(result.trace.gate_count(), graph.node_count())
        << to_string(kind);
    const auto violations =
        validate_trace(result.trace, graph, fabric, result.initial_placement,
                       execution_options_for(options).tech);
    EXPECT_TRUE(violations.empty())
        << to_string(kind) << ": "
        << (violations.empty() ? "" : violations[0]);
  }
}

TEST(Mapper, QsprBeatsQualeOnTheBenchmarks) {
  const Fabric fabric = make_paper_fabric();
  for (const QeccCode code : {QeccCode::Q5_1_3, QeccCode::Q9_1_3}) {
    const Program program = make_encoder(code);
    MapperOptions qspr = fast_qspr();
    MapperOptions quale;
    quale.kind = MapperKind::Quale;
    const Duration qspr_latency = map_program(program, fabric, qspr).latency;
    const Duration quale_latency = map_program(program, fabric, quale).latency;
    EXPECT_LT(qspr_latency, quale_latency) << code_name(code);
  }
}

TEST(Mapper, PlacerKindsAreOrderedInQuality) {
  const Program program = make_encoder(QeccCode::Q7_1_3);
  const Fabric fabric = make_paper_fabric();

  MapperOptions center = fast_qspr();
  center.placer = PlacerKind::Center;
  MapperOptions mc = fast_qspr();
  mc.placer = PlacerKind::MonteCarlo;
  mc.monte_carlo_trials = 16;
  MapperOptions mvfb = fast_qspr();
  mvfb.placer = PlacerKind::Mvfb;
  mvfb.mvfb_seeds = 8;

  const MapResult center_result = map_program(program, fabric, center);
  const MapResult mc_result = map_program(program, fabric, mc);
  const MapResult mvfb_result = map_program(program, fabric, mvfb);

  EXPECT_EQ(center_result.placement_runs, 1);
  EXPECT_EQ(mc_result.placement_runs, 16);
  EXPECT_GE(mvfb_result.placement_runs, 8 * 3);
  // Search can only improve on a single deterministic placement.
  EXPECT_LE(mc_result.latency, center_result.latency);
  EXPECT_LE(mvfb_result.latency, center_result.latency);
}

TEST(Mapper, ReportsCpuTimeAndKind) {
  const Program program = make_encoder(QeccCode::Q5_1_3);
  const Fabric fabric = make_quale_fabric({4, 4, 4});
  MapperOptions options = fast_qspr();
  const MapResult result = map_program(program, fabric, options);
  EXPECT_EQ(result.kind, MapperKind::Qspr);
  EXPECT_GE(result.wall_ms, 0.0);
  EXPECT_EQ(to_string(MapperKind::Quale), "QUALE");
  EXPECT_EQ(to_string(MapperKind::IdealBaseline), "Baseline");
}

TEST(Mapper, QualeStorageDisciplineRestoresPlacement) {
  // The QUALE model's defining invariant: ions always return to their home
  // traps, so the final placement equals the initial (center) placement on
  // every benchmark.
  const Fabric fabric = make_paper_fabric();
  for (const PaperNumbers& paper : paper_benchmarks()) {
    const Program program = make_encoder(paper.code);
    MapperOptions options;
    options.kind = MapperKind::Quale;
    const MapResult result = map_program(program, fabric, options);
    EXPECT_EQ(result.final_placement, result.initial_placement)
        << code_name(paper.code);
    EXPECT_EQ(result.initial_placement,
              center_placement(fabric, program.qubit_count()))
        << code_name(paper.code);
  }
}

TEST(Mapper, DualMoveWithReturnHomeSendsBothOperandsBack) {
  // Ablation combination: with median targeting *both* operands may travel;
  // the storage discipline then shuttles both home again. (On multi-gate
  // circuits homes can legitimately migrate — a median target may claim an
  // away ion's empty home trap — so the exact-restore invariant is only
  // checked on a single gate.)
  const Fabric fabric = make_paper_fabric();
  Program program;
  const QubitId a = program.add_qubit("a");
  const QubitId b = program.add_qubit("b");
  program.add_gate(GateKind::CX, a, b);
  MapperOptions options;
  options.placer = PlacerKind::Center;
  options.return_home = true;  // dual_move stays at the QSPR default (true)
  const MapResult result = map_program(program, fabric, options);
  EXPECT_EQ(result.final_placement, result.initial_placement);
  const DependencyGraph graph = DependencyGraph::build(program);
  EXPECT_TRUE(validate_trace(result.trace, graph, fabric,
                             result.initial_placement, TechnologyParams{})
                  .empty());

  // On a full benchmark the combination still validates end-to-end.
  const Program encoder = make_encoder(QeccCode::Q7_1_3);
  const MapResult full = map_program(encoder, fabric, options);
  const DependencyGraph encoder_graph = DependencyGraph::build(encoder);
  EXPECT_TRUE(validate_trace(full.trace, encoder_graph, fabric,
                             full.initial_placement, TechnologyParams{})
                  .empty());
}

TEST(Mapper, ThrowsWhenFabricTooSmall) {
  const Program program = make_encoder(QeccCode::Q23_1_7);  // 23 qubits
  const Fabric fabric = make_quale_fabric({2, 2, 4});       // 4 traps
  EXPECT_THROW(map_program(program, fabric, fast_qspr()), ValidationError);
}

}  // namespace
}  // namespace qspr
