#include "core/engine.hpp"

#include <algorithm>
#include <map>
#include <optional>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "common/stopwatch.hpp"
#include "core/placement_trials.hpp"
#include "core/scheduler.hpp"
#include "route/pathfinder.hpp"

namespace qspr {

namespace {

/// Trap-to-trap relocations of a control trace: per (instruction, operand)
/// the trap it departed and the trap it arrived in. Ops of one operand are
/// chronological within the trace, so first move's `from` / last move's `to`
/// bracket the relocation.
std::vector<NetRequest> relocation_nets(const Trace& trace,
                                        const Fabric& fabric) {
  std::map<std::pair<std::int32_t, std::int32_t>,
           std::pair<Position, Position>>
      spans;
  std::vector<std::pair<std::int32_t, std::int32_t>> order;
  for (const MicroOp& op : trace.ops()) {
    if (op.kind != MicroOpKind::Move) continue;
    const auto key = std::make_pair(op.instruction.value(), op.qubit.value());
    const auto [it, inserted] =
        spans.try_emplace(key, std::make_pair(op.from, op.to));
    if (inserted) {
      order.push_back(key);
    } else {
      it->second.second = op.to;
    }
  }
  std::vector<NetRequest> nets;
  for (const auto& key : order) {
    const auto& [begin, end] = spans.at(key);
    const TrapId from = fabric.trap_at(begin);
    const TrapId to = fabric.trap_at(end);
    if (from.is_valid() && to.is_valid() && from != to) {
      nets.push_back({from, to});
    }
  }
  return nets;
}

/// Re-derives a backward winner's timings in the frame of its reported,
/// time-reversed trace: each gate window is its Gate op, `ready` the latest
/// predecessor gate_end, and `issue` the first operand Move/Turn starting in
/// [ready, gate_start] (gate_start when no operand moves). Fills the Eq. 1
/// totals from them.
void reframe_timings(const DependencyGraph& qidg, const Trace& trace,
                     std::vector<InstructionTiming>& timings,
                     ExecutionStats& stats) {
  // The trace is sorted by start time, and so is each qubit's list.
  std::vector<std::vector<TimePoint>> relocation_starts(qidg.qubit_count());
  for (const MicroOp& op : trace.ops()) {
    if (op.kind == MicroOpKind::Gate) {
      timings[op.instruction.index()].gate_start = op.start;
      timings[op.instruction.index()].gate_end = op.end;
    } else {
      relocation_starts[op.qubit.index()].push_back(op.start);
    }
  }
  stats.total_routing = 0;
  stats.total_congestion = 0;
  for (std::size_t i = 0; i < timings.size(); ++i) {
    const InstructionId id = InstructionId::from_index(i);
    InstructionTiming& timing = timings[i];
    timing.ready = 0;
    for (const InstructionId pred : qidg.predecessors(id)) {
      timing.ready = std::max(timing.ready, timings[pred.index()].gate_end);
    }
    timing.issue = timing.gate_start;
    for (const QubitId qubit : qidg.instruction(id).operands()) {
      const std::vector<TimePoint>& starts = relocation_starts[qubit.index()];
      const auto first =
          std::lower_bound(starts.begin(), starts.end(), timing.ready);
      if (first != starts.end()) timing.issue = std::min(timing.issue, *first);
    }
    stats.total_routing += timing.t_routing();
    stats.total_congestion += timing.t_congestion();
  }
}

NegotiationDiagnostics diagnose_negotiation(const FabricArtifacts& artifacts,
                                            const TechnologyParams& tech,
                                            const Trace& trace,
                                            const MapperOptions& mapper) {
  NegotiationDiagnostics diagnostics;
  const RoutingGraph& routing_graph = artifacts.graph;
  const std::vector<NetRequest> nets =
      relocation_nets(trace, routing_graph.fabric());
  diagnostics.nets = static_cast<int>(nets.size());
  if (nets.empty()) {
    diagnostics.converged = true;
    diagnostics.heuristic_weight = mapper.route_heuristic_weight;
    return diagnostics;
  }
  PathFinderOptions options;
  options.alt_landmarks = mapper.route_landmarks;
  options.heuristic_weight = mapper.route_heuristic_weight;
  // Landmark tables come from the per-fabric cache, so a batch of programs
  // against one fabric pays the K-Dijkstra build exactly once. Tables must
  // match the search's base costs (t_move and the turn-aware turn cost —
  // the same expression route_nets_negotiated uses).
  std::shared_ptr<const LandmarkTables> landmarks;
  if (options.alt_landmarks > 0) {
    const double turn_cost =
        options.turn_aware ? static_cast<double>(tech.t_turn) : 0.1;
    landmarks = artifacts.landmark_tables(static_cast<double>(tech.t_move),
                                          turn_cost, options.alt_landmarks);
    options.landmarks = landmarks.get();
  }
  PathFinderScratch scratch;
  PathFinderResult negotiated =
      route_nets_negotiated(routing_graph, tech, nets, options, scratch);
  diagnostics.iterations_used = negotiated.iterations_used;
  diagnostics.converged = negotiated.converged;
  diagnostics.overused_resources = negotiated.overused_resources;
  diagnostics.max_overuse = negotiated.max_overuse;
  diagnostics.total_excess = negotiated.total_excess;
  diagnostics.min_feasible_excess = negotiated.min_feasible_excess;
  diagnostics.searches_performed = negotiated.searches_performed;
  diagnostics.total_delay = negotiated.total_delay;
  diagnostics.landmarks_used = negotiated.landmarks_used;
  diagnostics.heuristic_weight = negotiated.heuristic_weight;
  diagnostics.nodes_settled = negotiated.nodes_settled;
  return diagnostics;
}

}  // namespace

/// One staged job. Heap-held behind PendingMap so every address the
/// submitted trial bodies capture (QIDG, rank, simulators) stays stable
/// while the handle moves around.
struct MappingEngine::PendingState {
  MapJob job;
  Stopwatch stopwatch;
  std::shared_ptr<const FabricArtifacts> artifacts;
  DependencyGraph qidg;
  ExecutionOptions exec;
  std::vector<int> rank;
  /// Pre-filled by begin() (kind, jobs, ideal latency); completed by
  /// finish().
  MapResult result;
  /// Program-derived setup (QIDG, rank, trial submission) runs here so batch
  /// staging overlaps it with other jobs' trials. `trials` is written by
  /// this job; wait on it before reading it.
  Executor::Job setup_job;
  std::optional<PlacementTrials> trials;

  Executor* executor = nullptr;
  bool collected = false;

  ~PendingState() {
    if (collected || executor == nullptr) return;
    // Drain an abandoned job so the trial bodies' captures (which point
    // into this object) cannot outlive it. Failures were never collected;
    // swallow them. The setup job goes first: waiting it makes the trials
    // it submitted visible.
    try {
      if (setup_job.valid()) executor->wait(setup_job);
    } catch (...) {  // NOLINT(bugprone-empty-catch)
    }
    try {
      if (trials && trials->job().valid()) executor->wait(trials->job());
    } catch (...) {  // NOLINT(bugprone-empty-catch)
    }
  }
};

MappingEngine::PendingMap::PendingMap() = default;
MappingEngine::PendingMap::PendingMap(PendingMap&&) noexcept = default;
MappingEngine::PendingMap& MappingEngine::PendingMap::operator=(
    PendingMap&&) noexcept = default;
MappingEngine::PendingMap::~PendingMap() = default;

const std::string& MappingEngine::PendingMap::name() const {
  require(state_ != nullptr, "name() needs a staged job");
  return state_->job.name;
}

MappingEngine::MappingEngine(int workers) : executor_(workers) {}
MappingEngine::~MappingEngine() = default;

int MappingEngine::worker_count() const { return executor_.worker_count(); }
Executor& MappingEngine::executor() { return executor_; }
FabricArtifactCache& MappingEngine::artifacts() { return cache_; }
ResultCache& MappingEngine::results() { return result_cache_; }

ResultCache::Key MappingEngine::result_key(const Program& program,
                                           const Fabric& fabric,
                                           const MapperOptions& options) {
  return ResultCache::Key{program_fingerprint(program),
                          fabric_fingerprint(fabric),
                          mapper_options_fingerprint(options)};
}

void MappingEngine::set_cache_budget_bytes(std::size_t budget) {
  cache_.set_budget_bytes(budget);
}

MappingEngine::PendingMap MappingEngine::begin(const MapJob& job) {
  require(job.program != nullptr && job.fabric != nullptr,
          "MapJob needs a program and a fabric");
  require(job.options.route_landmarks >= 0,
          "MapJob route_landmarks must be >= 0 (0 disables ALT)");
  require(job.options.route_heuristic_weight >= 1.0,
          "MapJob route_heuristic_weight must be >= 1 (1.0 is exact)");
  // A job cancelled (or expired) before staging fails here, before any
  // artifact build or trial submission consumes shared capacity.
  job.cancel.check();
  const MapperOptions& options = job.options;

  auto state = std::make_unique<PendingState>();
  state->executor = &executor_;
  state->job = job;

  MapResult& result = state->result;
  result.kind = options.kind;
  result.jobs = executor_.worker_count();

  // Fabric-artifact resolution stays on the calling thread — the cache is
  // the only reader of the caller's fabric, so the begin()-reads-the-fabric
  // contract holds. The program-derived setup (QIDG build, critical path,
  // schedule rank) runs as an executor job that then nested-submits the
  // placement trials, so a batch coordinator staging job N+1 overlaps its
  // setup with job N's trials.
  if (options.kind == MapperKind::IdealBaseline) {
    // The ideal bound needs no routing artifacts at all — don't build any.
    result.placement_runs = 0;
  } else {
    state->artifacts = cache_.get(*job.fabric);
    state->exec = execution_options_for(options);
  }

  state->setup_job = executor_.submit(1, [s = state.get()](std::size_t, int) {
    s->job.cancel.check();
    const ThreadCpuTimer setup_watch;
    const MapperOptions& opts = s->job.options;
    s->qidg = DependencyGraph::build(*s->job.program);
    s->result.ideal_latency = s->qidg.critical_path_latency(opts.tech);
    if (opts.kind == MapperKind::IdealBaseline) {
      s->result.latency = s->result.ideal_latency;
      s->result.setup_ms = setup_watch.elapsed_ms();
      return;
    }
    s->rank = make_schedule_rank(s->qidg, s->exec.tech,
                                 schedule_options_for(opts));
    s->trials.emplace(opts, s->qidg, *s->artifacts, s->rank, s->exec,
                      s->job.cancel);
    s->result.setup_ms = setup_watch.elapsed_ms();
    // Trial submission is the job's last act: when finish()'s setup wait
    // rethrows, no trial job was ever submitted.
    s->trials->submit(*s->executor);
  });
  PendingMap pending;
  pending.state_ = std::move(state);
  return pending;
}

MapResult MappingEngine::finish(PendingMap pending) {
  require(pending.valid(), "finish() needs a staged job");
  PendingState& state = *pending.state_;
  require(!state.collected, "finish() called twice on one job");
  state.collected = true;
  // Setup first: it wrote ideal_latency/setup_ms into the result and
  // submitted the trials collected below. A setup failure (cancelled job,
  // malformed program, bad trial count) rethrows here before any trial job
  // exists.
  executor_.wait(state.setup_job);
  MapResult result = std::move(state.result);
  if (state.trials) {
    TrialWinner winner = state.trials->collect(executor_);
    ExecutionResult& run = winner.execution;
    result.latency = run.latency;
    result.placement_runs = winner.placement_runs;
    result.trial_cpu_ms = winner.trial_cpu_ms;
    result.stats = run.stats;
    result.timings = std::move(run.timings);
    if (winner.backward) {
      // §IV.A: a winning backward computation is reported as its reverse — a
      // forward execution starting from the backward run's *final*
      // placement and ending where the backward run began.
      result.trace = run.trace.time_reversed();
      result.initial_placement = std::move(run.final_placement);
      result.final_placement = std::move(run.initial_placement);
      reframe_timings(state.qidg, result.trace, result.timings, result.stats);
    } else {
      result.trace = std::move(run.trace);
      result.initial_placement = std::move(run.initial_placement);
      result.final_placement = std::move(run.final_placement);
    }
  }

  // Stop the clock before the optional diagnostic: wall_ms reports the
  // mapping itself, and must not depend on whether a report was requested.
  // Under a shared executor this is wall time from begin() to finish(), so
  // it includes time spent interleaved with other jobs' trials.
  result.wall_ms = state.stopwatch.elapsed_ms();
  if (state.job.options.negotiation_report && result.trace.size() > 0) {
    result.negotiation = diagnose_negotiation(
        *state.artifacts, state.exec.tech, result.trace, state.job.options);
  }
  return result;
}

MapResult MappingEngine::map(const Program& program, const Fabric& fabric,
                             const MapperOptions& options) {
  MapJob job;
  job.program = &program;
  job.fabric = &fabric;
  job.options = options;
  job.name = program.name();
  return finish(begin(job));
}

}  // namespace qspr
