#include "core/placement_trials.hpp"

#include <utility>

#include "common/error.hpp"
#include "common/stopwatch.hpp"
#include "core/placer.hpp"
#include "core/scheduler.hpp"

namespace qspr {

namespace {

static_assert(kMvfbStopAfter >= 1, "MVFB stop rule must be positive");

/// The (latency, trial index) total order that makes the cross-worker merge
/// independent of scheduling: a later index never displaces an
/// equal-latency earlier one.
bool beats(Duration latency, std::size_t index, Duration incumbent_latency,
           std::size_t incumbent_index) {
  if (latency != incumbent_latency) return latency < incumbent_latency;
  return index < incumbent_index;
}

}  // namespace

PlacementTrials::PlacementTrials(const MapperOptions& options,
                                 const DependencyGraph& qidg,
                                 const FabricArtifacts& artifacts,
                                 const std::vector<int>& rank,
                                 const ExecutionOptions& exec,
                                 CancelToken cancel)
    : body_(options.kind == MapperKind::Qspr ? options.placer
                                             : PlacerKind::Center),
      qubit_count_(qidg.qubit_count()),
      traps_near_center_(artifacts.traps_near_center),
      cancel_(std::move(cancel)),
      forward_(qidg, artifacts.fabric, artifacts.graph, rank, exec) {
  int count = 1;
  switch (body_) {
    case PlacerKind::Mvfb:
      count = options.mvfb_seeds;
      require(count >= 1, "MVFB needs at least one seed");
      uidg_.emplace(qidg.reversed());
      backward_.emplace(*uidg_, artifacts.fabric, artifacts.graph,
                        reversed_rank(rank), exec);
      break;
    case PlacerKind::MonteCarlo:
      count = options.monte_carlo_trials;
      require(count >= 1, "Monte Carlo placer needs at least one trial");
      break;
    case PlacerKind::Center:
      break;
  }
  Rng root(options.rng_seed);
  rngs_.reserve(static_cast<std::size_t>(count));
  for (int trial = 0; trial < count; ++trial) rngs_.push_back(root.fork());
}

PlacementTrials::Outcome PlacementTrials::run_once(
    const Placement& placement, SearchArena<Duration>& arena) const {
  Outcome out;
  out.execution = forward_.run(placement, arena);
  out.latency = out.execution.latency;
  out.runs = 1;
  return out;
}

PlacementTrials::Outcome PlacementTrials::run_mvfb_seed(
    Rng rng, SearchArena<Duration>& arena) const {
  Outcome out;
  Placement placement =
      random_center_placement_from(traps_near_center_, qubit_count_, rng);
  int non_improving = 0;

  const auto record = [&](const ExecutionResult& execution, bool backward) {
    if (execution.latency < out.latency) {
      out.latency = execution.latency;
      out.backward = backward;
      out.execution = execution;
      non_improving = 0;
    } else {
      ++non_improving;
    }
  };

  while (non_improving < kMvfbStopAfter && out.runs < kMvfbMaxRunsPerSeed) {
    // Cancellation boundary: between placement runs, never mid-execution.
    cancel_.check();
    // Forward placement run: QIDG in schedule order S.
    const ExecutionResult forward = forward_.run(placement, arena);
    ++out.runs;
    record(forward, /*backward=*/false);
    if (non_improving >= kMvfbStopAfter || out.runs >= kMvfbMaxRunsPerSeed) {
      break;
    }

    cancel_.check();
    // Backward placement run: UIDG in reversed order S*, starting from the
    // forward run's final placement.
    const ExecutionResult backward =
        backward_->run(forward.final_placement, arena);
    ++out.runs;
    record(backward, /*backward=*/true);

    // The backward run's final placement seeds the next iteration.
    placement = backward.final_placement;
  }
  return out;
}

PlacementTrials::Outcome PlacementTrials::run_trial(
    std::size_t index, SearchArena<Duration>& arena) const {
  switch (body_) {
    case PlacerKind::Mvfb:
      return run_mvfb_seed(rngs_[index], arena);
    case PlacerKind::MonteCarlo: {
      cancel_.check();
      Rng rng = rngs_[index];
      return run_once(
          random_center_placement_from(traps_near_center_, qubit_count_, rng),
          arena);
    }
    case PlacerKind::Center:
      return run_once(center_placement_from(traps_near_center_, qubit_count_),
                      arena);
  }
  throw Error("unknown placement trial body");
}

void PlacementTrials::submit(Executor& executor) {
  workers_.resize(static_cast<std::size_t>(executor.worker_count()));
  job_ = executor.submit(rngs_.size(), [this](std::size_t index, int slot) {
    Worker& worker = workers_[static_cast<std::size_t>(slot)];
    const ThreadCpuTimer watch;
    Outcome out = run_trial(index, worker.arena);
    worker.runs += out.runs;
    if (beats(out.latency, index, worker.best.latency, worker.best_index)) {
      worker.best = std::move(out);
      worker.best_index = index;
    }
    worker.cpu_ms += watch.elapsed_ms();
  });
}

TrialWinner PlacementTrials::collect(Executor& executor) {
  executor.wait(job_);
  // Deterministic cross-worker merge: run counts and CPU time are
  // order-independent sums; the winner is the global (latency, trial index)
  // minimum.
  TrialWinner winner;
  Worker* best = nullptr;
  for (Worker& worker : workers_) {
    winner.placement_runs += worker.runs;
    winner.trial_cpu_ms += worker.cpu_ms;
    if (best == nullptr || beats(worker.best.latency, worker.best_index,
                                 best->best.latency, best->best_index)) {
      best = &worker;
    }
  }
  require(best != nullptr && best->best.latency < kInfiniteDuration,
          "placement trials produced no execution");
  winner.execution = std::move(best->best.execution);
  winner.backward = best->best.backward;
  return winner;
}

}  // namespace qspr
