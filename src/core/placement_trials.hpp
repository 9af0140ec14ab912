// Independent placement trials: the one loop behind every placement flow of
// MappingEngine. In the paper, MVFB (§IV.A), the Monte Carlo baseline (§V.A)
// and QUALE/QPOS center placement (§I) all run independent placement trials
// and keep the lowest latency; center placement is the 1-trial case.
//
// MVFB exploits the reversibility of quantum computation: executing the
// uncompute graph (UIDG) in the reversed schedule order S*, starting from the
// final placement of a forward run, yields a new placement for the *inputs*
// — one that the execution itself has pulled toward where the computation
// wants the qubits. Iterating forward and backward runs is a local search in
// placement space; `m` random center placements multi-start it, and each
// seed's search stops after kMvfbStopAfter consecutive placement runs that
// fail to improve the best latency *that seed* has found. Seeds are
// independent local searches, which is what makes them trial-parallel.
//
// The Monte Carlo placer of the paper's experimental setup (§V.A) runs m'
// random center placements, each fully scheduled and routed. It is the
// budget-matched baseline MVFB is compared against in Table 1.
//
// One "placement run" is a single forward or backward execution; one
// "iteration" is a forward+backward pair. The paper's Table 1 budgets the
// Monte Carlo baseline at twice the number of MVFB iterations, i.e. the same
// number of placement runs.
//
// Determinism: one RNG per trial is forked up front, in trial order, so
// trial t's stream is a pure function of (rng_seed, t). Each worker keeps its
// best (latency, trial index) and the merge takes the global minimum, so the
// result is bit-identical at any worker count and whatever else shares the
// executor.
#pragma once

#include <cstddef>
#include <limits>
#include <optional>
#include <vector>

#include "circuit/dependency_graph.hpp"
#include "common/cancel.hpp"
#include "common/executor.hpp"
#include "common/rng.hpp"
#include "core/artifact_cache.hpp"
#include "core/mapper.hpp"
#include "sim/event_sim.hpp"

namespace qspr {

/// MVFB's stop rule (§IV.A): a seed's local search ends after this many
/// consecutive placement runs without improving the best latency this seed
/// has found.
inline constexpr int kMvfbStopAfter = 3;
/// Safety bound on runs per MVFB seed (far above what the stop rule reaches).
inline constexpr int kMvfbMaxRunsPerSeed = 64;

/// The lowest-latency run over all trials.
struct TrialWinner {
  /// Raw execution of the winning run (un-reversed).
  ExecutionResult execution;
  /// True when the winning run executed the UIDG backward (MVFB only): the
  /// reported solution is then its time reverse (§IV.A).
  bool backward = false;
  /// Placement runs (forward or backward executions) over all trials.
  int placement_runs = 0;
  /// Thread-CPU time spent inside trials, summed over workers.
  double trial_cpu_ms = 0.0;
};

/// The placement trials of one mapping, over shared read-only inputs. The
/// options pick the trial body and count:
///   Mvfb        (QSPR) mvfb_seeds seeds, each a random center placement
///               followed by forward/backward runs until the stop rule fires;
///   MonteCarlo  (QSPR) monte_carlo_trials random center placements, one run
///               each;
///   Center      (QSPR center ablation, QUALE, QPOS) one trial: the
///               deterministic center placement, one run.
/// Each Mvfb run and each MonteCarlo trial first polls `cancel`: once it
/// fires, the remaining trials throw CancelledError and collect() rethrows
/// it (per-job, neighbours on the executor unaffected).
///
/// The graph, rank and artifacts must outlive the trials; the object must
/// not be destroyed while its submitted job runs.
class PlacementTrials {
 public:
  /// Throws ValidationError when the options ask for no MVFB seed or no
  /// Monte Carlo trial. `options.kind` must not be IdealBaseline.
  PlacementTrials(const MapperOptions& options, const DependencyGraph& qidg,
                  const FabricArtifacts& artifacts,
                  const std::vector<int>& rank, const ExecutionOptions& exec,
                  CancelToken cancel);
  PlacementTrials(const PlacementTrials&) = delete;
  PlacementTrials& operator=(const PlacementTrials&) = delete;

  /// Submits the trials as one job on `executor` (non-blocking).
  void submit(Executor& executor);

  /// Executor handle of the submitted job (for drains).
  [[nodiscard]] const Executor::Job& job() const { return job_; }

  /// Waits for the trials and merges the winner by (latency, trial index).
  /// Rethrows the lowest-trial-index failure, if any.
  TrialWinner collect(Executor& executor);

 private:
  /// Best run of one trial.
  struct Outcome {
    Duration latency = kInfiniteDuration;
    bool backward = false;
    ExecutionResult execution;
    int runs = 0;
  };
  /// Thread-confined state of one worker, merged after the loop. Keeping
  /// one Outcome per worker (instead of one per trial) bounds memory.
  struct Worker {
    SearchArena<Duration> arena;
    Outcome best;
    std::size_t best_index = std::numeric_limits<std::size_t>::max();
    int runs = 0;
    double cpu_ms = 0.0;
  };

  Outcome run_trial(std::size_t index, SearchArena<Duration>& arena) const;
  Outcome run_mvfb_seed(Rng rng, SearchArena<Duration>& arena) const;
  Outcome run_once(const Placement& placement,
                   SearchArena<Duration>& arena) const;

  PlacerKind body_;
  std::size_t qubit_count_;
  const std::vector<TrapId>& traps_near_center_;
  CancelToken cancel_;
  EventSimulator forward_;
  /// MVFB only: the UIDG and its simulator in reversed schedule order S*.
  std::optional<DependencyGraph> uidg_;
  std::optional<EventSimulator> backward_;
  std::vector<Rng> rngs_;
  std::vector<Worker> workers_;
  Executor::Job job_;
};

}  // namespace qspr
