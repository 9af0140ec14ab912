// MappingEngine: the persistent service core behind map_program and the
// batch mapper.
//
// Where map_program was "one call, one pool, one program", the engine owns
// two long-lived resources shared by many mapping jobs:
//
//   * an Executor whose workers evaluate placement trials
//     (core/placement_trials.hpp) — from one job or from many jobs at once,
//     interleaved round-robin so a large circuit cannot starve the queue;
//   * a FabricArtifactCache of read-only per-fabric structures (CSR routing
//     graph, traps-by-center placement table, port-capacity table) built
//     once per distinct fabric and shared const across jobs.
//
// A MapJob names one program + fabric + per-job options (including the RNG
// seed); jobs preserve the PR-2 determinism contract individually: a job's
// MapResult is bit-identical at any worker count and regardless of what else
// shares the executor, because per-trial RNGs are forked up front by index
// and the winner is the (latency, index) minimum.
//
// Two entry shapes:
//   map(...)            — blocking; the classic map_program behaviour.
//   begin(...)/finish() — the batch pipeline: begin() resolves fabric
//                         artifacts on the calling thread and submits the
//                         rest of the setup (QIDG, schedule rank) plus the
//                         placement trials to the executor without blocking;
//                         finish() waits and assembles the MapResult. Several begun jobs keep every worker
//                         busy across job boundaries. Per-job failures stay
//                         per-job: a throwing trial poisons only its own
//                         finish(), never the engine or its neighbours.
//
// The engine keeps no mapped results: every map()/finish() runs the job.
// Result reuse is the caller's policy, keyed by result_key().
#pragma once

#include <memory>
#include <string>

#include "circuit/program.hpp"
#include "common/cancel.hpp"
#include "common/executor.hpp"
#include "core/artifact_cache.hpp"
#include "core/mapper.hpp"
#include "core/result_cache.hpp"

namespace qspr {

/// One unit of mapping work for the engine: which program, onto which
/// fabric, under which per-job options (placer, trial budget, RNG seed,
/// ablation overrides — see MapperOptions). `name` labels batch records.
///
/// `cancel` (optional) is polled between placement trials and between a
/// seed's forward/backward runs: a cancelled or deadline-expired job
/// abandons its remaining trials and finish() rethrows the CancelledError,
/// exactly like any other per-job trial failure — neighbours sharing the
/// executor are unaffected, and a job whose token never fires is
/// bit-identical to one staged without a token.
struct MapJob {
  const Program* program = nullptr;
  const Fabric* fabric = nullptr;
  MapperOptions options;
  std::string name;
  CancelToken cancel;
};

class MappingEngine {
  struct PendingState;  // staged-job state, defined in engine.cpp

 public:
  /// Workers shared by every job this engine maps. workers >= 1; 1 keeps
  /// everything on the calling thread.
  explicit MappingEngine(int workers = 1);
  ~MappingEngine();

  MappingEngine(const MappingEngine&) = delete;
  MappingEngine& operator=(const MappingEngine&) = delete;

  [[nodiscard]] int worker_count() const;
  [[nodiscard]] Executor& executor();
  [[nodiscard]] FabricArtifactCache& artifacts();
  /// An engine-wide ResultCache that the engine itself never fills or
  /// consults: map()/finish() always map. Callers that reuse results keep
  /// their own ResultCache under result_key() (qspr_serve keeps one per
  /// session).
  [[nodiscard]] ResultCache& results();
  /// The cache key of (program, fabric, options) — canonical program
  /// fingerprint + fabric layout fingerprint + contractual options
  /// fingerprint.
  [[nodiscard]] static ResultCache::Key result_key(const Program& program,
                                                   const Fabric& fabric,
                                                   const MapperOptions& options);
  /// Memory budget of the fabric-artifact cache. 0 = unlimited.
  void set_cache_budget_bytes(std::size_t budget);

  /// A job staged by begin(): setup done, placement trials in flight on the
  /// shared executor. Destroying an unfinished PendingMap drains its trials
  /// first (errors swallowed), so captures never dangle.
  class PendingMap {
   public:
    PendingMap();
    PendingMap(PendingMap&&) noexcept;
    PendingMap& operator=(PendingMap&&) noexcept;
    ~PendingMap();

    [[nodiscard]] bool valid() const { return state_ != nullptr; }
    [[nodiscard]] const std::string& name() const;

   private:
    friend class MappingEngine;
    std::unique_ptr<PendingState> state_;
  };

  /// Stages `job`: resolves fabric artifacts through the cache on the
  /// calling thread, then submits the program-derived setup (QIDG build,
  /// critical path, schedule rank) as an executor job that nested-submits
  /// the placement-trial loop — so a coordinator staging many jobs overlaps
  /// one job's setup with another's trials instead of serialising ahead of
  /// them. Option validation and fabric failures (infeasible fabric, bad
  /// options) throw here; program-derived setup failures and trial failures
  /// surface in finish(). The job's program must stay valid until finish()
  /// — the fabric is only read during begin() (artifacts own a copy).
  [[nodiscard]] PendingMap begin(const MapJob& job);

  /// Blocks until the staged job's trials finish and assembles the
  /// MapResult. Rethrows the job's captured trial failure, if any.
  MapResult finish(PendingMap pending);

  /// Blocking convenience: begin + finish.
  MapResult map(const Program& program, const Fabric& fabric,
                const MapperOptions& options = {});

 private:
  Executor executor_;
  FabricArtifactCache cache_;
  ResultCache result_cache_;
};

}  // namespace qspr
