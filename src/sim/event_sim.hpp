// Event-driven execution of a scheduled QIDG on a fabric (paper §III-§IV).
//
// The simulator issues ready instructions in schedule-priority order,
// selects a target trap for each gate, routes the operand qubits with the
// congestion-aware router, reserves every channel/junction on their paths
// ("already using or will use", Eq. 2), and releases each resource the moment
// the qubit exits it — firing the paper's two event kinds ("execution of an
// instruction finishes" and "a qubit exits a channel"). Instructions whose
// routes are fully congested, or for which no target trap is available, wait
// in the busy queue and are retried whenever the fabric state changes.
//
// Policy knobs reproduce the differences between QSPR and the prior art:
//   * dual_move   — QSPR moves both operands to a trap near their median
//                   position; QUALE/QPOS keep the destination qubit fixed.
//   * router.turn_aware — QSPR models turn delays during path selection.
//   * tech.channel_capacity — QSPR exploits ion multiplexing (2), prior art 1.
#pragma once

#include <optional>
#include <queue>
#include <set>
#include <vector>

#include "circuit/dependency_graph.hpp"
#include "common/time.hpp"
#include "fabric/fabric.hpp"
#include "route/router.hpp"
#include "sim/placement.hpp"
#include "sim/trace.hpp"

namespace qspr {

/// How the target trap of a 2-qubit gate is chosen among available traps.
enum class TrapSelectionPolicy : std::uint8_t {
  /// The paper's policy: nearest available trap to the anchor (median of the
  /// operand positions for QSPR, the destination position for prior art).
  NearestToAnchor,
  /// Extension: among the nearest available candidates, prefer the one whose
  /// access channels are least loaded — trading a slightly longer trip for
  /// less queueing on congested fabrics.
  CongestionAware,
};

struct ExecutionOptions {
  TechnologyParams tech;
  RouterOptions router;
  /// Move both operands toward the median trap (QSPR) instead of moving only
  /// the source toward the fixed destination qubit (QUALE/QPOS).
  bool dual_move = true;
  TrapSelectionPolicy trap_selection = TrapSelectionPolicy::NearestToAnchor;
  /// Candidate pool size for CongestionAware selection.
  int trap_candidates = 8;
  /// QUALE's storage discipline: after a 2-qubit gate, the visiting ion
  /// shuttles back to its home trap and dependent instructions wait for the
  /// round trip. This keeps the placement static — exactly the property the
  /// paper criticises ("two qubits that have a lot of interactions may be
  /// placed far from each other", §I). QSPR and QPOS instead leave qubits
  /// where they interacted.
  bool return_home_after_gate = false;
};

/// Lifecycle timestamps of one instruction, decomposing the paper's Eq. 1:
/// T_congestion = issue - ready, T_routing = gate_start - issue,
/// T_gate = gate_end - gate_start.
struct InstructionTiming {
  TimePoint ready = 0;
  TimePoint issue = 0;
  TimePoint gate_start = 0;
  TimePoint gate_end = 0;
  /// Trap in which the gate executed.
  TrapId trap;

  [[nodiscard]] Duration t_gate() const { return gate_end - gate_start; }
  [[nodiscard]] Duration t_routing() const { return gate_start - issue; }
  [[nodiscard]] Duration t_congestion() const { return issue - ready; }
};

struct ExecutionStats {
  long long moves = 0;
  long long turns = 0;
  /// Sum of per-instruction routing / congestion delays (Eq. 1 terms).
  Duration total_routing = 0;
  Duration total_congestion = 0;
  /// Times an instruction was parked in / re-fetched from the busy queue.
  long long busy_enqueues = 0;
  /// Dijkstra nodes the run's routing searches settled (the work the
  /// frontier-queue/arena layer exists to make cheap). Observability only:
  /// never part of the mapped result.
  long long nodes_settled = 0;
};

struct ExecutionResult {
  Duration latency = 0;
  Trace trace;
  Placement initial_placement;
  Placement final_placement;
  std::vector<InstructionTiming> timings;
  ExecutionStats stats;
};

class EventSimulator {
 public:
  /// `schedule_rank[i]` orders instruction issue among simultaneously-ready
  /// instructions: lower rank issues first. One rank per graph node.
  EventSimulator(const DependencyGraph& graph, const Fabric& fabric,
                 const RoutingGraph& routing_graph,
                 std::vector<int> schedule_rank, ExecutionOptions options);

  /// Executes from `initial` placement. Throws SimulationError when the
  /// execution stalls (e.g. the fabric cannot host the circuit) and
  /// ValidationError on inconsistent inputs. Each call is an independent run
  /// over thread-confined state: one simulator may serve concurrent callers
  /// as long as each passes its own `arena` (the reusable router search
  /// workspace, typically owned by one PlacementTrials worker).
  ExecutionResult run(const Placement& initial,
                      SearchArena<Duration>& arena) const;

  /// Convenience overload with a one-shot arena.
  ExecutionResult run(const Placement& initial) const;

 private:
  struct Event {
    enum class Kind : std::uint8_t {
      ResourceRelease,
      QubitArrived,
      GateFinished,
      ReturnArrived,
    };
    TimePoint time = 0;
    std::uint64_t seq = 0;
    Kind kind = Kind::ResourceRelease;
    InstructionId instruction;
    QubitId qubit;
    ResourceRef resource;

    friend bool operator>(const Event& a, const Event& b) {
      if (a.time != b.time) return a.time > b.time;
      return a.seq > b.seq;
    }
  };

  struct RunState {
    CongestionState congestion;
    std::vector<TrapId> qubit_trap;                 // invalid while in transit
    std::vector<std::vector<QubitId>> trap_occupants;
    std::vector<InstructionId> trap_reserved_by;
    std::vector<int> remaining_preds;
    std::vector<int> pending_arrivals;
    std::set<std::pair<int, InstructionId>> ready;  // (rank, id)
    std::vector<InstructionId> busy;
    std::priority_queue<Event, std::vector<Event>, std::greater<>> events;
    std::uint64_t next_seq = 0;
    std::size_t done_count = 0;
    std::vector<InstructionTiming> timings;
    Trace trace;
    ExecutionStats stats;
    // Operands of issued instructions whose departure is blocked by channel
    // congestion; they wait in their traps and route when resources free up
    // (this waiting is the paper's T_congestion in the channels).
    std::vector<std::pair<InstructionId, QubitId>> pending_routes;
    // --- return_home_after_gate bookkeeping ---
    std::vector<TrapId> home_trap;      // per qubit
    std::vector<TrapId> return_target;  // per qubit, while shuttling home
    std::vector<int> pending_returns;   // per instruction
    std::vector<bool> gate_done;        // per instruction (gate op finished)
    std::vector<std::pair<InstructionId, QubitId>> deferred_returns;
    // Caller-supplied router search workspace, confined to this run.
    SearchArena<Duration>* arena = nullptr;

    RunState(std::size_t segments, std::size_t junctions,
             SearchArena<Duration>& search_arena)
        : congestion(segments, junctions), arena(&search_arena) {}
  };

  void initialise(RunState& state, const Placement& initial) const;
  void become_ready(RunState& state, InstructionId id, TimePoint now) const;
  void try_issue(RunState& state, TimePoint now) const;
  void retry_busy(RunState& state, TimePoint now) const;
  bool attempt_issue(RunState& state, InstructionId id, TimePoint now) const;
  bool issue_one_qubit(RunState& state, InstructionId id, TimePoint now) const;
  bool issue_two_qubit(RunState& state, InstructionId id, TimePoint now) const;
  void start_gate(RunState& state, InstructionId id, TrapId trap,
                  TimePoint now) const;
  void finish_gate(RunState& state, InstructionId id, TimePoint now) const;
  /// Releases dependents once the gate (and any pending returns) are done.
  void complete_instruction(RunState& state, InstructionId id,
                            TimePoint now) const;
  /// Starts (or defers) the shuttle of `qubit` back to its home trap.
  bool initiate_return(RunState& state, InstructionId id, QubitId qubit,
                       TimePoint now) const;
  void retry_deferred_returns(RunState& state, TimePoint now) const;
  /// Attempts to route an issued instruction's operand toward its reserved
  /// target trap; on success the qubit departs.
  bool try_dispatch_operand(RunState& state, InstructionId id, QubitId qubit,
                            TimePoint now) const;
  void retry_pending_routes(RunState& state, TimePoint now) const;
  void dispatch_qubit(RunState& state, InstructionId id, QubitId qubit,
                      const RoutedPath& path, TimePoint now,
                      Event::Kind arrival_kind = Event::Kind::QubitArrived) const;

  /// True when `trap` can host `id`'s operation: unreserved and occupied only
  /// by operand qubits.
  bool trap_available(const RunState& state, TrapId trap,
                      const Instruction& instr) const;

  /// Nearest available trap to `anchor` (nullopt when none exists).
  std::optional<TrapId> find_target_trap(const RunState& state,
                                         Position anchor,
                                         const Instruction& instr) const;

  /// Nearest empty, unreserved trap to `anchor` (for 1-qubit relocations).
  std::optional<TrapId> find_empty_trap(const RunState& state,
                                        Position anchor) const;

  Position qubit_position(const RunState& state, QubitId qubit) const;

  const DependencyGraph* graph_;
  const Fabric* fabric_;
  std::vector<int> rank_;
  ExecutionOptions options_;
  Router router_;
};

/// One-shot convenience wrapper.
ExecutionResult execute_circuit(const DependencyGraph& graph,
                                const Fabric& fabric,
                                const RoutingGraph& routing_graph,
                                const std::vector<int>& schedule_rank,
                                const Placement& initial,
                                const ExecutionOptions& options);

}  // namespace qspr
