// PathFinder: the negotiated-congestion router of McMurchie & Ebeling that
// QUALE used for routing and "dealing with resource contentions" (paper §I,
// ref. [3]).
//
// All nets (qubit relocations) are routed simultaneously: resources may be
// over-subscribed at first, then every iteration re-routes each net against
// a cost that multiplies the base delay by a *present congestion* penalty
// (grows within an iteration as resources fill) and a *history* penalty
// (accumulates across iterations on chronically over-used resources), until
// no channel or junction exceeds its capacity.
//
// The loop is congestion-adaptive, with every mechanism always on: a
// dirty-net worklist rips up and re-routes only nets overlapping
// over-subscribed resources (partial rip-up), the negotiation schedule caps
// the present factor and ramps the history increment on stagnation, and
// long queries run a bidirectional meet-in-the-middle search over the
// arena's second frontier. Each search is an A* over the admissible grid
// bound (route/heuristic.hpp), optionally max-combined with ALT landmark
// bounds (route/landmarks.hpp).
//
// The loop is serial: within an iteration the dirty nets are ripped up,
// re-routed and re-inserted one at a time in net order, so a run is a pure
// function of its inputs. A run is single-threaded; callers parallelise
// across independent negotiations (one PathFinderScratch per thread).
//
// The event-driven simulator routes incrementally instead (one instruction
// at a time, Eq. 2 weights, as QSPR does); this module provides the classic
// batch formulation QUALE used, run here as a post-mapping diagnostic and
// for users who want whole-layer routing.
#pragma once

#include <cstdint>
#include <vector>

#include "common/time.hpp"
#include "route/landmarks.hpp"
#include "route/path.hpp"
#include "route/routing_graph.hpp"
#include "route/search_arena.hpp"

namespace qspr {

struct NetRequest {
  TrapId from;
  TrapId to;
};

struct PathFinderOptions {
  int max_iterations = 30;
  /// Present-congestion penalty factor added per unit of over-use.
  double present_factor = 0.6;
  /// History penalty accumulated per iteration of over-use.
  double history_increment = 0.25;
  /// Model turn delays in the cost (QSPR's enhancement; QUALE ran without).
  bool turn_aware = true;
  /// Bidirectional A* (meet-in-the-middle over the arena's second frontier)
  /// for long queries, where a unidirectional search settles most of the
  /// fabric before reaching the target.
  bool bidirectional = true;
  /// Minimum source-target Manhattan distance (in cells) before a query uses
  /// the bidirectional search; short queries stay unidirectional.
  int bidirectional_min_cells = 24;

  // --- ALT landmark lower bounds + bounded-suboptimal knob (see
  // --- route/landmarks.hpp for the admissibility argument) ---

  /// Landmarks for the ALT triangle-inequality bound, max-combined with the
  /// grid bound. 0 disables ALT entirely. When `landmarks` is null the
  /// tables are built at negotiation start (2K Dijkstras); callers on the
  /// hot path should pass the fabric's cached tables instead.
  int alt_landmarks = 0;
  /// Prebuilt landmark tables for this graph, borrowed for the duration of
  /// the call — FabricArtifactCache::landmark_tables() is the intended
  /// source. Ignored unless alt_landmarks > 0; must match the
  /// graph and the search's t_move/turn costs.
  const LandmarkTables* landmarks = nullptr;
  /// Bounded-suboptimal search: A* orders the frontier by g + w*h instead
  /// of g + h (and the bidirectional termination scales accordingly), so
  /// each inner search returns a path of cost <= w * optimal. 1.0 is exact
  /// and bit-identical to the unweighted search (IEEE: h * 1.0 == h); > 1
  /// trades bounded path-quality slack for fewer expansions on saturated
  /// loads.
  double heuristic_weight = 1.0;

  /// Unread (the negotiation is serial); kept so callers that set it build.
  int route_jobs = 1;
};

struct PathFinderResult {
  std::vector<RoutedPath> paths;  // one per net, in request order
  int iterations_used = 0;        // negotiation iterations actually run
  bool converged = false;         // true when no resource is over capacity
  Duration total_delay = 0;       // sum of physical path delays
  int overused_resources = 0;     // at the final iteration
  int max_overuse = 0;            // worst excess over capacity, final iteration
  int total_excess = 0;           // sum of excess over capacity, final iteration
  /// Provable lower bound on the residual excess of *any* routing of this
  /// net set (endpoint port demand over port capacity). total_excess can
  /// never go below it; converged implies it is 0.
  int min_feasible_excess = 0;
  /// Inner shortest-path searches actually performed; with partial rip-up
  /// this is <= nets * iterations_used (clean nets are skipped).
  long long searches_performed = 0;
  /// Nodes settled (accepted heap pops) across all searches — the
  /// heuristic-quality metric the ALT ablation records.
  long long nodes_settled = 0;
  /// Landmarks the ALT bound actually used (0 when ALT was off).
  int landmarks_used = 0;
  /// Echo of options.heuristic_weight (1.0 = exact search).
  double heuristic_weight = 1.0;
};

/// Per-node negotiated move weights, kept in sync with the ledger so the
/// inner search loop prices an edge with one array read instead of
/// resolving and pricing the entered resource per edge visit. The structure
/// (node -> resource, resource -> nodes) is rebuilt at every negotiation
/// start — O(nodes), reusing storage — so a scratch can be safely reused
/// across batches on *different* graphs; weights refresh per iteration
/// (O(nodes)) plus per ripped/re-inserted resource (O(cells of that
/// resource)).
class NodeWeightCache {
 public:
  void build(const RoutingGraph& graph, const CongestionLedger& ledger);
  void refresh_all(const CongestionLedger& ledger, double t_move);
  void refresh_resource(const CongestionLedger& ledger, std::size_t index);

  std::vector<std::int32_t> node_resource;  // dense ledger index or -1
  std::vector<double> node_weight;          // t_move * entering_penalty
  std::vector<std::vector<std::uint32_t>> resource_nodes;

 private:
  double t_move_ = 0.0;
};

/// Thread-confined scratch state of one negotiation run: the search arena,
/// the path-resource dedup set, and the per-net occupancy buffers. Owning it
/// outside the call lets a worker reuse the allocations across many batches
/// (one scratch per thread; never share one between concurrent calls).
struct PathFinderScratch {
  SearchArena<double> arena;
  StampedSet membership;
  std::vector<RouteNodeId> node_buffer;
  std::vector<std::vector<std::uint32_t>> net_resources;
  /// Dirty-net worklist of the partial rip-up (1 = re-route next iteration).
  std::vector<std::uint8_t> net_dirty;
  /// Per-trap endpoint demand buffer of the structural-floor analysis.
  std::vector<int> trap_demand;
  /// Ledger-synchronised per-node move weights.
  NodeWeightCache weights;
  /// ALT tables built here when options.alt_landmarks > 0 but no prebuilt
  /// tables were passed; rebuilt per negotiation (the scratch may serve
  /// different graphs across calls).
  LandmarkTables alt_base;
};

/// Routes all nets with negotiated congestion. Nets with from == to receive
/// empty paths. Throws RoutingError when some net has no route at all
/// (disconnected fabric).
PathFinderResult route_nets_negotiated(const RoutingGraph& graph,
                                       const TechnologyParams& params,
                                       const std::vector<NetRequest>& nets,
                                       const PathFinderOptions& options = {});

/// As above, reusing the caller's scratch buffers across calls.
PathFinderResult route_nets_negotiated(const RoutingGraph& graph,
                                       const TechnologyParams& params,
                                       const std::vector<NetRequest>& nets,
                                       const PathFinderOptions& options,
                                       PathFinderScratch& scratch);

}  // namespace qspr
