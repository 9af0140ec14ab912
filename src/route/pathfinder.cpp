#include "route/pathfinder.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>
#include <utility>

#include "common/error.hpp"
#include "route/heuristic.hpp"
#include "route/search_arena.hpp"

namespace qspr {

namespace {

/// Consecutive non-improving iterations on a *saturated plateau* (total
/// excess comparable to the net count) before the adaptive schedule reports
/// non-convergence instead of burning the iteration cap; small stubborn
/// tails are pressed with a ramped history increment for six times as long.
constexpr int kStagnationLimit = 3;

/// Ceiling of the geometric present-factor schedule. Beyond it the (ramped)
/// history carries the pressure, and saturated-regime edge weights stay
/// commensurate with the admissible distance bound instead of letting every
/// late search degenerate into a whole-fabric Dijkstra flood. 64 is above
/// the factor any converging bench suite ever reaches (iteration 12 of the
/// x1.5 schedule), so converging negotiations never hit the cap.
constexpr double kPresentFactorMax = 64.0;

ResourceRef resource_of_node(const RouteNode& node) {
  if (node.is_trap) return ResourceRef{};
  if (node.junction.is_valid()) return ResourceRef::junction(node.junction);
  if (node.segment.is_valid()) return ResourceRef::segment(node.segment);
  return ResourceRef{};
}

}  // namespace

void NodeWeightCache::build(const RoutingGraph& graph,
                            const CongestionLedger& ledger) {
  node_resource.assign(graph.node_count(), -1);
  node_weight.assign(graph.node_count(), 0.0);
  // Keep the inner vectors' capacity across rebuilds (the common case is
  // one scratch serving the same graph for many batches).
  if (resource_nodes.size() < ledger.size()) {
    resource_nodes.resize(ledger.size());
  }
  for (auto& nodes : resource_nodes) nodes.clear();
  for (std::size_t n = 0; n < graph.node_count(); ++n) {
    const ResourceRef resource =
        resource_of_node(graph.node(RouteNodeId::from_index(n)));
    if (resource.index < 0) continue;
    const std::size_t index = ledger.index_of(resource);
    node_resource[n] = static_cast<std::int32_t>(index);
    resource_nodes[index].push_back(static_cast<std::uint32_t>(n));
  }
}

void NodeWeightCache::refresh_all(const CongestionLedger& ledger,
                                  double t_move) {
  t_move_ = t_move;
  for (std::size_t n = 0; n < node_weight.size(); ++n) {
    const std::int32_t index = node_resource[n];
    node_weight[n] =
        index < 0 ? t_move
                  : t_move * ledger.entering_penalty(
                                 static_cast<std::size_t>(index));
  }
}

void NodeWeightCache::refresh_resource(const CongestionLedger& ledger,
                                       std::size_t index) {
  const double weight = t_move_ * ledger.entering_penalty(index);
  for (const std::uint32_t n : resource_nodes[index]) {
    node_weight[n] = weight;
  }
}

namespace {

/// Physics of one search: base move/turn selection costs, the (already
/// validity-checked) ALT tables, and the bounded-suboptimality weight.
struct SearchCosts {
  double t_move = 0.0;
  double turn_cost = 0.0;
  /// ALT tables over the uncongested base metric, or null for the grid
  /// bound alone. Negotiated weights only ever exceed the base weights, so
  /// the tables stay admissible for the whole negotiation.
  const LandmarkTables* alt = nullptr;
  /// Heuristic inflation w >= 1: the frontier is ordered by g + w*h, so the
  /// returned path costs <= w * optimal. Exactly 1.0 leaves every f-value
  /// bit-identical to the unweighted search.
  double weight = 1.0;
};

/// One negotiated-cost A* over the arena — the unidirectional search. The
/// grid lower bound focuses the expansion toward the target; the arena
/// makes the per-query state O(1) to reset, and the weight cache makes
/// pricing an edge one array read.
/// Returns false when the target is unreachable; on success fills `path`
/// source-to-target.
bool route_one_astar(const RoutingGraph& graph,
                     const NodeWeightCache& weights, const SearchCosts& costs,
                     TrapId from, TrapId to, SearchArena<double>& arena,
                     std::vector<RouteNodeId>& path,
                     long long& nodes_settled) {
  path.clear();
  const RouteNodeId source = graph.trap_node(from);
  const RouteNodeId target = graph.trap_node(to);
  if (source == target) {
    path.push_back(source);
    return true;
  }

  const Position target_cell = graph.node(target).cell;
  // ALT endpoint slice, hoisted: each bound evaluation reads the node's
  // contiguous K-vector against this fixed target vector.
  const int alt_k = costs.alt ? costs.alt->k() : 0;
  const double* target_row = alt_k ? costs.alt->row(target.index()) : nullptr;
  const auto bound = [&](RouteNodeId id, const RouteNode& node) {
    double h = grid_lower_bound<double>(node, target_cell, costs.t_move,
                                        costs.turn_cost);
    if (alt_k) {
      h = std::max(h, alt_lower_bound(costs.alt->row(id.index()), target_row,
                                      alt_k));
    }
    return h * costs.weight;
  };

  arena.begin(graph.node_count());
  arena.relax(source, 0.0, RouteNodeId::invalid());
  arena.heap_push(bound(source, graph.node(source)), 0.0, source);

  bool reached = false;
  while (!arena.heap_empty()) {
    const auto entry = arena.heap_pop();
    // Start the next pop's node state + adjacency row on their way while
    // this entry expands; purely a latency hint, never affects the search.
    const RouteNodeId ahead = arena.heap_peek_node();
    arena.prefetch(ahead);
    graph.prefetch_edges(ahead);
    // Pushes happen only on strict improvement, so at most one live entry
    // per node carries g == dist: the comparison alone rejects stale
    // entries, no settled bitmap traffic needed on the hot path.
    if (entry.g != arena.dist(entry.node)) continue;
    ++nodes_settled;
    if (entry.node == target) {
      reached = true;
      break;
    }

    for (const RouteEdge& edge : graph.edges(entry.node)) {
      // Traps are endpoints only; node_resource < 0 identifies them without
      // loading the node record on every edge visit.
      if (!edge.is_turn && edge.to != target &&
          weights.node_resource[edge.to.index()] < 0) {
        continue;
      }
      const double weight = edge.is_turn
                                ? costs.turn_cost
                                : weights.node_weight[edge.to.index()];
      const double candidate = entry.g + weight;
      if (candidate < arena.dist(edge.to)) {
        arena.relax(edge.to, candidate, entry.node);
        arena.heap_push(candidate + bound(edge.to, graph.node(edge.to)),
                        candidate, edge.to);
      }
    }
  }
  if (!reached) return false;

  for (RouteNodeId node = target; node.is_valid(); node = arena.parent(node)) {
    path.push_back(node);
    if (node == source) break;
  }
  std::reverse(path.begin(), path.end());
  return true;
}

/// Bidirectional negotiated-cost A* for long queries. Both frontiers live in
/// the arena (begin_dual); the balanced potential p(v) = (h_f(v) - h_b(v))/2
/// keeps the two searches consistent over the *same* reduced edge costs, so
/// the classic bidirectional-Dijkstra termination applies: stop as soon as
/// the two heap tops sum to at least the best meeting cost found. Edge
/// weights depend only on the node being entered, so a meeting node v splits
/// the path cost exactly into g_f(v) (which pays for entering v) + g_b(v)
/// (which pays for everything after v).
bool route_one_bidirectional(const RoutingGraph& graph,
                             const NodeWeightCache& weights,
                             const SearchCosts& costs, TrapId from, TrapId to,
                             SearchArena<double>& arena,
                             std::vector<RouteNodeId>& path,
                             long long& nodes_settled) {
  path.clear();
  const RouteNodeId source = graph.trap_node(from);
  const RouteNodeId target = graph.trap_node(to);
  if (source == target) {
    path.push_back(source);
    return true;
  }

  const Position source_cell = graph.node(source).cell;
  const Position target_cell = graph.node(target).cell;
  const double t_move = costs.t_move;
  const double turn_cost = costs.turn_cost;
  // Forward bound: the grid bound towards the target. Backward bound: the
  // grid bound towards the source, which also lower-bounds the source->v
  // cost — every move costs at least t_move whichever node it enters, and
  // the turn term depends only on v and the displacement.
  // tests/search_equivalence_test.cpp checks both frontiers
  // edge-exhaustively.
  //
  // The balanced potential stays *unweighted* even under heuristic_weight:
  // inflating it would make reduced edge costs negative and break the
  // settled-frontier invariant; the suboptimality knob instead scales the
  // termination test below.
  //
  // The balanced potential deliberately ignores costs.alt. A stronger
  // one-sided bound does not make balanced bidirectional search cheaper:
  // mixing the near-exact landmark bound into either (or both) sides was
  // measured to *grow* the settled set on long hauls — a corner-to-corner
  // paper-fabric net settles 268 nodes with the grid potential but 601
  // (ALT both sides), 1206 (forward only), and 518 (backward only),
  // because the sharper potential collapses f-values along every
  // near-optimal corridor and delays the heap-top termination test, while
  // the same tables cut the unidirectional search 3.4x. ALT therefore
  // focuses the unidirectional engine only.
  const auto potential = [&](const RouteNode& node) {
    const double h_forward =
        grid_lower_bound<double>(node, target_cell, t_move, turn_cost);
    const double h_backward =
        grid_lower_bound<double>(node, source_cell, t_move, turn_cost);
    return 0.5 * (h_forward - h_backward);
  };

  arena.begin_dual(graph.node_count());
  arena.relax(source, 0.0, RouteNodeId::invalid());
  arena.heap_push(potential(graph.node(source)), 0.0, source);
  arena.relax_b(target, 0.0, RouteNodeId::invalid());
  arena.heap_push_b(-potential(graph.node(target)), 0.0, target);

  double best = std::numeric_limits<double>::infinity();
  RouteNodeId meet = RouteNodeId::invalid();
  const auto consider_meeting = [&](RouteNodeId node, double g_forward,
                                    double g_backward) {
    const double total = g_forward + g_backward;
    if (total < best) {
      best = total;
      meet = node;
    }
  };

  // Drop stale heap heads so the peeked termination keys are accurate.
  const auto prune_forward = [&] {
    while (!arena.heap_empty()) {
      const auto& top = arena.heap_top();
      if (arena.settled(top.node) || top.g != arena.dist(top.node)) {
        arena.heap_pop();
      } else {
        break;
      }
    }
  };
  const auto prune_backward = [&] {
    while (!arena.heap_empty_b()) {
      const auto& top = arena.heap_top_b();
      if (arena.settled_b(top.node) || top.g != arena.dist_b(top.node)) {
        arena.heap_pop_b();
      } else {
        break;
      }
    }
  };

  prune_forward();
  prune_backward();
  while (!arena.heap_empty() && !arena.heap_empty_b()) {
    // Exact termination at weight 1 (w * x == x in IEEE for w == 1.0);
    // under w > 1 the loop stops once best <= w * (sum of heap tops), and
    // the tops lower-bound every path not yet discovered, so the meeting
    // path costs at most w * optimal.
    if (costs.weight * (arena.heap_top().f + arena.heap_top_b().f) >= best) {
      break;
    }
    if (arena.heap_top().f <= arena.heap_top_b().f) {
      const auto entry = arena.heap_pop();
      const RouteNodeId ahead = arena.heap_peek_node();
      arena.prefetch(ahead);
      graph.prefetch_edges(ahead);
      arena.settle(entry.node);
      ++nodes_settled;
      for (const RouteEdge& edge : graph.edges(entry.node)) {
        if (!edge.is_turn && edge.to != target &&
            weights.node_resource[edge.to.index()] < 0) {
          continue;  // traps are endpoints only
        }
        const double weight = edge.is_turn
                                  ? turn_cost
                                  : weights.node_weight[edge.to.index()];
        const double candidate = entry.g + weight;
        if (candidate < arena.dist(edge.to)) {
          arena.relax(edge.to, candidate, entry.node);
          arena.heap_push(candidate + potential(graph.node(edge.to)),
                          candidate, edge.to);
          const double g_backward = arena.dist_b(edge.to);
          if (std::isfinite(g_backward)) {
            consider_meeting(edge.to, candidate, g_backward);
          }
        }
      }
      prune_forward();
    } else {
      const auto entry = arena.heap_pop_b();
      const RouteNodeId ahead = arena.heap_peek_node_b();
      arena.prefetch_b(ahead);
      graph.prefetch_edges(ahead);
      arena.settle_b(entry.node);
      ++nodes_settled;
      // Every move edge into the settled node costs the same (weights price
      // the node being entered), so one cache read covers all of them.
      const double enter_weight = weights.node_weight[entry.node.index()];
      for (const RouteEdge& edge : graph.edges(entry.node)) {
        // Symmetric graph: edge.to -> entry.node exists with the same turn
        // flag, so this relaxes the forward edge (edge.to -> entry.node).
        if (!edge.is_turn && edge.to != source &&
            weights.node_resource[edge.to.index()] < 0) {
          continue;  // only the source trap may start the path
        }
        const double weight = edge.is_turn ? turn_cost : enter_weight;
        const double candidate = entry.g + weight;
        if (candidate < arena.dist_b(edge.to)) {
          arena.relax_b(edge.to, candidate, entry.node);
          arena.heap_push_b(candidate - potential(graph.node(edge.to)),
                            candidate, edge.to);
          const double g_forward = arena.dist(edge.to);
          if (std::isfinite(g_forward)) {
            consider_meeting(edge.to, g_forward, candidate);
          }
        }
      }
      prune_backward();
    }
  }

  if (!meet.is_valid()) return false;

  for (RouteNodeId node = meet; node.is_valid(); node = arena.parent(node)) {
    path.push_back(node);
    if (node == source) break;
  }
  std::reverse(path.begin(), path.end());
  for (RouteNodeId node = arena.parent_b(meet); node.is_valid();
       node = arena.parent_b(node)) {
    path.push_back(node);
    if (node == target) break;
  }
  return true;
}

/// Distinct dense resource indices of a path, deduped in O(P) with the
/// stamped set; the result doubles as the net's rip-up (release) set and as
/// the overlap set the dirty-net worklist intersects with the over-use delta.
void collect_resources(const RoutedPath& path, const CongestionLedger& ledger,
                       StampedSet& membership,
                       std::vector<std::uint32_t>& indices) {
  indices.clear();
  membership.reset(ledger.size());
  for (const ResourceUse& use : path.resource_uses) {
    const std::size_t index = ledger.index_of(use.resource);
    if (membership.insert(index)) {
      indices.push_back(static_cast<std::uint32_t>(index));
    }
  }
}

int manhattan_cells(const RoutingGraph& graph, TrapId from, TrapId to) {
  const Position a = graph.node(graph.trap_node(from)).cell;
  const Position b = graph.node(graph.trap_node(to)).cell;
  return std::abs(a.row - b.row) + std::abs(a.col - b.col);
}

/// Provable lower bound on the residual capacity excess of any routing of
/// `nets`: every moving net must cross a port resource of each endpoint
/// trap, so a trap whose endpoint demand exceeds its total port capacity
/// forces that much over-use no matter how paths are negotiated. Per-trap
/// excesses are summed while their port sets stay pairwise disjoint (a sum
/// over shared ports could double-count capacity — overlapping traps fall
/// back to the max single-trap excess), which is what lets the negotiation
/// recognise "stuck at the structural floor" instead of burning the
/// iteration cap when several distinct traps are over-demanded.
int structural_excess_floor(const RoutingGraph& graph,
                            const std::vector<NetRequest>& nets,
                            const CongestionLedger& ledger,
                            StampedSet& claimed_ports,
                            std::vector<int>& trap_demand,
                            std::vector<std::uint32_t>& structural) {
  trap_demand.assign(graph.fabric().trap_count(), 0);
  structural.clear();
  for (const NetRequest& net : nets) {
    if (net.from == net.to) continue;
    ++trap_demand[net.from.index()];
    ++trap_demand[net.to.index()];
  }
  int max_single = 0;
  int disjoint_sum = 0;
  std::vector<std::uint32_t> ports;
  claimed_ports.reset(ledger.size());
  for (std::size_t t = 0; t < trap_demand.size(); ++t) {
    if (trap_demand[t] <= 1) continue;  // a single net can always fit
    int port_capacity = 0;
    ports.clear();
    for (const RouteEdge& edge :
         graph.edges(graph.trap_node(TrapId::from_index(t)))) {
      if (edge.is_turn) continue;
      const ResourceRef resource = resource_of_node(graph.node(edge.to));
      if (resource.index < 0) continue;
      const auto index =
          static_cast<std::uint32_t>(ledger.index_of(resource));
      if (std::find(ports.begin(), ports.end(), index) == ports.end()) {
        port_capacity += ledger.capacity(index);
        ports.push_back(index);
      }
    }
    if (trap_demand[t] <= port_capacity) continue;
    const int excess = trap_demand[t] - port_capacity;
    max_single = std::max(max_single, excess);
    bool overlaps = false;
    for (const std::uint32_t port : ports) {
      overlaps = overlaps || claimed_ports.contains(port);
    }
    if (!overlaps) {
      disjoint_sum += excess;
      for (const std::uint32_t port : ports) claimed_ports.insert(port);
    }
    structural.insert(structural.end(), ports.begin(), ports.end());
  }
  return std::max(max_single, disjoint_sum);
}

}  // namespace

PathFinderResult route_nets_negotiated(const RoutingGraph& graph,
                                       const TechnologyParams& params,
                                       const std::vector<NetRequest>& nets,
                                       const PathFinderOptions& options,
                                       PathFinderScratch& scratch) {
  params.validate();
  require(options.max_iterations >= 1, "need at least one iteration");
  require(options.bidirectional_min_cells >= 0,
          "bidirectional_min_cells must be non-negative");
  require(options.alt_landmarks >= 0, "alt_landmarks must be non-negative");
  require(options.heuristic_weight >= 1.0,
          "heuristic_weight must be >= 1 (1.0 is the exact search)");

  const Fabric& fabric = graph.fabric();
  CongestionLedger ledger(fabric.segment_count(), fabric.junction_count(),
                          params.channel_capacity, params.junction_capacity);
  PathFinderResult result;
  result.paths.resize(nets.size());

  // Arena state shared across all nets and all negotiation iterations (and,
  // via the caller-owned scratch, across successive batches on this thread).
  SearchArena<double>& arena = scratch.arena;
  StampedSet& membership = scratch.membership;
  std::vector<RouteNodeId>& node_buffer = scratch.node_buffer;
  // Per-net occupancy sets (dense resource indices): computed once per
  // reroute, reused for the rip-up release of the net's next re-route and
  // for the dirty-net overlap test.
  std::vector<std::vector<std::uint32_t>>& net_resources =
      scratch.net_resources;
  net_resources.assign(nets.size(), {});
  std::vector<std::uint8_t>& dirty = scratch.net_dirty;
  dirty.assign(nets.size(), 1);  // every net routes in iteration 1

  {
    std::vector<std::uint32_t> structural;
    result.min_feasible_excess = structural_excess_floor(
        graph, nets, ledger, membership, scratch.trap_demand, structural);
    ledger.mark_structural(structural);
  }

  SearchCosts costs{
      static_cast<double>(params.t_move),
      options.turn_aware ? static_cast<double>(params.t_turn) : 0.1, nullptr,
      options.heuristic_weight};
  NodeWeightCache& weights = scratch.weights;
  weights.build(graph, ledger);
  result.heuristic_weight = options.heuristic_weight;

  // ALT tables come from the caller (the per-fabric cache) or are built
  // here, once per negotiation.
  if (options.alt_landmarks > 0) {
    if (options.landmarks != nullptr && !options.landmarks->empty()) {
      costs.alt = options.landmarks;
      require(costs.alt->distance.size() ==
                  graph.node_count() * costs.alt->landmarks.size(),
              "prebuilt landmark tables do not match this graph");
      require(costs.alt->t_move == costs.t_move &&
                  costs.alt->turn_cost == costs.turn_cost,
              "prebuilt landmark tables were built for different costs");
    } else {
      build_landmark_tables(graph, costs.t_move, costs.turn_cost,
                            select_landmarks(graph, costs.t_move,
                                             costs.turn_cost,
                                             options.alt_landmarks, arena),
                            arena, scratch.alt_base);
      costs.alt = &scratch.alt_base;
    }
    result.landmarks_used = costs.alt->k();
  }
  double present_factor = options.present_factor;
  double history_increment = options.history_increment;
  // Fewest over-used resources seen so far; partial rip-up escalates to a
  // full sweep when an iteration fails to improve on it.
  int best_overused = std::numeric_limits<int>::max();
  // Stagnation detector: consecutive iterations without any reduction of the
  // total capacity excess.
  int best_excess = std::numeric_limits<int>::max();
  int stagnant_iterations = 0;
  for (int iteration = 1; iteration <= options.max_iterations; ++iteration) {
    result.iterations_used = iteration;
    ledger.begin_iteration(present_factor);
    // History charges and the present-factor step repriced (potentially)
    // every loaded resource: refresh the whole weight cache once per
    // iteration, then keep it in sync per ripped/re-inserted resource.
    weights.refresh_all(ledger, costs.t_move);
    // Incremental rip-up: each dirty net is removed from the occupancy,
    // re-routed against the *other* nets' present congestion plus the
    // history costs, and re-inserted. The rip is unconditional: at
    // iteration 1 every occupancy set is empty (a no-op).
    for (std::size_t i = 0; i < nets.size(); ++i) {
      if (!dirty[i]) continue;
      for (const std::uint32_t index : net_resources[i]) {
        ledger.release(index);
        weights.refresh_resource(ledger, index);
      }
      ++result.searches_performed;

      const bool long_query =
          options.bidirectional &&
          manhattan_cells(graph, nets[i].from, nets[i].to) >=
              options.bidirectional_min_cells;
      const bool routed =
          long_query
              ? route_one_bidirectional(graph, weights, costs, nets[i].from,
                                        nets[i].to, arena, node_buffer,
                                        result.nodes_settled)
              : route_one_astar(graph, weights, costs, nets[i].from,
                                nets[i].to, arena, node_buffer,
                                result.nodes_settled);
      if (!routed) {
        throw RoutingError("PathFinder: net " + std::to_string(i) +
                           " has no route on this fabric");
      }
      result.paths[i] = lower_path(graph, node_buffer, params);
      collect_resources(result.paths[i], ledger, membership,
                        net_resources[i]);

      for (const std::uint32_t index : net_resources[i]) {
        ledger.acquire(index);
        weights.refresh_resource(ledger, index);
      }
    }

    // Charge history on the over-use delta set (no full-table sweep).
    const CongestionLedger::OveruseSummary summary =
        ledger.charge_history(history_increment);
    result.overused_resources = summary.overused;
    result.max_overuse = summary.max_overuse;
    result.total_excess = summary.total_excess;
    if (summary.overused == 0) {
      result.converged = true;
      break;
    }
    if (summary.total_excess <= result.min_feasible_excess) {
      // Residual over-use has reached the provable structural floor: no
      // negotiation can do better, stop and report instead of burning the
      // remaining iterations on ever-costlier searches.
      break;
    }
    if (summary.total_excess < best_excess) {
      // Only a clear improvement resets the stagnation counter: on a
      // saturated plateau the excess wobbles by +-1 around its floor, and
      // counting that noise as progress keeps the loop flooding for the
      // whole iteration cap.
      const int margin = std::max(1, best_excess / 16);
      if (best_excess - summary.total_excess >= margin) {
        stagnant_iterations = 0;
        history_increment = options.history_increment;
      }
      best_excess = summary.total_excess;
    } else {
      ++stagnant_iterations;
      // A stubborn *tail* (a handful of excess units) yields to ramped
      // permanent pressure: double the history increment until the
      // plateau breaks. Tail iterations are usually cheap — partial
      // rip-up only re-routes the few offending nets — so the ramp gets
      // several multiples of the plateau patience; but a tail that
      // survives even a fully-saturated ramp (e.g. structural over-use
      // the floor under-approximated across overlapping port sets) is
      // stuck, and keeping at it would burn the rest of the cap on
      // escalated full sweeps.
      const int tail = std::max(4, static_cast<int>(nets.size()) / 2);
      if (summary.total_excess <= tail) {
        history_increment = std::min(history_increment * 2.0,
                                     options.history_increment * 64.0);
        if (stagnant_iterations >= 6 * kStagnationLimit) break;
      } else if (stagnant_iterations >= kStagnationLimit) {
        // A saturated *plateau* (excess comparable to the net count) is
        // the signature of regional over-subscription: ramping only
        // destabilises it, and every extra iteration is a whole-fabric
        // flood per net. Stop and report the residual.
        break;
      }
    }
    if (summary.overused >= best_overused) {
      // Stagnation: the dirty subset is ping-ponging among the contested
      // corridors while clean nets pin the alternatives. Escalate to one
      // full rip-up sweep so the whole net set renegotiates, then resume
      // partial sweeps.
      std::fill(dirty.begin(), dirty.end(), std::uint8_t{1});
    } else {
      // Next iteration's worklist: exactly the nets whose current path
      // crosses a *negotiable* over-subscribed resource. Structural
      // over-use (endpoint port demand above capacity) cannot be routed
      // away, so the nets forced through it are left settled instead of
      // churning the whole region every iteration. Any negotiable
      // overused resource is held by at least one net, so the worklist
      // can never stall while removable over-use remains.
      for (std::size_t i = 0; i < nets.size(); ++i) {
        dirty[i] = 0;
        for (const std::uint32_t index : net_resources[i]) {
          if (ledger.is_overused(index) && !ledger.is_structural(index)) {
            dirty[i] = 1;
            break;
          }
        }
      }
    }
    best_overused = std::min(best_overused, summary.overused);
    // Standard x1.5 PathFinder schedule, capped once saturated.
    present_factor = std::min(present_factor * 1.5, kPresentFactorMax);
  }

  result.total_delay = 0;
  for (const RoutedPath& path : result.paths) {
    result.total_delay += path.total_delay();
  }
  return result;
}

PathFinderResult route_nets_negotiated(const RoutingGraph& graph,
                                       const TechnologyParams& params,
                                       const std::vector<NetRequest>& nets,
                                       const PathFinderOptions& options) {
  PathFinderScratch scratch;
  return route_nets_negotiated(graph, params, nets, options, scratch);
}

}  // namespace qspr
