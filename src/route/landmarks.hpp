// ALT landmark lower bounds for the negotiated PathFinder searches
// (Goldberg & Harrelson's A*-with-landmarks, applied to the fabric routing
// graph).
//
// K landmark nodes are selected once per fabric by farthest-point iteration
// over the base routing metric, and two distance tables are precomputed per
// landmark L: forward[v]  = d(L -> v) and backward[v] = d(v -> L). The
// triangle inequality then gives, for any query endpoints, per-node lower
// bounds
//
//     d(v, t) >= d(L, t) - d(L, v)      (forward table)
//     d(v, t) >= d(v, L) - d(t, L)      (backward table)
//
// maximised over landmarks and combined (max) with the turn-aware grid
// bound. Unlike the grid bound, the landmark metric counts *every* turn a
// route must take, so it keeps pruning where Manhattan distance goes flat —
// t_turn is 10x t_move, and saturated searches spend their time exploring
// equally-long detours the grid bound cannot distinguish.
//
// Soundness under negotiation. Tables are computed over the uncongested
// *base metric*: a turn edge costs turn_cost and every move costs t_move.
// Every negotiated search weight is t_move times a penalty >= 1 (trap
// entries are a flat t_move), so it dominates the base weight edge for
// edge: the table distances lower-bound the negotiated distances for the
// whole negotiation, and each single-landmark bound is both admissible and
// *consistent* for the search — and a max of consistent bounds is
// consistent (tests/alt_heuristic_test.cpp checks this edge-exhaustively
// for both frontiers). The base metric is symmetric (the routing graph is,
// with the same turn flag both ways), so one Dijkstra per landmark fills
// both its forward and its backward table.
//
// One deliberate slack: the landmark metric keeps traps as through-nodes
// (queries prune edges into non-endpoint traps, the tables do not). The
// table metric therefore runs on a *supergraph* of every query's search
// graph, which can only lower the distances — admissibility holds for every
// endpoint pair without per-query table work, at the price of a weaker
// bound near trap shortcuts.
//
// Tables are built once per distinct fabric and cached in
// FabricArtifactCache next to the CSR graph.
#pragma once

#include <algorithm>
#include <vector>

#include "route/routing_graph.hpp"
#include "route/search_arena.hpp"

namespace qspr {

/// Precomputed landmark distance tables over one routing graph. Node-major
/// layout: the K distances of node v occupy forward/backward[v*K .. v*K+K),
/// so one bound evaluation reads two contiguous K-vectors per endpoint.
struct LandmarkTables {
  double t_move = 0.0;
  double turn_cost = 0.0;
  std::vector<RouteNodeId> landmarks;
  std::vector<double> forward;   // forward[v*k+L]  = d(landmark L -> v)
  std::vector<double> backward;  // backward[v*k+L] = d(v -> landmark L)

  [[nodiscard]] int k() const { return static_cast<int>(landmarks.size()); }
  [[nodiscard]] bool empty() const { return landmarks.empty(); }

  /// Start of node v's K-vector in `forward`.
  [[nodiscard]] const double* forward_row(std::size_t v) const {
    return forward.data() + v * landmarks.size();
  }
  [[nodiscard]] const double* backward_row(std::size_t v) const {
    return backward.data() + v * landmarks.size();
  }
};

/// Deterministic farthest-point landmark selection over the base metric:
/// the first landmark is the node farthest from node 0, each next landmark
/// maximises the distance to the already-selected set, ties broken by
/// smallest node index. Returns min(k, node_count) landmarks.
std::vector<RouteNodeId> select_landmarks(const RoutingGraph& graph,
                                          double t_move, double turn_cost,
                                          int k, SearchArena<double>& arena);

/// Builds the forward/backward distance tables of `landmarks` over the base
/// metric (K Dijkstras over the through-trap supergraph, reusing `arena`).
/// Deterministic for a fixed landmark set.
void build_landmark_tables(const RoutingGraph& graph, double t_move,
                           double turn_cost,
                           const std::vector<RouteNodeId>& landmarks,
                           SearchArena<double>& arena, LandmarkTables& out);

/// Selection + table build in one step (the once-per-fabric entry point).
LandmarkTables build_landmark_tables(const RoutingGraph& graph, double t_move,
                                     double turn_cost, int k);

/// Triangle-inequality lower bound on d(from -> to) from the two node-major
/// K-vectors of each endpoint: max over landmarks of
/// max(d(L,to) - d(L,from), d(from,L) - d(to,L), 0).
///
/// Unreachable pairs are handled by IEEE arithmetic: a +inf in the *to*
/// row propagates (the pair really is disconnected — reachability is
/// symmetric here, finite weights both ways), a +inf in the *from* row
/// yields -inf and is clamped by the max with 0, and inf - inf produces a
/// NaN that std::max(h, x) discards (comparison is false, h wins).
[[nodiscard]] inline double alt_lower_bound(const double* from_forward,
                                            const double* from_backward,
                                            const double* to_forward,
                                            const double* to_backward,
                                            int k) {
  double h = 0.0;
  for (int i = 0; i < k; ++i) {
    h = std::max(h, to_forward[i] - from_forward[i]);
    h = std::max(h, from_backward[i] - to_backward[i]);
  }
  return h;
}

}  // namespace qspr
