// ALT landmark lower bounds for the negotiated PathFinder searches
// (Goldberg & Harrelson's A*-with-landmarks, applied to the fabric routing
// graph).
//
// K landmark nodes are selected once per fabric by farthest-point iteration
// over the base routing metric, and one distance table is precomputed per
// landmark L: d(L -> v), which equals d(v -> L) because the base metric is
// symmetric. The triangle inequality then gives, for any query endpoints,
// per-node lower bounds
//
//     d(v, t) >= d(L, t) - d(L, v)
//     d(v, t) >= d(v, L) - d(t, L)
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
// its table for both directions.
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

/// Precomputed landmark distance table over one routing graph. Node-major
/// layout: the K distances of node v occupy distance[v*K .. v*K+K), so one
/// bound evaluation reads one contiguous K-vector per endpoint.
struct LandmarkTables {
  double t_move = 0.0;
  double turn_cost = 0.0;
  std::vector<RouteNodeId> landmarks;
  /// distance[v*k+L] = d(landmark L -> v) = d(v -> landmark L).
  std::vector<double> distance;

  [[nodiscard]] int k() const { return static_cast<int>(landmarks.size()); }
  [[nodiscard]] bool empty() const { return landmarks.empty(); }

  /// Start of node v's K-vector in `distance`.
  [[nodiscard]] const double* row(std::size_t v) const {
    return distance.data() + v * landmarks.size();
  }
};

/// Deterministic farthest-point landmark selection over the base metric:
/// the first landmark is the node farthest from node 0, each next landmark
/// maximises the distance to the already-selected set, ties broken by
/// smallest node index. Returns min(k, node_count) landmarks.
std::vector<RouteNodeId> select_landmarks(const RoutingGraph& graph,
                                          double t_move, double turn_cost,
                                          int k, SearchArena<double>& arena);

/// Builds the distance table of `landmarks` over the base metric (K
/// Dijkstras over the through-trap supergraph, reusing `arena`).
/// Deterministic for a fixed landmark set.
void build_landmark_tables(const RoutingGraph& graph, double t_move,
                           double turn_cost,
                           const std::vector<RouteNodeId>& landmarks,
                           SearchArena<double>& arena, LandmarkTables& out);

/// Selection + table build in one step (the once-per-fabric entry point).
LandmarkTables build_landmark_tables(const RoutingGraph& graph, double t_move,
                                     double turn_cost, int k);

/// Triangle-inequality lower bound on d(from -> to) from the node-major
/// K-vector of each endpoint: max over landmarks of
/// max(d(L,to) - d(L,from), d(from,L) - d(to,L), 0).
///
/// Unreachable pairs are handled by IEEE arithmetic: a +inf in either row
/// propagates through one of the two differences (the pair really is
/// disconnected — reachability is symmetric here, finite weights both
/// ways), and inf - inf produces a NaN that std::max(h, x) discards
/// (comparison is false, h wins).
[[nodiscard]] inline double alt_lower_bound(const double* from_row,
                                            const double* to_row, int k) {
  double h = 0.0;
  for (int i = 0; i < k; ++i) {
    h = std::max(h, to_row[i] - from_row[i]);
    h = std::max(h, from_row[i] - to_row[i]);
  }
  return h;
}

}  // namespace qspr
