#include "route/landmarks.hpp"

#include <cmath>
#include <limits>

namespace qspr {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// One Dijkstra over the through-trap supergraph under the base metric
/// (turn edges cost turn_cost, every move t_move), filling `dist` with
/// d(source -> v). The metric is symmetric, so this is d(v -> source) too.
void dijkstra_supergraph(const RoutingGraph& graph, double t_move,
                         double turn_cost, RouteNodeId source,
                         SearchArena<double>& arena,
                         std::vector<double>& dist) {
  const std::size_t n = graph.node_count();
  arena.begin(n);
  arena.relax(source, 0.0, RouteNodeId::invalid());
  arena.heap_push(0.0, 0.0, source);
  while (!arena.heap_empty()) {
    const auto entry = arena.heap_pop();
    // One-pop-ahead prefetch; a pure latency hint over these K full sweeps,
    // which touch every CSR row per source.
    const RouteNodeId ahead = arena.heap_peek_node();
    arena.prefetch(ahead);
    graph.prefetch_edges(ahead);
    if (entry.g != arena.dist(entry.node)) continue;  // stale heap entry
    for (const RouteEdge& edge : graph.edges(entry.node)) {
      const double candidate =
          entry.g + (edge.is_turn ? turn_cost : t_move);
      if (candidate < arena.dist(edge.to)) {
        arena.relax(edge.to, candidate, entry.node);
        arena.heap_push(candidate, candidate, edge.to);
      }
    }
  }
  dist.assign(n, kInf);
  for (std::size_t v = 0; v < n; ++v) {
    dist[v] = arena.dist(RouteNodeId::from_index(v));
  }
}

}  // namespace

std::vector<RouteNodeId> select_landmarks(const RoutingGraph& graph,
                                          double t_move, double turn_cost,
                                          int k, SearchArena<double>& arena) {
  std::vector<RouteNodeId> landmarks;
  const std::size_t n = graph.node_count();
  if (k <= 0 || n == 0) return landmarks;

  // Distance from the growing landmark set; seeded by node 0 so the first
  // pick is the node farthest from an arbitrary anchor (the classic
  // farthest-point bootstrap). Ascending scan + strict > keeps ties on the
  // smallest node index, making the selection platform-deterministic.
  std::vector<double> from_set;
  dijkstra_supergraph(graph, t_move, turn_cost, RouteNodeId::from_index(0),
                      arena, from_set);
  std::vector<double> from_landmark;
  while (landmarks.size() < static_cast<std::size_t>(k)) {
    std::size_t best = n;
    double best_dist = 0.0;
    for (std::size_t v = 0; v < n; ++v) {
      const double d = from_set[v];
      if (std::isfinite(d) && d > best_dist) {
        best_dist = d;
        best = v;
      }
    }
    if (best == n) break;  // every remaining node is co-located or unreachable
    const RouteNodeId landmark = RouteNodeId::from_index(best);
    landmarks.push_back(landmark);
    if (landmarks.size() == static_cast<std::size_t>(k)) break;
    dijkstra_supergraph(graph, t_move, turn_cost, landmark, arena,
                        from_landmark);
    for (std::size_t v = 0; v < n; ++v) {
      from_set[v] = std::min(from_set[v], from_landmark[v]);
    }
  }
  return landmarks;
}

void build_landmark_tables(const RoutingGraph& graph, double t_move,
                           double turn_cost,
                           const std::vector<RouteNodeId>& landmarks,
                           SearchArena<double>& arena, LandmarkTables& out) {
  out.t_move = t_move;
  out.turn_cost = turn_cost;
  out.landmarks = landmarks;
  const std::size_t n = graph.node_count();
  const std::size_t k = landmarks.size();
  out.distance.assign(n * k, kInf);
  std::vector<double> dist;
  for (std::size_t i = 0; i < k; ++i) {
    dijkstra_supergraph(graph, t_move, turn_cost, landmarks[i], arena, dist);
    for (std::size_t v = 0; v < n; ++v) out.distance[v * k + i] = dist[v];
  }
}

LandmarkTables build_landmark_tables(const RoutingGraph& graph, double t_move,
                                     double turn_cost, int k) {
  SearchArena<double> arena;
  LandmarkTables tables;
  build_landmark_tables(graph, t_move, turn_cost,
                        select_landmarks(graph, t_move, turn_cost, k, arena),
                        arena, tables);
  return tables;
}

}  // namespace qspr
