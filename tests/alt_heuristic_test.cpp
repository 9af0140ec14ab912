// ALT landmark heuristic layer: table determinism, edge-exhaustive
// consistency of the combined (grid + ALT) potentials for both frontiers,
// turn-aware and turn-blind, and of the landmark bound under negotiated
// (history-priced) weights, the w = 1.0 bit-identity contract of the
// bounded-suboptimal knob, and the w > 1 quality bound.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "common/rng.hpp"
#include "fabric/linear_fabric.hpp"
#include "fabric/quale_fabric.hpp"
#include "route/heuristic.hpp"
#include "route/landmarks.hpp"
#include "route/pathfinder.hpp"

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

// ---------------------------------------------------------------------------
// Landmark-table construction
// ---------------------------------------------------------------------------

TEST(AltTables, SelectionAndTablesAreDeterministicAcrossRebuilds) {
  const Fabric fabric = make_quale_fabric({3, 3, 4});
  const RoutingGraph graph(fabric);
  const TechnologyParams params;
  const double t_move = static_cast<double>(params.t_move);
  const double turn = static_cast<double>(params.t_turn);

  const LandmarkTables first = build_landmark_tables(graph, t_move, turn, 8);
  const LandmarkTables second = build_landmark_tables(graph, t_move, turn, 8);
  ASSERT_EQ(first.k(), 8);
  EXPECT_EQ(first.landmarks, second.landmarks);
  EXPECT_EQ(first.forward, second.forward);   // bit-identical doubles
  EXPECT_EQ(first.backward, second.backward);

  // Rebuilding over the selected landmark set with a reused arena
  // reproduces the tables bit for bit.
  SearchArena<double> arena;
  LandmarkTables rebuilt;
  build_landmark_tables(graph, t_move, turn, first.landmarks, arena, rebuilt);
  EXPECT_EQ(rebuilt.landmarks, first.landmarks);
  EXPECT_EQ(rebuilt.forward, first.forward);
  EXPECT_EQ(rebuilt.backward, first.backward);
}

TEST(AltTables, LandmarksAreDistinctAndSpread) {
  const Fabric fabric = make_quale_fabric({3, 3, 4});
  const RoutingGraph graph(fabric);
  const TechnologyParams params;
  const LandmarkTables tables =
      build_landmark_tables(graph, static_cast<double>(params.t_move),
                            static_cast<double>(params.t_turn), 6);
  ASSERT_EQ(tables.k(), 6);
  std::vector<RouteNodeId> sorted = tables.landmarks;
  std::sort(sorted.begin(), sorted.end(),
            [](RouteNodeId a, RouteNodeId b) { return a.index() < b.index(); });
  EXPECT_EQ(std::adjacent_find(sorted.begin(), sorted.end()), sorted.end())
      << "duplicate landmark selected";
  // Every landmark's self-distance is zero in both tables.
  for (int i = 0; i < tables.k(); ++i) {
    const std::size_t v = tables.landmarks[i].index();
    EXPECT_EQ(tables.forward_row(v)[i], 0.0);
    EXPECT_EQ(tables.backward_row(v)[i], 0.0);
  }
}

// ---------------------------------------------------------------------------
// Consistency of the combined potentials (both frontiers)
// ---------------------------------------------------------------------------

// The searches combine the grid bound and the ALT bound by max. Both must
// be consistent under the minimum search weights (turn -> turn_cost, move
// -> t_move; negotiated penalties only raise move weights):
//   forward frontier:  h_f(u) <= w_min(u,v) + h_f(v)
//   backward frontier: h_b(v) <= w_min(u,v) + h_b(u)
// for every un-pruned edge u -> v and every trap endpoint pair.
void expect_combined_bound_consistent(const RoutingGraph& graph,
                                      const LandmarkTables& tables) {
  const Fabric& fabric = graph.fabric();
  const double t_move = tables.t_move;
  const double turn_cost = tables.turn_cost;
  const int k = tables.k();
  constexpr double kEps = 1e-9;

  for (const Trap& trap : fabric.traps()) {
    const Position endpoint = trap.position;
    const RouteNodeId endpoint_node = graph.trap_node(trap.id);
    const double* end_fwd = tables.forward_row(endpoint_node.index());
    const double* end_bwd = tables.backward_row(endpoint_node.index());
    const auto h_forward = [&](RouteNodeId id, const RouteNode& node) {
      return std::max(
          grid_lower_bound<double>(node, endpoint, t_move, turn_cost),
          alt_lower_bound(tables.forward_row(id.index()),
                          tables.backward_row(id.index()), end_fwd, end_bwd,
                          k));
    };
    const auto h_backward = [&](RouteNodeId id, const RouteNode& node) {
      return std::max(
          grid_lower_bound<double>(node, endpoint, t_move, turn_cost),
          alt_lower_bound(end_fwd, end_bwd, tables.forward_row(id.index()),
                          tables.backward_row(id.index()), k));
    };
    for (std::size_t u = 0; u < graph.node_count(); ++u) {
      const RouteNodeId id = RouteNodeId::from_index(u);
      const RouteNode& unode = graph.node(id);
      const double hf_u = h_forward(id, unode);
      const double hb_u = h_backward(id, unode);
      for (const RouteEdge& edge : graph.edges(id)) {
        const RouteNode& vnode = graph.node(edge.to);
        // Edges into non-endpoint traps are pruned by every search.
        if (vnode.is_trap && edge.to != endpoint_node) continue;
        if (unode.is_trap && id != endpoint_node) continue;
        const double weight = edge.is_turn ? turn_cost : t_move;
        EXPECT_LE(hf_u, weight + h_forward(edge.to, vnode) + kEps)
            << "forward, turn " << turn_cost << ", edge " << u << " -> "
            << edge.to;
        EXPECT_LE(h_backward(edge.to, vnode), weight + hb_u + kEps)
            << "backward, turn " << turn_cost << ", edge " << u << " -> "
            << edge.to;
      }
    }
  }
}

TEST(AltConsistency, CombinedPotentialsConsistent) {
  const Fabric fabric = make_quale_fabric({2, 2, 4});
  const RoutingGraph graph(fabric);
  const TechnologyParams params;
  const LandmarkTables tables =
      build_landmark_tables(graph, static_cast<double>(params.t_move),
                            static_cast<double>(params.t_turn), 8);
  expect_combined_bound_consistent(graph, tables);
}

TEST(AltConsistency, TurnBlindCombinedPotentialsConsistent) {
  // Turn-blind negotiations price a turn at 0.1 and build their tables at
  // that cost; the combined potentials must stay consistent there too.
  const Fabric fabric = make_quale_fabric({2, 2, 4});
  const RoutingGraph graph(fabric);
  const TechnologyParams params;
  const LandmarkTables tables = build_landmark_tables(
      graph, static_cast<double>(params.t_move), 0.1, 8);
  expect_combined_bound_consistent(graph, tables);
}

TEST(AltConsistency, BaseTablesConsistentUnderNegotiatedWeights) {
  // Negotiated move weights are t_move * present * (1 + history) >= t_move.
  // The landmark bound from the base tables must stay consistent under
  // such weights — checked edge-exhaustively under an irregular synthetic
  // history profile, with every move weight priced at
  // t_move * (1 + history(v)) of the node it enters.
  const Fabric fabric = make_quale_fabric({2, 2, 4});
  const RoutingGraph graph(fabric);
  const TechnologyParams params;
  const double t_move = static_cast<double>(params.t_move);
  const double turn = static_cast<double>(params.t_turn);
  const LandmarkTables tables = build_landmark_tables(graph, t_move, turn, 8);

  // Deterministic in the node index; traps carry no congestion penalty.
  std::vector<double> price(graph.node_count());
  for (std::size_t v = 0; v < price.size(); ++v) {
    const double history = 0.25 * static_cast<double>((v * 7) % 5);
    price[v] = graph.node(RouteNodeId::from_index(v)).is_trap
                   ? t_move
                   : t_move * (1.0 + history);
  }
  const int k = tables.k();
  constexpr double kEps = 1e-9;
  for (const Trap& trap : fabric.traps()) {
    const RouteNodeId endpoint = graph.trap_node(trap.id);
    const double* end_fwd = tables.forward_row(endpoint.index());
    const double* end_bwd = tables.backward_row(endpoint.index());
    const auto h = [&](RouteNodeId id) {
      return alt_lower_bound(tables.forward_row(id.index()),
                             tables.backward_row(id.index()), end_fwd, end_bwd,
                             k);
    };
    for (std::size_t u = 0; u < graph.node_count(); ++u) {
      const RouteNodeId id = RouteNodeId::from_index(u);
      if (graph.node(id).is_trap && id != endpoint) continue;
      for (const RouteEdge& edge : graph.edges(id)) {
        if (graph.node(edge.to).is_trap && edge.to != endpoint) continue;
        const double weight = edge.is_turn ? turn : price[edge.to.index()];
        EXPECT_LE(h(id), weight + h(edge.to) + kEps)
            << "edge " << u << " -> " << edge.to;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// w = 1.0 bit-identity and ALT/grid negotiation equality
// ---------------------------------------------------------------------------

TEST(AltSearch, ExplicitUnitWeightIsBitIdenticalToDefault) {
  // heuristic_weight = 1.0 multiplies every f-value by 1.0 — an IEEE no-op —
  // so the search trajectory, paths and diagnostics are bit-identical to
  // the default options, ALT on or off.
  const Fabric fabric = make_quale_fabric({4, 4, 4});
  const RoutingGraph graph(fabric);
  const TechnologyParams params;
  for (const int landmarks : {0, 8}) {
    for (const std::uint64_t seed : {1u, 7u, 23u}) {
      const auto nets = random_nets(fabric, 12, seed);
      PathFinderOptions plain;
      plain.alt_landmarks = landmarks;
      PathFinderOptions weighted = plain;
      weighted.heuristic_weight = 1.0;  // explicit, same value
      const PathFinderResult a = route_nets_negotiated(graph, params, nets,
                                                       plain);
      const PathFinderResult b = route_nets_negotiated(graph, params, nets,
                                                       weighted);
      ASSERT_EQ(a.paths.size(), b.paths.size());
      for (std::size_t i = 0; i < a.paths.size(); ++i) {
        EXPECT_EQ(a.paths[i].nodes, b.paths[i].nodes) << "net " << i;
      }
      EXPECT_EQ(a.total_delay, b.total_delay);
      EXPECT_EQ(a.iterations_used, b.iterations_used);
      EXPECT_EQ(a.nodes_settled, b.nodes_settled);
    }
  }
}

TEST(AltSearch, MatchesGridHeuristicDelayOnUncontendedQueries) {
  // One net at a time: both heuristics are admissible and consistent, so
  // both searches return minimum-cost paths — equal total_delay per query,
  // including the corner-to-corner hauls that exercise the bidirectional
  // frontier. The ALT search must also settle no *more* nodes in aggregate.
  const Fabric fabric = make_paper_fabric();
  const RoutingGraph graph(fabric);
  const TechnologyParams params;
  const LandmarkTables tables =
      build_landmark_tables(graph, static_cast<double>(params.t_move),
                            static_cast<double>(params.t_turn), 8);
  std::vector<NetRequest> pairs = {
      {fabric.traps().front().id, fabric.traps().back().id},
  };
  const auto random = random_nets(fabric, 12, 97);
  pairs.insert(pairs.end(), random.begin(), random.end());
  long long grid_settled = 0;
  long long alt_settled = 0;
  for (const NetRequest& net : pairs) {
    PathFinderOptions grid;
    PathFinderOptions alt;
    alt.alt_landmarks = 8;
    alt.landmarks = &tables;
    const PathFinderResult g = route_nets_negotiated(graph, params, {net},
                                                     grid);
    const PathFinderResult a = route_nets_negotiated(graph, params, {net},
                                                     alt);
    EXPECT_EQ(a.total_delay, g.total_delay) << net.from << " -> " << net.to;
    EXPECT_EQ(a.landmarks_used, 8);
    grid_settled += g.nodes_settled;
    alt_settled += a.nodes_settled;
  }
  EXPECT_LE(alt_settled, grid_settled);
}

TEST(AltSearch, MatchesGridHeuristicOnConvergingNegotiations) {
  // Negotiated batches on pinned converging seeds: different consistent
  // heuristics may resolve equal-cost ties to different paths, but the
  // converged solution quality must coincide. Seeds are pinned to cases
  // where both variants converge.
  const Fabric fabric = make_quale_fabric({4, 4, 4});
  const RoutingGraph graph(fabric);
  const TechnologyParams params;
  const LandmarkTables tables =
      build_landmark_tables(graph, static_cast<double>(params.t_move),
                            static_cast<double>(params.t_turn), 8);
  for (const std::uint64_t seed : {1u, 2u, 4u}) {
    const auto nets = random_nets(fabric, 10, seed);
    PathFinderOptions grid;
    PathFinderOptions alt;
    alt.alt_landmarks = 8;
    alt.landmarks = &tables;
    const PathFinderResult g = route_nets_negotiated(graph, params, nets,
                                                     grid);
    const PathFinderResult a = route_nets_negotiated(graph, params, nets,
                                                     alt);
    ASSERT_TRUE(g.converged) << "pick a converging seed";
    EXPECT_TRUE(a.converged) << "seed " << seed;
    EXPECT_EQ(a.total_delay, g.total_delay) << "seed " << seed;
  }
}

TEST(AltSearch, PrebuiltAndSelfBuiltTablesAgree) {
  // Passing cached tables must be invisible in the result: the negotiation
  // builds the same tables itself when none are provided.
  const Fabric fabric = make_quale_fabric({3, 3, 4});
  const RoutingGraph graph(fabric);
  const TechnologyParams params;
  const LandmarkTables tables =
      build_landmark_tables(graph, static_cast<double>(params.t_move),
                            static_cast<double>(params.t_turn), 8);
  const auto nets = random_nets(fabric, 10, 11);
  PathFinderOptions self_built;
  self_built.alt_landmarks = 8;
  PathFinderOptions prebuilt = self_built;
  prebuilt.landmarks = &tables;
  const PathFinderResult a = route_nets_negotiated(graph, params, nets,
                                                   self_built);
  const PathFinderResult b = route_nets_negotiated(graph, params, nets,
                                                   prebuilt);
  ASSERT_EQ(a.paths.size(), b.paths.size());
  for (std::size_t i = 0; i < a.paths.size(); ++i) {
    EXPECT_EQ(a.paths[i].nodes, b.paths[i].nodes) << "net " << i;
  }
  EXPECT_EQ(a.total_delay, b.total_delay);
  EXPECT_EQ(a.nodes_settled, b.nodes_settled);
}

// ---------------------------------------------------------------------------
// Bounded-suboptimal search (w > 1)
// ---------------------------------------------------------------------------

TEST(AltWeighted, UncontendedDelaysBoundedByWeight) {
  // One net at a time, no congestion: the negotiated cost equals the
  // physical delay, so each weighted path's delay must stay within w times
  // the exact search's. Checked for both frontiers (the corner haul goes
  // bidirectional) and both heuristics.
  const Fabric fabric = make_paper_fabric();
  const RoutingGraph graph(fabric);
  const TechnologyParams params;
  const LandmarkTables tables =
      build_landmark_tables(graph, static_cast<double>(params.t_move),
                            static_cast<double>(params.t_turn), 8);
  std::vector<NetRequest> pairs = {
      {fabric.traps().front().id, fabric.traps().back().id},
  };
  const auto random = random_nets(fabric, 12, 53);
  pairs.insert(pairs.end(), random.begin(), random.end());
  for (const double w : {1.1, 1.5}) {
    for (const int landmarks : {0, 8}) {
      for (const NetRequest& net : pairs) {
        PathFinderOptions exact;
        exact.alt_landmarks = landmarks;
        if (landmarks) exact.landmarks = &tables;
        PathFinderOptions weighted = exact;
        weighted.heuristic_weight = w;
        const PathFinderResult opt = route_nets_negotiated(graph, params,
                                                           {net}, exact);
        const PathFinderResult sub = route_nets_negotiated(graph, params,
                                                           {net}, weighted);
        EXPECT_LE(static_cast<double>(sub.total_delay),
                  w * static_cast<double>(opt.total_delay) + 1e-9)
            << "w=" << w << " landmarks=" << landmarks << " " << net.from
            << " -> " << net.to;
      }
    }
  }
}

TEST(AltWeighted, RejectsWeightBelowOne) {
  const Fabric fabric = make_quale_fabric({2, 2, 4});
  const RoutingGraph graph(fabric);
  const TechnologyParams params;
  const auto nets = random_nets(fabric, 2, 1);
  PathFinderOptions options;
  options.heuristic_weight = 0.9;
  EXPECT_THROW(route_nets_negotiated(graph, params, nets, options), Error);
}

}  // namespace
}  // namespace qspr
