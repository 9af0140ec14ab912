// Frontier-queue equivalence: the monotone bucket queue (the frontier of
// every integer-cost arena) must pop the exact same strict (f, g, node) order
// as the binary heap on every workload the searches can generate, so the
// heap serves as its reference. Also covers the heap frontier of a
// floating-point arena and the generation-wrap reuse path.
#include <gtest/gtest.h>

#include <cstdint>
#include <utility>
#include <vector>

#include "common/time.hpp"
#include "fabric/quale_fabric.hpp"
#include "route/router.hpp"
#include "route/search_arena.hpp"

namespace qspr {
namespace {

using Entry = FrontierEntry<Duration>;

/// Pushes `entries` into a fresh frontier and drains it.
template <typename Frontier>
std::vector<Entry> push_and_drain(const std::vector<Entry>& entries) {
  Frontier frontier;
  for (const Entry& e : entries) frontier.push(e);
  std::vector<Entry> popped;
  while (!frontier.empty()) popped.push_back(frontier.pop());
  return popped;
}

void expect_same_entries(const std::vector<Entry>& a,
                         const std::vector<Entry>& b, const char* label) {
  ASSERT_EQ(a.size(), b.size()) << label;
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].f, b[i].f) << label << " pop " << i;
    EXPECT_EQ(a[i].g, b[i].g) << label << " pop " << i;
    EXPECT_EQ(a[i].node, b[i].node) << label << " pop " << i;
  }
}

TEST(FrontierQueueTest, BucketAndHeapPopIdenticalOrderOnAdversarialTies) {
  // Heavy equal-f and equal-(f, g) collisions: the whole batch shares three
  // f values and repeats g values, so only the (f, g, node) tie-break can
  // order it. Entries are pairwise distinct, exactly like real pushes
  // (strict dist improvement), so the order is a strict total order.
  std::vector<Entry> batch;
  int node = 0;
  for (const Duration f : {40, 20, 30}) {
    for (const Duration g : {7, 3, 5, 3 + 14, 7 + 14}) {
      batch.push_back({f, g, RouteNodeId::from_index(node++)});
    }
  }
  // Same multiset in a different push order must not matter either.
  const std::vector<Entry> reversed(batch.rbegin(), batch.rend());

  const std::vector<Entry> reference =
      push_and_drain<HeapFrontier<Duration>>(batch);
  expect_same_entries(reference,
                      push_and_drain<HeapFrontier<Duration>>(reversed),
                      "heap, reversed");
  expect_same_entries(reference, push_and_drain<BucketFrontier<Duration>>(batch),
                      "bucket");
  expect_same_entries(reference,
                      push_and_drain<BucketFrontier<Duration>>(reversed),
                      "bucket, reversed");
  // And the shared order actually is the sorted strict (f, g, node) order.
  for (std::size_t i = 0; i + 1 < reference.size(); ++i) {
    EXPECT_TRUE(reference[i + 1] > reference[i]) << "pop " << i;
  }
}

/// Dijkstra-shaped interleaving on one frontier: each pop may trigger pushes
/// whose keys are bounded below by the *popped* key (not by each other).
template <typename Frontier>
std::vector<Entry> run_monotone_workload() {
  Frontier frontier;
  std::uint64_t lcg = 12345;
  const auto next = [&lcg](std::uint64_t bound) {
    lcg = lcg * 6364136223846793005ull + 1442695040888963407ull;
    return (lcg >> 33) % bound;
  };
  int node = 0;
  frontier.push({0, 0, RouteNodeId::from_index(node++)});
  std::vector<Entry> sequence;
  while (!frontier.empty() && node < 4000) {
    const Entry top = frontier.pop();
    sequence.push_back(top);
    // 0-3 children pushed immediately, each at f >= the *popped* f — the
    // Dijkstra discipline. With branching often 0 the frontier regularly
    // drains mid-run and refills from the last pop, the case that
    // constrains the bucket queue's cursor handling.
    std::uint64_t children = next(4);
    // Whenever the frontier fully drains, refill from the popped key — the
    // drain-refill case that pins the bucket cursor's floor to the last
    // *popped* key rather than to earlier sibling pushes.
    if (frontier.empty() && children == 0) children = 1;
    for (std::uint64_t c = 0; c < children; ++c) {
      const Duration f = top.f + static_cast<Duration>(next(12));
      const Duration g = f - static_cast<Duration>(next(5));
      frontier.push({f, g, RouteNodeId::from_index(node++)});
    }
  }
  while (!frontier.empty()) sequence.push_back(frontier.pop());
  return sequence;
}

TEST(FrontierQueueTest, MonotoneInterleavedWorkloadMatchesHeap) {
  const std::vector<Entry> heap =
      run_monotone_workload<HeapFrontier<Duration>>();
  const std::vector<Entry> bucket =
      run_monotone_workload<BucketFrontier<Duration>>();
  ASSERT_GT(heap.size(), 1000u) << "workload died early; reseed the LCG";
  expect_same_entries(heap, bucket, "heap vs bucket");
  for (std::size_t i = 0; i + 1 < heap.size(); ++i) {
    EXPECT_LE(heap[i].f, heap[i + 1].f) << "monotone pop " << i;
  }
}

TEST(FrontierQueueTest, FloatingPointArenaBreaksEqualFTiesByGThenNode) {
  // A double arena (PathFinder, ALT table builds) runs on the binary heap;
  // equal-f entries must still pop in strict (g, node) order.
  SearchArena<double> arena;
  arena.begin(8);
  arena.heap_push(2.5, 1.0, RouteNodeId::from_index(3));
  arena.heap_push(2.5, 0.5, RouteNodeId::from_index(5));
  arena.heap_push(2.5, 1.0, RouteNodeId::from_index(1));
  arena.heap_push(3.0, 0.0, RouteNodeId::from_index(0));
  arena.heap_push(2.5, 2.0, RouteNodeId::from_index(2));
  const std::vector<std::pair<double, int>> expected = {
      {0.5, 5}, {1.0, 1}, {1.0, 3}, {2.0, 2}};
  for (const auto& [g, node] : expected) {
    ASSERT_FALSE(arena.heap_empty());
    const auto entry = arena.heap_pop();
    EXPECT_EQ(entry.f, 2.5);
    EXPECT_EQ(entry.g, g);
    EXPECT_EQ(entry.node, RouteNodeId::from_index(node));
  }
  EXPECT_EQ(arena.heap_pop().node, RouteNodeId::from_index(0));
  EXPECT_TRUE(arena.heap_empty());
}

TEST(FrontierQueueTest, GenerationWrapReuseStaysCorrect) {
  // Jump the generation counter to just below the 31-bit wrap, run a query,
  // wrap, and run it again: state stamped before the wipe must not leak into
  // the post-wrap search.
  const Fabric fabric = make_quale_fabric({2, 2, 4});
  const RoutingGraph graph(fabric);
  const TechnologyParams params;
  const Router router(graph, params);
  CongestionState congestion(fabric.segment_count(), fabric.junction_count());
  const auto traps = fabric.traps_by_distance(fabric.center());
  ASSERT_GE(traps.size(), 2u);

  SearchArena<Duration> arena;
  Duration fresh_cost = 0;
  const auto fresh = router.route_trap_to_trap(
      traps.front(), traps.back(), congestion, arena, &fresh_cost);
  ASSERT_TRUE(fresh.has_value());

  arena.debug_set_generation((1u << 31) - 2);
  Duration near_wrap_cost = 0;
  const auto near_wrap = router.route_trap_to_trap(
      traps.front(), traps.back(), congestion, arena, &near_wrap_cost);
  ASSERT_TRUE(near_wrap.has_value());
  EXPECT_EQ(near_wrap->nodes, fresh->nodes);
  EXPECT_EQ(near_wrap_cost, fresh_cost);
  EXPECT_EQ(arena.debug_generation(), (1u << 31) - 1);

  // The next begin hits the limit, wipes the stamps, and restarts at 1.
  Duration wrapped_cost = 0;
  const auto wrapped = router.route_trap_to_trap(
      traps.front(), traps.back(), congestion, arena, &wrapped_cost);
  ASSERT_TRUE(wrapped.has_value());
  EXPECT_EQ(arena.debug_generation(), 1u);
  EXPECT_EQ(wrapped->nodes, fresh->nodes);
  EXPECT_EQ(wrapped_cost, fresh_cost);
}

}  // namespace
}  // namespace qspr
