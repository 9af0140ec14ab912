// LRU memory-budget enforcement of the per-fabric artifact cache and the
// program-level result cache. Both follow the same contract: set_budget_bytes(0) is unlimited, eviction is
// least-recently-used, and the entry the current operation returns/inserts
// is never evicted (a budget smaller than one entry degrades to a cache of
// one, not thrash-to-empty).
#include <gtest/gtest.h>

#include <memory>

#include "core/artifact_cache.hpp"
#include "core/engine.hpp"
#include "core/result_cache.hpp"
#include "fabric/quale_fabric.hpp"
#include "qecc/codes.hpp"

namespace qspr {
namespace {

TEST(FabricArtifactCacheTest, HitsShareOneBundlePerLayout) {
  FabricArtifactCache cache;
  const Fabric paper = make_paper_fabric();
  const auto first = cache.get(paper);
  // A *different instance* of the same layout hits the same bundle.
  const Fabric again = make_paper_fabric();
  const auto second = cache.get(again);
  EXPECT_EQ(first.get(), second.get());
  const auto stats = cache.stats();
  EXPECT_EQ(stats.builds, 1);
  EXPECT_EQ(stats.hits, 1);
  EXPECT_EQ(stats.evictions, 0);
  EXPECT_GT(stats.bytes, 0u);
}

TEST(FabricArtifactCacheTest, BudgetEvictsLeastRecentlyUsed) {
  FabricArtifactCache cache;
  const Fabric small = make_quale_fabric({2, 2, 3});
  const Fabric medium = make_quale_fabric({3, 3, 4});
  const Fabric paper = make_paper_fabric();

  const std::size_t one = cache.get(small)->memory_bytes();
  // Room for roughly two small bundles: inserting the (much larger) paper
  // bundle must evict, and the least-recently-used entry goes first.
  cache.set_budget_bytes(2 * one + cache.get(medium)->memory_bytes());
  (void)cache.get(medium);  // small is now the LRU entry
  (void)cache.get(paper);
  const auto stats = cache.stats();
  EXPECT_GE(stats.evictions, 1);

  // The evicted layout rebuilds on next sight; the recently-used one hits.
  const long long builds_before = stats.builds;
  (void)cache.get(small);
  EXPECT_EQ(cache.stats().builds, builds_before + 1);
}

TEST(FabricArtifactCacheTest, TinyBudgetDegradesToCacheOfOne) {
  FabricArtifactCache cache;
  cache.set_budget_bytes(1);  // smaller than any bundle
  const auto paper = cache.get(make_paper_fabric());
  EXPECT_NE(paper, nullptr);  // the returned bundle is never evicted
  const auto quale = cache.get(make_quale_fabric({3, 3, 4}));
  EXPECT_NE(quale, nullptr);
  EXPECT_GE(cache.stats().evictions, 1);
}

TEST(FabricArtifactCacheTest, EvictedBundleSurvivesThroughHeldReference) {
  FabricArtifactCache cache;
  const auto held = cache.get(make_quale_fabric({2, 2, 3}));
  const auto tables = held->landmark_tables(6.0, 1.0, 2);
  ASSERT_NE(tables, nullptr);
  cache.set_budget_bytes(1);
  (void)cache.get(make_paper_fabric());  // evicts the held bundle
  // Eviction drops the cache's reference only: the bundle and its landmark
  // tables stay valid for jobs still holding them.
  EXPECT_GT(held->memory_bytes(), 0u);
  EXPECT_EQ(held->landmark_tables(6.0, 1.0, 2).get(), tables.get());
}

TEST(FabricArtifactCacheTest, EngineBudgetGoesWholeToArtifacts) {
  // The engine's only budgeted cache is the artifact cache, so it gets the
  // whole budget: two bundles that fit it exactly both stay.
  MappingEngine engine;
  const std::size_t small =
      engine.artifacts().get(make_quale_fabric({2, 2, 3}))->memory_bytes();
  const std::size_t medium =
      engine.artifacts().get(make_quale_fabric({3, 3, 4}))->memory_bytes();
  engine.set_cache_budget_bytes(small + medium);
  EXPECT_EQ(engine.artifacts().stats().evictions, 0);
  EXPECT_EQ(engine.artifacts().size(), 2u);
}

std::shared_ptr<const CachedMapResult> entry_of_bytes(std::size_t extra) {
  auto entry = std::make_shared<CachedMapResult>();
  // Timings are counted by memory_bytes, so they make a convenient size
  // dial for eviction tests.
  entry->result.timings.resize(extra / sizeof(InstructionTiming));
  return entry;
}

TEST(ResultCacheTest, FindMissThenHit) {
  ResultCache cache;
  const ResultCache::Key key{1, 2, 3};
  EXPECT_EQ(cache.find(key), nullptr);
  cache.insert(key, entry_of_bytes(64));
  EXPECT_NE(cache.find(key), nullptr);
  const auto stats = cache.stats();
  EXPECT_EQ(stats.misses, 1);
  EXPECT_EQ(stats.hits, 1);
  EXPECT_EQ(stats.insertions, 1);
  EXPECT_EQ(stats.entries, 1u);
  EXPECT_GE(stats.bytes, sizeof(CachedMapResult));
}

TEST(ResultCacheTest, BudgetEvictsLeastRecentlyUsed) {
  ResultCache cache;
  const std::size_t entry_bytes = entry_of_bytes(4096)->memory_bytes();
  cache.set_budget_bytes(2 * entry_bytes + entry_bytes / 2);

  const ResultCache::Key a{1, 0, 0};
  const ResultCache::Key b{2, 0, 0};
  const ResultCache::Key c{3, 0, 0};
  cache.insert(a, entry_of_bytes(4096));
  cache.insert(b, entry_of_bytes(4096));
  EXPECT_NE(cache.find(a), nullptr);  // refresh a: b is now the LRU entry
  cache.insert(c, entry_of_bytes(4096));

  EXPECT_EQ(cache.find(b), nullptr);  // evicted as LRU
  EXPECT_NE(cache.find(a), nullptr);
  EXPECT_NE(cache.find(c), nullptr);
  const auto stats = cache.stats();
  EXPECT_EQ(stats.evictions, 1);
  EXPECT_EQ(stats.entries, 2u);
  EXPECT_LE(stats.bytes, 2 * entry_bytes + entry_bytes / 2);
}

TEST(ResultCacheTest, TinyBudgetDegradesToCacheOfOne) {
  ResultCache cache;
  cache.set_budget_bytes(1);
  const ResultCache::Key a{1, 0, 0};
  const ResultCache::Key b{2, 0, 0};
  cache.insert(a, entry_of_bytes(1024));
  // The just-inserted entry is protected; everything else goes.
  EXPECT_EQ(cache.size(), 1u);
  cache.insert(b, entry_of_bytes(1024));
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.find(a), nullptr);
  EXPECT_NE(cache.find(b), nullptr);
}

TEST(ResultCacheTest, ZeroBudgetIsUnlimited) {
  ResultCache cache;
  for (std::uint64_t i = 0; i < 16; ++i) {
    cache.insert({i, 0, 0}, entry_of_bytes(4096));
  }
  EXPECT_EQ(cache.size(), 16u);
  EXPECT_EQ(cache.stats().evictions, 0);
}

TEST(ResultCacheTest, SearchKnobsEnterTheKeyOnlyWithTheDiagnostic) {
  const Program program = make_encoder(QeccCode::Q5_1_3);
  const Fabric fabric = make_quale_fabric({4, 4, 4});
  const auto key = [&](const MapperOptions& options) {
    return MappingEngine::result_key(program, fabric, options);
  };
  for (const bool report : {false, true}) {
    MapperOptions base;
    base.negotiation_report = report;
    MapperOptions landmarks = base;
    landmarks.route_landmarks = 0;
    MapperOptions weight = base;
    weight.route_heuristic_weight = 1.5;
    // Without the diagnostic the knobs change nothing in the result, so
    // they must not split the cache; with it they shape the diagnostic.
    EXPECT_EQ(key(base) == key(landmarks), !report) << "report " << report;
    EXPECT_EQ(key(base) == key(weight), !report) << "report " << report;
  }
}

}  // namespace
}  // namespace qspr
