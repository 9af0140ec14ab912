#include "core/artifact_cache.hpp"

#include <limits>

namespace qspr {

FabricArtifacts::FabricArtifacts(const Fabric& source)
    : fabric(source),
      graph(fabric),
      traps_near_center(fabric.traps_by_distance(fabric.center())) {
  trap_port_count.reserve(fabric.trap_count());
  for (const Trap& trap : fabric.traps()) {
    trap_port_count.push_back(static_cast<int>(trap.ports.size()));
  }
}

std::shared_ptr<const LandmarkTables> FabricArtifacts::landmark_tables(
    double t_move, double turn_cost, int k) const {
  if (k <= 0) return nullptr;
  const std::lock_guard<std::mutex> lock(landmark_mutex_);
  auto& entry = landmark_tables_[{t_move, turn_cost, k}];
  if (entry) {
    ++landmark_stats_.hits;
    return entry;
  }
  ++landmark_stats_.builds;
  entry = std::make_shared<const LandmarkTables>(
      build_landmark_tables(graph, t_move, turn_cost, k));
  return entry;
}

LandmarkCacheStats FabricArtifacts::landmark_stats() const {
  const std::lock_guard<std::mutex> lock(landmark_mutex_);
  return landmark_stats_;
}

std::size_t FabricArtifacts::memory_bytes() const {
  // Estimate, not an exact accounting: the dominant terms are the CSR
  // routing graph (node records + edge storage) and the landmark tables
  // (K doubles per node per table); container overheads are folded
  // into per-element constants.
  std::size_t bytes = sizeof(FabricArtifacts);
  bytes += static_cast<std::size_t>(fabric.rows()) *
           static_cast<std::size_t>(fabric.cols());
  bytes += graph.node_count() * 32 + graph.edge_count() * 8;
  bytes += traps_near_center.size() * sizeof(TrapId);
  bytes += trap_port_count.size() * sizeof(int);
  const std::lock_guard<std::mutex> lock(landmark_mutex_);
  for (const auto& [key, tables] : landmark_tables_) {
    if (!tables) continue;
    bytes += sizeof(LandmarkTables) +
             tables->landmarks.size() * sizeof(RouteNodeId) +
             tables->distance.size() * sizeof(double);
  }
  return bytes;
}

std::uint64_t fabric_fingerprint(const Fabric& fabric) {
  std::uint64_t hash = 1469598103934665603ULL;  // FNV-1a offset basis
  const auto mix = [&hash](std::uint64_t value) {
    for (int byte = 0; byte < 8; ++byte) {
      hash ^= (value >> (8 * byte)) & 0xffULL;
      hash *= 1099511628211ULL;  // FNV-1a prime
    }
  };
  mix(static_cast<std::uint64_t>(fabric.rows()));
  mix(static_cast<std::uint64_t>(fabric.cols()));
  for (int row = 0; row < fabric.rows(); ++row) {
    for (int col = 0; col < fabric.cols(); ++col) {
      hash ^= static_cast<std::uint64_t>(fabric.cell({row, col}));
      hash *= 1099511628211ULL;
    }
  }
  return hash;
}

bool same_fabric_layout(const Fabric& a, const Fabric& b) {
  if (a.rows() != b.rows() || a.cols() != b.cols()) return false;
  for (int row = 0; row < a.rows(); ++row) {
    for (int col = 0; col < a.cols(); ++col) {
      if (a.cell({row, col}) != b.cell({row, col})) return false;
    }
  }
  return true;
}

std::shared_ptr<const FabricArtifacts> FabricArtifactCache::get(
    const Fabric& fabric) {
  const std::uint64_t key = fabric_fingerprint(fabric);
  const auto find_in_bucket =
      [&fabric](std::vector<Entry>& bucket) -> Entry* {
    for (Entry& entry : bucket) {
      if (same_fabric_layout(entry.artifacts->fabric, fabric)) return &entry;
    }
    return nullptr;
  };
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    const auto it = entries_.find(key);
    if (it != entries_.end()) {
      if (Entry* entry = find_in_bucket(it->second)) {
        ++stats_.hits;
        entry->last_used = ++tick_;
        auto artifacts = entry->artifacts;
        enforce_budget_locked(artifacts.get());
        return artifacts;
      }
    }
  }
  // Build outside the lock: artifact construction (CSR packing) is the
  // expensive part and must not serialize unrelated lookups. A concurrent
  // first-sight of the same layout may build twice; the first insert wins.
  auto built = std::make_shared<const FabricArtifacts>(fabric);
  const std::lock_guard<std::mutex> lock(mutex_);
  auto& bucket = entries_[key];
  if (Entry* entry = find_in_bucket(bucket)) {
    ++stats_.hits;
    entry->last_used = ++tick_;
    return entry->artifacts;
  }
  ++stats_.builds;
  bucket.push_back(Entry{std::move(built), ++tick_});
  auto artifacts = bucket.back().artifacts;
  enforce_budget_locked(artifacts.get());
  return artifacts;
}

void FabricArtifactCache::set_budget_bytes(std::size_t budget) {
  const std::lock_guard<std::mutex> lock(mutex_);
  budget_bytes_ = budget;
  enforce_budget_locked(nullptr);
}

void FabricArtifactCache::enforce_budget_locked(const FabricArtifacts* keep) {
  std::size_t total = 0;
  for (const auto& [key, bucket] : entries_) {
    for (const Entry& entry : bucket) {
      total += entry.artifacts->memory_bytes();
    }
  }
  while (budget_bytes_ > 0 && total > budget_bytes_) {
    // LRU victim scan: the caches here hold a handful of fabrics, so a
    // linear scan beats maintaining an intrusive list under the same lock.
    std::uint64_t oldest = std::numeric_limits<std::uint64_t>::max();
    std::uint64_t victim_key = 0;
    std::size_t victim_pos = 0;
    bool found = false;
    for (const auto& [key, bucket] : entries_) {
      for (std::size_t pos = 0; pos < bucket.size(); ++pos) {
        if (bucket[pos].artifacts.get() == keep) continue;
        if (bucket[pos].last_used < oldest) {
          oldest = bucket[pos].last_used;
          victim_key = key;
          victim_pos = pos;
          found = true;
        }
      }
    }
    if (!found) break;  // only the protected entry remains
    auto bucket_it = entries_.find(victim_key);
    total -= bucket_it->second[victim_pos].artifacts->memory_bytes();
    bucket_it->second.erase(bucket_it->second.begin() +
                            static_cast<std::ptrdiff_t>(victim_pos));
    if (bucket_it->second.empty()) entries_.erase(bucket_it);
    ++stats_.evictions;
  }
  stats_.bytes = total;
}

FabricArtifactCache::Stats FabricArtifactCache::stats() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return stats_;
}

LandmarkCacheStats FabricArtifactCache::landmark_stats() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  LandmarkCacheStats total;
  for (const auto& [key, bucket] : entries_) {
    for (const auto& entry : bucket) {
      const LandmarkCacheStats stats = entry.artifacts->landmark_stats();
      total.builds += stats.builds;
      total.hits += stats.hits;
    }
  }
  return total;
}

std::size_t FabricArtifactCache::size() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::size_t total = 0;
  for (const auto& [key, bucket] : entries_) total += bucket.size();
  return total;
}

void FabricArtifactCache::clear() {
  const std::lock_guard<std::mutex> lock(mutex_);
  entries_.clear();
  stats_ = Stats{};
}

}  // namespace qspr
