// Program-level mapping result cache, keyed so that a hit returns exactly
// the MapResult a fresh mapping would compute.
//
// The key is a canonical QIDG fingerprint of the program (order-independent
// where the program is: two textual orderings of the same interaction
// structure hash identically), the fabric-layout fingerprint, and a
// fingerprint of the *contractual* mapper options — the knobs that change
// the mapped result, deliberately excluding jobs, which is
// bit-identity-neutral by the determinism contract. qspr_serve gives each
// session one of these caches: an exact resubmission, or an undo back to an
// earlier circuit of the session, is answered from it without placement
// or routing.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <unordered_map>

#include "circuit/program.hpp"
#include "core/mapper.hpp"

namespace qspr {

/// Canonical QIDG fingerprint: FNV-1a over the program's interaction
/// structure. Each instruction hashes (gate kind, operand qubits, and the
/// running hash of each operand's dependency chain); per-instruction hashes
/// combine by wrapping sum, so instructions on disjoint qubits commute in
/// the fingerprint exactly as they commute in the QIDG, while dependent
/// instructions chain through their shared qubits and stay order-sensitive.
/// Qubit names are ignored (placement is index-based); init values are not.
[[nodiscard]] std::uint64_t program_fingerprint(const Program& program);

/// Fingerprint of the MapperOptions fields that are contractual for the
/// mapped result: kind, technology parameters, priorities, placer and trial
/// budgets, rng_seed, negotiation_report, and the ablation overrides.
/// route_landmarks and route_heuristic_weight count only when
/// negotiation_report is set: they shape nothing but the diagnostic. jobs is
/// excluded — results are bit-identical at any value.
[[nodiscard]] std::uint64_t mapper_options_fingerprint(
    const MapperOptions& options);

/// One cached mapping.
struct CachedMapResult {
  MapResult result;

  /// Estimated resident bytes (trace, timings).
  [[nodiscard]] std::size_t memory_bytes() const;
};

/// Thread-safe LRU result cache keyed on (program, fabric, options)
/// fingerprints, with the same memory-budget semantics as
/// FabricArtifactCache: set_budget_bytes(0) = unlimited; eviction never
/// drops the entry the current operation returns/inserts, so a budget
/// smaller than one entry degrades to a cache of one.
class ResultCache {
 public:
  struct Key {
    std::uint64_t program_fp = 0;
    std::uint64_t fabric_fp = 0;
    std::uint64_t options_fp = 0;

    friend bool operator==(const Key&, const Key&) = default;
  };

  struct Stats {
    long long hits = 0;
    long long misses = 0;
    long long insertions = 0;
    long long evictions = 0;
    /// Estimated resident bytes at the last find/insert.
    std::size_t bytes = 0;
    std::size_t entries = 0;
  };

  /// nullptr on miss (counted).
  [[nodiscard]] std::shared_ptr<const CachedMapResult> find(const Key& key);

  /// Inserts (or replaces) the entry for `key` and enforces the budget,
  /// never evicting the entry just inserted.
  void insert(const Key& key,
              std::shared_ptr<const CachedMapResult> entry);

  /// LRU memory budget in bytes (0 = unlimited, the default).
  void set_budget_bytes(std::size_t budget);

  [[nodiscard]] Stats stats() const;
  [[nodiscard]] std::size_t size() const;
  void clear();

 private:
  struct KeyHash {
    std::size_t operator()(const Key& key) const noexcept {
      std::uint64_t hash = key.program_fp;
      hash ^= key.fabric_fp + 0x9e3779b97f4a7c15ULL + (hash << 6) + (hash >> 2);
      hash ^= key.options_fp + 0x9e3779b97f4a7c15ULL + (hash << 6) + (hash >> 2);
      return static_cast<std::size_t>(hash);
    }
  };

  struct Entry {
    std::shared_ptr<const CachedMapResult> cached;
    std::uint64_t last_used = 0;
  };

  /// Caller holds mutex_. Evicts LRU entries (never `keep`) until the
  /// estimated total fits the budget.
  void enforce_budget_locked(const CachedMapResult* keep);

  mutable std::mutex mutex_;
  std::unordered_map<Key, Entry, KeyHash> entries_;
  Stats stats_;
  std::size_t budget_bytes_ = 0;
  std::uint64_t tick_ = 0;
};

}  // namespace qspr
