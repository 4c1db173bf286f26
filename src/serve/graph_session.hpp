// Warm-graph residency for the query server.
//
// One-shot `epg run` sweeps pay graph generation/load on every invocation
// — the per-phase cost the paper shows dominating end-to-end time for
// separate-construction systems. The GraphStore keeps materialized
// datasets resident between requests, keyed by the same content
// fingerprint as the on-disk dataset cache (spec_fingerprint), so a
// repeat request skips straight to construction + kernel.
//
// Residency is budgeted: --max-resident-bytes caps the accounted bytes of
// resident edge lists, and crossing the budget evicts least-recently-used
// graphs (never one currently staged into an executing request — those
// are kept alive by shared_ptr refcounts and evicted lazily once the
// request finishes). The companion process-level answer ("what does the
// kernel think we weigh") comes from the resource governor's RSS
// accounting (core/proc_stats.hpp) and is reported alongside in stats.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "harness/dataset_pipeline.hpp"
#include "harness/experiment.hpp"
#include "serve/metrics.hpp"

namespace epgs::serve {

/// A materialized dataset held warm. Immutable once published: requests
/// share it read-only via shared_ptr, so eviction can never free edges
/// under a running kernel.
struct ResidentGraph {
  harness::GraphSpec spec;
  std::string fingerprint;
  std::string name;
  /// Edges plus, when the store has a cache dir, every system's native
  /// file — exactly what run_experiment stages a one-shot sweep from.
  harness::PreparedDataset data;
  std::uint64_t bytes = 0;         ///< accounted footprint of the edges
  double load_seconds = 0.0;       ///< cold materialization cost
};

/// Accounted footprint of an edge list: what the LRU budget charges.
[[nodiscard]] std::uint64_t edge_list_bytes(const EdgeList& el);

class GraphStore {
 public:
  /// `dataset`: cold loads stage through prepare_dataset, so with a cache
  /// dir a server restart finds warm files even though RAM residency is
  /// gone. `max_resident_bytes` of 0 means unbounded.
  GraphStore(harness::DatasetOptions dataset,
             std::uint64_t max_resident_bytes, Metrics& metrics);

  /// Get-or-load the graph for `spec`. A warm hit bumps LRU recency; a
  /// cold load materializes, accounts the bytes, and LRU-evicts other
  /// unreferenced graphs until the budget holds again. Throws EpgsError
  /// (e.g. unreadable snap file) on load failure — the store stays
  /// consistent and later requests can retry.
  [[nodiscard]] std::shared_ptr<const ResidentGraph> acquire(
      const harness::GraphSpec& spec);

  /// Residency rows for the stats snapshot.
  [[nodiscard]] std::vector<GraphResidency> residency() const;

  /// Sum of accounted bytes currently resident.
  [[nodiscard]] std::uint64_t resident_bytes() const;

  [[nodiscard]] std::uint64_t max_resident_bytes() const {
    return max_resident_bytes_;
  }

 private:
  struct Slot {
    std::shared_ptr<const ResidentGraph> graph;
    std::uint64_t hits = 0;
    std::uint64_t last_used = 0;  ///< LRU tick
  };

  /// Evict LRU unreferenced graphs until the budget holds; `keep` is the
  /// fingerprint never evicted (the graph just acquired). Caller holds
  /// the lock.
  void evict_to_budget(const std::string& keep);

  harness::DatasetOptions dataset_;
  std::uint64_t max_resident_bytes_;
  Metrics& metrics_;

  mutable std::mutex mutex_;
  std::vector<std::pair<std::string, Slot>> slots_;  ///< fingerprint-keyed
  std::uint64_t tick_ = 0;
};

}  // namespace epgs::serve
