// The staged dataset pipeline: GraphSpec -> fingerprint -> cache entry.
//
// Sits between the spec-agnostic DatasetCache (graph layer) and the
// runner: it knows how to canonicalise a GraphSpec into a content
// fingerprint (generator parameters, or the digest of an input file, plus
// every preprocessing flag) and how to fill a cache miss by running the
// generators once.
#pragma once

#include <cstdint>
#include <string>

#include "graph/dataset_cache.hpp"
#include "harness/experiment.hpp"

namespace epgs::harness {

/// Process-wide counters over the cached pipeline's expensive stages
/// (runs without a cache dir are not counted). Tests assert on these to
/// prove a warm run re-enters neither the generators nor the homogenizer.
struct PipelineStats {
  std::uint64_t generator_runs = 0;   ///< materialize(spec) executions
  std::uint64_t homogenize_runs = 0;  ///< cache materializations
  std::uint64_t snapshot_loads = 0;   ///< packed-snapshot reads
  std::uint64_t cache_hits = 0;
  std::uint64_t builds_elided = 0;    ///< a concurrent process built it
  std::uint64_t degraded_runs = 0;    ///< cache failed; ran uncached
};

[[nodiscard]] PipelineStats& pipeline_stats();
void reset_pipeline_stats();

/// Canonical content fingerprint of a spec: every field that changes the
/// produced edge list changes the string. A SnapFile spec fingerprints the
/// *content* of the input file (not its path or mtime), so a moved or
/// rewritten file is handled correctly.
[[nodiscard]] std::string spec_fingerprint(const GraphSpec& spec);

/// A dataset ready for a run: the canonical edge list (for roots,
/// oracles, and RAM-staged systems) plus, when it came through the cache,
/// the entry holding every system's native file.
struct PreparedDataset {
  /// Empty `files` (no cache dir, or a degraded cache) means the systems
  /// are staged from `edges` in RAM.
  CacheEntry entry;
  bool cache_hit = false;
  EdgeList edges;
  /// True when the cache could not serve this run (disk full, lock
  /// timeout, I/O error): `edges` is still valid but `entry` is empty.
  bool degraded = false;
  std::string degradation;  ///< human-readable reason, empty when healthy
};

/// Stage `spec` for a run. With an empty `opts.cache_dir` the graph is
/// generated in RAM and nothing is written. Otherwise it resolves through
/// the cache at `opts.cache_dir`: a hit loads the packed snapshot; a miss
/// runs the generators + homogenizer once and publishes the entry (under
/// the cross-process builder lock — when a concurrent process wins the
/// election, its published entry is reused). Cache-side resource failures
/// (ENOSPC, lock timeout, EIO) do not propagate: the result degrades to
/// uncached in-RAM generation with `degraded` set.
PreparedDataset prepare_dataset(const GraphSpec& spec,
                                const DatasetOptions& opts);

}  // namespace epgs::harness
