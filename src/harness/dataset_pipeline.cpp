#include "harness/dataset_pipeline.hpp"

#include <sstream>

#include "core/error.hpp"
#include "core/mapped_file.hpp"

namespace epgs::harness {
namespace {

PipelineStats g_stats;

std::string_view kind_name(GraphSpec::Kind k) {
  switch (k) {
    case GraphSpec::Kind::kKronecker: return "kron";
    case GraphSpec::Kind::kPatentsLike: return "patents";
    case GraphSpec::Kind::kDotaLike: return "dota";
    case GraphSpec::Kind::kSnapFile: return "snapfile";
  }
  return "?";
}

}  // namespace

PipelineStats& pipeline_stats() { return g_stats; }

void reset_pipeline_stats() { g_stats = {}; }

std::string spec_fingerprint(const GraphSpec& spec) {
  std::ostringstream os;
  os << "epgs-ds-v1;kind=" << kind_name(spec.kind);
  switch (spec.kind) {
    case GraphSpec::Kind::kKronecker:
      os << ";scale=" << spec.scale << ";edgefactor=" << spec.edgefactor
         << ";seed=" << spec.seed;
      break;
    case GraphSpec::Kind::kPatentsLike:
    case GraphSpec::Kind::kDotaLike:
      os << ";fraction=" << spec.fraction << ";seed=" << spec.seed;
      break;
    case GraphSpec::Kind::kSnapFile: {
      // Digest the file content so the fingerprint follows the data, not
      // the path: editing the file invalidates, renaming it does not.
      const MappedFile file(spec.path);
      os << ";digest=" << content_hash_hex(file.view())
         << ";bytes=" << file.size();
      break;
    }
  }
  os << ";sym=" << (spec.symmetrize ? 1 : 0)
     << ";dedup=" << (spec.deduplicate ? 1 : 0)
     << ";weights=" << (spec.add_weights ? 1 : 0);
  if (spec.add_weights) {
    os << ";maxw=" << spec.max_weight << ";wseed=" << spec.seed;
  }
  return os.str();
}

namespace {

/// The graceful-degradation path: the sweep must survive a sick cache.
/// Whatever edges we already have (or can regenerate in RAM) carry the
/// run; the entry is cleared so the systems are staged from RAM.
PreparedDataset degrade_to_ram(const GraphSpec& spec, PreparedDataset out,
                               const std::string& why) {
  ++g_stats.degraded_runs;
  out.degraded = true;
  out.degradation = why;
  out.cache_hit = false;
  out.entry = CacheEntry{};
  if (out.edges.edges.empty() && out.edges.num_vertices == 0) {
    ++g_stats.generator_runs;
    out.edges = materialize(spec);
  }
  return out;
}

}  // namespace

PreparedDataset prepare_dataset(const GraphSpec& spec,
                                const DatasetOptions& opts) {
  PreparedDataset out;
  if (opts.cache_dir.empty()) {
    out.edges = materialize(spec);
    return out;
  }
  CacheOptions copts;
  copts.lock_timeout_seconds = opts.lock_timeout_seconds;
  copts.min_free_disk_bytes = opts.min_free_disk_bytes;
  DatasetCache cache(opts.cache_dir, copts);
  // Fingerprint failures propagate: they mean the *input* is unreadable
  // (SnapFile digest), which the uncached path could not survive either.
  const std::string fp = spec_fingerprint(spec);

  try {
    if (auto entry = cache.lookup(fp)) {
      ++g_stats.cache_hits;
      ++g_stats.snapshot_loads;
      out.entry = std::move(*entry);
      out.cache_hit = true;
      out.edges = read_packed_snapshot(out.entry.snapshot);
      return out;
    }

    bool generated = false;
    out.entry = cache.materialize(fp, spec.name(), [&]() -> const EdgeList& {
      // Invoked only when this process won the builder election.
      ++g_stats.generator_runs;
      ++g_stats.homogenize_runs;
      generated = true;
      out.edges = materialize(spec);
      return out.edges;
    });
    if (!generated) {
      // Lost the election: a concurrent process published while we
      // waited on the lock. Its entry is as good as ours would have been.
      ++g_stats.builds_elided;
      ++g_stats.snapshot_loads;
      out.cache_hit = true;
      out.edges = read_packed_snapshot(out.entry.snapshot);
    }
    return out;
  } catch (const ResourceExhaustedError& e) {
    return degrade_to_ram(spec, std::move(out), e.what());
  } catch (const IoError& e) {
    return degrade_to_ram(spec, std::move(out), e.what());
  }
}

}  // namespace epgs::harness
