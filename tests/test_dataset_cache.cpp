// The content-addressed dataset cache, the packed snapshot format, the
// mmap loaders, and the spec-level pipeline above them.
#include "graph/dataset_cache.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>

#include "core/error.hpp"
#include "core/mapped_file.hpp"
#include "graph/snap_io.hpp"
#include "harness/dataset_pipeline.hpp"
#include "test_util.hpp"

namespace epgs {
namespace {

namespace fs = std::filesystem;

using test::TempDir;

EdgeList sample_graph(bool weighted = true) {
  auto el = test::line_graph(9, weighted);
  el.num_vertices = 11;  // isolated trailing vertices must survive
  return el;
}

/// Forces the buffered-read fallback for the duration of a scope.
struct BufferedScope {
  BufferedScope() { MappedFile::force_buffered(true); }
  ~BufferedScope() { MappedFile::force_buffered(false); }
};

TEST(MappedFileTest, MapsAndFallsBackIdentically) {
  TempDir tmp;
  const auto p = tmp.path() / "data.txt";
  std::ofstream(p) << "hello mapped world";
  {
    const MappedFile mapped(p);
    EXPECT_TRUE(mapped.is_mapped());
    EXPECT_EQ(mapped.view(), "hello mapped world");
  }
  {
    BufferedScope forced;
    const MappedFile buffered(p);
    EXPECT_FALSE(buffered.is_mapped());
    EXPECT_EQ(buffered.view(), "hello mapped world");
  }
}

TEST(MappedFileTest, EmptyFileGivesEmptyView) {
  TempDir tmp;
  const auto p = tmp.path() / "empty";
  std::ofstream{p};
  const MappedFile file(p);
  EXPECT_EQ(file.size(), 0u);
  EXPECT_EQ(file.view(), "");
}

TEST(MappedFileTest, MissingFileThrows) {
  EXPECT_THROW(MappedFile("/nonexistent/epgs/file"), EpgsError);
}

TEST(PackedSnapshot, RoundTripPreservesEverythingIncludingOrder) {
  TempDir tmp;
  const auto p = tmp.path() / "edges.bin";
  const EdgeList el = sample_graph(true);
  write_packed_snapshot(p, el);
  const EdgeList back = read_packed_snapshot(p);
  EXPECT_EQ(back.num_vertices, el.num_vertices);
  EXPECT_EQ(back.weighted, el.weighted);
  EXPECT_EQ(back.directed, el.directed);
  EXPECT_EQ(back.edges, el.edges);  // exact order, not just multiset
}

TEST(PackedSnapshot, TruncationDetected) {
  TempDir tmp;
  const auto p = tmp.path() / "edges.bin";
  write_packed_snapshot(p, sample_graph());
  fs::resize_file(p, fs::file_size(p) - 5);  // torn write
  EXPECT_THROW(read_packed_snapshot(p), EpgsError);
}

TEST(PackedSnapshot, BadMagicDetected) {
  TempDir tmp;
  const auto p = tmp.path() / "edges.bin";
  write_packed_snapshot(p, sample_graph());
  std::fstream f(p, std::ios::in | std::ios::out | std::ios::binary);
  f.write("XXXX", 4);
  f.close();
  EXPECT_THROW(read_packed_snapshot(p), EpgsError);
}

TEST(DatasetCacheTest, MissMaterializeHit) {
  TempDir tmp;
  DatasetCache cache(tmp.path());
  const EdgeList el = sample_graph();

  EXPECT_FALSE(cache.lookup("fp-1").has_value());
  EXPECT_EQ(cache.stats().misses, 1u);

  const CacheEntry entry = cache.materialize("fp-1", "g", el);
  EXPECT_EQ(cache.stats().materializations, 1u);
  EXPECT_EQ(entry.num_vertices, el.num_vertices);
  EXPECT_EQ(entry.num_edges, el.num_edges());
  EXPECT_EQ(entry.files.files.size(), 7u);
  for (const auto& [fmt, path] : entry.files.files) {
    EXPECT_TRUE(fs::exists(path)) << format_name(fmt);
  }

  const auto hit = cache.lookup("fp-1");
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(cache.stats().hits, 1u);
  EXPECT_EQ(hit->dir, entry.dir);
  const EdgeList back = read_packed_snapshot(hit->snapshot);
  EXPECT_EQ(back.edges, el.edges);
}

TEST(DatasetCacheTest, FingerprintMismatchInvalidates) {
  TempDir tmp;
  DatasetCache cache(tmp.path());
  const CacheEntry entry = cache.materialize("fp-a", "g", sample_graph());

  // Simulate an FNV collision / stale scheme: same directory, different
  // full fingerprint string.
  {
    std::ofstream meta(entry.dir / "meta", std::ios::trunc);
    meta << "epgs-dataset-cache-v1\nfingerprint OTHER\nname g\nnv 11\n"
            "ne 16\nweighted 1\ndirected 0\nend\n";
  }
  EXPECT_FALSE(cache.lookup("fp-a").has_value());
  EXPECT_EQ(cache.stats().invalidations, 1u);
  EXPECT_FALSE(fs::exists(entry.dir)) << "corrupt entry must be removed";
}

TEST(DatasetCacheTest, TruncatedSnapshotInvalidates) {
  TempDir tmp;
  DatasetCache cache(tmp.path());
  const CacheEntry entry = cache.materialize("fp-b", "g", sample_graph());
  fs::resize_file(entry.snapshot, fs::file_size(entry.snapshot) - 1);
  EXPECT_FALSE(cache.lookup("fp-b").has_value());
  EXPECT_EQ(cache.stats().invalidations, 1u);
}

TEST(DatasetCacheTest, MissingFormatFileInvalidates) {
  TempDir tmp;
  DatasetCache cache(tmp.path());
  const CacheEntry entry = cache.materialize("fp-c", "g", sample_graph());
  fs::remove(entry.files.path(GraphFormat::kGapSg));
  EXPECT_FALSE(cache.lookup("fp-c").has_value());
  EXPECT_EQ(cache.stats().invalidations, 1u);
  // And the next materialize repairs it.
  const CacheEntry again = cache.materialize("fp-c", "g", sample_graph());
  EXPECT_TRUE(fs::exists(again.files.path(GraphFormat::kGapSg)));
}

TEST(DatasetCacheTest, LeftoverStagingDirIsHarmless) {
  TempDir tmp;
  DatasetCache cache(tmp.path());
  // A crashed writer left a staging dir behind.
  fs::create_directories(tmp.path() / ".tmp-deadbeef-123");
  EXPECT_FALSE(cache.lookup("fp-d").has_value());
  const CacheEntry entry = cache.materialize("fp-d", "g", sample_graph());
  EXPECT_TRUE(cache.lookup("fp-d").has_value());
  EXPECT_TRUE(fs::exists(entry.snapshot));
}

TEST(DatasetCacheTest, ContentHashIsStableAndDistinguishes) {
  EXPECT_EQ(content_hash_hex("abc"), content_hash_hex("abc"));
  EXPECT_NE(content_hash_hex("abc"), content_hash_hex("abd"));
  EXPECT_EQ(content_hash_hex("").size(), 16u);
}

/// Byte-identical loader equivalence: every format must parse to the same
/// edge list whether the file arrives via mmap or the buffered fallback.
class LoaderEquivalence : public ::testing::TestWithParam<GraphFormat> {};

TEST_P(LoaderEquivalence, MmapAndBufferedAgree) {
  const GraphFormat fmt = GetParam();
  TempDir tmp;
  const EdgeList el = sample_graph(true);
  const auto ds = homogenize(el, "eq", tmp.path());
  const auto& p = ds.path(fmt);

  const auto read_one = [&]() -> EdgeList {
    switch (fmt) {
      case GraphFormat::kSnapText: return read_snap_file(p);
      case GraphFormat::kGraph500Bin: return read_graph500_bin(p);
      case GraphFormat::kGapSg: return read_gap_sg(p);
      case GraphFormat::kGraphMatMtx: return read_graphmat_mtx(p);
      case GraphFormat::kGraphBigCsv: return read_graphbig_csv(p);
      case GraphFormat::kPowerGraphTsv: return read_powergraph_tsv(p);
      case GraphFormat::kLigraAdj: return read_ligra_adj(p);
    }
    throw std::logic_error("unreachable");
  };

  const EdgeList mapped = read_one();
  EdgeList buffered;
  {
    BufferedScope forced;
    buffered = read_one();
  }
  EXPECT_EQ(mapped.num_vertices, buffered.num_vertices);
  EXPECT_EQ(mapped.weighted, buffered.weighted);
  EXPECT_EQ(mapped.edges, buffered.edges);
}

INSTANTIATE_TEST_SUITE_P(
    AllFormats, LoaderEquivalence,
    ::testing::Values(GraphFormat::kSnapText, GraphFormat::kGraph500Bin,
                      GraphFormat::kGapSg, GraphFormat::kGraphMatMtx,
                      GraphFormat::kGraphBigCsv, GraphFormat::kPowerGraphTsv,
                      GraphFormat::kLigraAdj),
    [](const auto& info) {
      std::string name(format_name(info.param));
      std::replace(name.begin(), name.end(), '-', '_');
      return name;
    });

// --- the spec-level pipeline ------------------------------------------

TEST(DatasetPipeline, ColdThenWarmSkipsGeneratorAndHomogenizer) {
  TempDir tmp;
  harness::DatasetOptions opts;
  opts.cache_dir = tmp.path().string();

  harness::GraphSpec spec;
  spec.kind = harness::GraphSpec::Kind::kKronecker;
  spec.scale = 6;
  spec.edgefactor = 4;

  harness::reset_pipeline_stats();
  const auto cold = harness::prepare_dataset(spec, opts);
  EXPECT_FALSE(cold.cache_hit);
  EXPECT_EQ(harness::pipeline_stats().generator_runs, 1u);
  EXPECT_EQ(harness::pipeline_stats().homogenize_runs, 1u);
  EXPECT_EQ(harness::pipeline_stats().cache_hits, 0u);

  const auto warm = harness::prepare_dataset(spec, opts);
  EXPECT_TRUE(warm.cache_hit);
  // The whole point: a warm run re-enters neither the generators nor the
  // homogenizer.
  EXPECT_EQ(harness::pipeline_stats().generator_runs, 1u);
  EXPECT_EQ(harness::pipeline_stats().homogenize_runs, 1u);
  EXPECT_EQ(harness::pipeline_stats().cache_hits, 1u);
  EXPECT_EQ(harness::pipeline_stats().snapshot_loads, 1u);

  // Warm edges are exactly the cold edges, in order.
  EXPECT_EQ(warm.edges.edges, cold.edges.edges);
  EXPECT_EQ(warm.edges.num_vertices, cold.edges.num_vertices);
}

TEST(DatasetPipeline, FingerprintCoversParamsAndPreprocessing) {
  harness::GraphSpec a;
  a.kind = harness::GraphSpec::Kind::kKronecker;
  a.scale = 8;

  harness::GraphSpec b = a;
  EXPECT_EQ(harness::spec_fingerprint(a), harness::spec_fingerprint(b));
  b.scale = 9;
  EXPECT_NE(harness::spec_fingerprint(a), harness::spec_fingerprint(b));
  b = a;
  b.seed ^= 1;
  EXPECT_NE(harness::spec_fingerprint(a), harness::spec_fingerprint(b));
  b = a;
  b.symmetrize = !b.symmetrize;
  EXPECT_NE(harness::spec_fingerprint(a), harness::spec_fingerprint(b));
  b = a;
  b.add_weights = true;
  EXPECT_NE(harness::spec_fingerprint(a), harness::spec_fingerprint(b));
}

TEST(DatasetPipeline, SnapFileFingerprintFollowsContentNotPath) {
  TempDir tmp;
  const EdgeList el = sample_graph(false);
  const auto p1 = tmp.path() / "a.snap";
  const auto p2 = tmp.path() / "b.snap";
  write_snap_file(p1, el);
  write_snap_file(p2, el);

  harness::GraphSpec s1;
  s1.kind = harness::GraphSpec::Kind::kSnapFile;
  s1.path = p1.string();
  harness::GraphSpec s2 = s1;
  s2.path = p2.string();
  // Same bytes, different paths: same fingerprint.
  EXPECT_EQ(harness::spec_fingerprint(s1), harness::spec_fingerprint(s2));

  // Different bytes, same path: different fingerprint.
  write_snap_file(p2, test::line_graph(4));
  EXPECT_NE(harness::spec_fingerprint(s1), harness::spec_fingerprint(s2));
}

}  // namespace
}  // namespace epgs
