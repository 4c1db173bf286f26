// Failure injection: corrupt, truncate, and mislabel every on-disk
// format; all readers must fail loudly (EpgsError) rather than return
// garbage — the harness depends on files it did not write.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <string>

#include "core/error.hpp"
#include "graph/homogenizer.hpp"
#include "graph/snap_io.hpp"
#include "systems/common/registry.hpp"
#include "test_util.hpp"

namespace epgs {
namespace {

namespace fs = std::filesystem;

class FormatCorruption : public ::testing::Test {
 protected:
  void SetUp() override {
    ds_ = homogenize(test::line_graph(10, /*weighted=*/true), "g", dir_.path());
  }

  /// Truncate a file to `keep` bytes. Returns failure (for ASSERT_TRUE)
  /// when the file cannot be sized or resized: corrupting nothing would
  /// make the "reader rejects corruption" assertions below vacuous.
  [[nodiscard]] static ::testing::AssertionResult truncate_file(
      const fs::path& p, std::uintmax_t keep) {
    std::error_code ec;
    const auto size = fs::file_size(p, ec);
    if (ec) {
      return ::testing::AssertionFailure()
             << "file_size(" << p << "): " << ec.message();
    }
    fs::resize_file(p, std::min(keep, size), ec);
    if (ec) {
      return ::testing::AssertionFailure()
             << "resize_file(" << p << "): " << ec.message();
    }
    return ::testing::AssertionSuccess();
  }

  /// Overwrite the first bytes of a file; fails when the file cannot be
  /// opened or written.
  [[nodiscard]] static ::testing::AssertionResult stomp_header(
      const fs::path& p, const std::string& junk) {
    std::fstream f(p, std::ios::in | std::ios::out | std::ios::binary);
    if (!f.is_open()) {
      return ::testing::AssertionFailure() << "cannot open " << p;
    }
    f.write(junk.data(), static_cast<std::streamsize>(junk.size()));
    f.flush();
    if (!f.good()) {
      return ::testing::AssertionFailure() << "short write to " << p;
    }
    return ::testing::AssertionSuccess();
  }

  test::TempDir dir_;
  HomogenizedDataset ds_;
};

TEST_F(FormatCorruption, Graph500BadMagicRejected) {
  const auto p = ds_.path(GraphFormat::kGraph500Bin);
  ASSERT_TRUE(stomp_header(p, "XXXXXXXX"));
  EXPECT_THROW(read_graph500_bin(p), EpgsError);
}

TEST_F(FormatCorruption, Graph500TruncatedRejected) {
  const auto p = ds_.path(GraphFormat::kGraph500Bin);
  ASSERT_TRUE(truncate_file(p, fs::file_size(p) / 2));
  EXPECT_THROW(read_graph500_bin(p), EpgsError);
}

TEST_F(FormatCorruption, GapSgBadMagicRejected) {
  const auto p = ds_.path(GraphFormat::kGapSg);
  ASSERT_TRUE(stomp_header(p, "NOTSG!!!"));
  EXPECT_THROW(read_gap_sg(p), EpgsError);
}

TEST_F(FormatCorruption, GapSgTruncatedRejected) {
  const auto p = ds_.path(GraphFormat::kGapSg);
  ASSERT_TRUE(truncate_file(p, 24));
  EXPECT_THROW(read_gap_sg(p), EpgsError);
}

TEST_F(FormatCorruption, MtxEdgeCountMismatchRejected) {
  const auto p = ds_.path(GraphFormat::kGraphMatMtx);
  // Append a bogus extra edge: declared count no longer matches.
  std::ofstream f(p, std::ios::app);
  f << "1 2 1\n";
  f.close();
  EXPECT_THROW(read_graphmat_mtx(p), EpgsError);
}

TEST_F(FormatCorruption, MtxZeroIndexRejected) {
  const auto p = dir_.path() / "zero.mtx";
  std::ofstream f(p);
  f << "%%MatrixMarket matrix coordinate pattern general\n3 3 1\n0 1\n";
  f.close();
  EXPECT_THROW(read_graphmat_mtx(p), EpgsError);
}

TEST_F(FormatCorruption, GraphBigBadEdgeLineRejected) {
  const auto dir = ds_.path(GraphFormat::kGraphBigCsv);
  std::ofstream f(dir / "edge.csv", std::ios::app);
  f << "not,a,number\n";
  f.close();
  EXPECT_THROW(read_graphbig_csv(dir), EpgsError);
}

TEST_F(FormatCorruption, GraphBigMissingVertexFileRejected) {
  const auto dir = ds_.path(GraphFormat::kGraphBigCsv);
  fs::remove(dir / "vertex.csv");
  EXPECT_THROW(read_graphbig_csv(dir), EpgsError);
}

TEST_F(FormatCorruption, PowerGraphBadLineRejected) {
  const auto p = ds_.path(GraphFormat::kPowerGraphTsv);
  std::ofstream f(p, std::ios::app);
  f << "garbage line here\n";
  f.close();
  EXPECT_THROW(read_powergraph_tsv(p), EpgsError);
}

TEST_F(FormatCorruption, SnapBadVertexRejected) {
  const auto p = ds_.path(GraphFormat::kSnapText);
  std::ofstream f(p, std::ios::app);
  f << "12 notanumber\n";
  f.close();
  EXPECT_THROW(read_snap_file(p), EpgsError);
}

TEST_F(FormatCorruption, LigraAdjBadHeaderRejected) {
  const auto p = ds_.path(GraphFormat::kLigraAdj);
  ASSERT_TRUE(stomp_header(p, "NotAGraph"));
  EXPECT_THROW(read_ligra_adj(p), EpgsError);
}

TEST_F(FormatCorruption, LigraAdjTruncatedRejected) {
  const auto p = ds_.path(GraphFormat::kLigraAdj);
  ASSERT_TRUE(truncate_file(p, fs::file_size(p) / 3));
  EXPECT_THROW(read_ligra_adj(p), EpgsError);
}

TEST_F(FormatCorruption, LigraAdjOutOfRangeTargetRejected) {
  const auto p = dir_.path() / "bad.adj";
  std::ofstream f(p);
  f << "AdjacencyGraph\n2\n1\n0\n1\n99\n";  // target 99 in a 2-vertex graph
  f.close();
  EXPECT_THROW(read_ligra_adj(p), EpgsError);
}

TEST_F(FormatCorruption, SystemLoadFileSurfacesReaderErrors) {
  // The adapter path must propagate reader failures, not half-load.
  const auto p = ds_.path(GraphFormat::kGapSg);
  ASSERT_TRUE(stomp_header(p, "NOTSG!!!"));
  auto sys = make_system("GAP");
  EXPECT_THROW(sys->load_file(p), EpgsError);
  EXPECT_FALSE(sys->is_built());
}

TEST_F(FormatCorruption, FusedSystemBuildSurfacesReaderErrors) {
  const auto p = ds_.path(GraphFormat::kPowerGraphTsv);
  std::ofstream f(p, std::ios::app);
  f << "garbage\n";
  f.close();
  auto sys = make_system("PowerGraph");
  sys->load_file(p);  // deferred read: must not throw yet
  EXPECT_THROW(sys->build(), EpgsError);
}

}  // namespace
}  // namespace epgs
