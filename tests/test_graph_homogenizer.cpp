#include "graph/homogenizer.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>

#include "core/error.hpp"
#include "graph/snap_io.hpp"
#include "test_util.hpp"

namespace epgs {
namespace {

namespace fs = std::filesystem;

/// Sort edges for order-insensitive comparison.
std::vector<Edge> canonical(std::vector<Edge> edges) {
  std::sort(edges.begin(), edges.end(), [](const Edge& a, const Edge& b) {
    if (a.src != b.src) return a.src < b.src;
    if (a.dst != b.dst) return a.dst < b.dst;
    return a.w < b.w;
  });
  return edges;
}

class HomogenizerRoundTrip
    : public ::testing::TestWithParam<std::tuple<GraphFormat, bool>> {
 protected:
  static EdgeList input(bool weighted) {
    auto el = test::line_graph(9, weighted);
    // A vertex with no edges at the top of the id range, to catch formats
    // that only infer the vertex set from edge endpoints.
    el.num_vertices = 11;
    return el;
  }

  static EdgeList round_trip(GraphFormat fmt, const EdgeList& el,
                             const fs::path& dir) {
    const auto ds = homogenize(el, "rt", dir);
    const auto& p = ds.path(fmt);
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
  }
};

TEST_P(HomogenizerRoundTrip, EdgesSurviveAsMultiset) {
  const auto [fmt, weighted] = GetParam();
  const test::TempDir dir;
  const auto el = input(weighted);
  const auto back = round_trip(fmt, el, dir.path());

  EXPECT_EQ(back.num_vertices, el.num_vertices)
      << "format " << format_name(fmt);
  EXPECT_EQ(back.weighted, el.weighted);
  EXPECT_EQ(canonical(back.edges), canonical(el.edges));
}

INSTANTIATE_TEST_SUITE_P(
    AllFormats, HomogenizerRoundTrip,
    ::testing::Combine(
        ::testing::Values(GraphFormat::kSnapText, GraphFormat::kGraph500Bin,
                          GraphFormat::kGapSg, GraphFormat::kGraphMatMtx,
                          GraphFormat::kGraphBigCsv,
                          GraphFormat::kPowerGraphTsv,
                          GraphFormat::kLigraAdj),
        ::testing::Bool()),
    [](const auto& info) {
      std::string name(format_name(std::get<0>(info.param)));
      std::replace(name.begin(), name.end(), '-', '_');
      return name + "_" +
             (std::get<1>(info.param) ? "weighted" : "unweighted");
    });

TEST(Homogenizer, ProducesAllSevenFormats) {
  const test::TempDir dir;
  const auto ds = homogenize(test::two_triangles(), "tri", dir.path());
  EXPECT_EQ(ds.files.size(), 7u);
  for (const auto& [fmt, path] : ds.files) {
    EXPECT_TRUE(fs::exists(path)) << format_name(fmt);
  }
}

TEST(Homogenizer, PathThrowsForMissingFormat) {
  HomogenizedDataset ds;
  ds.name = "x";
  EXPECT_THROW(ds.path(GraphFormat::kGapSg), EpgsError);
}

TEST(Homogenizer, FormatNamesDistinct) {
  const GraphFormat all[] = {
      GraphFormat::kSnapText,    GraphFormat::kGraph500Bin,
      GraphFormat::kGapSg,       GraphFormat::kGraphMatMtx,
      GraphFormat::kGraphBigCsv, GraphFormat::kPowerGraphTsv,
      GraphFormat::kLigraAdj};
  std::vector<std::string_view> names;
  for (const auto f : all) names.push_back(format_name(f));
  std::sort(names.begin(), names.end());
  EXPECT_EQ(std::unique(names.begin(), names.end()), names.end());
}

TEST(Homogenizer, GapSgNormalisesToSortedCsrOrder) {
  // The .sg format serialises a CSR, so the round-trip is sorted by
  // (src, dst) — a permutation of the input, which canonical() hides; the
  // byte-level guarantee is row-major sortedness.
  EdgeList el;
  el.num_vertices = 3;
  el.edges = {Edge{2, 0, 1.0f}, Edge{0, 2, 1.0f}, Edge{0, 1, 1.0f}};
  const test::TempDir dir;
  write_gap_sg(dir.path() / "g.sg", el);
  const auto back = read_gap_sg(dir.path() / "g.sg");
  ASSERT_EQ(back.edges.size(), 3u);
  EXPECT_TRUE(std::is_sorted(back.edges.begin(), back.edges.end(),
                             [](const Edge& a, const Edge& b) {
                               return a.src != b.src ? a.src < b.src
                                                     : a.dst < b.dst;
                             }));
}

TEST(Homogenizer, GraphMatMtxIsOneIndexed) {
  EdgeList el;
  el.num_vertices = 2;
  el.edges = {Edge{0, 1, 1.0f}};
  const test::TempDir dir;
  write_graphmat_mtx(dir.path() / "g.mtx", el);

  std::ifstream in(dir.path() / "g.mtx");
  std::string header, sizes, edge;
  std::getline(in, header);
  std::getline(in, sizes);
  std::getline(in, edge);
  EXPECT_NE(header.find("MatrixMarket"), std::string::npos);
  EXPECT_EQ(sizes, "2 2 1");
  EXPECT_EQ(edge, "1 2");
}

/// Malformed numerics must raise a typed ParseError, not silently default
/// the field (the old sscanf/istringstream readers did the latter).
class ReaderRejection : public ::testing::Test {
 protected:
  fs::path write(const std::string& name, const std::string& text) {
    const auto p = dir_.path() / name;
    std::ofstream(p) << text;
    return p;
  }

  test::TempDir dir_;
};

TEST_F(ReaderRejection, MtxBadIndexAndWeight) {
  const auto bad_id = write("a.mtx",
                            "%%MatrixMarket matrix coordinate pattern "
                            "general\n2 2 1\n1 two\n");
  EXPECT_THROW(read_graphmat_mtx(bad_id), ParseError);
  const auto bad_w = write("b.mtx",
                           "%%MatrixMarket matrix coordinate real "
                           "general\n2 2 1\n1 2 heavy\n");
  EXPECT_THROW(read_graphmat_mtx(bad_w), ParseError);
}

TEST_F(ReaderRejection, PowerGraphTsvBadFields) {
  EXPECT_THROW(read_powergraph_tsv(write("a.tsv", "1\tx\n")), ParseError);
  EXPECT_THROW(read_powergraph_tsv(write("b.tsv", "1\t2\theavy\n")),
               ParseError);
  EXPECT_THROW(read_powergraph_tsv(write("c.tsv", "#nv\tmany\n")),
               ParseError);
}

TEST_F(ReaderRejection, GraphBigCsvBadFieldsAndTrailingJunk) {
  const auto mk = [&](const std::string& edge_csv) {
    const auto d = dir_.path() / "gb";
    fs::create_directories(d);
    std::ofstream(d / "vertex.csv") << "id\n0\n1\n";
    std::ofstream(d / "edge.csv") << edge_csv;
    return d;
  };
  EXPECT_THROW(read_graphbig_csv(mk("src,dst\n0,one\n")), ParseError);
  EXPECT_THROW(read_graphbig_csv(mk("src,dst,weight\n0,1,w\n")),
               ParseError);
  EXPECT_THROW(read_graphbig_csv(mk("src,dst\n0,1,junk\n")), ParseError);
}

TEST_F(ReaderRejection, LigraAdjBadCountAndTruncation) {
  EXPECT_THROW(read_ligra_adj(write("a.adj", "AdjacencyGraph\nx\n1\n")),
               ParseError);
  // Declares 2 vertices / 1 edge but the token stream ends early.
  EXPECT_THROW(read_ligra_adj(write("b.adj", "AdjacencyGraph\n2\n1\n0\n")),
               ParseError);
}

TEST_F(ReaderRejection, SnapBadWeight) {
  EXPECT_THROW(read_snap_file(write("a.snap", "0\t1\theavy\n")), ParseError);
  EXPECT_THROW(read_snap_file(write("b.snap", "0\n")), ParseError);
}

TEST_F(ReaderRejection, BinaryTruncationDetected) {
  EdgeList el;
  el.num_vertices = 3;
  el.edges = {Edge{0, 1, 1.0f}, Edge{1, 2, 1.0f}};
  const auto g500 = dir_.path() / "g.g500";
  write_graph500_bin(g500, el);
  fs::resize_file(g500, fs::file_size(g500) - 3);
  EXPECT_THROW(read_graph500_bin(g500), EpgsError);

  const auto sg = dir_.path() / "g.sg";
  write_gap_sg(sg, el);
  fs::resize_file(sg, fs::file_size(sg) - 3);
  EXPECT_THROW(read_gap_sg(sg), EpgsError);
}

}  // namespace
}  // namespace epgs
