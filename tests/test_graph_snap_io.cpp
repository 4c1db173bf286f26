#include "graph/snap_io.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <sstream>

#include "core/error.hpp"
#include "test_util.hpp"

namespace epgs {
namespace {

TEST(SnapIo, ParseBasic) {
  const auto el = parse_snap("# comment\n0 1\n1 2\n2 0\n");
  EXPECT_EQ(el.num_vertices, 3u);
  EXPECT_EQ(el.num_edges(), 3u);
  EXPECT_FALSE(el.weighted);
  EXPECT_EQ(el.edges[0], (Edge{0, 1, 1.0f}));
}

TEST(SnapIo, ParseWeighted) {
  const auto el = parse_snap("0 1 2.5\n1 0 3\n");
  EXPECT_TRUE(el.weighted);
  EXPECT_FLOAT_EQ(el.edges[0].w, 2.5f);
  EXPECT_FLOAT_EQ(el.edges[1].w, 3.0f);
}

TEST(SnapIo, ParseTabsAndPadding) {
  const auto el = parse_snap("  0\t7 \n\t3   4\t\n");
  EXPECT_EQ(el.num_vertices, 8u);
  EXPECT_EQ(el.num_edges(), 2u);
  EXPECT_EQ(el.edges[1], (Edge{3, 4, 1.0f}));
}

TEST(SnapIo, CommentsAndBlankLinesIgnored) {
  const auto el = parse_snap("# a\n\n   # indented comment\n5 6\n");
  EXPECT_EQ(el.num_edges(), 1u);
  EXPECT_EQ(el.num_vertices, 7u);
}

TEST(SnapIo, NonContiguousIdsKeptVerbatim) {
  const auto el = parse_snap("10 20\n");
  EXPECT_EQ(el.num_vertices, 21u);  // max id + 1; no relabeling
}

TEST(SnapIo, MalformedLineThrows) {
  EXPECT_THROW(parse_snap("0\n"), EpgsError);
  EXPECT_THROW(parse_snap("a b\n"), EpgsError);
  EXPECT_THROW(parse_snap("1 -2\n"), EpgsError);
}

TEST(SnapIo, MixedWeightednessThrows) {
  EXPECT_THROW(parse_snap("0 1 2.0\n1 2\n"), EpgsError);
}

TEST(SnapIo, WriteIncludesHeaderComment) {
  std::ostringstream os;
  write_snap(os, test::line_graph(3));
  const auto text = os.str();
  EXPECT_NE(text.find("# "), std::string::npos);
  EXPECT_NE(text.find("Nodes: 3"), std::string::npos);
}

TEST(SnapIo, FileRoundTripUnweighted) {
  const test::TempDir dir;
  const auto path = dir.path() / "rt.snap";
  const auto original = test::two_triangles();
  write_snap_file(path, original);
  const auto back = read_snap_file(path);
  EXPECT_EQ(back.num_vertices, original.num_vertices);
  EXPECT_EQ(back.edges, original.edges);
}

TEST(SnapIo, FileRoundTripWeighted) {
  const test::TempDir dir;
  const auto path = dir.path() / "w.snap";
  const auto original = test::line_graph(5, /*weighted=*/true);
  write_snap_file(path, original);
  const auto back = read_snap_file(path);
  ASSERT_TRUE(back.weighted);
  EXPECT_EQ(back.edges, original.edges);
}

TEST(SnapIo, MissingFileThrows) {
  EXPECT_THROW(read_snap_file("/nonexistent/epgs.snap"), EpgsError);
}

}  // namespace
}  // namespace epgs
