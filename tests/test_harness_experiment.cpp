#include "harness/experiment.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "core/error.hpp"
#include "graph/snap_io.hpp"
#include "graph/transforms.hpp"
#include "test_util.hpp"

namespace epgs::harness {
namespace {

TEST(AlgorithmNames, RoundTrip) {
  for (const auto a : {Algorithm::kBfs, Algorithm::kSssp,
                       Algorithm::kPageRank, Algorithm::kCdlp,
                       Algorithm::kLcc, Algorithm::kWcc}) {
    EXPECT_EQ(algorithm_from_name(algorithm_name(a)), a);
  }
  EXPECT_EQ(algorithm_from_name("PR"), Algorithm::kPageRank);
  EXPECT_THROW(algorithm_from_name("TriangleCount"), EpgsError);
}

TEST(GraphSpec, NamesIdentifyWorkloads) {
  GraphSpec kron;
  kron.kind = GraphSpec::Kind::kKronecker;
  kron.scale = 22;
  EXPECT_EQ(kron.name(), "kron-s22");

  GraphSpec snap;
  snap.kind = GraphSpec::Kind::kSnapFile;
  snap.path = "/data/sets/cit-Patents.snap";
  EXPECT_EQ(snap.name(), "cit-Patents.snap");

  GraphSpec dota;
  dota.kind = GraphSpec::Kind::kDotaLike;
  EXPECT_NE(dota.name().find("dota"), std::string::npos);
}

TEST(Materialize, KroneckerSymmetrizedDeduplicated) {
  GraphSpec spec;
  spec.kind = GraphSpec::Kind::kKronecker;
  spec.scale = 7;
  spec.edgefactor = 8;
  const auto el = materialize(spec);
  // Symmetric: every edge has its reverse.
  std::set<std::pair<vid_t, vid_t>> edges;
  for (const auto& e : el.edges) edges.emplace(e.src, e.dst);
  for (const auto& [u, v] : edges) {
    EXPECT_TRUE(edges.count({v, u})) << u << "->" << v;
    EXPECT_NE(u, v) << "self loops must be removed";
  }
  // Deduplicated.
  EXPECT_EQ(edges.size(), el.edges.size());
}

TEST(Materialize, WeightsOnRequest) {
  GraphSpec spec;
  spec.kind = GraphSpec::Kind::kKronecker;
  spec.scale = 6;
  spec.add_weights = true;
  spec.max_weight = 7;
  const auto el = materialize(spec);
  ASSERT_TRUE(el.weighted);
  for (const auto& e : el.edges) {
    EXPECT_GE(e.w, 1.0f);
    EXPECT_LE(e.w, 7.0f);
  }
}

TEST(Materialize, SnapFilePassThrough) {
  const test::TempDir dir;
  const auto path = dir.path() / "mat.snap";
  write_snap_file(path, test::two_triangles());
  GraphSpec spec;
  spec.kind = GraphSpec::Kind::kSnapFile;
  spec.path = path.string();
  spec.symmetrize = false;
  spec.deduplicate = false;
  const auto el = materialize(spec);
  EXPECT_EQ(el.num_vertices, 7u);
  EXPECT_EQ(el.num_edges(), 12u);
}

TEST(Materialize, DotaLikeAlreadyWeighted) {
  GraphSpec spec;
  spec.kind = GraphSpec::Kind::kDotaLike;
  spec.fraction = 0.005;
  spec.add_weights = true;  // must not overwrite the co-play counts
  const auto el = materialize(spec);
  ASSERT_TRUE(el.weighted);
  bool any_gt_one = false;
  for (const auto& e : el.edges) any_gt_one |= e.w > 1.0f;
  EXPECT_TRUE(any_gt_one);
}

TEST(SelectRoots, DistinctHighDegreeDeterministic) {
  const auto el = test::star_graph(64);
  const auto roots = select_roots(el, 8, 42);
  EXPECT_EQ(roots.size(), 8u);
  std::set<vid_t> uniq(roots.begin(), roots.end());
  EXPECT_EQ(uniq.size(), 8u);
  EXPECT_EQ(roots, select_roots(el, 8, 42));
  EXPECT_NE(roots, select_roots(el, 8, 43));
}

TEST(SelectRoots, RespectsDegreeFloor) {
  // Degree > 1 rule: in a star, leaves have degree 2 (symmetric pairs),
  // so everything qualifies; in a graph with pendant vertices, those with
  // degree <= 1 are avoided while better vertices exist.
  EdgeList el;
  el.num_vertices = 10;
  // 0-1-2 chain (degrees 2, 4, 2 as directed pairs) + pendant edge 3->4.
  el.edges = {Edge{0, 1, 1.0f}, Edge{1, 0, 1.0f}, Edge{1, 2, 1.0f},
              Edge{2, 1, 1.0f}, Edge{3, 4, 1.0f}};
  const auto roots = select_roots(el, 3, 1);
  for (const auto r : roots) {
    EXPECT_LE(r, 2u) << "vertices 3,4 (deg<=1) and 5..9 (deg 0) excluded";
  }
}

TEST(SelectRoots, FallsBackWhenTooFewCandidates) {
  const auto el = test::line_graph(3);  // only vertex 1 has degree > 1
  const auto roots = select_roots(el, 4, 7);
  EXPECT_EQ(roots.size(), 4u);  // repeats allowed once candidates exhaust
  for (const auto r : roots) EXPECT_LT(r, 3u);
}

TEST(SelectRoots, ThrowsOnEdgelessGraph) {
  EdgeList el;
  el.num_vertices = 5;
  EXPECT_THROW(select_roots(el, 2, 1), EpgsError);
}

}  // namespace
}  // namespace epgs::harness
