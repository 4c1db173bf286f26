#include "graphalytics/comparator.hpp"

#include <gtest/gtest.h>

#include <filesystem>

#include "graph/homogenizer.hpp"
#include "harness/runner.hpp"
#include "systems/common/registry.hpp"
#include "test_util.hpp"

namespace epgs::graphalytics {
namespace {

namespace fs = std::filesystem;
using harness::Algorithm;

Options small_options(const fs::path& dir) {
  Options opts;
  opts.algorithms = {Algorithm::kBfs, Algorithm::kPageRank,
                     Algorithm::kSssp, Algorithm::kWcc};
  opts.threads = 2;
  opts.work_dir = dir;
  return opts;
}

harness::GraphSpec small_kron(bool weighted) {
  harness::GraphSpec spec;
  spec.kind = harness::GraphSpec::Kind::kKronecker;
  spec.scale = 7;
  spec.edgefactor = 8;
  spec.add_weights = weighted;
  return spec;
}

TEST(Graphalytics, ReportHasCellsForAllSystems) {
  const test::TempDir dir;
  const auto report = run(small_kron(true), small_options(dir.path()));
  EXPECT_EQ(report.cells.size(), 3u);
  for (const auto& [system, row] : report.cells) {
    EXPECT_EQ(row.size(), 4u) << system;
  }
  // PowerGraph has no BFS; GraphMat/GraphBIG do.
  EXPECT_FALSE(report.cells.at("PowerGraph").at("BFS").available);
  EXPECT_TRUE(report.cells.at("GraphMat").at("BFS").available);
  EXPECT_TRUE(report.cells.at("GraphBIG").at("BFS").available);
}

TEST(Graphalytics, SsspNaOnUnweightedDatasets) {
  // Table I: the cit-Patents SSSP column is N/A because the dataset is
  // unweighted.
  const test::TempDir dir;
  const auto report = run(small_kron(false), small_options(dir.path()));
  for (const auto& [system, row] : report.cells) {
    EXPECT_FALSE(row.at("SSSP").available) << system;
  }
}

TEST(Graphalytics, GraphMatChargedForFileReadButGraphBigIsNot) {
  // The paper's core methodological finding, reproduced deterministically
  // against the systems' own phase logs: GraphMat's reported number
  // includes its file read and graph build; GraphBIG's excludes its
  // (fused) read+build entirely.
  const test::TempDir dir;
  const auto spec = small_kron(true);
  const auto el = harness::materialize(spec);
  const auto files = homogenize(el, "flaw", dir.path());

  auto gm = make_system("GraphMat");
  gm->load_file(files.path(gm->native_format()));
  gm->build();
  (void)gm->pagerank();
  const double gm_cell = reported_seconds(*gm);
  const double gm_io = gm->log().total(phase::kFileRead) +
                       gm->log().total(phase::kBuild);
  const double gm_alg = gm->log().total(phase::kAlgorithm);
  EXPECT_GT(gm_io, 0.0);
  EXPECT_DOUBLE_EQ(gm_cell, gm_io + gm_alg)
      << "GraphMat's cell must include I/O + build";

  auto gb = make_system("GraphBIG");
  gb->load_file(files.path(gb->native_format()));
  gb->build();
  (void)gb->pagerank();
  const double gb_cell = reported_seconds(*gb);
  EXPECT_GT(gb->log().total(phase::kBuild), 0.0);
  EXPECT_DOUBLE_EQ(gb_cell, gb->log().total(phase::kAlgorithm))
      << "GraphBIG's cell must exclude the fused read+build";
}

TEST(Graphalytics, GraphMatLogExcerptPresent) {
  const test::TempDir dir;
  auto opts = small_options(dir.path());
  opts.algorithms = {Algorithm::kPageRank};
  const auto report = run(small_kron(true), opts);
  ASSERT_FALSE(report.graphmat_log_excerpt.empty());
  bool has_file_read = false, has_load = false;
  for (const auto& line : report.graphmat_log_excerpt) {
    has_file_read |= line.find("file read") != std::string::npos;
    has_load |= line.find("load graph") != std::string::npos;
  }
  EXPECT_TRUE(has_file_read);
  EXPECT_TRUE(has_load);
}

TEST(Graphalytics, RenderersProduceOutput) {
  const test::TempDir dir;
  auto opts = small_options(dir.path());
  opts.algorithms = {Algorithm::kWcc};
  const auto report = run(small_kron(false), opts);

  const auto table = render_table(report);
  EXPECT_NE(table.find("GraphMat"), std::string::npos);
  EXPECT_NE(table.find("WCC"), std::string::npos);

  const auto html = render_html(report);
  EXPECT_EQ(html.rfind("<!DOCTYPE html>", 0), 0u);
  EXPECT_NE(html.find("<table"), std::string::npos);
  EXPECT_NE(html.find("GraphBIG"), std::string::npos);
}

TEST(Graphalytics, EmptyConfigRejected) {
  Options opts;
  opts.algorithms = {};
  EXPECT_THROW(run(small_kron(false), opts), EpgsError);
  opts.algorithms = {Algorithm::kBfs};
  opts.systems = {};
  EXPECT_THROW(run(small_kron(false), opts), EpgsError);
}

}  // namespace
}  // namespace epgs::graphalytics
