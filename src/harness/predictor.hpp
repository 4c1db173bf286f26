// Runtime/feasibility prediction (paper Section V).
//
// "Graphalytics encountered circumstances with the more computationally
// expensive algorithms fail, so determining whether an algorithm will
// finish given a particular machine, input size, runtime limit, and
// resources is an important unanswered question we plan to pursue
// further." — this module is that pursuit: calibrate a per-(system,
// algorithm) affine cost model t = a + b * work(graph) from two small
// probe runs, then extrapolate to a target graph and answer the
// will-it-finish question before committing hours to an experiment.
#pragma once

#include <algorithm>
#include <cstdint>
#include <limits>
#include <string>

#include "core/timer.hpp"
#include "graph/edge_list.hpp"
#include "harness/experiment.hpp"

namespace epgs::harness {

/// Size statistics the cost model extrapolates over.
struct GraphStats {
  vid_t n = 0;
  eid_t m = 0;
  double sum_deg_sq = 0.0;  ///< sum of (total degree)^2 — LCC/TC driver

  static GraphStats of(const EdgeList& el);
};

/// Abstract work units for one run of `alg` on a graph: the quantity the
/// calibrated seconds-per-unit rate multiplies. Frontier algorithms scale
/// with m; PageRank with m x expected iterations; LCC/TC with the degree
/// second moment.
double estimated_work_units(Algorithm alg, const GraphStats& stats,
                            int expected_pagerank_iterations = 50);

/// Passes a probe timing takes the minimum of. A measurement compared
/// against a prediction should take the same minimum (min_pass_seconds),
/// so that one scheduling stall on either side cannot decide the
/// comparison.
inline constexpr int kTimingPasses = 5;

/// Minimum wall time over kTimingPasses calls of `pass`.
template <typename Fn>
[[nodiscard]] double min_pass_seconds(Fn&& pass) {
  double best = std::numeric_limits<double>::infinity();
  for (int i = 0; i < kTimingPasses; ++i) {
    WallTimer t;
    pass();
    best = std::min(best, t.seconds());
  }
  return best;
}

class Predictor {
 public:
  /// Calibrate for (system, algorithm) by timing two Kronecker probe
  /// graphs of different scales. Throws EpgsError if the system lacks
  /// the algorithm.
  static Predictor calibrate(const std::string& system, Algorithm alg,
                             int small_scale = 8, int large_scale = 10,
                             std::uint64_t seed = 7);

  /// Expected runtime of one trial on a graph with these stats.
  [[nodiscard]] double predict_seconds(const GraphStats& stats) const;

  /// Expected resident bytes of the built data structure.
  [[nodiscard]] std::size_t predict_bytes(const GraphStats& stats) const;

  /// The Section V question: will one trial fit the budget?
  [[nodiscard]] bool feasible(const GraphStats& stats,
                              double time_limit_s,
                              std::size_t memory_limit_bytes) const;

  [[nodiscard]] const std::string& system() const { return system_; }
  [[nodiscard]] Algorithm algorithm() const { return alg_; }
  [[nodiscard]] double fixed_overhead_s() const { return overhead_s_; }
  [[nodiscard]] double seconds_per_unit() const { return rate_s_; }

 private:
  std::string system_;
  Algorithm alg_ = Algorithm::kBfs;
  double overhead_s_ = 0.0;   ///< a: per-run constant
  double rate_s_ = 0.0;       ///< b: seconds per work unit
  double bytes_per_edge_ = 0.0;
  double bytes_per_vertex_ = 0.0;
  int pagerank_iters_ = 50;
};

}  // namespace epgs::harness
