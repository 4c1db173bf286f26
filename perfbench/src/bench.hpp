// Shared types of the benchmark: command-line options, the metrics a
// workload reports, and the measurement helpers every workload uses.
#pragma once

#include <cstdint>
#include <filesystem>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "harness/records.hpp"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::filesystem::path work_dir;   ///< scratch for caches, sockets, journals
  std::filesystem::path trace_out;  ///< spans file of a traced run
};

/// One reported number. `samples` is how many observations it summarises.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::size_t samples = 1;
  std::string note;  ///< printed beside the value, e.g. tail sample count
};

/// What a workload run hands back to main.
struct Report {
  bool correct = true;
  std::uint64_t attempted = 0;  ///< units (sweeps) or requests (serve)
  std::uint64_t failed = 0;     ///< non-success, refused or mismatched
  std::vector<Metric> metrics;
  std::vector<std::string> problems;  ///< why `correct` is false

  void add(std::string name, double value, std::string unit,
           std::size_t samples = 1, std::string note = {}) {
    metrics.push_back(Metric{std::move(name), value, std::move(unit),
                             samples, std::move(note)});
  }
  void fail(std::string why) {
    correct = false;
    problems.push_back(std::move(why));
  }
};

Report run_sweep_kernel(const Options& opts);
Report run_sweep_supervised(const Options& opts);
Report run_serve_traversal(const Options& opts);

// --- statistics ----------------------------------------------------------

/// Linear-interpolated quantile, q in [0, 1]; 0 for an empty sample.
double quantile(std::vector<double> v, double q);
inline double median(std::vector<double> v) {
  return quantile(std::move(v), 0.5);
}
/// Samples strictly above the q-quantile (the tail a percentile rests on).
std::size_t beyond(const std::vector<double>& v, double q);

/// Derive independent 64-bit seeds from the run seed.
std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream);

// --- process resources -----------------------------------------------------

/// User+system CPU seconds of this process plus its waited-for children.
double cpu_seconds();
/// Peak resident set of this process or its largest child, in MiB.
double peak_rss_mib();

// --- phase accounting over a sweep's records -------------------------------

/// Phases a system logs *inside* its "run algorithm" phase (GraphMat and
/// PowerGraph time engine set-up and output there); counting them again
/// would sum past wall time.
bool nested_phase(const std::string& phase);

/// Seconds of the top-level phases of successful records: nested phases
/// excluded, each build-once (trial -1) record counted once.
double top_level_seconds(const std::vector<epgs::harness::RunRecord>& recs);

/// Answer times by (system, algorithm) cell: for every trial >= 0 the sum
/// of its top-level phases (per-trial build plus run algorithm).
using Cell = std::pair<std::string, std::string>;
std::map<Cell, std::vector<double>> answer_seconds(
    const std::vector<epgs::harness::RunRecord>& recs);

/// Records whose outcome is not success.
std::size_t failed_records(const std::vector<epgs::harness::RunRecord>& recs);

/// Distinct (system, algorithm, trial >= 0) units in the records.
std::size_t trial_units(const std::vector<epgs::harness::RunRecord>& recs);

}  // namespace perfbench
