// Plan stage of the runner: enumerate every supervised unit of a sweep —
// (system, algorithm, trial) plus the per-system load/build units — and
// resolve the decisions that used to be interleaved with execution:
// which native file (if any) each system loads, which units a resumed journal
// already covers, and which systems rebuild per trial.
//
// The plan is pure data; executing it (runner.cpp) and collecting its
// records (collector.hpp) are separate stages.
#pragma once

#include <filesystem>
#include <map>
#include <string>
#include <vector>

#include "graph/homogenizer.hpp"
#include "harness/supervisor.hpp"

namespace epgs::harness {

/// One (system, algorithm, trial) unit.
struct PlannedTrial {
  Algorithm alg = Algorithm::kBfs;
  std::string alg_name;
  int trial = 0;
  std::string key;        ///< journal unit key "system|alg|trial"
  bool replayed = false;  ///< journal already holds this unit
};

/// Everything decided about one system before execution starts.
struct SystemPlan {
  std::string system;
  /// Non-empty when the registry rejected the name: the sweep emits one
  /// config-failure record and skips the system.
  std::string config_error;
  bool separate_construction = true;
  /// Re-time construction before every trial (separate-construction
  /// systems except Graph500, which "only constructs its graph once").
  bool rebuild_per_trial = false;
  std::string build_key;       ///< "system|build|-1" build-once unit key
  bool build_replayed = false;
  std::string load_key;        ///< "system|load|-1" file-read unit key
  bool load_replayed = false;
  /// Native-format file the system loads; empty when it is staged from
  /// the in-RAM edges instead.
  std::filesystem::path native_file;
  std::vector<PlannedTrial> trials;  ///< replayed units excluded
};

struct SweepPlan {
  std::string dataset;
  std::string fingerprint;  ///< config fingerprint (journal identity)
  int threads = 0;
  std::vector<SystemPlan> systems;
};

/// Build the plan. A homogenized dataset in `files` plans native-file
/// loads; nullptr or an empty one plans systems staged from RAM.
/// `journaled` (from a replayed journal) marks units that must not re-run.
SweepPlan plan_sweep(const ExperimentConfig& cfg,
                     const HomogenizedDataset* files,
                     const std::map<std::string, JournalEntry>& journaled);

}  // namespace epgs::harness
