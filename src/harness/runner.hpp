// The experiment runner: phases 3 (run) and 4 (parse logs into CSV) of
// easy-parallel-graph-*.
//
// The runner is split into three stages:
//
//   plan    — sweep_plan.hpp enumerates every (system, algorithm, trial)
//             unit and resolves native-file / journal-replay / rebuild
//             decisions up front;
//   execute — run_experiment drives each planned unit through the trial
//             supervisor, reading everything back by *serialising each
//             system's phase log to text and parsing it* (the original
//             tool's AWK idiom);
//   collect — collector.hpp journals finished units and accumulates the
//             flat phase records; records.hpp renders them as CSV.
#pragma once

#include "harness/dataset_pipeline.hpp"
#include "harness/experiment.hpp"
#include "harness/records.hpp"

namespace epgs::harness {

/// Run the experiment. Throws EpgsError on configuration errors; systems
/// lacking a requested algorithm are skipped for that algorithm (the
/// paper's plots simply omit those bars). The graph is staged once by
/// prepare_dataset(cfg.graph, cfg.dataset): with a cache dir every
/// system loads its own native file (so "file read" times real I/O),
/// without one the systems are staged from the in-RAM edges.
ExperimentResult run_experiment(const ExperimentConfig& cfg);

/// Run the experiment on a dataset the caller already staged. The serve
/// layer keeps prepared datasets warm across requests (see
/// src/serve/graph_session.hpp) and runs each request through this
/// overload, skipping the generate/load step that dominates one-shot
/// sweeps. Apart from the timing columns, the records are byte-identical
/// to what run_experiment(cfg) produces — the property the serve
/// end-to-end tests pin down.
ExperimentResult run_experiment(const ExperimentConfig& cfg,
                                const PreparedDataset& data);

}  // namespace epgs::harness
