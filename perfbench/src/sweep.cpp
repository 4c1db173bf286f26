// The two sweep workloads: one in-process harness::run_experiment call,
// the call `epg run` makes.
//
//   sweep-kernel      Kronecker scale 16, all six systems x {BFS, SSSP,
//                     PageRank}, 4 roots, 4 threads, validated, warm
//                     dataset cache, supervisor features off. Kernels and
//                     builds dominate; the supervisor and cache writes
//                     barely run.
//   sweep-supervised  Kronecker scale 12, BFS and SSSP, 32 roots (the
//                     paper's count), 1 thread, cold cache every sweep,
//                     fork isolation + journal + checkpoints + crash dir +
//                     watchdog + validation. The dataset pipeline and the
//                     supervisor dominate.
//
// The timed runs call run_experiment untraced. A traced run (--trace 1)
// additionally drives the same plan through the layers' public functions
// (prepare_dataset, plan_sweep, make_system, System::load_file / build /
// bfs / sssp / pagerank, validate_*, supervise_unit, Journal) with a span
// around each call, because the library records no spans of its own.
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <functional>
#include <map>
#include <memory>
#include <optional>

#include "bench.hpp"
#include "core/checkpoint.hpp"
#include "core/parallel.hpp"
#include "core/timer.hpp"
#include "graph/csr.hpp"
#include "harness/dataset_pipeline.hpp"
#include "harness/runner.hpp"
#include "harness/supervisor.hpp"
#include "harness/sweep_plan.hpp"
#include "systems/common/reference.hpp"
#include "systems/common/registry.hpp"
#include "systems/common/validation.hpp"
#include "trace.hpp"

namespace perfbench {

namespace fs = std::filesystem;
using epgs::CSRGraph;
using epgs::System;
using epgs::WallTimer;
using epgs::harness::Algorithm;
using epgs::harness::ExperimentConfig;
using epgs::harness::ExperimentResult;
using epgs::harness::RunRecord;

namespace {

std::vector<std::string> all_systems() {
  std::vector<std::string> out;
  for (auto n : epgs::all_system_names()) out.emplace_back(n);
  for (auto n : epgs::extension_system_names()) out.emplace_back(n);
  return out;
}

void fresh_dir(const fs::path& dir) {
  fs::remove_all(dir);
  fs::create_directories(dir);
}

std::uint64_t dir_bytes(const fs::path& dir) {
  std::uint64_t total = 0;
  for (const auto& e : fs::recursive_directory_iterator(dir)) {
    if (e.is_regular_file()) total += e.file_size();
  }
  return total;
}

/// Each run averages over several Kronecker instances and root draws, all
/// derived from --seed: graph `g` has its own generator seed and sweep `i`
/// its own root seed. One graph or one set of roots moves a sweep by up to
/// 20%, far more than the run-to-run noise of the host.
void seed_inputs(ExperimentConfig& cfg, const Options& opts, std::size_t g,
                 std::size_t i) {
  cfg.graph.seed = derive_seed(opts.seed, 100 + g);
  cfg.root_seed = derive_seed(opts.seed, 200 + i);
}

/// Graphs a sweep-kernel run prepares in set-up and rotates through.
constexpr std::size_t kKernelGraphs = 4;

ExperimentConfig kernel_config(const Options& opts, const fs::path& work,
                               std::size_t i) {
  ExperimentConfig cfg;
  cfg.graph.kind = epgs::harness::GraphSpec::Kind::kKronecker;
  cfg.graph.scale = 16;
  cfg.graph.edgefactor = 16;
  seed_inputs(cfg, opts, i % kKernelGraphs, i);
  cfg.graph.add_weights = true;
  cfg.systems = all_systems();
  cfg.algorithms = {Algorithm::kBfs, Algorithm::kSssp, Algorithm::kPageRank};
  cfg.num_roots = 4;
  cfg.threads = 4;
  cfg.validate = true;
  cfg.dataset.cache_dir = (work / "cache").string();
  return cfg;
}

ExperimentConfig supervised_config(const Options& opts, const fs::path& work,
                                   std::size_t g) {
  ExperimentConfig cfg;
  cfg.graph.kind = epgs::harness::GraphSpec::Kind::kKronecker;
  cfg.graph.scale = 12;
  cfg.graph.edgefactor = 16;
  seed_inputs(cfg, opts, g, g);
  cfg.graph.add_weights = true;
  cfg.systems = all_systems();
  cfg.algorithms = {Algorithm::kBfs, Algorithm::kSssp};
  cfg.num_roots = 32;
  cfg.threads = 1;  // isolated children are single-threaded
  cfg.validate = true;
  cfg.dataset.cache_dir = (work / "cache").string();
  auto& sup = cfg.supervisor;
  sup.isolate = true;
  sup.timeout_seconds = 60.0;
  sup.journal_path = (work / "journal.log").string();
  sup.checkpoint_dir = (work / "ckpt").string();
  sup.crash_report_dir = (work / "crash").string();
  return cfg;
}

/// Everything a cold sweep-supervised run must start without.
void reset_supervised(const ExperimentConfig& cfg, const fs::path& work) {
  fresh_dir(work);
  fs::create_directories(cfg.supervisor.checkpoint_dir);
}

std::size_t planned_units(const ExperimentConfig& cfg) {
  const auto plan = epgs::harness::plan_sweep(cfg, nullptr, {});
  std::size_t n = 0;
  for (const auto& sp : plan.systems) n += sp.trials.size();
  return n;
}

struct SweepSample {
  std::uint64_t graph = 0;  ///< generator seed of the sweep's graph
  double wall = 0.0;
  double cpu = 0.0;
  ExperimentResult result;
};

SweepSample timed_sweep(const ExperimentConfig& cfg) {
  SweepSample s;
  s.graph = cfg.graph.seed;
  const double cpu0 = cpu_seconds();
  WallTimer t;
  s.result = epgs::harness::run_experiment(cfg);
  s.wall = t.seconds();
  s.cpu = cpu_seconds() - cpu0;
  return s;
}

/// The correctness gate of one sweep: every unit planned ran, every
/// outcome is success (the sweep validates every result), the dataset
/// path is the intended one, and top-level phases fit in the wall time.
void gate(Report& rep, const SweepSample& s, std::size_t expected_units,
          bool expect_cache_hit) {
  const auto& res = s.result;
  const std::size_t units = trial_units(res.records);
  const std::size_t failed = failed_records(res.records);
  rep.attempted += std::max(units, expected_units);
  rep.failed += failed + (expected_units - std::min(units, expected_units));
  if (failed > 0) {
    for (const RunRecord& r : res.records) {
      if (r.outcome == epgs::Outcome::kSuccess) continue;
      const auto err = r.extra.find("error");
      rep.fail(r.system + " " + r.algorithm + " trial " +
               std::to_string(r.trial) + ": " +
               std::string(epgs::outcome_name(r.outcome)) +
               (err != r.extra.end() ? " " + err->second : ""));
    }
  }
  if (units != expected_units) {
    rep.fail("sweep ran " + std::to_string(units) + " units, planned " +
             std::to_string(expected_units));
  }
  if (res.dataset_degraded) rep.fail("dataset cache degraded: " +
                                     res.dataset_warning);
  if (!res.used_dataset_pipeline) rep.fail("sweep bypassed the dataset cache");
  if (res.dataset_cache_hit != expect_cache_hit) {
    rep.fail(expect_cache_hit ? "warm sweep missed the dataset cache"
                              : "cold sweep hit the dataset cache");
  }
  const double phases = top_level_seconds(res.records);
  if (phases > s.wall) {
    char buf[128];
    std::snprintf(buf, sizeof buf,
                  "top-level phases sum to %.6f s, past the %.6f s wall",
                  phases, s.wall);
    rep.fail(buf);
  }
}

/// Sweeps `config_of(i)` for i = 0, 1, ... until `seconds` of sweeps ran
/// and at least `min_sweeps`; `before(cfg)` runs untimed ahead of each
/// sweep (e.g. emptying the cache).
template <typename ConfigOf, typename Before>
std::vector<SweepSample> sweep_loop(Report& rep, ConfigOf config_of,
                                    double seconds, std::size_t min_sweeps,
                                    bool expect_cache_hit, Before before) {
  const std::size_t expected = planned_units(config_of(0));
  std::vector<SweepSample> samples;
  double measured = 0.0;
  while (samples.size() < min_sweeps || measured < seconds) {
    const ExperimentConfig cfg = config_of(samples.size());
    before(cfg);
    samples.push_back(timed_sweep(cfg));
    measured += samples.back().wall;
    gate(rep, samples.back(), expected, expect_cache_hit);
  }
  return samples;
}

/// Per graph the median (robust to a noisy sweep), then the mean over
/// graphs: a run estimates the cost of the workload's graph distribution,
/// and a median over few graphs would jump between fast and slow ones.
double mean_of_medians(const std::map<std::uint64_t, std::vector<double>>& v) {
  double sum = 0.0;
  for (const auto& [graph, xs] : v) sum += median(xs);
  return v.empty() ? 0.0 : sum / static_cast<double>(v.size());
}

/// A sweep's "query" is one (system, algorithm) cell: its latency is the
/// cell's answer time over roots, as the paper's figures report it
/// (median per graph, mean over graphs). query_p50_ms / query_p99_ms are
/// quantiles over the cells; pooling single answers instead would put the
/// quantiles in the gaps between cells of very different speed, where
/// they jump from run to run.
void add_end_to_end(Report& rep, double setup_s, std::size_t setups,
                    const std::vector<SweepSample>& samples) {
  std::map<std::uint64_t, std::vector<double>> walls, cpus, rates;
  std::map<Cell, std::map<std::uint64_t, std::vector<double>>> answers;
  for (const auto& s : samples) {
    walls[s.graph].push_back(s.wall);
    cpus[s.graph].push_back(s.cpu);
    std::size_t n = 0;
    for (const auto& [cell, v] : answer_seconds(s.result.records)) {
      n += v.size();
      for (double x : v) answers[cell][s.graph].push_back(x * 1e3);
    }
    rates[s.graph].push_back(static_cast<double>(n) / s.wall);
  }
  std::vector<double> cells;
  for (const auto& [cell, by_graph] : answers) {
    cells.push_back(mean_of_medians(by_graph));
  }
  const std::size_t n = samples.size();
  const std::string graphs = std::to_string(walls.size()) + " graphs";
  rep.add("setup_s", setup_s, "s", setups);
  rep.add("sweep_s", mean_of_medians(walls), "s", n, graphs);
  rep.add("cpu_s", mean_of_medians(cpus), "s", n,
          "per sweep, children included; " + graphs);
  rep.add("peak_rss_mib", peak_rss_mib(), "MiB", 1);
  rep.add("query_p50_ms", quantile(cells, 0.5), "ms", cells.size(),
          "over (system, algorithm) cells");
  rep.add("query_p99_ms", quantile(cells, 0.99), "ms", cells.size(),
          "slowest cells");
  rep.add("query_qps", mean_of_medians(rates), "1/s", n,
          "answers per sweep second; " + graphs);
}

// --- traced replica of run_experiment --------------------------------------

struct Replica {
  double wall = 0.0;
  double covered = 0.0;  ///< seconds of the sweep span its children cover
  std::vector<RunRecord> records;
  std::vector<double> unit_overhead_s;  ///< elapsed minus top-level phases
  std::uint64_t units = 0;
  std::uint64_t attempts = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> problems;
};

/// RAII detach of the supervisor token and checkpoint session, as the
/// runner does: both die with the attempt.
struct Detach {
  System* sys;
  ~Detach() {
    sys->set_cancellation(nullptr);
    sys->set_checkpoint_session(nullptr);
  }
};

std::vector<RunRecord> slice_records(const System& sys, std::size_t mark,
                                     const std::string& dataset,
                                     const std::string& alg, int trial,
                                     int threads) {
  // The runner's log round trip (serialise the slice, parse it back).
  const auto parsed =
      epgs::PhaseLog::parse_log_text(sys.log().slice(mark).to_log_text());
  std::vector<RunRecord> recs;
  for (const auto& e : parsed.entries()) {
    RunRecord r;
    r.dataset = dataset;
    r.system = std::string(sys.name());
    r.algorithm = alg;
    r.threads = threads;
    r.trial = trial;
    r.phase = e.name;
    r.seconds = e.seconds;
    r.work = e.work;
    r.extra = e.extra;
    recs.push_back(std::move(r));
  }
  return recs;
}

/// Drive the sweep `cfg` describes through the layers' public functions,
/// mirroring harness::run_experiment unit for unit, with a span around
/// every call. `prepare_span` names the dataset step ("graph.prepare_warm"
/// or "graph.prepare_cold").
Replica replicate_sweep(const ExperimentConfig& cfg, Tracer& tr,
                        const std::string& prepare_span,
                        const fs::path& spill_path) {
  namespace h = epgs::harness;
  Replica out;
  const int parent_pid = static_cast<int>(::getpid());
  const auto& sup = cfg.supervisor;
  SpillFile spill(spill_path);
  const std::uint64_t root = tr.open("sweep");
  WallTimer wall;

  h::PreparedDataset prep;
  {
    Tracer::Scope s(tr, prepare_span, root);
    prep = h::prepare_dataset(cfg.graph, cfg.dataset);
  }
  if (prep.degraded) throw epgs::EpgsError("cache degraded: " +
                                           prep.degradation);
  const epgs::EdgeList& el = prep.edges;
  std::vector<epgs::vid_t> roots;
  {
    Tracer::Scope s(tr, "harness.select_roots", root);
    roots = h::select_roots(el, cfg.num_roots, cfg.root_seed);
  }
  std::optional<CSRGraph> oracle;
  if (cfg.validate) {
    Tracer::Scope s(tr, "validate.oracle_csr", root);
    oracle = CSRGraph::from_edges(el);
  }
  if (!sup.crash_report_dir.empty()) {
    fs::create_directories(sup.crash_report_dir);
  }
  const std::string fingerprint = h::config_fingerprint(cfg);
  h::Journal journal;
  if (!sup.journal_path.empty()) {
    Tracer::Scope s(tr, "harness.journal_open", root);
    journal.open_fresh(sup.journal_path, fingerprint);
  }
  h::SweepPlan plan;
  {
    Tracer::Scope s(tr, "harness.plan_sweep", root);
    plan = h::plan_sweep(cfg, &prep.entry.files, {});
  }
  epgs::Xoshiro256 backoff_rng(sup.backoff_seed);

  for (const h::SystemPlan& sp : plan.systems) {
    const std::string sys_name = "systems." + sp.system;
    Tracer::Scope sys_span(tr, sys_name, root);
    std::unique_ptr<System> sys;
    {
      Tracer::Scope s(tr, sys_name + ".make_system", sys_span.id());
      sys = epgs::make_system(sp.system);
    }
    epgs::ThreadScope threads(plan.threads);

    // One supervised unit: a span in the parent around supervise_unit,
    // child spans timed inside the body (possibly in a forked child).
    using Body = std::function<void(ChildSpans&)>;
    auto supervised = [&](const std::string& key, const std::string& alg,
                          int trial, const Body& body,
                          const h::SupervisorOptions& opts,
                          epgs::CheckpointSession* session) {
      const std::uint64_t unit_span =
          tr.open("harness.supervise_unit", sys_span.id(), key);
      h::TrialReport rep = h::supervise_unit(
          [&](epgs::CancellationToken& token) {
            ChildSpans kids(tr, unit_span, key);
            sys->set_cancellation(&token);
            sys->set_checkpoint_session(session);
            Detach detach{sys.get()};
            const std::size_t mark = sys->log().entries().size();
            body(kids);
            auto recs = slice_records(*sys, mark, plan.dataset, alg, trial,
                                      plan.threads);
            kids.deliver(parent_pid, spill);
            return recs;
          },
          opts, backoff_rng, session);
      tr.close(unit_span);
      ++out.units;
      out.attempts += static_cast<std::uint64_t>(rep.attempts);
      out.unit_overhead_s.push_back(rep.elapsed_seconds -
                                    top_level_seconds(rep.records));
      if (rep.outcome != epgs::Outcome::kSuccess) {
        ++out.failed;
        out.problems.push_back(key + ": " +
                               std::string(epgs::outcome_name(rep.outcome)) +
                               " " + rep.message);
      }
      if (journal.active()) {
        Tracer::Scope s(tr, "harness.journal_append", sys_span.id(), key);
        journal.append(key, rep);
      }
      const bool ok = rep.outcome == epgs::Outcome::kSuccess;
      for (auto& r : rep.records) out.records.push_back(std::move(r));
      return ok;
    };

    h::SupervisorOptions in_parent = sup;
    in_parent.isolate = false;  // staged edges / built structure stay here
    if (sp.separate_construction) {
      const bool ok = supervised(
          sp.load_key, "", -1,
          [&](ChildSpans& kids) {
            kids.time(sys_name + ".load_file",
                      [&] { sys->load_file(sp.native_file); });
          },
          in_parent, nullptr);
      if (!ok) continue;
    } else {
      Tracer::Scope s(tr, sys_name + ".load_file", sys_span.id());
      sys->load_file(sp.native_file);
    }

    bool built = false;
    for (const h::PlannedTrial& t : sp.trials) {
      if (!sp.rebuild_per_trial && !built) {
        built = supervised(
            sp.build_key, "", -1,
            [&](ChildSpans& kids) {
              kids.time(sys_name + ".build", [&] { sys->build(); });
            },
            in_parent, nullptr);
        if (!built) break;
      }

      std::optional<epgs::CheckpointSession> session;
      if (!sup.checkpoint_dir.empty()) {
        epgs::CheckpointConfig cc;
        cc.dir = sup.checkpoint_dir;
        cc.unit_key = t.key;
        cc.fingerprint = fingerprint;
        cc.every_iterations = sup.checkpoint_every_iterations;
        cc.every_seconds = sup.checkpoint_every_seconds;
        session.emplace(cc);
      }
      h::SupervisorOptions unit_opts = sup;
      if (!sup.crash_report_dir.empty() && sup.isolate) {
        unit_opts.crash_report_path =
            epgs::CheckpointSession::path_for(sup.crash_report_dir, t.key)
                .replace_extension(".crash")
                .string();
      }
      const epgs::vid_t r = roots[static_cast<std::size_t>(t.trial)];
      const std::string kernel = sys_name + "." + t.alg_name + ".kernel";
      const std::string check = "validate." + t.alg_name;
      auto require = [&](const epgs::ValidationError& err) {
        if (err) {
          throw epgs::ValidationFailedError(sp.system + " " + t.alg_name +
                                            " invalid: " + *err);
        }
      };
      supervised(
          t.key, t.alg_name, t.trial,
          [&](ChildSpans& kids) {
            if (sp.rebuild_per_trial) {
              kids.time(sys_name + ".build", [&] { sys->build(); });
            }
            switch (t.alg) {
              case Algorithm::kBfs: {
                auto res = kids.time(kernel, [&] { return sys->bfs(r); });
                if (cfg.validate) {
                  require(kids.time(check, [&] {
                    return epgs::validate_bfs(*oracle, res);
                  }));
                }
                break;
              }
              case Algorithm::kSssp: {
                auto res = kids.time(kernel, [&] { return sys->sssp(r); });
                if (cfg.validate) {
                  require(kids.time(check, [&] {
                    return epgs::validate_sssp(*oracle, res);
                  }));
                }
                break;
              }
              case Algorithm::kPageRank: {
                auto res = kids.time(
                    kernel, [&] { return sys->pagerank(cfg.pagerank); });
                if (cfg.validate && t.trial == 0) {
                  require(kids.time(
                      check, [&] { return epgs::validate_pagerank(res); }));
                }
                break;
              }
              default:
                throw epgs::EpgsError("workload runs BFS, SSSP, PageRank");
            }
          },
          unit_opts, session ? &*session : nullptr);
    }
  }
  journal.close();
  out.wall = wall.seconds();
  tr.close(root);
  spill.merge_into(tr);
  out.covered = tr.children_seconds(root);
  return out;
}

/// Median of the durations of spans named `name`; 0 when there are none.
double span_median(const std::map<std::string, std::vector<double>>& d,
                   const std::string& name) {
  const auto it = d.find(name);
  return it == d.end() ? 0.0 : median(it->second);
}

/// Per-(system, algorithm) figures read from the systems' own phase
/// records: work counters, iterations, engine set-up.
void add_system_records(Report& rep, const std::vector<RunRecord>& recs,
                        const std::map<std::string, std::vector<double>>& d,
                        const std::map<std::string, double>& ref_seconds) {
  std::map<std::string, std::vector<double>> edges, mteps, iters, init;
  for (const RunRecord& r : recs) {
    if (r.outcome != epgs::Outcome::kSuccess || r.trial < 0) continue;
    const std::string key = "systems." + r.system + "." + r.algorithm;
    if (r.phase == epgs::phase::kAlgorithm) {
      const double e = static_cast<double>(r.work.edges_processed);
      edges[key].push_back(e);
      if (r.seconds > 0) mteps[key].push_back(e / r.seconds / 1e6);
      const auto it = r.extra.find("iterations");
      if (it != r.extra.end()) iters[key].push_back(std::stod(it->second));
    } else if (r.phase == epgs::phase::kEngineInit) {
      init[key].push_back(r.seconds);
    }
  }
  for (const auto& [key, v] : edges) {
    rep.add(key + ".edges", median(v), "count", v.size());
    rep.add(key + ".mteps", median(mteps[key]), "MTEPS", mteps[key].size(),
            "work edges per kernel second");
    const double k = span_median(d, key + ".kernel");
    rep.add(key + ".kernel_s", k, "s", d.count(key + ".kernel")
                                           ? d.at(key + ".kernel").size()
                                           : 0);
    const std::string alg = key.substr(key.rfind('.') + 1);
    const auto ref = ref_seconds.find(alg);
    if (ref != ref_seconds.end() && k > 0) {
      rep.add(key + ".speedup_vs_ref", ref->second / k, "ratio", 1,
              "vs the plain serial reference oracle, not a tuned baseline");
    }
  }
  for (const auto& [key, v] : iters) {
    if (key.size() >= 9 && key.compare(key.size() - 9, 9, ".PageRank") == 0) {
      rep.add(key + ".iterations", median(v), "count", v.size());
    }
  }
  for (const auto& [key, v] : init) {
    rep.add(key + ".engine_init_s", median(v), "s", v.size());
  }
  for (const auto& name : all_systems()) {
    const std::string key = "systems." + name;
    rep.add(key + ".load_s", span_median(d, key + ".load_file"), "s");
    rep.add(key + ".build_s", span_median(d, key + ".build"), "s");
  }
}

/// Serial baseline: the reference oracles on the sweep's graph and roots.
std::map<std::string, double> time_references(const ExperimentConfig& cfg,
                                              Tracer& tr, Report& rep) {
  namespace h = epgs::harness;
  const std::uint64_t root = tr.open("baseline");
  const auto prep = h::prepare_dataset(cfg.graph, cfg.dataset);
  const auto roots = h::select_roots(prep.edges, cfg.num_roots, cfg.root_seed);
  const CSRGraph out = CSRGraph::from_edges(prep.edges);
  const CSRGraph in = CSRGraph::from_edges(prep.edges, true);
  std::map<std::string, std::vector<double>> t;
  for (const auto r : roots) {
    {
      WallTimer w;
      Tracer::Scope s(tr, "reference.BFS", root);
      (void)epgs::ref::bfs_levels(out, r);
      t["BFS"].push_back(w.seconds());
    }
    {
      WallTimer w;
      Tracer::Scope s(tr, "reference.SSSP", root);
      (void)epgs::ref::dijkstra(out, r);
      t["SSSP"].push_back(w.seconds());
    }
  }
  {
    WallTimer w;
    Tracer::Scope s(tr, "reference.PageRank", root);
    (void)epgs::ref::pagerank(out, in, cfg.pagerank);
    t["PageRank"].push_back(w.seconds());
  }
  tr.close(root);
  std::map<std::string, double> med;
  for (const auto& [alg, v] : t) {
    med[alg] = median(v);
    rep.add("reference." + alg + "_s", med[alg], "s", v.size(),
            "plain serial baseline");
  }
  return med;
}

/// The traced run shared by both sweeps: untraced run_experiment sweeps
/// and traced replicas for half the budget each, then the per-layer
/// figures.
Report traced_run(const Options& opts,
                  const std::function<ExperimentConfig(std::size_t)>& config_of,
                  const fs::path& work, bool cold, bool baseline) {
  namespace h = epgs::harness;
  Report rep;
  Tracer tr(true);
  const ExperimentConfig cfg = config_of(0);
  const fs::path cache = cfg.dataset.cache_dir;
  auto reset = [&](const ExperimentConfig& c) {
    if (cold) reset_supervised(c, work);
  };

  // Layers outside the sweep call: generation and a cold prepare.
  {
    fresh_dir(work);
    WallTimer w;
    Tracer::Scope s(tr, "gen.materialize");
    (void)h::materialize(cfg.graph);
    rep.add("gen.materialize_s", w.seconds(), "s");
  }
  if (!cold) {
    Tracer::Scope s(tr, "graph.prepare_cold");
    (void)h::prepare_dataset(cfg.graph, cfg.dataset);
  }

  const auto untraced =
      sweep_loop(rep, config_of, opts.seconds / 2, 1, !cold, reset);
  std::vector<double> untraced_walls, unaccounted, roundtrip;
  for (const auto& s : untraced) {
    untraced_walls.push_back(s.wall);
    unaccounted.push_back((s.wall - top_level_seconds(s.result.records)) /
                          s.wall);
    WallTimer w;
    Tracer::Scope span(tr, "harness.records_roundtrip");
    const auto back = h::records_from_csv(h::records_to_csv(s.result.records));
    roundtrip.push_back(w.seconds());
    if (h::records_to_stripped_csv(back) !=
        h::records_to_stripped_csv(s.result.records)) {
      rep.fail("records CSV round trip changed the records");
    }
  }

  std::vector<Replica> replicas;
  double traced = 0.0;
  const fs::path spill = work.parent_path() / (work.filename().string() +
                                                ".spans.tmp");
  while (replicas.empty() || traced < opts.seconds / 2) {
    const ExperimentConfig c = config_of(replicas.size());
    reset(c);
    replicas.push_back(replicate_sweep(
        c, tr, cold ? "graph.prepare_cold" : "graph.prepare_warm", spill));
    traced += replicas.back().wall;
    rep.attempted += replicas.back().units;
    rep.failed += replicas.back().failed;
    for (const auto& p : replicas.back().problems) rep.fail(p);
  }
  if (cold) {
    // A warm prepare of the entry the last replica published.
    const ExperimentConfig c = config_of(replicas.size() - 1);
    Tracer::Scope s(tr, "graph.prepare_warm");
    (void)h::prepare_dataset(c.graph, c.dataset);
  }

  std::map<std::string, double> refs;
  if (baseline) refs = time_references(cfg, tr, rep);

  const auto d = tr.durations();
  std::vector<double> walls, coverage, overhead_ms;
  for (const auto& r : replicas) {
    walls.push_back(r.wall);
    coverage.push_back(r.covered / r.wall);
    for (double x : r.unit_overhead_s) overhead_ms.push_back(x * 1e3);
  }
  // Validation per sweep: the oracle CSR plus every validate_* call.
  double validate_total = 0.0;
  for (const auto& [name, v] : d) {
    if (name.rfind("validate.", 0) == 0) {
      for (double x : v) validate_total += x;
    }
  }
  const Replica& last = replicas.back();

  rep.add("graph.prepare_cold_s", span_median(d, "graph.prepare_cold"), "s");
  rep.add("graph.prepare_warm_s", span_median(d, "graph.prepare_warm"), "s");
  rep.add("graph.cache_bytes", static_cast<double>(dir_bytes(cache)),
          "bytes");
  add_system_records(rep, last.records, d, refs);
  rep.add("validate_s", validate_total / static_cast<double>(replicas.size()),
          "s", replicas.size(), "per sweep, oracle CSR included");
  std::vector<double> journal_ms;
  if (d.count("harness.journal_append")) {
    for (double x : d.at("harness.journal_append")) {
      journal_ms.push_back(x * 1e3);
    }
  }
  rep.add("harness.unit_overhead_ms", median(overhead_ms), "ms",
          overhead_ms.size(), "supervised elapsed minus the unit's phases");
  rep.add("harness.journal_append_ms", median(journal_ms), "ms",
          journal_ms.size());
  rep.add("harness.records_roundtrip_s", median(roundtrip), "s",
          roundtrip.size());
  rep.add("harness.unaccounted_frac", median(unaccounted), "frac",
          unaccounted.size(), "run_experiment wall outside top-level phases");
  rep.add("harness.units", static_cast<double>(last.units), "count");
  rep.add("harness.attempts", static_cast<double>(last.attempts), "count");
  rep.add("trace.coverage", median(coverage), "frac", coverage.size());
  rep.add("trace.overhead_frac", median(walls) / median(untraced_walls) - 1.0,
          "frac", walls.size(),
          "traced replica vs untraced run_experiment, same seed");
  tr.write_jsonl(opts.trace_out);
  return rep;
}

}  // namespace

Report run_sweep_kernel(const Options& opts) {
  const fs::path work = opts.work_dir / "sweep-kernel";
  if (opts.trace) {
    return traced_run(
        opts, [&](std::size_t) { return kernel_config(opts, work, 0); }, work,
        false, true);
  }
  Report rep;
  // Set-up: the cold dataset prepare of each of the run's graphs. They
  // share one cache directory, so each prepare misses and the timed
  // sweeps, rotating over the graphs, all hit.
  fresh_dir(work);
  std::vector<double> setups;
  for (std::size_t g = 0; g < kKernelGraphs; ++g) {
    const ExperimentConfig cfg = kernel_config(opts, work, g);
    WallTimer w;
    (void)epgs::harness::prepare_dataset(cfg.graph, cfg.dataset);
    setups.push_back(w.seconds());
  }
  const auto samples = sweep_loop(
      rep, [&](std::size_t i) { return kernel_config(opts, work, i); },
      opts.seconds, kKernelGraphs, true, [](const ExperimentConfig&) {});
  add_end_to_end(rep, median(setups), setups.size(), samples);
  return rep;
}

Report run_sweep_supervised(const Options& opts) {
  const fs::path work = opts.work_dir / "sweep-supervised";
  if (opts.trace) {
    return traced_run(
        opts, [&](std::size_t g) { return supervised_config(opts, work, g); },
        work, true, false);
  }
  Report rep;
  // Set-up: nothing persists between cold sweeps, so the set-up is an
  // untimed warm-up sweep (page cache, allocator, first fork), three
  // times on graphs of their own; the reported figure is their median.
  constexpr std::size_t kWarmups = 3;
  std::vector<double> setups;
  for (std::size_t g = 0; g < kWarmups; ++g) {
    const ExperimentConfig cfg = supervised_config(opts, work, g);
    reset_supervised(cfg, work);
    WallTimer w;
    const auto warm = epgs::harness::run_experiment(cfg);
    setups.push_back(w.seconds());
    if (failed_records(warm.records) > 0) rep.fail("warm-up sweep failed");
  }
  const auto samples = sweep_loop(
      rep,
      [&](std::size_t i) {
        return supervised_config(opts, work, kWarmups + i);
      },
      opts.seconds, 3, false,
      [&](const ExperimentConfig& cfg) { reset_supervised(cfg, work); });
  add_end_to_end(rep, median(setups), setups.size(), samples);
  return rep;
}

}  // namespace perfbench
