// perfbench: the repository benchmark. One process runs one workload for
// a given seed and time budget, checks the program's outputs, prints every
// metric by name with its unit and sample count, and ends with one JSON
// line: {"correct", "attempted", "failed", "metrics"}. --trace 0 reports
// the end-to-end metrics; --trace 1 runs the traced variant and reports
// the per-layer metrics (one not measured on the workload reads 0).
//
//   perfbench --workload sweep-kernel|sweep-supervised|serve-traversal
//             --seed N --seconds S --trace 0|1
//             [--work-dir DIR] [--trace-out FILE]
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <map>
#include <set>
#include <string>

#include "bench.hpp"
#include "host.hpp"
#include "systems/common/registry.hpp"

namespace {

using perfbench::Metric;
using perfbench::Report;

/// Every end-to-end metric, in the order BENCHMARK.json lists them.
const std::vector<std::pair<std::string, std::string>>& end_to_end() {
  static const std::vector<std::pair<std::string, std::string>> m{
      {"setup_s", "s"},        {"sweep_s", "s"},
      {"cpu_s", "s"},          {"peak_rss_mib", "MiB"},
      {"query_p50_ms", "ms"},  {"query_p99_ms", "ms"},
      {"query_qps", "1/s"}};
  return m;
}

/// Every per-layer metric: fixed layers plus the per-(system, algorithm)
/// figures of the supported subset of {BFS, SSSP, PageRank}.
std::vector<std::pair<std::string, std::string>> per_layer() {
  std::vector<std::pair<std::string, std::string>> m{
      {"gen.materialize_s", "s"},
      {"graph.prepare_cold_s", "s"},
      {"graph.prepare_warm_s", "s"},
      {"graph.cache_bytes", "bytes"}};
  std::vector<std::string_view> names = epgs::all_system_names();
  for (auto n : epgs::extension_system_names()) names.push_back(n);
  for (const auto name : names) {
    const std::string s = "systems." + std::string(name);
    const auto caps = epgs::make_system(name)->capabilities();
    m.push_back({s + ".load_s", "s"});
    m.push_back({s + ".build_s", "s"});
    for (const auto& [alg, ok] : {std::pair{"BFS", caps.bfs},
                                  std::pair{"SSSP", caps.sssp},
                                  std::pair{"PageRank", caps.pagerank}}) {
      if (!ok) continue;
      const std::string a = s + "." + alg;
      m.push_back({a + ".kernel_s", "s"});
      m.push_back({a + ".edges", "count"});
      m.push_back({a + ".mteps", "MTEPS"});
      m.push_back({a + ".speedup_vs_ref", "ratio"});
      if (std::string(alg) == "PageRank") {
        m.push_back({a + ".iterations", "count"});
      }
      // The engines whose set-up is logged inside "run algorithm".
      if (a == "systems.GraphMat.PageRank" ||
          (name == "PowerGraph" && ok)) {
        m.push_back({a + ".engine_init_s", "s"});
      }
    }
  }
  for (const auto& [name, unit] :
       std::vector<std::pair<std::string, std::string>>{
           {"validate_s", "s"},
           {"reference.BFS_s", "s"},
           {"reference.SSSP_s", "s"},
           {"reference.PageRank_s", "s"},
           {"harness.unit_overhead_ms", "ms"},
           {"harness.journal_append_ms", "ms"},
           {"harness.records_roundtrip_s", "s"},
           {"harness.unaccounted_frac", "frac"},
           {"harness.units", "count"},
           {"harness.attempts", "count"},
           {"serve.protocol_us", "us"},
           {"serve.build_ms", "ms"},
           {"serve.kernel_ms", "ms"},
           {"serve.outside_phases_ms", "ms"},
           {"serve.service_ms", "ms"},
           {"serve.coalesced_frac", "frac"},
           {"serve.warm_hit_frac", "frac"},
           {"serve.repeat_frac", "frac"},
           {"serve.resident_bytes", "bytes"},
           {"trace.coverage", "frac"},
           {"trace.overhead_frac", "frac"}}) {
    m.push_back({name, unit});
  }
  return m;
}

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "sweep-kernel|sweep-supervised|serve-traversal --seed N "
               "--seconds S --trace 0|1 [--work-dir DIR] [--trace-out FILE]\n",
               why.c_str());
  std::exit(2);
}

perfbench::Options parse(int argc, char** argv) {
  std::map<std::string, std::string> kv;
  for (int i = 1; i < argc; i += 2) {
    const std::string key = argv[i];
    if (key.rfind("--", 0) != 0 || i + 1 >= argc) usage("bad argument " + key);
    kv[key.substr(2)] = argv[i + 1];
  }
  perfbench::Options o;
  try {
    o.workload = kv.at("workload");
    o.seed = std::stoull(kv.at("seed"));
    o.seconds = std::stod(kv.at("seconds"));
    o.trace = std::stoi(kv.at("trace")) != 0;
  } catch (const std::exception&) {
    usage("--workload, --seed, --seconds and --trace are required");
  }
  if (!(o.seconds > 0)) usage("--seconds must be positive");
  o.work_dir = kv.count("work-dir") ? kv["work-dir"] : ".bench_build/run";
  o.trace_out = kv.count("trace-out")
                    ? kv["trace-out"]
                    : ".bench_build/traces/" + o.workload + "-seed" +
                          std::to_string(o.seed) + ".jsonl";
  return o;
}

}  // namespace

int main(int argc, char** argv) {
  const perfbench::Options opts = parse(argc, argv);
  if (const std::string why = perfbench::build_refusal(); !why.empty()) {
    std::fprintf(stderr, "perfbench: %s\n", why.c_str());
    return 2;
  }
  std::printf("perfbench workload=%s seed=%llu seconds=%g trace=%d\n",
              opts.workload.c_str(),
              static_cast<unsigned long long>(opts.seed), opts.seconds,
              opts.trace ? 1 : 0);
  for (const auto& [k, v] : perfbench::host_facts()) {
    std::printf("host %s: %s\n", k.c_str(), v.c_str());
  }
  std::fflush(stdout);

  Report rep;
  try {
    if (opts.workload == "sweep-kernel") {
      rep = perfbench::run_sweep_kernel(opts);
    } else if (opts.workload == "sweep-supervised") {
      rep = perfbench::run_sweep_supervised(opts);
    } else if (opts.workload == "serve-traversal") {
      rep = perfbench::run_serve_traversal(opts);
    } else {
      usage("unknown workload " + opts.workload);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }

  // Report exactly the catalog of the requested kind; a per-layer metric
  // this workload does not measure reads 0.
  std::map<std::string, Metric> got;
  for (const Metric& m : rep.metrics) got[m.name] = m;
  const auto catalog = opts.trace ? per_layer() : end_to_end();
  std::set<std::string> known;
  std::string json;
  char buf[64];
  for (const auto& [name, unit] : catalog) {
    known.insert(name);
    auto it = got.find(name);
    Metric m{name, 0.0, unit, 0, "not measured on this workload"};
    if (it != got.end()) {
      m = it->second;
      if (m.unit != unit) rep.fail(name + " reported in " + m.unit);
    } else if (!opts.trace) {
      rep.fail("end-to-end metric " + name + " not measured");
    }
    if (!std::isfinite(m.value)) {
      rep.fail(name + " is not finite");
      m.value = 0.0;
    }
    std::printf("metric %-44s %16.6f %-6s n=%zu%s%s\n", name.c_str(),
                m.value, unit.c_str(), m.samples, m.note.empty() ? "" : "  ",
                m.note.c_str());
    std::snprintf(buf, sizeof buf, "%.17g", m.value);
    if (!json.empty()) json += ", ";
    json += "\"" + name + "\": {\"value\": " + buf + ", \"unit\": \"" + unit +
            "\"}";
  }
  for (const Metric& m : rep.metrics) {
    if (!known.count(m.name)) {
      std::printf("extra  %-44s %16.6f %-6s n=%zu  %s\n", m.name.c_str(),
                  m.value, m.unit.c_str(), m.samples, m.note.c_str());
    }
  }
  std::printf("fail_frac %.6f (%llu of %llu attempted)\n",
              rep.attempted ? static_cast<double>(rep.failed) /
                                  static_cast<double>(rep.attempted)
                            : 1.0,
              static_cast<unsigned long long>(rep.failed),
              static_cast<unsigned long long>(rep.attempted));
  if (rep.attempted == 0) rep.fail("nothing was attempted");
  for (const auto& p : rep.problems) std::printf("FAIL %s\n", p.c_str());
  if (opts.trace) {
    std::printf("spans written to %s\n", opts.trace_out.c_str());
  }
  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": {%s}}\n",
      rep.correct ? "true" : "false",
      static_cast<unsigned long long>(rep.attempted),
      static_cast<unsigned long long>(rep.failed), json.c_str());
  return rep.correct ? 0 : 1;
}
