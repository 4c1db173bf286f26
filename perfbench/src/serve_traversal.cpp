// The serve-traversal workload: a real serve::Server holding two resident
// weighted Kronecker graphs (scale 12 and 13), driven by 4 closed-loop
// clients — `epg query` callers block on each reply. Every request is a
// seeded uniform draw from the 20 supported (graph, system, BFS|SSSP)
// combinations with roots=1 threads=1: point queries on warm graphs,
// where each request rebuilds a native structure the server already
// built for an earlier one, and where queue wait and coalescing show.
// A run splits its time over six rounds, each a fresh server on its own
// seeded pair of graphs.
#include <atomic>
#include <map>
#include <memory>
#include <set>
#include <thread>

#include "bench.hpp"
#include "core/rng.hpp"
#include "core/timer.hpp"
#include "harness/runner.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "systems/common/registry.hpp"
#include "trace.hpp"

namespace perfbench {

namespace fs = std::filesystem;
using epgs::WallTimer;
using epgs::harness::Algorithm;

namespace {

constexpr int kClients = 4;
constexpr std::size_t kPass = 100;  ///< requests per reported "sweep"

std::vector<epgs::serve::Request> combinations(std::uint64_t seed) {
  std::vector<std::string> systems;
  for (auto n : epgs::all_system_names()) systems.emplace_back(n);
  for (auto n : epgs::extension_system_names()) systems.emplace_back(n);
  std::vector<epgs::serve::Request> out;
  for (const int scale : {12, 13}) {
    for (const auto& name : systems) {
      const auto caps = epgs::make_system(name)->capabilities();
      for (const Algorithm alg : {Algorithm::kBfs, Algorithm::kSssp}) {
        if (alg == Algorithm::kBfs ? !caps.bfs : !caps.sssp) continue;
        epgs::serve::Request req;
        req.verb = epgs::serve::Verb::kRun;
        req.graph.kind = epgs::harness::GraphSpec::Kind::kKronecker;
        req.graph.scale = scale;
        req.graph.edgefactor = 16;
        req.graph.seed = derive_seed(seed, 10 + scale);
        req.graph.add_weights = true;
        req.system = name;
        req.algorithm = alg;
        req.roots = 1;
        req.threads = 1;
        out.push_back(req);
      }
    }
  }
  return out;
}

/// (graph, system, threads): the key a warm built structure would carry.
std::string structure_key(const epgs::serve::Request& r) {
  return r.graph.name() + "|" + std::to_string(r.graph.seed) + "|" +
         r.system + "|" + std::to_string(r.threads);
}

struct Served {
  std::size_t combo = 0;
  double latency = 0.0;  ///< client-seen, connect to parsed reply
  double done_at = 0.0;
  double protocol = 0.0;  ///< codec seconds (traced phase only)
  bool ok = false;
  std::string body;
};

struct Phase {
  std::vector<Served> served;
  double wall = 0.0;  ///< first send to last reply
  double cpu = 0.0;
  epgs::serve::MetricsSnapshot before, after;
  std::vector<std::uint64_t> client_spans;
};

/// Run the closed loop for `seconds`, drawing requests from `draws`
/// starting at `next`. With the tracer enabled every request gets a span
/// tree (request -> render / query_server / codec replays).
Phase closed_loop(epgs::serve::Server& server,
                  const std::vector<epgs::serve::Request>& combos,
                  const std::vector<std::uint8_t>& draws,
                  std::atomic<std::size_t>& next, double seconds,
                  Tracer& tr) {
  namespace sv = epgs::serve;
  Phase ph;
  ph.before = server.snapshot();
  std::vector<std::vector<Served>> per_client(kClients);
  ph.client_spans.resize(kClients);
  const double cpu0 = cpu_seconds();
  WallTimer wall;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::duration<double>(seconds);
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      auto& mine = per_client[static_cast<std::size_t>(c)];
      const std::uint64_t client_span =
          tr.open("serve.client", 0, "client-" + std::to_string(c));
      while (std::chrono::steady_clock::now() < deadline) {
        const std::size_t i = next.fetch_add(1);
        if (i >= draws.size()) break;
        Served s;
        s.combo = draws[i];
        const std::string id = "req-" + std::to_string(i);
        Tracer::Scope req_span(tr, "serve.request", client_span, id);
        WallTimer t;
        std::string payload;
        double codec = 0.0;
        {
          WallTimer ct;
          Tracer::Scope sp(tr, "serve.render_request", req_span.id(), id);
          payload = sv::render_request(combos[s.combo]);
          codec += ct.seconds();
        }
        sv::Reply reply;
        {
          Tracer::Scope sp(tr, "serve.query_server", req_span.id(), id);
          reply = sv::query_server(server.socket_path(), payload);
        }
        s.latency = t.seconds();
        s.done_at = wall.seconds();
        s.ok = reply.kind == sv::ReplyKind::kOk;
        if (tr.enabled()) {
          // The server-side decode / encode and the client decode, replayed
          // on this request's own payloads.
          WallTimer ct;
          {
            Tracer::Scope sp(tr, "serve.parse_request", req_span.id(), id);
            (void)sv::parse_request(payload);
          }
          std::string rendered;
          {
            Tracer::Scope sp(tr, "serve.render_reply", req_span.id(), id);
            rendered = sv::render_reply(reply);
          }
          {
            Tracer::Scope sp(tr, "serve.parse_reply", req_span.id(), id);
            (void)sv::parse_reply(rendered);
          }
          s.protocol = codec + ct.seconds();
        }
        s.body = std::move(reply.body);
        mine.push_back(std::move(s));
      }
      tr.close(client_span);
      ph.client_spans[static_cast<std::size_t>(c)] = client_span;
    });
  }
  for (auto& t : clients) t.join();
  ph.cpu = cpu_seconds() - cpu0;
  ph.after = server.snapshot();
  for (auto& v : per_client) {
    for (auto& s : v) {
      ph.wall = std::max(ph.wall, s.done_at);
      ph.served.push_back(std::move(s));
    }
  }
  return ph;
}

/// Correctness gate: every reply is ok, identical to a direct
/// run_experiment of the same request once volatile columns are stripped,
/// and its top-level phases fit in the latency the client saw.
void gate(Report& rep, const std::vector<Served>& served,
          const std::vector<epgs::serve::Request>& combos) {
  namespace h = epgs::harness;
  std::map<std::size_t, std::string> expected;
  for (const Served& s : served) {
    ++rep.attempted;
    if (!s.ok) {
      ++rep.failed;
      rep.fail("request for combination " + std::to_string(s.combo) +
               " refused: " + s.body);
      continue;
    }
    auto it = expected.find(s.combo);
    if (it == expected.end()) {
      const auto& req = combos[s.combo];
      h::ExperimentConfig cfg;
      cfg.graph = req.graph;
      cfg.systems = {req.system};
      cfg.algorithms = {req.algorithm};
      cfg.num_roots = req.roots;
      cfg.threads = req.threads;
      it = expected
               .emplace(s.combo, h::records_to_stripped_csv(
                                     h::run_experiment(cfg).records))
               .first;
    }
    const auto recs = h::records_from_csv(s.body);
    const std::string what =
        combos[s.combo].system + " " +
        std::string(h::algorithm_name(combos[s.combo].algorithm));
    if (h::records_to_stripped_csv(recs) != it->second) {
      ++rep.failed;
      rep.fail("reply for " + what + " differs from a direct run");
    } else if (top_level_seconds(recs) > s.latency) {
      ++rep.failed;
      rep.fail("reply phases for " + what + " sum past the client latency");
    }
  }
}

struct Setup {
  std::unique_ptr<epgs::serve::Server> server;
  double seconds = 0.0;
};

/// Server start plus the first (cold) query of every combination. The
/// server keeps `epg serve`'s default in-RAM data path (no --cache-dir).
Setup start_server(Report& rep, const fs::path& dir,
                   const std::vector<epgs::serve::Request>& combos) {
  namespace sv = epgs::serve;
  fs::remove_all(dir);
  fs::create_directories(dir);
  Setup s;
  sv::ServerOptions o;
  o.socket_path = (dir / "epg.sock").string();
  WallTimer w;
  s.server = std::make_unique<sv::Server>(o);
  for (const auto& req : combos) {
    const auto reply = sv::query_server(o.socket_path, sv::render_request(req));
    if (reply.kind != sv::ReplyKind::kOk) {
      rep.fail("cold query failed: " + reply.body);
    }
  }
  s.seconds = w.seconds();
  return s;
}

/// One round: its own server, pair of graphs and request stream.
struct Round {
  std::vector<epgs::serve::Request> combos;
  Phase untraced;  ///< the whole loop when the run is not traced
  Phase traced;
};

void add_end_to_end(Report& rep, const std::vector<double>& setups,
                    const std::vector<Round>& rounds) {
  std::vector<double> lat_ms;
  double wall = 0.0;
  double cpu = 0.0;
  for (const Round& r : rounds) {
    for (const auto& s : r.untraced.served) lat_ms.push_back(s.latency * 1e3);
    wall += r.untraced.wall;
    cpu += r.untraced.cpu;
  }
  const double n = static_cast<double>(lat_ms.size());
  const std::string pass = std::to_string(kPass);
  rep.add("setup_s", median(setups), "s", setups.size());
  rep.add("sweep_s", wall / n * kPass, "s", lat_ms.size(),
          "wall per pass of " + pass + " requests");
  rep.add("cpu_s", cpu / n * kPass, "s", lat_ms.size(),
          "CPU per pass of " + pass + " requests");
  rep.add("peak_rss_mib", peak_rss_mib(), "MiB");
  rep.add("query_p50_ms", quantile(lat_ms, 0.5), "ms", lat_ms.size());
  rep.add("query_p99_ms", quantile(lat_ms, 0.99), "ms", lat_ms.size(),
          std::to_string(beyond(lat_ms, 0.99)) + " samples beyond p99");
  rep.add("query_qps", n / wall, "1/s", lat_ms.size(),
          std::to_string(kClients) + " closed-loop clients");
}

void add_layers(Report& rep, const std::vector<Round>& rounds,
                const Tracer& tr) {
  namespace h = epgs::harness;
  std::vector<double> protocol_us, build_ms, kernel_ms, outside_ms, coverage;
  double served = 0.0, batches = 0.0, coalesced = 0.0, warm = 0.0, cold = 0.0;
  double traced_wall = 0.0, untraced_wall = 0.0;
  double traced_n = 0.0, untraced_n = 0.0, resident = 0.0;
  std::size_t total = 0;
  std::size_t repeats = 0;
  for (const Round& r : rounds) {
    for (const Served& s : r.traced.served) {
      protocol_us.push_back(s.protocol * 1e6);
      if (!s.ok) continue;
      const auto recs = h::records_from_csv(s.body);
      for (const auto& rec : recs) {
        if (rec.phase == epgs::phase::kBuild) {
          build_ms.push_back(rec.seconds * 1e3);
        } else if (rec.phase == epgs::phase::kAlgorithm) {
          kernel_ms.push_back(rec.seconds * 1e3);
        }
      }
      outside_ms.push_back((s.latency - top_level_seconds(recs)) * 1e3);
    }
    const auto& a = r.traced.after;
    const auto& b = r.traced.before;
    served += static_cast<double>(a.served - b.served);
    batches += static_cast<double>(a.batches - b.batches);
    coalesced += static_cast<double>(a.coalesced - b.coalesced);
    warm += static_cast<double>(a.warm_hits - b.warm_hits);
    cold += static_cast<double>(a.cold_loads - b.cold_loads);
    resident = std::max(resident, static_cast<double>(a.resident_bytes));
    traced_wall += r.traced.wall;
    untraced_wall += r.untraced.wall;
    traced_n += static_cast<double>(r.traced.served.size());
    untraced_n += static_cast<double>(r.untraced.served.size());
    for (const std::uint64_t id : r.traced.client_spans) {
      coverage.push_back(tr.children_seconds(id) / tr.span(id).seconds());
    }
    // Everything this round's server was asked, cold set-up queries
    // first: did it already see the request's (graph, system, threads)?
    std::set<std::string> seen;
    auto visit = [&](std::size_t combo) {
      ++total;
      if (!seen.insert(structure_key(r.combos[combo])).second) ++repeats;
    };
    for (std::size_t c = 0; c < r.combos.size(); ++c) visit(c);
    for (const Phase* ph : {&r.untraced, &r.traced}) {
      for (const Served& s : ph->served) visit(s.combo);
    }
  }
  const auto d = tr.durations();
  rep.add("gen.materialize_s", median(d.at("gen.materialize")), "s",
          d.at("gen.materialize").size(), "both graphs of every round");
  rep.add("serve.protocol_us", median(protocol_us), "us", protocol_us.size(),
          "render/parse of request and reply");
  rep.add("serve.build_ms", median(build_ms), "ms", build_ms.size());
  rep.add("serve.kernel_ms", median(kernel_ms), "ms", kernel_ms.size());
  rep.add("serve.outside_phases_ms", median(outside_ms), "ms",
          outside_ms.size(), "client latency minus the reply's phases");
  rep.add("serve.service_ms", traced_wall / batches * 1e3, "ms",
          static_cast<std::size_t>(batches), "wall per executed batch");
  rep.add("serve.coalesced_frac", coalesced / served, "frac",
          static_cast<std::size_t>(served));
  rep.add("serve.warm_hit_frac", warm / (warm + cold), "frac",
          static_cast<std::size_t>(warm + cold));
  rep.add("serve.repeat_frac",
          static_cast<double>(repeats) / static_cast<double>(total), "frac",
          total, "share whose (graph, system, threads) the server had seen");
  rep.add("serve.resident_bytes", resident, "bytes");
  rep.add("trace.coverage", median(coverage), "frac", coverage.size(),
          "per client: request spans over the client's traced wall");
  rep.add("trace.overhead_frac",
          (traced_wall / traced_n) / (untraced_wall / untraced_n) - 1.0,
          "frac", static_cast<std::size_t>(traced_n),
          "wall per request, same graphs and seed");
}

}  // namespace

Report run_serve_traversal(const Options& opts) {
  // Six rounds, each a fresh server on its own pair of graphs: one pair's
  // structure moves the figures by several percent, more than the
  // run-to-run noise of the host, so a run pools six.
  constexpr std::size_t kRounds = 6;
  const fs::path work = opts.work_dir / "serve-traversal";
  Report rep;
  Tracer off(false);
  Tracer tr(opts.trace);
  std::vector<double> setups;
  std::vector<Round> rounds(kRounds);
  const double share = opts.seconds / kRounds;
  for (std::size_t i = 0; i < kRounds; ++i) {
    Round& round = rounds[i];
    round.combos = combinations(derive_seed(opts.seed, 300 + i));
    if (round.combos.size() != 20) {
      rep.fail("expected 20 (graph, system, BFS|SSSP) combinations, found " +
               std::to_string(round.combos.size()));
      return rep;
    }
    std::vector<std::uint8_t> draws(1u << 18);
    epgs::Xoshiro256 rng(derive_seed(opts.seed, 400 + i));
    for (auto& d : draws) {
      d = static_cast<std::uint8_t>(rng() % round.combos.size());
    }
    if (opts.trace) {
      // The generator the server's cold loads run, for both graphs.
      for (const std::size_t c : {std::size_t{0}, round.combos.size() - 1}) {
        Tracer::Scope s(tr, "gen.materialize");
        (void)epgs::harness::materialize(round.combos[c].graph);
      }
    }
    Setup live = start_server(rep, work / ("round" + std::to_string(i)),
                              round.combos);
    setups.push_back(live.seconds);
    std::atomic<std::size_t> next{0};
    if (!opts.trace) {
      round.untraced = closed_loop(*live.server, round.combos, draws, next,
                                   share, off);
    } else {
      round.untraced = closed_loop(*live.server, round.combos, draws, next,
                                   share / 2, off);
      round.traced = closed_loop(*live.server, round.combos, draws, next,
                                 share / 2, tr);
    }
    live.server->stop();
    gate(rep, round.untraced.served, round.combos);
    gate(rep, round.traced.served, round.combos);
  }
  if (!opts.trace) {
    add_end_to_end(rep, setups, rounds);
  } else {
    add_layers(rep, rounds, tr);
    tr.write_jsonl(opts.trace_out);
  }
  return rep;
}

}  // namespace perfbench
