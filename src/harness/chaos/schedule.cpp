#include "harness/chaos/schedule.hpp"

#include <algorithm>
#include <charconv>
#include <sstream>

#include "core/error.hpp"
#include "core/rng.hpp"

namespace epgs::harness::chaos {
namespace {

using fault::Kind;

/// The event families a round can arm; at most one event per family.
enum class Family { kPhase, kKillCkpt, kKillPublish, kFs };

/// Strict whole-string integer parse; a chaos spec is user input, so
/// "3x" must be a typed error, not atoi's silent 3.
template <typename T>
T parse_num(std::string_view field, std::string_view text) {
  T value{};
  const auto [ptr, ec] =
      std::from_chars(text.data(), text.data() + text.size(), value);
  EPGS_CHECK(ec == std::errc() && ptr == text.data() + text.size(),
             "chaos spec: bad " + std::string(field) + " value '" +
                 std::string(text) + "'");
  return value;
}

}  // namespace

std::string describe(const ChaosEvent& ce) {
  const fault::Event& e = ce.event;
  std::ostringstream os;
  os << "round " << ce.round << ": " << fault::kind_name(e.kind);
  if (!e.system.empty() || !e.phase.empty()) {
    os << ' ' << (e.system.empty() ? "*" : e.system) << '/'
       << (e.phase.empty() ? "*" : e.phase);
  }
  switch (e.kind) {
    case Kind::kKillCkpt:
    case Kind::kCancel: os << " at iteration " << e.at; break;
    case Kind::kKillPublish: os << " at publish " << e.at; break;
    case Kind::kFs:
    case Kind::kFsShort:
      os << ' ' << fault::fs_op_name(e.fs_op) << " errno=" << e.fs_errno
         << " at call " << e.at;
      if (!e.path_substr.empty()) os << " path~" << e.path_substr;
      break;
    default: break;
  }
  if (e.fires != 1) os << " x" << e.fires;
  os << (e.once() ? " (once)" : " (persistent)");
  return os.str();
}

ChaosSchedule generate_schedule(std::uint64_t seed, int rounds,
                                const GeneratorConfig& cfg) {
  EPGS_CHECK(rounds > 0, "chaos: rounds must be positive");
  EPGS_CHECK(!cfg.systems.empty(), "chaos: no systems to target");
  EPGS_CHECK(!cfg.phases.empty(), "chaos: no algorithm phases to target");

  Xoshiro256 rng(seed);
  const auto pick = [&rng](const std::vector<std::string>& v) {
    return v[rng.uniform_u64(v.size())];
  };

  // The phase-kind pool. kWrongOutput joins only when a per-trial
  // validated phase exists to catch it.
  std::vector<Kind> phase_kinds = {Kind::kHang,  Kind::kTransient,
                                   Kind::kError, Kind::kAbort,
                                   Kind::kSegv,  Kind::kBadAlloc};
  if (!cfg.validated_phases.empty()) {
    phase_kinds.push_back(Kind::kWrongOutput);
  }
  std::vector<Family> families = {Family::kPhase};
  if (cfg.checkpoint_kinds) {
    families.push_back(Family::kKillCkpt);
    families.push_back(Family::kKillPublish);
  }
  if (!cfg.fs_path_substr.empty()) families.push_back(Family::kFs);

  ChaosSchedule sched;
  sched.seed = seed;
  sched.rounds = rounds;
  for (int round = 0; round < rounds; ++round) {
    const int count = static_cast<int>(
        1 + rng.uniform_u64(std::min<std::uint64_t>(3, families.size())));
    // Draw `count` distinct families: partial Fisher-Yates over a copy
    // keeps the stream consumption deterministic.
    std::vector<Family> pool = families;
    for (int i = 0; i < count; ++i) {
      const auto j =
          i + rng.uniform_u64(pool.size() - static_cast<std::size_t>(i));
      std::swap(pool[static_cast<std::size_t>(i)], pool[j]);
      fault::Event e;
      switch (pool[static_cast<std::size_t>(i)]) {
        case Family::kPhase: {
          e.kind = phase_kinds[rng.uniform_u64(phase_kinds.size())];
          e.system = pick(cfg.systems);
          e.phase = e.kind == Kind::kWrongOutput ? pick(cfg.validated_phases)
                                                 : pick(cfg.phases);
          e.at = 1;  // see ChaosEvent: per-child counters under fork
          e.fires = 1;
          break;
        }
        case Family::kKillCkpt: {
          e.kind = Kind::kKillCkpt;
          e.system = pick(cfg.systems);
          e.at = static_cast<int>(rng.uniform_in(1, 3));
          break;
        }
        case Family::kKillPublish: {
          e.kind = Kind::kKillPublish;
          e.at = static_cast<int>(rng.uniform_in(1, 3));
          break;
        }
        case Family::kFs: {
          e.kind = Kind::kFs;
          e.fs_op = fault::FsOp::kWrite;
          e.fs_errno = rng.uniform() < 0.5 ? 28 /*ENOSPC*/ : 5 /*EIO*/;
          e.at = static_cast<int>(rng.uniform_in(1, 4));
          e.fires = static_cast<int>(rng.uniform_in(1, 2));
          e.path_substr = cfg.fs_path_substr;
          break;
        }
      }
      // Every event but fs fires once across retries; the executor binds
      // the marker to a real file per round. An fs event's recoverability
      // comes from its target's degradation path (see GeneratorConfig).
      if (e.kind != Kind::kFs) {
        e.once_marker = std::string(fault::kUnboundMarker);
      }
      sched.events.push_back({round, std::move(e)});
    }
  }
  return sched;
}

std::string to_spec(const ChaosSchedule& s) {
  std::ostringstream os;
  os << "epgs-chaos-v1\n";
  os << "seed " << s.seed << "\n";
  os << "rounds " << s.rounds << "\n";
  for (const ChaosEvent& e : s.events) {
    os << fault::format_event(e.round, e.event) << "\n";
  }
  return os.str();
}

ChaosSchedule parse_spec(const std::string& text) {
  std::istringstream is(text);
  std::string line;
  EPGS_CHECK(std::getline(is, line) && line == "epgs-chaos-v1",
             "chaos spec: missing epgs-chaos-v1 header");
  ChaosSchedule s;
  bool saw_seed = false;
  bool saw_rounds = false;
  while (std::getline(is, line)) {
    if (line.empty()) continue;
    if (line.rfind("seed ", 0) == 0) {
      s.seed = parse_num<std::uint64_t>("seed", line.substr(5));
      saw_seed = true;
    } else if (line.rfind("rounds ", 0) == 0) {
      s.rounds = parse_num<int>("rounds", line.substr(7));
      saw_rounds = true;
    } else if (line.rfind("event ", 0) == 0) {
      auto [round, e] = fault::parse_event_line(line);
      s.events.push_back({round, std::move(e)});
    } else {
      throw EpgsError("chaos spec: unrecognized line '" + line + "'");
    }
  }
  EPGS_CHECK(saw_seed && saw_rounds, "chaos spec: missing seed/rounds line");
  EPGS_CHECK(s.rounds > 0, "chaos spec: rounds must be positive");
  for (const ChaosEvent& e : s.events) {
    EPGS_CHECK(e.round < s.rounds,
               "chaos spec: event round " + std::to_string(e.round) +
                   " out of range (rounds=" + std::to_string(s.rounds) + ")");
  }
  return s;
}

}  // namespace epgs::harness::chaos
