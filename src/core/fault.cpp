#include "core/fault.hpp"

#include <atomic>
#include <charconv>
#include <chrono>
#include <csignal>
#include <cstdlib>
#include <new>
#include <thread>

#include <fcntl.h>
#include <unistd.h>

#include "core/crash_report.hpp"
#include "core/error.hpp"

namespace epgs::fault {
namespace {

static_assert(kMaxEvents <= crash::kFaultSlots,
              "each armed event needs its own crash-note slot");

struct KindName {
  Kind kind;
  std::string_view name;
};

constexpr KindName kKindNames[] = {
    {Kind::kHang, "hang"},
    {Kind::kTransient, "transient"},
    {Kind::kError, "error"},
    {Kind::kAbort, "abort"},
    {Kind::kSegv, "segv"},
    {Kind::kBadAlloc, "badalloc"},
    {Kind::kWrongOutput, "wrong-output"},
    {Kind::kKillCkpt, "kill-ckpt"},
    {Kind::kKillPublish, "kill-publish"},
    {Kind::kCancel, "cancel"},
    {Kind::kFs, "fs"},
    {Kind::kFsShort, "fs-short"},
};

constexpr FsOp kFsOps[] = {FsOp::kOpen,   FsOp::kRead,  FsOp::kWrite,
                           FsOp::kRename, FsOp::kFsync, FsOp::kMmap};

struct Slot {
  Event event;
  std::atomic<int> calls{0};
  std::atomic<int> fires{0};
};

Slot g_slots[kMaxEvents];
std::atomic<int> g_count{0};
std::atomic<bool> g_armed{false};
std::atomic<bool> g_corrupt_pending{false};

bool is_phase_kind(Kind k) {
  return k == Kind::kHang || k == Kind::kTransient || k == Kind::kError ||
         k == Kind::kAbort || k == Kind::kSegv || k == Kind::kBadAlloc ||
         k == Kind::kWrongOutput;
}

/// Claim `marker` with O_CREAT|O_EXCL. True when this process won the
/// claim (fault should execute); false when the marker already exists —
/// some earlier attempt, possibly a since-dead fork child, already fired.
/// An empty marker always claims (in-process counters are the only limit).
bool claim_once(const std::string& marker) {
  if (marker.empty()) return true;
  const int fd =
      ::open(marker.c_str(), O_WRONLY | O_CREAT | O_EXCL | O_CLOEXEC, 0644);
  if (fd < 0) return false;
  // The marker must survive the process death the fault is about to
  // cause; same-machine page cache persists across _exit/SIGKILL, so a
  // plain close suffices.
  ::close(fd);
  return true;
}

/// Count one matching call on `s`; true when the event fires on it: the
/// call is the at-th or later, the fire budget is not spent, and the
/// once-marker (if any) is claimed.
bool counted_fire(Slot& s) {
  const int call = s.calls.fetch_add(1) + 1;
  if (call < s.event.at) return false;
  if (s.fires.load() >= s.event.fires) return false;
  if (!claim_once(s.event.once_marker)) return false;
  s.fires.fetch_add(1);
  return true;
}

/// Like counted_fire for the iteration-keyed kinds: fires when the
/// reported iteration equals `at`. A resumed kernel never reports the
/// same boundary twice, so the event naturally fires once per process.
bool iteration_fire(Slot& s, std::uint64_t iteration) {
  s.calls.fetch_add(1);
  if (iteration != static_cast<std::uint64_t>(s.event.at)) return false;
  if (s.fires.load() >= s.event.fires) return false;
  if (!claim_once(s.event.once_marker)) return false;
  s.fires.fetch_add(1);
  return true;
}

bool system_matches(const Event& e, std::string_view system) {
  return e.system.empty() || e.system == system;
}

int count() { return g_count.load(std::memory_order_relaxed); }

/// Strict whole-string integer parse: spec text is user input, so "3x"
/// must be a typed error, not atoi's silent 3.
template <typename T>
T parse_num(std::string_view field, std::string_view text) {
  T value{};
  const auto [ptr, ec] =
      std::from_chars(text.data(), text.data() + text.size(), value);
  EPGS_CHECK(!text.empty() && ec == std::errc() &&
                 ptr == text.data() + text.size(),
             "fault event: bad " + std::string(field) + " value '" +
                 std::string(text) + "'");
  return value;
}

/// Split on `sep` keeping empty fields (system/phase/path may be empty).
std::vector<std::string_view> split(std::string_view text, char sep) {
  std::vector<std::string_view> out;
  for (;;) {
    const std::size_t at = text.find(sep);
    out.push_back(text.substr(0, at));
    if (at == std::string_view::npos) return out;
    text = text.substr(at + 1);
  }
}

}  // namespace

std::string_view kind_name(Kind k) {
  for (const auto& kn : kKindNames) {
    if (kn.kind == k) return kn.name;
  }
  return "?";
}

std::string_view fs_op_name(FsOp op) {
  switch (op) {
    case FsOp::kOpen: return "open";
    case FsOp::kRead: return "read";
    case FsOp::kWrite: return "write";
    case FsOp::kRename: return "rename";
    case FsOp::kFsync: return "fsync";
    case FsOp::kMmap: return "mmap";
  }
  return "?";
}

void arm(std::span<const Event> events) {
  EPGS_CHECK(events.size() <= static_cast<std::size_t>(kMaxEvents),
             "fault plan: at most " + std::to_string(kMaxEvents) +
                 " events, got " + std::to_string(events.size()));
  for (const Event& e : events) {
    EPGS_CHECK(e.once_marker != kUnboundMarker,
               "fault plan: once=1 needs a marker file, which only epg "
               "chaos supplies");
  }
  disarm();
  for (std::size_t i = 0; i < events.size(); ++i) {
    g_slots[i].event = events[i];
    crash::note_fault(static_cast<int>(i), format_event(0, events[i]));
  }
  g_count.store(static_cast<int>(events.size()), std::memory_order_relaxed);
  if (!events.empty()) g_armed.store(true, std::memory_order_release);
}

void disarm() {
  g_armed.store(false, std::memory_order_release);
  g_count.store(0, std::memory_order_relaxed);
  for (int i = 0; i < kMaxEvents; ++i) {
    g_slots[i].calls.store(0);
    g_slots[i].fires.store(0);
    crash::note_fault(i, {});
  }
  g_corrupt_pending.store(false);
}

bool armed() { return g_armed.load(std::memory_order_acquire); }

int calls(std::size_t i) {
  return i < static_cast<std::size_t>(count()) ? g_slots[i].calls.load() : 0;
}

int fires(std::size_t i) {
  return i < static_cast<std::size_t>(count()) ? g_slots[i].fires.load() : 0;
}

void on_phase_start(std::string_view system, std::string_view phase,
                    const CancellationToken* token) {
  if (!armed()) return;
  for (int i = 0; i < count(); ++i) {
    Slot& s = g_slots[i];
    const Event& e = s.event;
    if (!is_phase_kind(e.kind) || !system_matches(e, system)) continue;
    if (!e.phase.empty() && e.phase != phase) continue;
    if (!counted_fire(s)) continue;

    switch (e.kind) {
      case Kind::kHang:
        // Cooperative stand-in for an algorithmic livelock: spins exactly
        // until the watchdog cancels the trial. With no token (no
        // watchdog, or a hard-isolated child) this hangs for real.
        while (token == nullptr || !token->cancelled()) {
          std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }
        throw CancelledError("injected hang cancelled by watchdog");
      case Kind::kTransient:
        throw TransientError("injected transient fault in " +
                             std::string(system) + " at phase '" +
                             std::string(phase) + "'");
      case Kind::kError:
        throw EpgsError("injected error in " + std::string(system) +
                        " at phase '" + std::string(phase) + "'");
      case Kind::kAbort:
        std::abort();
      case Kind::kSegv:
        // A genuine (if self-inflicted) SIGSEGV: deterministic, defined
        // behaviour, and it drives the crash-forensics handler exactly
        // like a wild pointer would.
        ::raise(SIGSEGV);
        return;
      case Kind::kBadAlloc:
        // Memory-squeeze stand-in: what operator new throws when
        // RLIMIT_AS (or the real machine) runs out mid-build. The
        // supervisor classifies it as Outcome::kOomKilled.
        throw std::bad_alloc();
      case Kind::kWrongOutput:
        g_corrupt_pending.store(true);
        return;
      default:
        return;
    }
  }
}

bool take_wrong_output() {
  if (!armed()) return false;
  return g_corrupt_pending.exchange(false);
}

void on_iteration_boundary(std::string_view system, std::uint64_t completed,
                           const CancellationToken* token) {
  if (!armed() || token == nullptr) return;
  for (int i = 0; i < count(); ++i) {
    Slot& s = g_slots[i];
    if (s.event.kind != Kind::kCancel || !system_matches(s.event, system)) {
      continue;
    }
    if (iteration_fire(s, completed)) {
      token->cancel();
      return;
    }
  }
}

void on_checkpoint_saved(std::string_view system, std::uint64_t iteration) {
  if (!armed()) return;
  for (int i = 0; i < count(); ++i) {
    Slot& s = g_slots[i];
    if (s.event.kind != Kind::kKillCkpt || !system_matches(s.event, system)) {
      continue;
    }
    // The snapshot covering `iteration` is durable: die the way a kernel
    // OOM kill or power loss would, with no chance to clean up.
    if (iteration_fire(s, iteration)) ::raise(SIGKILL);
  }
}

void on_publish() {
  if (!armed()) return;
  for (int i = 0; i < count(); ++i) {
    Slot& s = g_slots[i];
    if (s.event.kind != Kind::kKillPublish) continue;
    // Between the durable tmp write and the publishing rename: the torn
    // window the atomic-publish protocol exists to survive.
    if (counted_fire(s)) ::raise(SIGKILL);
  }
}

int on_fs_call(FsOp op, std::string_view path, bool* short_write) {
  if (!armed()) return 0;
  for (int i = 0; i < count(); ++i) {
    Slot& s = g_slots[i];
    const Event& e = s.event;
    if (e.kind != Kind::kFs && e.kind != Kind::kFsShort) continue;
    if (e.fs_op != op) continue;
    if (!e.path_substr.empty() &&
        path.find(e.path_substr) == std::string_view::npos) {
      continue;
    }
    if (!counted_fire(s)) continue;
    if (e.kind == Kind::kFs) return e.fs_errno;
    if (short_write != nullptr) *short_write = true;
    return 0;
  }
  return 0;
}

// --- Text form -------------------------------------------------------------

std::pair<int, Event> parse_event_line(std::string_view line) {
  constexpr std::string_view kPrefix = "event ";
  EPGS_CHECK(line.substr(0, kPrefix.size()) == kPrefix,
             "fault event: line must start with 'event ': '" +
                 std::string(line) + "'");
  const auto f = split(line.substr(kPrefix.size()), '|');
  EPGS_CHECK(f.size() == 10, "fault event: line has " +
                                 std::to_string(f.size()) +
                                 " fields, expected 10");
  Event e;
  const int round = parse_num<int>("round", f[0]);
  EPGS_CHECK(round >= 0, "fault event: negative round");
  bool known_kind = false;
  for (const auto& kn : kKindNames) {
    if (kn.name == f[1]) {
      e.kind = kn.kind;
      known_kind = true;
    }
  }
  EPGS_CHECK(known_kind,
             "fault event: unknown kind '" + std::string(f[1]) + "'");
  e.system = std::string(f[2]);
  e.phase = std::string(f[3]);
  e.at = parse_num<int>("at", f[4]);
  EPGS_CHECK(e.at >= 1, "fault event: at must be >= 1");
  e.fires = parse_num<int>("fires", f[5]);
  EPGS_CHECK(e.fires >= 1, "fault event: fires must be >= 1");
  bool known_op = false;
  for (const FsOp op : kFsOps) {
    if (fs_op_name(op) == f[6]) {
      e.fs_op = op;
      known_op = true;
    }
  }
  EPGS_CHECK(known_op, "fault event: unknown op '" + std::string(f[6]) + "'");
  e.fs_errno = parse_num<int>("errno", f[7]);
  EPGS_CHECK(e.fs_errno >= 1, "fault event: errno must be >= 1");
  e.path_substr = std::string(f[8]);
  const int once = parse_num<int>("once", f[9]);
  EPGS_CHECK(once == 0 || once == 1, "fault event: once must be 0 or 1, got '" +
                                         std::string(f[9]) + "'");
  if (once == 1) e.once_marker = std::string(kUnboundMarker);
  return {round, std::move(e)};
}

std::string format_event(int round, const Event& e) {
  return "event " + std::to_string(round) + '|' +
         std::string(kind_name(e.kind)) + '|' + e.system + '|' + e.phase +
         '|' + std::to_string(e.at) + '|' + std::to_string(e.fires) + '|' +
         std::string(fs_op_name(e.fs_op)) + '|' +
         std::to_string(e.fs_errno) + '|' + e.path_substr + '|' +
         (e.once() ? '1' : '0');
}

std::vector<Event> parse_plan(std::string_view text) {
  std::vector<Event> events;
  for (const std::string_view line : split(text, ';')) {
    auto [round, e] = parse_event_line(line);
    EPGS_CHECK(round == 0, "fault plan: event round must be 0, got " +
                               std::to_string(round));
    EPGS_CHECK(!e.once(), "fault plan: once must be 0 (only epg chaos "
                          "supplies marker files)");
    events.push_back(std::move(e));
  }
  return events;
}

}  // namespace epgs::fault
