// Deterministic fault injection: one plan language for every injector.
//
// Every supervisor behaviour (watchdog cancellation, crash containment,
// retry/backoff, journal replay, checkpoint resume, disk-full
// degradation) must be demonstrable without wall-clock flakiness, so
// faults fire at exact, countable points: the Nth phase start of a named
// system, the snapshot covering iteration N, the Nth snapshot publish,
// the Nth matching syscall through the fs shim. A fault is one `Event`;
// a plan is a short list of them armed process-globally with `arm()`.
// The instrumented code reports each point through a hook below; when
// nothing is armed every hook is one acquire load of the armed flag.
//
// The text form of an event is the `event` line of an `epgs-chaos-v1`
// spec (harness/chaos/schedule.hpp):
//
//   event <round>|<kind>|<system>|<phase>|<at>|<fires>|<op>|<errno>|<path>|<once>
//
// `epg chaos --replay` reads whole spec files of them; the EPGS_FAULT
// environment variable holds `;`-separated `event 0|...` lines for one
// `epg` process (see parse_plan), so a line of a shrunk chaos reproducer
// pastes straight in. A crash report lists the armed events in the same
// form.
//
// fork() isolation note: a child inherits the armed events *by value*,
// and its counters never propagate back, so under --isolate every
// isolated unit re-evaluates the plan from the parent's snapshot (a
// fires=1 abort aborts every matching child, not just the first). Events
// that need fire-once semantics *across* re-forked retries carry a
// `once_marker`: a file claimed with O_CREAT|O_EXCL immediately before
// the fault executes, so the retry child finds the marker and skips.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/cancellation.hpp"

namespace epgs::fault {

enum class Kind {
  kHang,         ///< spin at the phase start until the token is cancelled
  kTransient,    ///< throw TransientError (retryable)
  kError,        ///< throw EpgsError (contained as Outcome::kCrash)
  kAbort,        ///< std::abort(): only survivable under --isolate
  kSegv,         ///< raise SIGSEGV: exercises the crash-forensics handler
  kBadAlloc,     ///< throw std::bad_alloc (memory-squeeze stand-in)
  kWrongOutput,  ///< corrupt the phase's result so validation rejects it
  kKillCkpt,     ///< SIGKILL once the snapshot covering iteration `at` is durable
  kKillPublish,  ///< SIGKILL inside the `at`-th snapshot's torn-publish window
  kCancel,       ///< cancel the unit's token at completed iteration `at`
  kFs,           ///< fail a matching fs-shim syscall with `fs_errno`
  kFsShort,      ///< tear a matching fs-shim write in half (retried)
};

/// Syscall families the fs shim routes through on_fs_call().
enum class FsOp { kOpen, kRead, kWrite, kRename, kFsync, kMmap };

[[nodiscard]] std::string_view kind_name(Kind k);
[[nodiscard]] std::string_view fs_op_name(FsOp op);

/// `once_marker` value of a parsed `once=1` event: the text form says a
/// marker exists but not where. arm() refuses it until the armer binds a
/// real file (epg chaos does, per round); EPGS_FAULT therefore cannot
/// carry once=1.
inline constexpr std::string_view kUnboundMarker = "<unbound>";

/// One fault. Which fields matter depends on the kind; unused fields keep
/// their defaults so the text form stays canonical (same event, same line).
struct Event {
  Kind kind = Kind::kTransient;
  std::string system;  ///< exact System::name() match; empty = any system
  /// Phase-name filter for the phase kinds (kHang..kWrongOutput); empty =
  /// any phase.
  std::string phase;
  /// Counted from 1. Phase and fs kinds: fire from the Nth matching call
  /// on; kKillPublish: the Nth publish point; kKillCkpt / kCancel: the
  /// completed iteration.
  int at = 1;
  /// Fire at most this many times. 0 never fires, which makes a counting
  /// probe (tests read calls()); the text parser requires >= 1.
  int fires = 1;
  FsOp fs_op = FsOp::kWrite;  ///< fs kinds only
  int fs_errno = 28;          ///< kFs only (default ENOSPC)
  std::string path_substr;    ///< fs kinds only; empty = any path
  /// Fire-once file across fork-isolated retries; empty = no marker.
  std::string once_marker;

  [[nodiscard]] bool once() const { return !once_marker.empty(); }
};

/// Most events armed at once: one crash-report note slot each.
inline constexpr int kMaxEvents = 4;

/// Arm `events` for the whole process, replacing whatever was armed.
/// Arm before the sweep starts: the counters are atomic but the swap is
/// not safe against concurrently running trials. Throws EpgsError, with
/// nothing armed, on more than kMaxEvents events or an unbound marker.
void arm(std::span<const Event> events);

/// Remove every armed event and zero the counters.
void disarm();

[[nodiscard]] bool armed();

/// Matching hook calls the `i`-th armed event observed since arm().
[[nodiscard]] int calls(std::size_t i);

/// Times the `i`-th armed event actually fired.
[[nodiscard]] int fires(std::size_t i);

/// RAII arming for tests: disarms on scope exit.
class Scoped {
 public:
  explicit Scoped(std::span<const Event> events) { arm(events); }
  explicit Scoped(const Event& event) : Scoped(std::span(&event, 1)) {}
  ~Scoped() { disarm(); }
  Scoped(const Scoped&) = delete;
  Scoped& operator=(const Scoped&) = delete;
};

// --- Hooks ---------------------------------------------------------------
//
// Events are consulted in arm order; the first one that fires decides.

/// System, at every phase start. May throw TransientError / EpgsError /
/// std::bad_alloc, abort the process, or, for kHang, block until `token`
/// is cancelled (forever when token is null: a genuine hang, which only
/// the isolation layer's hard kill can end).
void on_phase_start(std::string_view system, std::string_view phase,
                    const CancellationToken* token);

/// System, after a phase produced its result: true when a kWrongOutput
/// event fired at this phase and the result must be corrupted.
[[nodiscard]] bool take_wrong_output();

/// System, at every iteration boundary before the token poll (kCancel).
void on_iteration_boundary(std::string_view system, std::uint64_t completed,
                           const CancellationToken* token);

/// System, after every durable snapshot write (kKillCkpt).
void on_checkpoint_saved(std::string_view system, std::uint64_t iteration);

/// The checkpoint writer, between a snapshot's durable tmp write and the
/// rename that publishes it (kKillPublish).
void on_publish();

/// The fs shim, before every wrapped syscall. Returns the errno to inject
/// (0 = proceed); sets `*short_write` when a kFsShort event asks a write
/// (`short_write` non-null) to land torn instead.
[[nodiscard]] int on_fs_call(FsOp op, std::string_view path,
                             bool* short_write);

// --- Text form -------------------------------------------------------------

/// Parse one `event <round>|...` line strictly: ten '|'-separated fields,
/// known kind and op, whole-string integers, at >= 1, fires >= 1,
/// errno >= 1, once 0 or 1. Throws EpgsError. Returns {round, event}.
[[nodiscard]] std::pair<int, Event> parse_event_line(std::string_view line);

/// The canonical `event` line (no trailing newline).
[[nodiscard]] std::string format_event(int round, const Event& e);

/// Parse an EPGS_FAULT value: `;`-separated event lines, each with round
/// 0 and once 0. Every line is parsed before anything is returned, so a
/// malformed plan arms nothing.
[[nodiscard]] std::vector<Event> parse_plan(std::string_view text);

}  // namespace epgs::fault
