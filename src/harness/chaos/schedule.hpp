// Seeded chaos schedules: one RNG seed expands into a reproducible
// multi-round fault schedule composed from the repo's deterministic
// fault primitives — phase-level faults (hang / transient / error /
// abort / SIGSEGV / bad_alloc / wrong-output), SIGKILLs at checkpoint
// and snapshot-publish boundaries, and errno injection at the fs_shim
// choke point.
//
// Every event is designed to be *recoverable* under the chaos harness's
// supervisor configuration (isolation + retry_all_failures + once
// markers): the invariant the executor checks is that a chaos sweep's
// CSV, with its volatile columns stripped, is byte-identical to the
// fault-free control. The schedule is pure data with an exact text form
// (`to_spec` / `parse_spec`), so a shrunk counterexample replays from a
// file (`epg chaos --replay`).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/fault.hpp"

namespace epgs::harness::chaos {

/// One fault within one chaos round. A round arms at most one event per
/// family (phase kinds, kill-ckpt, kill-publish, fs) so the families'
/// fire points never shadow each other. Phase-kind events always name an
/// *algorithm* phase ("bfs", "pagerank", ...): algorithm units run
/// fork-isolated, so aborts/SIGSEGVs are contained, whereas builds run in
/// the parent where an abort would kill the harness itself; and they keep
/// at=1, because under isolation each child observes its own first
/// matching phase start, so higher values would never fire. The executor
/// gives every generated event but fs a once-marker (the property that
/// makes a fatal fault recoverable); --force-violation arms one without,
/// so it persists past every retry.
struct ChaosEvent {
  int round = 0;  ///< which chaos round arms this event
  fault::Event event;
};

/// Human-readable one-liner ("round 2: segv GAP/bfs (once)").
[[nodiscard]] std::string describe(const ChaosEvent& e);

struct ChaosSchedule {
  std::uint64_t seed = 0;
  int rounds = 0;
  std::vector<ChaosEvent> events;  ///< sorted by round
};

/// What the generator may target. The executor fills this from the
/// experiment config; empty vectors disable the corresponding kinds.
struct GeneratorConfig {
  std::vector<std::string> systems;  ///< System::name() values
  std::vector<std::string> phases;   ///< algorithm phase names ("bfs", ...)
  /// Phases whose results are validated on *every* trial (bfs/sssp when
  /// configured) — the only safe targets for kWrongOutput, since an
  /// unvalidated corruption would go undetected and unretried.
  std::vector<std::string> validated_phases;
  /// Enable the checkpoint-coupled kinds (kill-at-checkpoint /
  /// kill-at-publish); requires the executor to run with per-iteration
  /// snapshots.
  bool checkpoint_kinds = true;
  /// Path filter for generated fs faults. The executor points this at
  /// the iter-trace sidecar: a parent-side writer with a documented
  /// degradation path, so the fault exercises real ENOSPC handling
  /// without poisoning the journal the invariant check replays.
  std::string fs_path_substr;
};

/// Expand (seed, rounds) into a schedule: 1-3 events per round, at most
/// one per plan family, every parameter drawn from one Xoshiro256 stream
/// so the same seed always yields the same schedule.
[[nodiscard]] ChaosSchedule generate_schedule(std::uint64_t seed, int rounds,
                                              const GeneratorConfig& cfg);

// --- Spec text ----------------------------------------------------------
//
// Line-oriented, exact round-trip. Grammar:
//
//   epgs-chaos-v1
//   seed <u64>
//   rounds <K>
//   event <round>|<kind>|<system>|<phase>|<at>|<fires>|<op>|<errno>|<path>|<once>
//
// Event lines are fault::parse_event_line / fault::format_event, the same
// strict parser EPGS_FAULT goes through. Malformed input throws EpgsError:
// a replay spec is user input.

[[nodiscard]] std::string to_spec(const ChaosSchedule& s);
[[nodiscard]] ChaosSchedule parse_spec(const std::string& text);

}  // namespace epgs::harness::chaos
