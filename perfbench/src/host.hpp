// Host facts printed with every result, and the build-type gate: numbers
// from a Debug or sanitizer build are not performance numbers.
#pragma once

#include <string>
#include <utility>
#include <vector>

namespace perfbench {

/// nproc, CPU model, L3 size, compiler and version, build type, OpenMP
/// threads and perf_event_paranoid, as (key, value) pairs.
std::vector<std::pair<std::string, std::string>> host_facts();

/// Why this build must not report numbers; empty when it may.
std::string build_refusal();

}  // namespace perfbench
