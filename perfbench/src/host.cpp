#include "host.hpp"

#include <omp.h>
#include <unistd.h>

#include <fstream>
#include <string>

namespace perfbench {

namespace {

std::string first_line(const char* path) {
  std::ifstream in(path);
  std::string line;
  if (!in || !std::getline(in, line)) return "unknown";
  return line;
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) {
        return line.substr(line.find_first_not_of(' ', colon + 1));
      }
    }
  }
  return "unknown";
}

}  // namespace

std::vector<std::pair<std::string, std::string>> host_facts() {
#if defined(__clang__)
  const std::string compiler = std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  const std::string compiler = std::string("gcc ") + __VERSION__;
#else
  const std::string compiler = "unknown";
#endif
  return {
      {"nproc", std::to_string(sysconf(_SC_NPROCESSORS_ONLN))},
      {"cpu_model", cpu_model()},
      {"l3_size",
       first_line("/sys/devices/system/cpu/cpu0/cache/index3/size")},
      {"compiler", compiler},
      {"build_type", PERFBENCH_BUILD_TYPE},
      {"openmp_max_threads", std::to_string(omp_get_max_threads())},
      {"perf_event_paranoid",
       first_line("/proc/sys/kernel/perf_event_paranoid")},
  };
}

std::string build_refusal() {
  const std::string type = PERFBENCH_BUILD_TYPE;
  const std::string sanitize = PERFBENCH_SANITIZE;
  if (type == "Debug") return "refusing to report from a Debug build";
  if (!sanitize.empty()) {
    return "refusing to report from a sanitizer build (EPGS_SANITIZE=" +
           sanitize + ")";
  }
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  return "refusing to report from a sanitizer build";
#endif
#if !defined(__OPTIMIZE__)
  return "refusing to report from an unoptimized build";
#endif
  return {};
}

}  // namespace perfbench
