#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <set>
#include <tuple>

#include "bench.hpp"
#include "core/rng.hpp"
#include "systems/common/system.hpp"

namespace perfbench {

using epgs::harness::RunRecord;

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

std::size_t beyond(const std::vector<double>& v, double q) {
  const double cut = quantile(v, q);
  return static_cast<std::size_t>(
      std::count_if(v.begin(), v.end(), [&](double x) { return x > cut; }));
}

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream) {
  epgs::SplitMix64 sm(seed * 0x9E3779B97F4A7C15ull + stream);
  return sm.next();
}

double cpu_seconds() {
  auto secs = [](const rusage& ru) {
    return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
           1e-6 * static_cast<double>(ru.ru_utime.tv_usec +
                                      ru.ru_stime.tv_usec);
  };
  rusage self{};
  rusage kids{};
  getrusage(RUSAGE_SELF, &self);
  getrusage(RUSAGE_CHILDREN, &kids);
  return secs(self) + secs(kids);
}

double peak_rss_mib() {
  rusage self{};
  rusage kids{};
  getrusage(RUSAGE_SELF, &self);
  getrusage(RUSAGE_CHILDREN, &kids);
  return static_cast<double>(std::max(self.ru_maxrss, kids.ru_maxrss)) /
         1024.0;
}

bool nested_phase(const std::string& phase) {
  return phase == epgs::phase::kEngineInit || phase == epgs::phase::kOutput;
}

double top_level_seconds(const std::vector<RunRecord>& recs) {
  double sum = 0.0;
  std::set<std::tuple<std::string, std::string, std::string>> build_once;
  for (const RunRecord& r : recs) {
    if (r.outcome != epgs::Outcome::kSuccess || nested_phase(r.phase)) {
      continue;
    }
    if (r.trial < 0 &&
        !build_once.emplace(r.system, r.algorithm, r.phase).second) {
      continue;
    }
    sum += r.seconds;
  }
  return sum;
}

std::map<Cell, std::vector<double>> answer_seconds(
    const std::vector<RunRecord>& recs) {
  std::map<std::tuple<std::string, std::string, int>, double> per_trial;
  for (const RunRecord& r : recs) {
    if (r.trial < 0 || r.outcome != epgs::Outcome::kSuccess ||
        nested_phase(r.phase)) {
      continue;
    }
    per_trial[{r.system, r.algorithm, r.trial}] += r.seconds;
  }
  std::map<Cell, std::vector<double>> out;
  for (const auto& [key, secs] : per_trial) {
    out[{std::get<0>(key), std::get<1>(key)}].push_back(secs);
  }
  return out;
}

std::size_t failed_records(const std::vector<RunRecord>& recs) {
  return static_cast<std::size_t>(
      std::count_if(recs.begin(), recs.end(), [](const RunRecord& r) {
        return r.outcome != epgs::Outcome::kSuccess;
      }));
}

std::size_t trial_units(const std::vector<RunRecord>& recs) {
  std::set<std::tuple<std::string, std::string, int>> units;
  for (const RunRecord& r : recs) {
    if (r.trial >= 0) units.emplace(r.system, r.algorithm, r.trial);
  }
  return units.size();
}

}  // namespace perfbench
