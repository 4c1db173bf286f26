#include "trace.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>

namespace perfbench {

namespace {

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out;
}

}  // namespace

Tracer::Tracer(bool enabled) : enabled_(enabled), epoch_(clock::now()) {}

double Tracer::now() const {
  return std::chrono::duration<double>(clock::now() - epoch_).count();
}

std::uint64_t Tracer::open(std::string name, std::uint64_t parent,
                           std::string unit) {
  if (!enabled_) return 0;
  const double start = now();
  std::lock_guard<std::mutex> lk(mutex_);
  Span s;
  s.id = spans_.size() + 1;
  s.parent = parent;
  s.name = std::move(name);
  s.unit = std::move(unit);
  s.start = start;
  s.end = -1.0;
  spans_.push_back(std::move(s));
  return spans_.back().id;
}

void Tracer::close(std::uint64_t id) {
  if (!enabled_ || id == 0) return;
  const double end = now();
  std::lock_guard<std::mutex> lk(mutex_);
  spans_.at(id - 1).end = end;
}

std::uint64_t Tracer::add(std::string name, std::uint64_t parent,
                          std::string unit, double start, double end) {
  if (!enabled_) return 0;
  std::lock_guard<std::mutex> lk(mutex_);
  Span s;
  s.id = spans_.size() + 1;
  s.parent = parent;
  s.name = std::move(name);
  s.unit = std::move(unit);
  s.start = start;
  s.end = end;
  spans_.push_back(std::move(s));
  return spans_.back().id;
}

Tracer::Scope::Scope(Tracer& tracer, std::string name, std::uint64_t parent,
                     std::string unit)
    : tracer_(tracer),
      id_(tracer.open(std::move(name), parent, std::move(unit))) {}

Tracer::Scope::~Scope() { tracer_.close(id_); }

std::vector<Span> Tracer::spans() const {
  std::lock_guard<std::mutex> lk(mutex_);
  return spans_;
}

Span Tracer::span(std::uint64_t id) const {
  std::lock_guard<std::mutex> lk(mutex_);
  return spans_.at(id - 1);
}

std::map<std::string, std::vector<double>> Tracer::durations() const {
  std::map<std::string, std::vector<double>> out;
  std::lock_guard<std::mutex> lk(mutex_);
  for (const Span& s : spans_) {
    if (s.end >= 0.0) out[s.name].push_back(s.seconds());
  }
  return out;
}

double Tracer::children_seconds(std::uint64_t parent) const {
  double sum = 0.0;
  std::lock_guard<std::mutex> lk(mutex_);
  for (const Span& s : spans_) {
    if (s.parent == parent && s.end >= 0.0) sum += s.seconds();
  }
  return sum;
}

void Tracer::write_jsonl(const std::filesystem::path& path) const {
  const std::vector<Span> all = spans();
  // Self time: the span minus the union of its children's intervals.
  std::map<std::uint64_t, std::vector<std::pair<double, double>>> kids;
  for (const Span& s : all) {
    if (s.parent != 0) kids[s.parent].emplace_back(s.start, s.end);
  }
  if (path.has_parent_path()) {
    std::filesystem::create_directories(path.parent_path());
  }
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write " + path.string());
  char buf[160];
  for (const Span& s : all) {
    double covered = 0.0;
    auto it = kids.find(s.id);
    if (it != kids.end()) {
      auto iv = it->second;
      std::sort(iv.begin(), iv.end());
      double lo = iv.front().first;
      double hi = iv.front().second;
      for (const auto& [a, b] : iv) {
        if (a > hi) {
          covered += hi - lo;
          lo = a;
          hi = b;
        } else {
          hi = std::max(hi, b);
        }
      }
      covered += hi - lo;
    }
    std::snprintf(buf, sizeof buf,
                  "\"start\": %.9f, \"end\": %.9f, \"self\": %.9f}", s.start,
                  s.end, s.seconds() - covered);
    out << "{\"id\": " << s.id << ", \"parent\": " << s.parent
        << ", \"name\": \"" << json_escape(s.name) << "\", \"unit\": \""
        << json_escape(s.unit) << "\", " << buf << '\n';
  }
  if (!out.flush()) throw std::runtime_error("cannot write " + path.string());
}

ChildSpans::ChildSpans(Tracer& tracer, std::uint64_t parent, std::string unit)
    : tracer_(tracer), parent_(parent), unit_(std::move(unit)) {}

void ChildSpans::record(const std::string& name, double start, double end) {
  if (!tracer_.enabled()) return;
  Span s;
  s.parent = parent_;
  s.name = name;
  s.unit = unit_;
  s.start = start;
  s.end = end;
  spans_.push_back(std::move(s));
}

void ChildSpans::deliver(int parent_pid, const SpillFile& spill) {
  if (spans_.empty()) return;
  if (::getpid() == parent_pid) {
    for (Span& s : spans_) {
      tracer_.add(std::move(s.name), s.parent, std::move(s.unit), s.start,
                  s.end);
    }
  } else {
    std::ostringstream text;
    char buf[96];
    for (const Span& s : spans_) {
      std::snprintf(buf, sizeof buf, "%llu\t%.9f\t%.9f\t",
                    static_cast<unsigned long long>(s.parent), s.start,
                    s.end);
      text << buf << s.name << '\t' << s.unit << '\n';
    }
    const std::string bytes = text.str();
    if (::write(spill.fd(), bytes.data(), bytes.size()) !=
        static_cast<ssize_t>(bytes.size())) {
      throw std::runtime_error("short write to the span spill file");
    }
  }
  spans_.clear();
}

SpillFile::SpillFile(std::filesystem::path path)
    : path_(std::move(path)),
      fd_(::open(path_.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_APPEND,
                 0644)) {
  if (fd_ < 0) throw std::runtime_error("cannot open " + path_.string());
}

SpillFile::~SpillFile() {
  if (fd_ >= 0) ::close(fd_);
  std::error_code ec;
  std::filesystem::remove(path_, ec);
}

void SpillFile::merge_into(Tracer& tracer) {
  std::ifstream in(path_);
  std::string line;
  while (std::getline(in, line)) {
    std::istringstream fields(line);
    std::string parent, start, end, name, unit;
    if (!std::getline(fields, parent, '\t') ||
        !std::getline(fields, start, '\t') ||
        !std::getline(fields, end, '\t') ||
        !std::getline(fields, name, '\t')) {
      throw std::runtime_error("torn span spill line: " + line);
    }
    std::getline(fields, unit);
    tracer.add(name, std::stoull(parent), unit, std::stod(start),
               std::stod(end));
  }
}

}  // namespace perfbench
