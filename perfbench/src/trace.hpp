// In-memory span recorder for the benchmark's traced runs.
//
// The benchmark records a span around each call it makes into a layer's
// public functions; nothing inside the library is instrumented. Spans are
// kept in memory and written out once, when the run ends. Times are
// seconds on std::chrono::steady_clock since the tracer's epoch; the
// clock is system-wide, so a fork-isolated child can time its own calls
// against the inherited epoch and hand the spans back (see
// ChildSpans below).
#pragma once

#include <chrono>
#include <cstdint>
#include <filesystem>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

struct Span {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  ///< 0 = top level
  std::string name;          ///< layer-qualified, e.g. "systems.GAP.build"
  std::string unit;          ///< per-unit or per-request id, may be empty
  double start = 0.0;
  double end = 0.0;

  [[nodiscard]] double seconds() const { return end - start; }
};

class Tracer {
 public:
  using clock = std::chrono::steady_clock;

  /// A disabled tracer records nothing; every call is a cheap no-op.
  explicit Tracer(bool enabled);

  [[nodiscard]] bool enabled() const { return enabled_; }
  [[nodiscard]] double now() const;

  /// Open a span now; returns its id (0 when disabled). Thread-safe.
  std::uint64_t open(std::string name, std::uint64_t parent = 0,
                     std::string unit = {});
  void close(std::uint64_t id);
  /// Record an already-finished span (e.g. timed in a child process).
  std::uint64_t add(std::string name, std::uint64_t parent, std::string unit,
                    double start, double end);

  /// RAII span: opened by the constructor, closed by the destructor.
  class Scope {
   public:
    Scope(Tracer& tracer, std::string name, std::uint64_t parent = 0,
          std::string unit = {});
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    [[nodiscard]] std::uint64_t id() const { return id_; }

   private:
    Tracer& tracer_;
    std::uint64_t id_;
  };

  [[nodiscard]] std::vector<Span> spans() const;
  [[nodiscard]] Span span(std::uint64_t id) const;

  /// Durations of every closed span, grouped by name.
  [[nodiscard]] std::map<std::string, std::vector<double>> durations() const;

  /// Sum of the direct children's durations of `parent` (0 = top level
  /// spans). Children of one parent run one after another, so the sum is
  /// the time the parent's interval is covered by them.
  [[nodiscard]] double children_seconds(std::uint64_t parent) const;

  /// Write one JSON object per span (id, parent, name, unit, start, end,
  /// self), where self is the span's time minus the union of its
  /// children's intervals. Creates the parent directory.
  void write_jsonl(const std::filesystem::path& path) const;

 private:
  bool enabled_;
  clock::time_point epoch_;
  mutable std::mutex mutex_;
  std::vector<Span> spans_;  ///< index = id - 1
};

/// Append-only file through which fork-isolated children hand their spans
/// back: opened by the parent before the sweep, inherited by every child,
/// each child's spans written with one O_APPEND write.
class SpillFile {
 public:
  explicit SpillFile(std::filesystem::path path);
  ~SpillFile();
  SpillFile(const SpillFile&) = delete;
  SpillFile& operator=(const SpillFile&) = delete;
  [[nodiscard]] int fd() const { return fd_; }

  /// Add every spilled span to the tracer. The destructor deletes the file.
  void merge_into(Tracer& tracer);

 private:
  std::filesystem::path path_;
  int fd_;
};

/// Spans timed by a unit body that may run in a fork-isolated child. The
/// body records into this buffer against the tracer's epoch; deliver()
/// hands them to the tracer directly when still in the parent process, or
/// writes them to the spill file when in a child, whose memory is gone
/// once the unit returns.
class ChildSpans {
 public:
  ChildSpans(Tracer& tracer, std::uint64_t parent, std::string unit);

  /// Time `fn()` as a span named `name`; returns fn's result.
  template <typename Fn>
  decltype(auto) time(const std::string& name, Fn&& fn) {
    const double start = tracer_.now();
    struct Closer {
      ChildSpans& self;
      const std::string& name;
      double start;
      ~Closer() { self.record(name, start, self.tracer_.now()); }
    } closer{*this, name, start};
    return fn();
  }

  void deliver(int parent_pid, const SpillFile& spill);

 private:
  void record(const std::string& name, double start, double end);

  Tracer& tracer_;
  std::uint64_t parent_;
  std::string unit_;
  std::vector<Span> spans_;
};

}  // namespace perfbench
