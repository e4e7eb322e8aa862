// Measurement plumbing for the repository benchmark: host clocks, wall-clock
// spans with Chrome trace export, order statistics, and the metric table
// printed as the result line. Everything here is host time; simulated
// statistics are checked by the workloads as outputs, never scored.
#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

// Monotonic host time in nanoseconds.
int64_t NowNs();

// CPU time of the whole process (every thread) in nanoseconds. Time a
// thread spends descheduled does not count: neither waiting for a CPU
// inside the machine nor time the hypervisor steals from a virtual CPU
// (paravirtual steal accounting leaves it out of a thread's run time). On a
// shared host that makes it far steadier than wall time for work that does
// not block.
int64_t CpuNs();

// A wall and a process CPU reading taken together, or the difference of two.
struct HostTime {
  int64_t wall_ns = 0;
  int64_t cpu_ns = 0;
};
HostTime HostNow();
// Time elapsed since |start|.
HostTime HostSince(const HostTime& start);

// Wall-clock spans recorded around calls into the simulator's public
// functions. Kept in memory and exported when the run ends; a disabled log
// records nothing, so the untraced run pays one branch per call site.
class SpanLog {
 public:
  explicit SpanLog(bool enabled);

  bool enabled() const { return enabled_; }

  // Opens a span nested under the innermost open one; returns its id, or
  // -1 when disabled (End(-1) is a no-op).
  int Begin(const char* name);
  void End(int id);

  // Durations in milliseconds of every closed span named |name|.
  std::vector<double> DurationsMs(const std::string& name) const;
  // Summed self time (duration minus closed child spans) per span name,
  // in milliseconds, sorted by name.
  std::vector<std::pair<std::string, double>> SelfTimesMs() const;

  size_t size() const { return spans_.size(); }
  // Chrome trace_event JSON ({"traceEvents": [...]}), one "X" event per
  // span with its parent id in args.
  std::string ChromeJson() const;

 private:
  struct Span {
    const char* name;
    int64_t start_ns;
    int64_t end_ns;
    int parent;
  };
  // Spans past this count are not recorded (counted in dropped_), so a
  // long traced run cannot grow without bound.
  static constexpr size_t kMaxSpans = 1 << 20;

  bool enabled_;
  int64_t epoch_ns_;
  std::vector<Span> spans_;
  std::vector<int> open_;
  uint64_t dropped_ = 0;
};

// RAII span; |log| may be null.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, const char* name)
      : log_(log), id_(log != nullptr ? log->Begin(name) : -1) {}
  ~ScopedSpan() {
    if (log_ != nullptr) {
      log_->End(id_);
    }
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanLog* log_;
  int id_;
};

// Linear-interpolated quantile (q in [0, 1]) of |values|; 0 when empty.
double Quantile(std::vector<double> values, double q);
double Median(const std::vector<double>& values);
// The lowest order statistic that still has at least ten samples below it
// (sorted ascending, index 10); the minimum when there are ten or fewer.
double LowTail(std::vector<double> values);

// One reported number: name, value, unit, and how many samples it
// summarizes. |note| labels derived values (e.g. estimates from isolated
// calls) in the human-readable table.
struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  size_t samples = 0;
  std::string note;
};

class MetricTable {
 public:
  void Add(const std::string& name, double value, const std::string& unit,
           size_t samples, const std::string& note = "");
  const std::vector<Metric>& metrics() const { return metrics_; }
  const Metric* Find(const std::string& name) const;

  // Human-readable rows, one per metric, prefixed with |tag|.
  void Print(const char* tag) const;
  // The JSON object {"name": {"value": v, "unit": u}, ...}.
  std::string Json() const;

 private:
  std::vector<Metric> metrics_;
};

// Full-precision decimal rendering of a double for JSON.
std::string JsonNumber(double value);
std::string JsonString(const std::string& text);

// Peak resident set size of this process (VmHWM), megabytes.
double PeakRssMb();
// Resets the peak resident set to the current one, so a later PeakRssMb()
// covers only what follows. Returns false when the kernel refuses.
bool ResetPeakRss();
// Returns free heap memory to the OS (malloc_trim).
void ReleaseFreeHeap();

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H_
