#include "perfbench/harness.h"

#include <malloc.h>
#include <time.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>

namespace perfbench {

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

int64_t CpuNs() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<int64_t>(ts.tv_sec) * 1000000000 + ts.tv_nsec;
}

HostTime HostNow() { return HostTime{NowNs(), CpuNs()}; }

HostTime HostSince(const HostTime& start) {
  const HostTime now = HostNow();
  return HostTime{now.wall_ns - start.wall_ns, now.cpu_ns - start.cpu_ns};
}

SpanLog::SpanLog(bool enabled) : enabled_(enabled), epoch_ns_(NowNs()) {
  if (enabled_) {
    spans_.reserve(4096);
  }
}

int SpanLog::Begin(const char* name) {
  if (!enabled_) {
    return -1;
  }
  if (spans_.size() >= kMaxSpans) {
    ++dropped_;
    return -1;
  }
  const int parent = open_.empty() ? -1 : open_.back();
  spans_.push_back(Span{name, NowNs(), -1, parent});
  const int id = static_cast<int>(spans_.size()) - 1;
  open_.push_back(id);
  return id;
}

void SpanLog::End(int id) {
  if (id < 0) {
    return;
  }
  spans_[static_cast<size_t>(id)].end_ns = NowNs();
  // Spans close in LIFO order (ScopedSpan); tolerate a stray close anyway.
  auto it = std::find(open_.rbegin(), open_.rend(), id);
  if (it != open_.rend()) {
    open_.erase(std::next(it).base(), open_.end());
  }
}

std::vector<double> SpanLog::DurationsMs(const std::string& name) const {
  std::vector<double> out;
  for (const Span& s : spans_) {
    if (s.end_ns >= 0 && name == s.name) {
      out.push_back(static_cast<double>(s.end_ns - s.start_ns) * 1e-6);
    }
  }
  return out;
}

std::vector<std::pair<std::string, double>> SpanLog::SelfTimesMs() const {
  std::vector<int64_t> child_ns(spans_.size(), 0);
  for (const Span& s : spans_) {
    if (s.end_ns >= 0 && s.parent >= 0) {
      child_ns[static_cast<size_t>(s.parent)] += s.end_ns - s.start_ns;
    }
  }
  std::map<std::string, double> self;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (s.end_ns >= 0) {
      self[s.name] +=
          static_cast<double>(s.end_ns - s.start_ns - child_ns[i]) * 1e-6;
    }
  }
  return {self.begin(), self.end()};
}

std::string SpanLog::ChromeJson() const {
  std::ostringstream out;
  out << "{\"traceEvents\": [";
  bool first = true;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (s.end_ns < 0) {
      continue;
    }
    out << (first ? "\n" : ",\n");
    first = false;
    char line[256];
    std::snprintf(line, sizeof(line),
                  "{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, "
                  "\"ts\": %.3f, \"dur\": %.3f, \"args\": {\"id\": %zu, "
                  "\"parent\": %d}}",
                  s.name, static_cast<double>(s.start_ns - epoch_ns_) * 1e-3,
                  static_cast<double>(s.end_ns - s.start_ns) * 1e-3, i,
                  s.parent);
    out << line;
  }
  out << "\n], \"otherData\": {\"dropped_spans\": " << dropped_ << "}}\n";
  return out.str();
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) {
    return 0;
  }
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double Median(const std::vector<double>& values) {
  return Quantile(values, 0.5);
}

double LowTail(std::vector<double> values) {
  if (values.empty()) {
    return 0;
  }
  std::sort(values.begin(), values.end());
  return values.size() > 10 ? values[10] : values.front();
}

void MetricTable::Add(const std::string& name, double value,
                      const std::string& unit, size_t samples,
                      const std::string& note) {
  metrics_.push_back(Metric{name, value, unit, samples, note});
}

const Metric* MetricTable::Find(const std::string& name) const {
  for (const Metric& m : metrics_) {
    if (m.name == name) {
      return &m;
    }
  }
  return nullptr;
}

void MetricTable::Print(const char* tag) const {
  for (const Metric& m : metrics_) {
    std::printf("%-6s %-34s %18.6f %-7s n=%-7zu %s\n", tag, m.name.c_str(),
                m.value, m.unit.c_str(), m.samples, m.note.c_str());
  }
}

std::string MetricTable::Json() const {
  std::string out = "{";
  for (size_t i = 0; i < metrics_.size(); ++i) {
    const Metric& m = metrics_[i];
    out += (i == 0 ? "" : ", ") + JsonString(m.name) + ": {\"value\": " +
           JsonNumber(m.value) + ", \"unit\": " + JsonString(m.unit) + "}";
  }
  return out + "}";
}

std::string JsonNumber(double value) {
  if (!std::isfinite(value)) {
    return "0";
  }
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

std::string JsonString(const std::string& text) {
  std::string out = "\"";
  for (char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

double PeakRssMb() {
  // VmHWM, not getrusage's ru_maxrss: Linux carries ru_maxrss across exec,
  // so it would report the launching process's peak when that is larger.
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB -> MB.
    }
  }
  return 0;
}

bool ResetPeakRss() {
  // Writing 5 to clear_refs resets VmHWM to the current RSS (Linux >= 4.0).
  std::ofstream clear("/proc/self/clear_refs");
  clear << "5";
  clear.flush();
  return static_cast<bool>(clear);
}

void ReleaseFreeHeap() {
#if defined(__GLIBC__)
  malloc_trim(0);
#endif
}

}  // namespace perfbench
