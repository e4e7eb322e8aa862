// perfbench: the repository benchmark's measuring program. perfbench/run.py
// builds it and runs it as
//
//   perfbench --workload <fleet|replay|campaign|serve> --seed N
//             --seconds S --trace <0|1> --manifest <campaign.xml>
//             [--trace-out <chrome.json>]
//   perfbench --smoke --manifest <campaign.xml>
//
// An untraced run (--trace 0) prints the end-to-end metrics; a traced run
// (--trace 1) records wall-clock spans around every call into the simulator,
// runs the isolated probes, and prints the per-layer metrics instead. The
// last stdout line is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// The exit code is nonzero when any correctness check fails.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "perfbench/harness.h"
#include "perfbench/probes.h"
#include "perfbench/workloads.h"
#include "src/util/logging.h"

namespace perfbench {
namespace {

// The per-layer metrics a traced run prints, in order (BENCHMARK.json lists
// the same names; run.py checks that they agree). A workload that does not
// run a layer reports 0 for it with n=0.
struct LayerName {
  const char* name;
  const char* unit;
};
constexpr LayerName kLayerMetrics[] = {
    {"exec.world_ms.p50", "ms"},
    {"exec.world_ms.p90", "ms"},
    {"exec.fly_ms.p50", "ms"},
    {"exec.boot_us.cold", "us"},
    {"exec.boot_us.clone", "us"},
    {"exec.clone_speedup", "x"},
    {"exec.arena_kb", "KiB"},
    {"exec.template_hit_ratio", "ratio"},
    {"clock.events_per_world", "count"},
    {"clock.ns_per_event", "ns"},
    {"clock.tick_ns", "ns"},
    {"clock.tick_ns.share_est", "ratio"},
    {"clock.oneshot_ns", "ns"},
    {"rng.gaussian_ns", "ns"},
    {"hw.hub_refresh_ns", "ns"},
    {"hw.hub_refresh_ns.share_est", "ratio"},
    {"flight.fast_loops_per_world", "count"},
    {"flight.estimator_ns", "ns"},
    {"flight.estimator_ns.share_est", "ratio"},
    {"flight.control_ns", "ns"},
    {"flight.control_ns.share_est", "ratio"},
    {"flight.physics_ns", "ns"},
    {"flight.physics_ns.share_est", "ratio"},
    {"flight.safety_ns", "ns"},
    {"flight.safety_ns.share_est", "ratio"},
    {"mav.frames_per_world", "count"},
    {"mav.flushes_per_world", "count"},
    {"mav.encode_ns", "ns"},
    {"mav.encode_ns.share_est", "ratio"},
    {"net.vpn_send_ns", "ns"},
    {"net.vpn_send_ns.share_est", "ratio"},
    {"binder.txns_per_world", "count"},
    {"binder.fast_path_ratio", "ratio"},
    {"cloud.plan_ms", "ms"},
    {"replay.record_ms.p50", "ms"},
    {"replay.log_kb", "KiB"},
    {"replay.speedup", "x"},
    {"snapshot.checkpoint_us", "us"},
    {"snapshot.checkpoint_kb", "KiB"},
    {"scenario.expand_ms", "ms"},
    {"scenario.run_s", "s"},
    {"scenario.repro_ms", "ms"},
    {"ctrl.serve_ms", "ms"},
    {"obs.hist_record_ns", "ns"},
    {"obs.hist_percentile_ns", "ns"},
    {"trace.clock_per_world", "count"},
    {"trace.rt_per_world", "count"},
    {"trace.binder_per_world", "count"},
    {"trace.mavlink_per_world", "count"},
    {"trace.net_per_world", "count"},
    {"trace.container_per_world", "count"},
    {"trace.flight_per_world", "count"},
    {"obs.trace_overhead", "ratio"},
};

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool smoke = false;
  std::string manifest;
  std::string trace_out;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--smoke") {
      args->smoke = true;
      continue;
    }
    if (i + 1 >= argc) {
      std::fprintf(stderr, "perfbench: %s needs a value\n", flag.c_str());
      return false;
    }
    const char* value = argv[++i];
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::atof(value);
    } else if (flag == "--trace") {
      args->trace = std::strcmp(value, "0") != 0;
    } else if (flag == "--manifest") {
      args->manifest = value;
    } else if (flag == "--trace-out") {
      args->trace_out = value;
    } else {
      std::fprintf(stderr, "perfbench: unknown flag %s\n", flag.c_str());
      return false;
    }
  }
  if (args->manifest.empty()) {
    std::fprintf(stderr, "perfbench: --manifest is required\n");
    return false;
  }
  return args->smoke || !args->workload.empty();
}

void PrintBuildStamp() {
#if defined(__OPTIMIZE__)
  const bool optimized = true;
#else
  const bool optimized = false;
#endif
#if defined(NDEBUG)
  const char* asserts = "off";
#else
  const char* asserts = "on";
#endif
  std::printf("# build optimized=%s asserts=%s compiler=\"%s\" std=%ld\n",
              optimized ? "yes" : "NO", asserts, __VERSION__, __cplusplus);
  if (!optimized) {
    std::printf("# WARNING: non-optimised build; timings are not "
                "comparable\n");
  }
}

const char* UnitAlias(const std::string& unit) {
  if (unit == "world") {
    return "worlds_per_s";
  }
  if (unit == "scenario") {
    return "scenarios_per_s";
  }
  return "sessions_per_s";
}

double Seconds(int64_t ns) { return static_cast<double>(ns) * 1e-9; }

// Real-time factor of each distinct input: simulated seconds over host
// seconds (CPU or wall) per unit, with the units that rerun one input
// reduced to their median, so a host stall during a few reruns of a log does
// not count as a slow world.
std::vector<double> InputRtf(const std::vector<Outcome::UnitTime>& units,
                             bool cpu) {
  std::map<int64_t, std::vector<double>> by_input;
  for (const Outcome::UnitTime& u : units) {
    const int64_t ns = cpu ? u.host.cpu_ns : u.host.wall_ns;
    by_input[u.input].push_back(ns > 0 ? u.sim_s / Seconds(ns) : 0);
  }
  std::vector<double> out;
  for (const auto& [input, rtf] : by_input) {
    out.push_back(Median(rtf));
  }
  return out;
}

struct RunSummary {
  bool correct = true;
  int64_t attempted = 0;
  int64_t failed = 0;
  MetricTable metrics;
};

// One workload end to end: set-up (repeated; median reported), the timed
// closed loop, the checks, and either the end-to-end or per-layer metrics.
RunSummary RunWorkload(const std::string& name, const Args& args) {
  SpanLog spans(args.trace);
  Options options;
  options.seed = args.seed;
  options.smoke = args.smoke;
  options.manifest_path = args.manifest;
  options.spans = &spans;

  // Set-up runs once before the timed phase, as for a user, so the timed
  // phase and peak_rss_mb see the heap that one set-up leaves. An untraced
  // run then repeats it from scratch, at least three times in all and then
  // until two seconds or forty set-ups have passed; the median is
  // reported. (Repeating it first left a heap whose resident size after
  // malloc_trim varied by 27 MB from seed to seed on replay.)
  std::vector<double> setup_s;  // CPU seconds.
  std::vector<double> setup_wall_s;
  const auto set_up = [&]() {
    std::unique_ptr<Workload> fresh = MakeWorkload(name, options);
    const HostTime start = HostNow();
    {
      ScopedSpan span(&spans, "setup");
      fresh->Setup();
    }
    const HostTime setup = HostSince(start);
    setup_s.push_back(Seconds(setup.cpu_ns));
    setup_wall_s.push_back(Seconds(setup.wall_ns));
    return fresh;
  };
  std::unique_ptr<Workload> workload = set_up();

  // Set-up leaves freed memory behind; peak_rss_mb covers the timed phase's
  // stretches on top of what the set-up keeps live.
  ReleaseFreeHeap();
  if (!ResetPeakRss()) {
    std::printf("# WARNING: could not reset VmHWM; peak_rss_mb includes "
                "set-up\n");
  }
  Outcome outcome;
  {
    ScopedSpan span(&spans, "timed");
    const int64_t deadline =
        NowNs() + static_cast<int64_t>(args.seconds * 1e9);
    workload->RunTimed(deadline, &outcome);
  }
  workload->Verify(&outcome);

  std::printf("\n## workload %s: %lld %s(s) attempted in %.3f s, %lld "
              "failed\n",
              name.c_str(), static_cast<long long>(outcome.attempted),
              outcome.unit.c_str(), Seconds(outcome.timed.wall_ns),
              static_cast<long long>(outcome.failed));
  for (const auto& [label, digest] : outcome.digests) {
    std::printf("digest %-32s %016llx\n", label.c_str(),
                static_cast<unsigned long long>(digest));
  }
  for (const std::string& failure : outcome.check_failures) {
    std::printf("CHECK FAILED: %s\n", failure.c_str());
  }

  RunSummary summary;
  summary.correct = outcome.check_failures.empty() && outcome.attempted > 0;
  summary.attempted = outcome.attempted;
  summary.failed = outcome.failed;
  const size_t n = static_cast<size_t>(outcome.attempted);
  const auto per_second = [&](int64_t ns) {
    return ns > 0 ? static_cast<double>(outcome.attempted) / Seconds(ns) : 0;
  };
  const double units_per_s = per_second(outcome.timed.cpu_ns);
  if (!args.trace) {
    workload.reset();
    double setup_total_s = setup_wall_s.front();
    while (!args.smoke && (setup_s.size() < 3 || (setup_s.size() < 40 &&
                                                  setup_total_s < 2.0))) {
      set_up();
      setup_total_s += setup_wall_s.back();
    }
    // The scored figures use process CPU time (see CpuNs); the wall-clock
    // equivalents follow them in the report, unscored.
    MetricTable& m = summary.metrics;
    m.Add("setup_s", Median(setup_s), "s", setup_s.size(),
          "median of set-ups, CPU seconds");
    m.Add("peak_rss_mb", Median(outcome.peak_rss_mb), "MB",
          outcome.peak_rss_mb.size(),
          "median of per-" + std::string(outcome.unit == "world"
                                             ? "chunk"
                                             : outcome.rtf_unit) +
              " peaks");
    m.Add("units_per_s", units_per_s, "1/s", n,
          std::string(UnitAlias(outcome.unit)) +
              " per CPU second, closed loop");
    const std::vector<double> per_input = InputRtf(outcome.rtf, true);
    const std::vector<double> per_input_wall = InputRtf(outcome.rtf, false);
    m.Add("rtf_p50", Median(per_input), "x", per_input.size(),
          "median per " + outcome.rtf_unit);
    m.Add("rtf_tail", LowTail(per_input), "x", per_input.size(),
          "11th lowest per " + outcome.rtf_unit + " (min if <= 10)");
    m.Print("e2e");
    std::printf("e2e    %-34s %18.6f %-7s n=%-7zu %s\n", "fail_ratio",
                outcome.attempted > 0
                    ? static_cast<double>(outcome.failed) / outcome.attempted
                    : 0.0,
                "ratio", n, "failed / attempted (JSON attempted/failed)");
    std::printf("e2e    %-34s %18.6f %-7s n=%-7zu %s\n",
                UnitAlias(outcome.unit), units_per_s, "1/s", n,
                "= units_per_s");
    MetricTable wall;
    wall.Add("setup_s", Median(setup_wall_s), "s", setup_wall_s.size(),
             "median of set-ups, wall seconds");
    wall.Add("units_per_s", per_second(outcome.timed.wall_ns), "1/s", n,
             "per wall second");
    wall.Add("rtf_p50", Median(per_input_wall), "x", per_input_wall.size(),
             "median per " + outcome.rtf_unit);
    wall.Add("rtf_tail", LowTail(per_input_wall), "x", per_input_wall.size(),
             "11th lowest per " + outcome.rtf_unit);
    wall.Add("cpu_per_wall",
             outcome.timed.wall_ns > 0
                 ? static_cast<double>(outcome.timed.cpu_ns) /
                       static_cast<double>(outcome.timed.wall_ns)
                 : 0,
             "ratio", n, "timed phase; 1 worker busy reads 1.0");
    wall.Print("wall");
    return summary;
  }

  MetricTable gathered;
  WorldCounts counts;
  workload->LayerMetrics(&gathered, &counts);
  RunProbes(args.seed, args.smoke, counts, &spans, &gathered);
  for (const LayerName& layer : kLayerMetrics) {
    const Metric* found = gathered.Find(layer.name);
    if (found != nullptr) {
      summary.metrics.Add(found->name, found->value, layer.unit,
                          found->samples, found->note);
    } else {
      summary.metrics.Add(layer.name, 0, layer.unit, 0,
                          "not run by this workload");
    }
  }
  summary.metrics.Print("layer");
  std::printf("\n## span self time (ms), benchmark-side spans\n");
  for (const auto& [span_name, ms] : spans.SelfTimesMs()) {
    std::printf("span   %-34s %18.3f\n", span_name.c_str(), ms);
  }
  if (!args.trace_out.empty()) {
    std::ofstream out(args.trace_out);
    out << spans.ChromeJson();
    std::printf("# chrome trace: %s (%zu spans)\n", args.trace_out.c_str(),
                spans.size());
  }
  return summary;
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload W --seed N --seconds S "
                 "--trace 0|1 --manifest M [--trace-out F] | --smoke "
                 "--manifest M\n");
    return 2;
  }
  // Container lifecycle logs would swamp the report; digests prove the
  // worlds flew.
  androne::SetMinLogLevel(androne::LogLevel::kWarning);
  PrintBuildStamp();

  std::vector<std::string> workloads;
  if (args.smoke) {
    args.seconds = 0;
    workloads = {"fleet", "replay", "campaign", "serve"};
  } else {
    workloads = {args.workload};
  }
  RunSummary total;
  for (const std::string& name : workloads) {
    if (MakeWorkload(name, Options{}) == nullptr) {
      std::fprintf(stderr, "perfbench: unknown workload %s\n", name.c_str());
      return 2;
    }
    RunSummary one = RunWorkload(name, args);
    total.correct = total.correct && one.correct;
    total.attempted += one.attempted;
    total.failed += one.failed;
    for (const Metric& m : one.metrics.metrics()) {
      total.metrics.Add(args.smoke ? name + "." + m.name : m.name, m.value,
                        m.unit, m.samples);
    }
  }
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
              "\"metrics\": %s}\n",
              total.correct ? "true" : "false",
              static_cast<long long>(total.attempted),
              static_cast<long long>(total.failed),
              total.metrics.Json().c_str());
  std::fflush(stdout);
  return total.correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
