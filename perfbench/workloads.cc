#include "perfbench/workloads.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <fstream>
#include <functional>
#include <numeric>
#include <set>
#include <sstream>

#include "src/ctrl/router.h"
#include "src/ctrl/tenant_mix.h"
#include "src/exec/fleet_executor.h"
#include "src/exec/fleet_world.h"
#include "src/exec/world_template.h"
#include "src/obs/trace.h"
#include "src/replay/replay_log.h"
#include "src/scenario/campaign.h"
#include "src/scenario/generator.h"
#include "src/scenario/manifest.h"
#include "src/util/bytes.h"
#include "src/util/rng.h"

namespace perfbench {
namespace {

using androne::CampaignOptions;
using androne::CampaignReport;
using androne::CampaignRunner;
using androne::ControlPlaneConfig;
using androne::ControlPlaneReport;
using androne::ControlPlaneRouter;
using androne::FleetExecutor;
using androne::FleetOptions;
using androne::FleetWorldConfig;
using androne::MetricsSnapshot;
using androne::ReplayLogStore;
using androne::Rng;
using androne::ScenarioSpec;
using androne::SplitMix64;
using androne::TenantMixSpec;
using androne::TraceRecorder;
using androne::WorldContext;
using androne::WorldResult;
using androne::WorldTemplateCache;

// The flight controller's fast-loop rate (FlightControllerConfig default):
// rt.fast_loops / kFastLoopHz is the simulated time a world's flight stack
// covered.
constexpr double kFastLoopHz = 400;
// Worlds handed to the executor per Run call; the deadline is checked
// before each world, so a chunk never overshoots by more than one world.
constexpr int kChunk = 16;
// Traced twins per workload: each re-runs a timed unit untraced and traced.
constexpr int kTwins = 2;
// Ring capacity for the twins' trace recorder: large enough that a nominal
// world does not wrap, so per-category counts are complete.
constexpr size_t kTwinTraceCapacity = 1 << 18;
constexpr int kTraceCategories = 7;  // kTraceClock .. kTraceFlight.

double Counter(const MetricsSnapshot& metrics, const char* name) {
  auto it = metrics.counters.find(name);
  return it == metrics.counters.end() ? 0 : it->second;
}

// One world's measurements (host wall time plus its published counts).
struct WorldSample {
  int64_t unit = -1;  // Position in the workload's unit sequence.
  uint64_t seed = 0;
  bool ran = false;
  bool completed = false;
  bool infra_failure = false;
  int64_t wall_ns = 0;
  int64_t cpu_ns = 0;
  uint64_t digest = 0;
  uint64_t flight_digest = 0;
  double events = 0;
  double fast_loops = 0;
  double wire_frames = 0;
  double wire_flushes = 0;
  double downlink_frames = 0;
  double binder_txns = 0;
  double binder_fast = 0;
  WorldResult::Provision provision;
  WorldResult::Replay replay;

  double sim_s() const { return fast_loops / kFastLoopHz; }
};

WorldSample SampleOf(const WorldResult& result, const HostTime& host) {
  WorldSample s;
  s.seed = result.seed;
  s.ran = true;
  s.completed = result.completed;
  s.infra_failure = result.infra_failure;
  s.wall_ns = host.wall_ns;
  s.cpu_ns = host.cpu_ns;
  s.digest = result.digest;
  s.flight_digest = result.flight_digest;
  s.events = static_cast<double>(result.events_run);
  s.fast_loops = Counter(result.metrics, "rt.fast_loops");
  s.wire_frames = Counter(result.metrics, "mav.wire_frames");
  s.wire_flushes = Counter(result.metrics, "mav.wire_flushes");
  s.downlink_frames = Counter(result.metrics, "net.downlink_frames");
  s.binder_txns = Counter(result.metrics, "binder.txns");
  s.binder_fast = Counter(result.metrics, "binder.txns_fast_path");
  s.provision = result.provision;
  s.replay = result.replay;
  return s;
}

// World |unit| of a run: a nominal production-path world with 1-3 tenants
// and a 5-15 s planner dwell, planner effort as in the fleet_scale bench.
// Shapes are dealt in blocks of three: each block holds every tenant count
// and every third of the dwell range once, in a seeded order, so every
// run carries the same mix of world shapes.
FleetWorldConfig NominalWorld(uint64_t run_seed, int64_t unit) {
  Rng rng(SplitMix64(run_seed ^ SplitMix64(static_cast<uint64_t>(unit / 3))));
  std::array<int, 3> tenants = {1, 2, 3};
  std::array<int, 3> dwell_third = {0, 1, 2};
  for (int i = 2; i > 0; --i) {
    std::swap(tenants[i], tenants[rng.NextU64Below(i + 1)]);
    std::swap(dwell_third[i], dwell_third[rng.NextU64Below(i + 1)]);
  }
  std::array<double, 3> jitter = {rng.NextDouble(), rng.NextDouble(),
                                  rng.NextDouble()};
  const size_t k = static_cast<size_t>(unit % 3);
  FleetWorldConfig config;
  config.tenants = tenants[k];
  config.dwell_s = 5 + (dwell_third[k] + jitter[k]) * 10.0 / 3.0;
  config.annealing_iterations = 200;
  return config;
}

WorldResult TimedWorld(const FleetWorldConfig& config, const WorldContext& ctx,
                       SpanLog* spans, const char* span_name,
                       HostTime* host) {
  const HostTime start = HostNow();
  WorldResult result;
  {
    ScopedSpan span(spans, span_name);
    result = androne::RunFleetWorld(config, ctx);
  }
  *host = HostSince(start);
  if (result.seed == 0) {
    result.seed = ctx.seed;
  }
  return result;
}

// Picks the config and seed of world |unit| given the executor's seed.
using WorldPlan = std::function<void(int64_t unit, uint64_t executor_seed,
                                     FleetWorldConfig* config,
                                     uint64_t* world_seed)>;

// Closed loop over a one-worker FleetExecutor: worlds run in chunks until
// |deadline_ns| passes and at least |min_worlds| ran. A world due after the
// deadline is not started (and not counted). The executor need not start a
// chunk's worlds in index order, so a skipped unit can sit between two run
// ones; samples come back sorted by unit and carry it. With |out|, each
// chunk's peak resident set is sampled into it.
std::vector<WorldSample> RunWorldLoop(int64_t deadline_ns, int64_t min_worlds,
                                      uint64_t base_seed,
                                      const WorldPlan& plan, SpanLog* spans,
                                      const char* span_name,
                                      Outcome* out = nullptr) {
  std::vector<WorldSample> all;
  for (uint64_t chunk = 0;; ++chunk) {
    const int64_t before = static_cast<int64_t>(all.size());
    if (before >= min_worlds && NowNs() >= deadline_ns) {
      break;
    }
    FleetOptions options;
    options.threads = 1;
    options.base_seed = SplitMix64(base_seed + chunk);
    FleetExecutor executor(options);
    std::vector<WorldSample> samples(kChunk);
    executor.Run(kChunk, [&](const WorldContext& ctx) {
      const int64_t unit = before + ctx.index;
      if (unit >= min_worlds && NowNs() >= deadline_ns) {
        WorldResult skipped;
        skipped.skipped = true;
        return skipped;
      }
      FleetWorldConfig config;
      WorldContext world_ctx = ctx;
      plan(unit, ctx.seed, &config, &world_ctx.seed);
      HostTime host;
      WorldResult result =
          TimedWorld(config, world_ctx, spans, span_name, &host);
      WorldSample& slot = samples[static_cast<size_t>(ctx.index)];
      // The executor re-runs a world once after an infrastructure failure;
      // the retry's success does not hide the first attempt's failure.
      const bool failed_before = slot.ran && slot.infra_failure;
      slot = SampleOf(result, host);
      slot.unit = unit;
      slot.infra_failure = slot.infra_failure || failed_before;
      return result;
    });
    if (out != nullptr) {
      out->SamplePeakRss();
    }
    for (const WorldSample& s : samples) {
      if (s.ran) {
        all.push_back(s);
      }
    }
  }
  std::sort(all.begin(), all.end(),
            [](const WorldSample& a, const WorldSample& b) {
              return a.unit < b.unit;
            });
  return all;
}

// Untraced and traced runs of one world (cold-booted, no template), for the
// traced-equals-untraced check, the tracing overhead and the per-category
// trace event counts.
struct TwinPair {
  WorldSample untraced;
  WorldSample traced;
  std::array<double, kTraceCategories> category_events{};
};

TwinPair RunTwins(FleetWorldConfig config, uint64_t seed, SpanLog* spans) {
  TwinPair twins;
  WorldContext ctx;
  ctx.seed = seed;
  config.templates = nullptr;
  config.record_into = nullptr;
  HostTime host;
  {
    WorldResult result =
        TimedWorld(config, ctx, spans, "verify.untraced_twin", &host);
    twins.untraced = SampleOf(result, host);
  }
  TraceRecorder trace(androne::kTraceAll, kTwinTraceCapacity);
  config.trace = &trace;
  {
    WorldResult result =
        TimedWorld(config, ctx, spans, "verify.traced_twin", &host);
    twins.traced = SampleOf(result, host);
  }
  for (const androne::TraceEvent& event : trace.Events()) {
    for (int bit = 0; bit < kTraceCategories; ++bit) {
      if (event.category == (1u << bit)) {
        twins.category_events[static_cast<size_t>(bit)] += 1;
      }
    }
  }
  if (trace.wrapped()) {
    // Scale the buffered tail up to the recorded total.
    const double scale = static_cast<double>(trace.recorded()) /
                         static_cast<double>(trace.size());
    for (double& n : twins.category_events) {
      n *= scale;
    }
  }
  return twins;
}

void CheckTwins(const std::vector<TwinPair>& twins, const WorldSample* timed,
                Outcome* out) {
  for (size_t i = 0; i < twins.size(); ++i) {
    const TwinPair& t = twins[i];
    const std::string tag = "twin " + std::to_string(i);
    out->Check(t.untraced.completed && t.traced.completed,
               tag + ": twin world did not complete");
    out->Check(t.untraced.digest == t.traced.digest &&
                   t.untraced.flight_digest == t.traced.flight_digest,
               tag + ": traced and untraced digests differ");
    if (timed != nullptr) {
      out->Check(timed[i].digest == t.untraced.digest &&
                     timed[i].flight_digest == t.untraced.flight_digest,
                 tag + ": timed world differs from its cold-booted rerun");
    }
    out->digests.push_back({tag + ".traced_digest", t.traced.digest});
  }
}

double TwinOverhead(const std::vector<TwinPair>& twins) {
  double untraced = 0;
  double traced = 0;
  for (const TwinPair& t : twins) {
    untraced += static_cast<double>(t.untraced.wall_ns);
    traced += static_cast<double>(t.traced.wall_ns);
  }
  return untraced > 0 ? traced / untraced - 1 : 0;
}

void AddTraceCategories(const std::vector<TwinPair>& twins,
                        MetricTable* table) {
  for (int bit = 0; bit < kTraceCategories; ++bit) {
    std::vector<double> counts;
    for (const TwinPair& t : twins) {
      counts.push_back(t.category_events[static_cast<size_t>(bit)]);
    }
    table->Add(std::string("trace.") + androne::TraceCategoryName(1u << bit) +
                   "_per_world",
               Median(counts), "count", counts.size());
  }
  table->Add("obs.trace_overhead", TwinOverhead(twins), "ratio",
             twins.size(), "traced / untraced twin wall - 1");
}

// Metrics every world-running workload derives from its timed worlds.
void AddWorldMetrics(const std::vector<WorldSample>& worlds,
                     const SpanLog& spans, MetricTable* table,
                     WorldCounts* counts) {
  std::vector<double> world_ms = spans.DurationsMs("exec.RunFleetWorld");
  std::vector<double> fly_ms, events, ns_per_event, loops, frames, flushes,
      downlink, txns, arena_kb, clone_us;
  double txns_total = 0;
  double fast_total = 0;
  for (const WorldSample& w : worlds) {
    fly_ms.push_back(static_cast<double>(w.provision.fly_ns) * 1e-6);
    events.push_back(w.events);
    if (w.events > 0) {
      ns_per_event.push_back(static_cast<double>(w.wall_ns) / w.events);
    }
    loops.push_back(w.fast_loops);
    frames.push_back(w.wire_frames);
    flushes.push_back(w.wire_flushes);
    downlink.push_back(w.downlink_frames);
    txns.push_back(w.binder_txns);
    txns_total += w.binder_txns;
    fast_total += w.binder_fast;
    arena_kb.push_back(static_cast<double>(w.provision.arena_bytes_reserved) /
                       1024);
    if (w.provision.cloned) {
      clone_us.push_back(static_cast<double>(w.provision.boot_ns) * 1e-3);
    }
  }
  const size_t n = worlds.size();
  table->Add("exec.world_ms.p50", Median(world_ms), "ms", world_ms.size());
  table->Add("exec.world_ms.p90", Quantile(world_ms, 0.9), "ms",
             world_ms.size());
  table->Add("exec.fly_ms.p50", Median(fly_ms), "ms", n);
  table->Add("exec.boot_us.clone", Median(clone_us), "us", clone_us.size());
  table->Add("exec.arena_kb", Median(arena_kb), "KiB", n);
  table->Add("clock.events_per_world", Median(events), "count", n);
  table->Add("clock.ns_per_event", Median(ns_per_event), "ns",
             ns_per_event.size());
  table->Add("flight.fast_loops_per_world", Median(loops), "count", n);
  table->Add("mav.frames_per_world", Median(frames), "count", n);
  table->Add("mav.flushes_per_world", Median(flushes), "count", n);
  table->Add("binder.txns_per_world", Median(txns), "count", n);
  table->Add("binder.fast_path_ratio",
             txns_total > 0 ? fast_total / txns_total : 0, "ratio", n);
  counts->world_ms = Median(world_ms);
  counts->events = Median(events);
  counts->fast_loops = Median(loops);
  counts->wire_frames = Median(frames);
  counts->downlink_frames = Median(downlink);
}

// With |inputs| > 0, unit u reruns input u % |inputs|; otherwise every unit
// is its own input.
void AddWorldOutcome(const std::vector<WorldSample>& worlds, int64_t inputs,
                     Outcome* out) {
  for (const WorldSample& w : worlds) {
    ++out->attempted;
    if (!w.completed || w.infra_failure) {
      ++out->failed;
    }
    out->rtf.push_back({w.sim_s(), HostTime{w.wall_ns, w.cpu_ns},
                        inputs > 0 ? w.unit % inputs : w.unit});
  }
  out->Check(out->failed == 0, std::to_string(out->failed) +
                                   " world(s) failed to complete");
  uint64_t chain = androne::kFnv1a64Offset;
  for (size_t i = 0; i < worlds.size() && i < 4; ++i) {
    out->digests.push_back({"world " + std::to_string(i) + " seed " +
                                std::to_string(worlds[i].seed),
                            worlds[i].digest});
    chain = androne::Fnv1a64Value(worlds[i].digest, chain);
  }
  out->digests.push_back({"first_4_worlds", chain});
}

// --- fleet -----------------------------------------------------------------

class FleetWorkload : public Workload {
 public:
  explicit FleetWorkload(const Options& options) : options_(options) {}

  // Builds the shared template: one world with two pinned waypoints (so
  // the set-up does the same work at every seed) cold-boots and publishes
  // it; tenants and waypoints act after the boot boundary, so every timed
  // world clones from it.
  void Setup() override {
    templates_ = std::make_unique<WorldTemplateCache>();
    WorldContext ctx;
    ctx.seed = SplitMix64(options_.seed ^ 0x74656d706c617465ULL);
    FleetWorldConfig config;
    config.tenants = 2;
    config.tenant_placements = {{60, 40, 10}, {-50, 70, 10}};
    config.annealing_iterations = 200;
    config.templates = templates_.get();
    HostTime host;
    const WorldResult built =
        TimedWorld(config, ctx, options_.spans,
                   "exec.RunFleetWorld.template_build", &host);
    builder_ = SampleOf(built, host);
  }

  void RunTimed(int64_t deadline_ns, Outcome* out) override {
    out->unit = "world";
    out->rtf_unit = "world";
    const HostTime start = HostNow();
    worlds_ = RunWorldLoop(
        deadline_ns, options_.smoke ? 2 : 4, options_.seed,
        [this](int64_t unit, uint64_t, FleetWorldConfig* config, uint64_t*) {
          *config = NominalWorld(options_.seed, unit);
          config->templates = templates_.get();
        },
        options_.spans, "exec.RunFleetWorld", out);
    out->timed = HostSince(start);
    AddWorldOutcome(worlds_, /*inputs=*/0, out);
  }

  void Verify(Outcome* out) override {
    ScopedSpan span(options_.spans, "verify");
    out->Check(builder_.provision.built_template &&
                   worlds_.front().provision.cloned,
               "fleet: timed worlds were not cloned from the template");
    // Each twin cold-boots a timed world again: the cloned world must equal
    // its cold-booted twin, traced and untraced.
    for (int i = 0; i < kTwins && i < static_cast<int>(worlds_.size()); ++i) {
      twins_.push_back(RunTwins(NominalWorld(options_.seed, worlds_[i].unit),
                                worlds_[i].seed, options_.spans));
    }
    CheckTwins(twins_, worlds_.data(), out);
  }

  void LayerMetrics(MetricTable* table, WorldCounts* counts) override {
    AddWorldMetrics(worlds_, *options_.spans, table, counts);
    std::vector<double> cold_us = {
        static_cast<double>(builder_.provision.boot_ns) * 1e-3};
    for (const TwinPair& t : twins_) {
      cold_us.push_back(static_cast<double>(t.untraced.provision.boot_ns) *
                        1e-3);
    }
    const double cold = Median(cold_us);
    const Metric* clone = table->Find("exec.boot_us.clone");
    table->Add("exec.boot_us.cold", cold, "us", cold_us.size());
    table->Add("exec.clone_speedup",
               clone != nullptr && clone->value > 0 ? cold / clone->value : 0,
               "x", cold_us.size(), "cold boot / clone boot");
    const double lookups =
        static_cast<double>(templates_->hits() + templates_->misses());
    table->Add("exec.template_hit_ratio",
               lookups > 0 ? templates_->hits() / lookups : 0, "ratio",
               static_cast<size_t>(lookups));
    AddTraceCategories(twins_, table);
  }

 private:
  Options options_;
  std::unique_ptr<WorldTemplateCache> templates_;
  WorldSample builder_;
  std::vector<WorldSample> worlds_;
  std::vector<TwinPair> twins_;
};

// --- replay ----------------------------------------------------------------

class ReplayWorkload : public Workload {
 public:
  explicit ReplayWorkload(const Options& options) : options_(options) {}

  // Records the log set: |logs| nominal worlds through the production path
  // (template cache on), each serialized into the store by its seed. Log i
  // has 1 + i % 3 tenants and a short or a long dwell, and the tenants'
  // waypoints sit on a regular polygon of fixed radius with a seeded
  // rotation, so every seed records the same six shapes on routes of one
  // length. With so few distinct worlds, shapes drawn from the seed made
  // the set's cost per simulated second swing from seed to seed: rtf_p50's
  // quartile spread over five seeds was 11% of the median, against 3% over
  // five runs of one seed.
  void Setup() override {
    store_ = std::make_unique<ReplayLogStore>();
    templates_ = std::make_unique<WorldTemplateCache>();
    const int logs = options_.smoke ? 2 : kLogs;
    const uint64_t record_seed = SplitMix64(options_.seed ^ 0x7265706c6179ULL);
    Rng rotation(record_seed);
    for (int i = 0; i < logs; ++i) {
      FleetWorldConfig config;
      config.tenants = 1 + i % 3;
      config.dwell_s = i < 3 ? kShortDwellS : kLongDwellS;
      config.annealing_iterations = 200;
      const double start = rotation.Uniform(0, 2 * kPi);
      for (int t = 0; t < config.tenants; ++t) {
        const double angle = start + 2 * kPi * t / config.tenants;
        config.tenant_placements.push_back(
            {kRadiusM * std::cos(angle), kRadiusM * std::sin(angle),
             config.dwell_s});
      }
      config.templates = templates_.get();
      configs_.push_back(config);
    }
    recorded_ = RunWorldLoop(
        /*deadline_ns=*/0, logs, record_seed,
        [this](int64_t unit, uint64_t, FleetWorldConfig* config, uint64_t*) {
          *config = configs_[static_cast<size_t>(unit)];
          config->record_into = store_.get();
        },
        options_.spans, "replay.record");
    recorded_.resize(static_cast<size_t>(logs));
    // Warm-up: one replay per log parses it into the store's parsed-log
    // cache, a one-time cost every later replay of the log skips.
    warmup_ = RunWorldLoop(
        /*deadline_ns=*/0, logs, options_.seed,
        [this](int64_t unit, uint64_t, FleetWorldConfig* config,
               uint64_t* world_seed) {
          *config = ReplayConfig(static_cast<size_t>(unit));
          *world_seed = recorded_[static_cast<size_t>(unit)].seed;
        },
        options_.spans, "replay.warmup");
    warmup_.resize(static_cast<size_t>(logs));
  }

  // Replays the logs round-robin from the parsed-log cache, each at least
  // twice.
  void RunTimed(int64_t deadline_ns, Outcome* out) override {
    out->unit = "world";
    out->rtf_unit = "log";
    const int64_t logs = static_cast<int64_t>(recorded_.size());
    const HostTime start = HostNow();
    worlds_ = RunWorldLoop(
        deadline_ns, 2 * logs, options_.seed,
        [this, logs](int64_t unit, uint64_t, FleetWorldConfig* config,
                     uint64_t* world_seed) {
          const size_t log = static_cast<size_t>(unit % logs);
          *config = ReplayConfig(log);
          *world_seed = recorded_[log].seed;
        },
        options_.spans, "exec.RunFleetWorld", out);
    out->timed = HostSince(start);
    AddWorldOutcome(worlds_, logs, out);
    for (const WorldSample& w : worlds_) {
      if (!MatchesRecording(w) && w.completed && !w.infra_failure) {
        ++out->failed;  // Not already counted as a failed world.
      }
    }
    int64_t mismatches = 0;
    for (const std::vector<WorldSample>* replays : {&warmup_, &worlds_}) {
      mismatches += std::count_if(
          replays->begin(), replays->end(),
          [this](const WorldSample& w) { return !MatchesRecording(w); });
    }
    out->Check(mismatches == 0,
               std::to_string(mismatches) +
                   " replay(s) without digest_match, with underruns, or "
                   "differing from the recording");
  }

  // Replays the first logs again with the world's tracer on: the traced
  // replay must land on the untraced replay's digests.
  void Verify(Outcome* out) override {
    ScopedSpan span(options_.spans, "verify");
    for (int i = 0; i < kTwins && i < static_cast<int>(recorded_.size());
         ++i) {
      twins_.push_back(RunTwins(ReplayConfig(static_cast<size_t>(i)),
                                recorded_[i].seed, options_.spans));
    }
    CheckTwins(twins_, worlds_.data(), out);
  }

  void LayerMetrics(MetricTable* table, WorldCounts* counts) override {
    AddWorldMetrics(worlds_, *options_.spans, table, counts);
    counts->continuous_plane = false;
    std::vector<double> log_kb;
    for (const WorldSample& w : recorded_) {
      log_kb.push_back(static_cast<double>(w.replay.log_bytes) / 1024);
    }
    const std::vector<double> record = options_.spans->DurationsMs(
        "replay.record");
    const double record_ms = Median(record);
    table->Add("replay.record_ms.p50", record_ms, "ms", record.size(),
               "recording worlds in set-up");
    table->Add("replay.log_kb", Median(log_kb), "KiB", log_kb.size());
    table->Add("replay.speedup",
               counts->world_ms > 0 ? record_ms / counts->world_ms : 0, "x",
               record.size(), "record world / replay world wall");
    AddTraceCategories(twins_, table);
  }

 private:
  // Six logs keep the set (raw and parsed) near 150 MB.
  static constexpr int kLogs = 6;
  // Middles of the first and last thirds of the fleet's 5-15 s dwell range.
  static constexpr double kShortDwellS = 5 + 10.0 / 6;
  static constexpr double kLongDwellS = 15 - 10.0 / 6;
  static constexpr double kRadiusM = 80;
  static constexpr double kPi = 3.14159265358979323846;

  bool MatchesRecording(const WorldSample& w) const {
    const WorldSample& rec =
        recorded_[static_cast<size_t>(w.unit) % recorded_.size()];
    return w.replay.replayed && w.replay.digest_match &&
           w.replay.underruns == 0 && w.digest == rec.digest;
  }

  FleetWorldConfig ReplayConfig(size_t log) const {
    FleetWorldConfig config = configs_[log];
    config.replay_from = store_.get();
    return config;
  }

  Options options_;
  std::unique_ptr<ReplayLogStore> store_;
  std::unique_ptr<WorldTemplateCache> templates_;
  std::vector<FleetWorldConfig> configs_;  // One per recorded log.
  std::vector<WorldSample> recorded_;
  std::vector<WorldSample> warmup_;
  std::vector<WorldSample> worlds_;
  std::vector<TwinPair> twins_;
};

// --- campaign --------------------------------------------------------------

class CampaignWorkload : public Workload {
 public:
  explicit CampaignWorkload(const Options& options) : options_(options) {}

  // Loads and expands the campaign manifest and picks the seeded walk over
  // the expanded scenarios.
  void Setup() override {
    std::ifstream in(options_.manifest_path);
    std::ostringstream text;
    text << in.rdbuf();
    auto campaign = androne::ParseCampaignManifest(text.str());
    if (!campaign.ok()) {
      setup_error_ = "campaign manifest " + options_.manifest_path + ": " +
                     campaign.status().message();
      return;
    }
    {
      ScopedSpan span(options_.spans, "scenario.ExpandScenarios");
      auto expanded = androne::ExpandScenarios(*campaign);
      if (!expanded.ok()) {
        setup_error_ = "campaign expansion: " + expanded.status().message();
        return;
      }
      scenarios_ = std::move(expanded).value();
    }
    if (scenarios_.empty()) {
      setup_error_ = "campaign expands to no scenarios";
      return;
    }
    // The walk visits scenario (start + k * stride) mod n for k = 0, 1, ...
    // A stride coprime to n makes it a permutation, so every scenario runs
    // once before any runs twice; a stride near n / golden ratio makes each
    // stretch of the walk spread evenly over the expansion order, so a
    // batch samples the families in the campaign's own proportions.
    const size_t n = scenarios_.size();
    stride_ = std::max<size_t>(
        1, static_cast<size_t>(static_cast<double>(n) * kInverseGoldenRatio));
    while (std::gcd(stride_, n) != 1) {
      ++stride_;
    }
    start_ = Rng(SplitMix64(options_.seed)).NextU64Below(n);
    // Warm-up: the first batch once, so lazy allocations are warm. The
    // timed phase draws the same batch again and must reproduce its report.
    const std::vector<ScenarioSpec> warmup = NextBatch();
    drawn_ = 0;
    warmup_digest_ = RunBatch(warmup, kWorkers).Digest();
  }

  void RunTimed(int64_t deadline_ns, Outcome* out) override {
    out->unit = "scenario";
    out->rtf_unit = "batch";
    out->Check(setup_error_.empty(), setup_error_);
    if (!setup_error_.empty()) {
      return;
    }
    const HostTime start = HostNow();
    while (batches_.empty() || NowNs() < deadline_ns) {
      Batch batch;
      batch.scenarios = NextBatch();
      const HostTime batch_start = HostNow();
      batch.report = RunBatch(batch.scenarios, kWorkers);
      batch.host = HostSince(batch_start);
      out->SamplePeakRss();
      const CampaignReport& r = batch.report;
      out->attempted += r.scenarios;
      out->failed += r.unexpected + r.skipped;
      const double sim_s = Counter(r.metrics, "rt.fast_loops") / kFastLoopHz;
      out->rtf.push_back(
          {sim_s, batch.host, static_cast<int64_t>(batches_.size())});
      batches_.push_back(std::move(batch));
      if (options_.smoke) {
        break;
      }
    }
    out->timed = HostSince(start);
    out->Check(out->failed == 0,
               std::to_string(out->failed) +
                   " scenario(s) unexpected or skipped (unexpected must be 0)");
    for (size_t i = 0; i < batches_.size() && i < 4; ++i) {
      out->digests.push_back({"batch " + std::to_string(i) + " report",
                              batches_[i].report.Digest()});
    }
  }

  // Batch 0 must reproduce the warm-up's report, and again at one worker;
  // the representative of every failure bucket met in the run re-runs
  // traced via Repro, and batch 0's first scenario world runs as an
  // untraced/traced twin.
  void Verify(Outcome* out) override {
    if (batches_.empty()) {
      return;
    }
    ScopedSpan span(options_.spans, "verify");
    const Batch& first = batches_.front();
    out->Check(first.report.Digest() == warmup_digest_,
               "campaign: repeated batch changed the report digest");
    const CampaignReport again = RunBatch(first.scenarios, 1);
    out->Check(again.ToText() == first.report.ToText(),
               "campaign: report differs between 2 workers and 1 worker");
    std::set<std::string> reproduced;
    for (const Batch& batch : batches_) {
      for (const androne::FailureBucket& bucket : batch.report.buckets) {
        if (!reproduced.insert(bucket.representative).second) {
          continue;
        }
        ScopedSpan repro(options_.spans, "scenario.Repro");
        auto world =
            CampaignRunner::Repro(batch.scenarios, bucket.representative);
        out->Check(world.ok() && world->seed == bucket.representative_seed,
                   "campaign: repro of " + bucket.representative + " failed");
      }
    }
    const ScenarioSpec& spec = first.scenarios.front();
    twins_.push_back(RunTwins(androne::ScenarioWorldConfig(spec), spec.seed,
                              options_.spans));
    CheckTwins(twins_, nullptr, out);
  }

  void LayerMetrics(MetricTable* table, WorldCounts* counts) override {
    double hits = 0;
    double misses = 0;
    double scenarios = 0;
    MetricsSnapshot merged;
    std::vector<double> run_s;
    for (const Batch& b : batches_) {
      hits += static_cast<double>(b.report.template_hits);
      misses += static_cast<double>(b.report.template_misses);
      scenarios += b.report.scenarios;
      merged.Merge(b.report.metrics);
      run_s.push_back(static_cast<double>(b.host.wall_ns) * 1e-9);
    }
    const auto per_world = [&](const char* name) {
      return scenarios > 0 ? Counter(merged, name) / scenarios : 0;
    };
    const size_t n = static_cast<size_t>(scenarios);
    table->Add("exec.template_hit_ratio",
               hits + misses > 0 ? hits / (hits + misses) : 0, "ratio",
               static_cast<size_t>(hits + misses));
    table->Add("clock.events_per_world", per_world("world.events_run"),
               "count", n, "mean over scenario worlds");
    table->Add("flight.fast_loops_per_world", per_world("rt.fast_loops"),
               "count", n, "mean over scenario worlds");
    table->Add("mav.frames_per_world", per_world("mav.wire_frames"), "count",
               n, "mean over scenario worlds");
    table->Add("mav.flushes_per_world", per_world("mav.wire_flushes"),
               "count", n, "mean over scenario worlds");
    table->Add("binder.txns_per_world", per_world("binder.txns"), "count", n,
               "mean over scenario worlds");
    const double txns = Counter(merged, "binder.txns");
    table->Add("binder.fast_path_ratio",
               txns > 0 ? Counter(merged, "binder.txns_fast_path") / txns : 0,
               "ratio", n);
    const SpanLog& spans = *options_.spans;
    table->Add("scenario.expand_ms",
               Median(spans.DurationsMs("scenario.ExpandScenarios")), "ms",
               spans.DurationsMs("scenario.ExpandScenarios").size(),
               "full campaign expansion in set-up");
    table->Add("scenario.run_s", Median(run_s), "s", run_s.size(),
               "one batch incl. triage");
    table->Add("scenario.repro_ms",
               Median(spans.DurationsMs("scenario.Repro")), "ms",
               spans.DurationsMs("scenario.Repro").size());
    counts->events = per_world("world.events_run");
    counts->fast_loops = per_world("rt.fast_loops");
    counts->wire_frames = per_world("mav.wire_frames");
    counts->downlink_frames = per_world("net.downlink_frames");
    AddTraceCategories(twins_, table);
  }

 private:
  static constexpr int kWorkers = 2;
  static constexpr size_t kBatch = 32;
  static constexpr size_t kSmokeBatch = 8;
  static constexpr double kInverseGoldenRatio = 0.6180339887498949;

  struct Batch {
    std::vector<ScenarioSpec> scenarios;
    CampaignReport report;
    HostTime host;
  };

  CampaignReport RunBatch(const std::vector<ScenarioSpec>& batch,
                          int threads) const {
    CampaignOptions options;
    options.name = "perfbench";
    options.threads = threads;
    options.triage = true;
    ScopedSpan span(options_.spans, "scenario.CampaignRunner.Run");
    return CampaignRunner(options).Run(batch);
  }

  // The next kBatch scenarios of the walk.
  std::vector<ScenarioSpec> NextBatch() {
    const size_t size = options_.smoke ? kSmokeBatch : kBatch;
    std::vector<ScenarioSpec> batch;
    for (size_t k = 0; k < size; ++k, ++drawn_) {
      batch.push_back(
          scenarios_[(start_ + drawn_ % scenarios_.size() * stride_) %
                     scenarios_.size()]);
    }
    return batch;
  }

  Options options_;
  std::string setup_error_;
  std::vector<ScenarioSpec> scenarios_;
  size_t stride_ = 1;
  size_t start_ = 0;
  size_t drawn_ = 0;
  uint64_t warmup_digest_ = 0;
  std::vector<Batch> batches_;
  std::vector<TwinPair> twins_;
};

// --- serve -----------------------------------------------------------------

class ServeWorkload : public Workload {
 public:
  explicit ServeWorkload(const Options& options) : options_(options) {}

  // Loads the built-in tenant mix from its canonical manifest text and
  // serves the first seeded load once, so lazy allocations are warm.
  void Setup() override {
    const std::string text =
        androne::DumpTenantMix(androne::BuiltinTenantMix());
    auto mix = androne::ParseTenantMix(text);
    if (!mix.ok() || androne::DumpTenantMix(*mix) != text) {
      setup_error_ = "serve: built-in tenant mix does not round-trip";
      return;
    }
    mix_ = std::move(mix).value();
    ScopedSpan span(options_.spans, "ctrl.Serve.warmup");
    warmup_digest_ = ControlPlaneRouter(ServeConfig(0)).Serve(mix_).Digest();
  }

  void RunTimed(int64_t deadline_ns, Outcome* out) override {
    out->unit = "session";
    out->rtf_unit = "serve";
    out->Check(setup_error_.empty(), setup_error_);
    if (!setup_error_.empty()) {
      return;
    }
    const HostTime start = HostNow();
    const int min_serves = 2;
    for (int64_t unit = 0; unit < min_serves || NowNs() < deadline_ns;
         ++unit) {
      const HostTime serve_start = HostNow();
      ControlPlaneReport report;
      {
        ScopedSpan span(options_.spans, "ctrl.Serve");
        report = ControlPlaneRouter(ServeConfig(unit)).Serve(mix_);
      }
      const HostTime host = HostSince(serve_start);
      out->SamplePeakRss();
      const int terminal =
          report.billed + report.rejected + report.cancelled + report.failed;
      const int64_t bad =
          static_cast<int64_t>(report.admission_violations) +
          report.settlement_errors +
          (terminal == report.sessions ? 0 : report.sessions - terminal);
      out->attempted += report.sessions;
      out->failed += std::min<int64_t>(bad, report.sessions);
      out->rtf.push_back({report.makespan_s, host, unit});
      if (unit < 4) {
        out->digests.push_back(
            {"serve " + std::to_string(unit) + " report", report.Digest()});
      }
      if (unit == 0) {
        first_ = report;
      }
    }
    out->timed = HostSince(start);
    out->Check(out->failed == 0,
               std::to_string(out->failed) +
                   " session(s) with admission, settlement or lifecycle "
                   "violations");
  }

  // The first load again at 2 router threads must reproduce its report
  // bytes. src/ctrl has no tracer of its own, so unlike the other workloads
  // there is no traced/untraced digest pair to compare: the harness's spans
  // are the only tracing on this path. obs.trace_overhead therefore times
  // interleaved spanned and unspanned serves of the first load, each of
  // which must also repeat its report.
  void Verify(Outcome* out) override {
    if (!setup_error_.empty()) {
      return;
    }
    ScopedSpan span(options_.spans, "verify");
    out->Check(first_.Digest() == warmup_digest_,
               "serve: repeated serve changed the report digest");
    ControlPlaneConfig threaded = ServeConfig(0);
    threaded.threads = 2;
    out->Check(ControlPlaneRouter(threaded).Serve(mix_).ToText() ==
                   first_.ToText(),
               "serve: report differs at 2 router threads");
    const int pairs = options_.smoke ? 1 : kOverheadPairs;
    for (int i = 0; i < pairs; ++i) {
      for (const bool spanned : {true, false}) {
        SpanLog log(spanned);
        const int64_t start = NowNs();
        ControlPlaneReport again;
        {
          ScopedSpan s(&log, "ctrl.Serve");
          again = ControlPlaneRouter(ServeConfig(0)).Serve(mix_);
        }
        const double ms = static_cast<double>(NowNs() - start) * 1e-6;
        (spanned ? spanned_ms_ : unspanned_ms_).push_back(ms);
        out->Check(again.Digest() == first_.Digest(),
                   "serve: repeated serve changed the report digest");
      }
    }
  }

  void LayerMetrics(MetricTable* table, WorldCounts*) override {
    const std::vector<double> serve_ms =
        options_.spans->DurationsMs("ctrl.Serve");
    table->Add("ctrl.serve_ms", Median(serve_ms), "ms", serve_ms.size(),
               "1200 sessions, 8 shards, 1 thread");
    const double unspanned_ms = Median(unspanned_ms_);
    table->Add("obs.trace_overhead",
               unspanned_ms > 0 ? Median(spanned_ms_) / unspanned_ms - 1 : 0,
               "ratio", spanned_ms_.size() + unspanned_ms_.size(),
               "harness spans only (no ctrl tracer): spanned / unspanned "
               "serve p50 - 1");
  }

 private:
  static constexpr int kOverheadPairs = 5;

  // The headline control-plane sweep: 1200 sessions over a 40 s arrival
  // window, 8 shards x 8 boards, a queue wide enough to turn nobody away.
  ControlPlaneConfig ServeConfig(int64_t unit) const {
    ControlPlaneConfig config;
    config.seed = SplitMix64(options_.seed + static_cast<uint64_t>(unit));
    config.threads = 1;
    config.shards = options_.smoke ? 4 : 8;
    config.load.sessions = options_.smoke ? 240 : 1200;
    config.load.arrival_window_s = options_.smoke ? 20 : 40;
    config.admission.boards = 8;
    config.admission.queue_capacity = 512;
    return config;
  }

  Options options_;
  std::string setup_error_;
  TenantMixSpec mix_;
  uint64_t warmup_digest_ = 0;
  ControlPlaneReport first_;
  std::vector<double> spanned_ms_;
  std::vector<double> unspanned_ms_;
};

}  // namespace

std::unique_ptr<Workload> MakeWorkload(const std::string& name,
                                       const Options& options) {
  if (name == "fleet") {
    return std::make_unique<FleetWorkload>(options);
  }
  if (name == "replay") {
    return std::make_unique<ReplayWorkload>(options);
  }
  if (name == "campaign") {
    return std::make_unique<CampaignWorkload>(options);
  }
  if (name == "serve") {
    return std::make_unique<ServeWorkload>(options);
  }
  return nullptr;
}

}  // namespace perfbench
