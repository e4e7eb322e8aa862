// The benchmark's four workloads. Each is a closed loop with one caller:
// the next unit (world, campaign batch, or Serve call) starts when a
// worker frees. Inputs derive only from the run's seed.
//
//   fleet     nominal worlds, shared WorldTemplateCache, 1 executor worker
//   replay    worlds recorded during set-up, replayed in the timed phase
//   campaign  batches along a seeded permutation of the built-in chaos
//             campaign, 2 workers
//   serve     ControlPlaneRouter::Serve calls, model fly mode, 1 thread
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "perfbench/harness.h"

namespace perfbench {

struct Options {
  uint64_t seed = 1;
  bool smoke = false;                // Tiny sizes, minimum unit counts.
  std::string manifest_path;         // Campaign manifest (campaign only).
  SpanLog* spans = nullptr;          // Never null; disabled when untraced.
};

// What the timed phase and the checks produced.
struct Outcome {
  std::string unit;         // "world", "scenario", "session".
  int64_t attempted = 0;    // Units attempted in the timed phase.
  int64_t failed = 0;       // Units that failed (see each workload).
  HostTime timed;           // Wall and process CPU time of the timed phase.
  // Simulated seconds and host time of each timed unit, in run order; a
  // unit's real-time factor is sim / host seconds. Units that rerun the
  // same input (replay's logs) share |input|; every other unit has its own.
  // |rtf_unit| names the unit ("world", "batch", "serve").
  struct UnitTime {
    double sim_s = 0;
    HostTime host;
    int64_t input = 0;
  };
  std::vector<UnitTime> rtf;
  std::string rtf_unit;
  // Peak resident set (MB) within each stretch of the timed phase: an
  // executor chunk, a campaign batch, or a Serve call.
  std::vector<double> peak_rss_mb;
  // Correctness-check failures; any entry fails the run.
  std::vector<std::string> check_failures;
  // Digests printed so a diff of two runs shows any moved byte.
  std::vector<std::pair<std::string, uint64_t>> digests;

  // Records the peak resident set since the last call and starts a new
  // stretch.
  void SamplePeakRss() {
    peak_rss_mb.push_back(PeakRssMb());
    ResetPeakRss();
  }

  void Check(bool ok, const std::string& what) {
    if (!ok) {
      check_failures.push_back(what);
    }
  }
};

// Per-world work counts a workload publishes, used to scale the isolated
// probes into estimated shares of a world's wall time.
struct WorldCounts {
  double world_ms = 0;          // Median wall time of one world.
  double events = 0;            // SimClock events per world.
  double fast_loops = 0;        // 400 Hz flight-loop ticks per world.
  double wire_frames = 0;       // MAVLink frames encoded per world.
  double downlink_frames = 0;   // VPN datagrams sent per world.
  // False when worlds skip the continuous flight plane (replay): sensor
  // synthesis, estimator, control cascade and physics never run.
  bool continuous_plane = true;
};

class Workload {
 public:
  virtual ~Workload() = default;

  // Everything before the first timed operation (timed as setup_s).
  virtual void Setup() = 0;
  // Runs units until |deadline_ns| (and at least the workload's minimum).
  virtual void RunTimed(int64_t deadline_ns, Outcome* out) = 0;
  // Post-run correctness checks, including traced-vs-untraced twins.
  virtual void Verify(Outcome* out) = 0;
  // Per-layer metrics gathered from spans, results and the twins.
  virtual void LayerMetrics(MetricTable* table, WorldCounts* counts) = 0;
};

// Known names: "fleet", "replay", "campaign", "serve". Null when unknown.
std::unique_ptr<Workload> MakeWorkload(const std::string& name,
                                       const Options& options);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
