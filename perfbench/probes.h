// Isolated per-layer probes: each times one module's public function at the
// call pattern a workload uses (the 400 Hz flight loop, the control plane's
// one-shot events, ...), outside any world. A probe's cost times the
// per-world call count a workload publishes gives <probe>.share_est, an
// estimate of that layer's share of a world's wall time from isolated
// calls, not a measurement inside the world.
#ifndef PERFBENCH_PROBES_H_
#define PERFBENCH_PROBES_H_

#include <cstdint>

#include "perfbench/harness.h"
#include "perfbench/workloads.h"

namespace perfbench {

// Runs every probe and adds its metrics (and share estimates scaled by
// |counts|, 0 where a count is 0) to |table|.
void RunProbes(uint64_t seed, bool smoke, const WorldCounts& counts,
               SpanLog* spans, MetricTable* table);

}  // namespace perfbench

#endif  // PERFBENCH_PROBES_H_
