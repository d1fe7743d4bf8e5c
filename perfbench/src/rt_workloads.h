// The commit stack on rt::ThreadedRuntime's real threads.
#pragma once

#include "util.h"

namespace perfbench {

/// Runtime workers of every rt-* workload.  Fixed, so that results from
/// different machines share one shape; a machine with fewer processors is
/// refused rather than run with fewer workers.
constexpr std::size_t kRtWorkers = 4;

/// rt-open: open-loop arrivals at a fixed reference rate, then a ladder of
/// higher rates; batch 1, a keyspace large enough that conflicts are rare.
Result rt_open(const Args& args);

/// rt-batch-hot: closed loop, batch 8, a small hot keyspace, a fixed
/// transaction count per trial.
Result rt_batch_hot(const Args& args);

/// Sets every rt-side per-layer metric to 0 (workloads whose traced path
/// does not run on real threads).
void zero_rt_layers(Metrics& m);

}  // namespace perfbench
