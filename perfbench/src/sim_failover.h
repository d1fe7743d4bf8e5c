// Failover on the deterministic simulator: a paced open-loop schedule of
// certifications plus snapshot reads, one shard-leader crash at a fixed
// virtual tick, healing left to the autonomous controllers, and every
// checker run over the result.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/types.h"
#include "util.h"

namespace perfbench {

struct SimShape {
  bool rdma = false;
  std::uint32_t shards = 3;
  std::size_t spares = 4;
  std::size_t batch = 1;
  ratc::ObjectId universe = 256;
  std::size_t txns = 1000;
  /// Ticks between submission rounds; unit link delays make a tick one
  /// message delay.
  ratc::Duration gap = 2;
  /// Success probability of the geometric read count per round (reads ride
  /// their own rng stream and send no messages).
  double read_fraction = 0.5;
  /// Post-schedule settle budget in ticks.
  ratc::Duration drain = 4000;
};

/// One simulated run.  Everything above the wall-clock block is a pure
/// function of (shape, seed).
struct SimRun {
  std::uint64_t attempted = 0, committed = 0, aborted = 0, undecided = 0;
  std::uint64_t messages = 0, cs_messages = 0;
  std::map<std::string, std::uint64_t> msgs_by_type;
  std::vector<ratc::Duration> delays;  ///< certify-to-decision, ticks
  std::uint64_t reads_attempted = 0, reads_served = 0;
  ratc::Time crash_tick = 0;
  ratc::Duration detect = 0, install = 0, activate = 0;  ///< phases, ticks
  std::uint64_t recon_attempts = 0, recon_probes = 0, recon_cas_losses = 0;
  std::uint64_t fabric_writes = 0, fabric_rejected = 0;
  std::uint64_t fingerprint = 0;
  std::vector<std::string> problems;

  // --- wall clock ---
  double setup_s = 0;     ///< harness construction
  double run_s = 0;       ///< inside Simulator::run_until
  double cpu_s = 0;       ///< process CPU of the driven run and its checkers
  double verify_s = 0, conflict_s = 0, snapshot_s = 0, tcsll_s = 0;
  double snapshot_read_ns = 0;  ///< mean per snapshot_read call
  std::vector<double> wall_latency_us;  ///< certify-to-decision, wall µs

  ratc::Duration unavailable() const { return detect + install + activate; }
  double checked_s() const { return run_s + verify_s + conflict_s + snapshot_s; }
};

/// How much of the end-of-run checking a run performs.
enum class Checks { kNone, kGate, kGateAndTcsllTiming };

/// One run of `shape` at `seed`; `spans`, when given, receives the run's
/// trace.  monitor=false (commit stack only) runs unmonitored and unchecked.
SimRun run_sim(const SimShape& shape, std::uint64_t seed, Checks checks,
               bool monitor = true, SpanLog* spans = nullptr);

/// Crash scenarios of one sim-failover / sim-failover-rdma run.
constexpr std::uint64_t kScenarios = 4;

/// The sim-failover / sim-failover-rdma workloads: repeats kScenarios seeds'
/// runs in turn for the measurement window, gates every repetition and
/// reports the mean over the scenarios.
Result sim_workload(const Args& args, bool rdma);

/// Sets every simulator-side per-layer metric to 0 (workloads whose traced
/// path does not run these layers).
void zero_sim_layers(Metrics& m);

/// Adds the deterministic failover metrics (delays, outage, reads) to `r`,
/// averaged over `runs` — shared with the rt workloads' simulator twin.
void add_failover_metrics(Result& r, const std::vector<SimRun>& runs);

}  // namespace perfbench
