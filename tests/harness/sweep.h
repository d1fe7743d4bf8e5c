// Seed-sweep drivers: run one (seed, workload, schedule) triple against a
// protocol stack, inject the schedule's faults through a Nemesis plus the
// stack harness's crash/reconfigure hooks (src/store/stack_harness.h), and
// validate the execution with the checkers the stack enumerates (online
// monitor, TCS-LL, and — when the committed projection is small enough for
// the exact DFS — the linearization checker).
//
// One templated FaultDriver covers every stack: the commit and RDMA
// protocols, the 2PC-over-Paxos baseline, and (via a local adapter) the
// bare Paxos substrate.  Every run is a pure function of its seed: the
// workload Rng, the schedule interpretation Rng, and the Nemesis Rng are
// all derived from it.  A failing seed therefore reproduces with the same
// options (see tests/README.md for the recipe).
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "common/types.h"
#include "harness/schedule.h"
#include "store/stack_harness.h"

namespace ratc::harness {

/// Outcome of one run.  `problems` is empty iff every enabled check passed;
/// otherwise it carries one diagnostic per line, prefixed with the seed.
struct RunResult {
  std::uint64_t seed = 0;
  std::size_t submitted = 0;
  std::size_t decided = 0;
  std::size_t committed = 0;
  std::uint64_t dropped = 0;  ///< messages the nemesis dropped
  std::uint64_t held = 0;     ///< messages held back by partitions
  /// Reconfiguration attempts started by the autonomous controllers
  /// (src/ctrl/); 0 for stacks without them or when not enabled.  The
  /// hysteresis sweeps bound this per run.
  std::size_t ctrl_attempts = 0;
  /// recon::Engine counters aggregated over every reconfigurer in the run
  /// (replica-driven and controller-driven); 0 for stacks without the
  /// shared engine (baseline, paxos).
  std::size_t probes_sent = 0;
  std::size_t cas_losses = 0;
  std::size_t spares_reserved = 0;
  std::size_t spares_released = 0;
  /// CSN snapshot reads issued / served by the read mix (0 when
  /// read_fraction is 0 or the stack has no read path).
  std::size_t reads_attempted = 0;
  std::size_t reads_served = 0;
  /// Termination-protocol counters for stacks that expose
  /// termination_stats() (baseline coop and Paxos Commit; 0 elsewhere).
  /// Surfaced so ladder sweeps can assert "coop blocks > 0, Paxos Commit
  /// blocks == 0" directly instead of inferring it from committed
  /// fractions.  `term_blocked` is the all-prepared give-up count for the
  /// coop baseline and the unreachable-peer give-up count for Paxos Commit
  /// (which has no all-prepared window by construction).
  std::uint64_t term_resolved = 0;  ///< in-doubt txns resolved (commit+abort)
  std::uint64_t term_blocked = 0;   ///< termination give-ups
  std::uint64_t term_adopted = 0;   ///< orphaned coordinations adopted
  bool linearization_checked = false;
  std::string problems;
  /// FNV-1a fingerprint of the full message trace plus outcome counters;
  /// equal seeds must produce equal fingerprints (determinism tests).
  std::uint64_t fingerprint = 0;

  std::string summary() const;
};

/// Appends one seed-prefixed diagnostic line to r.problems.
inline void append_seed_problem(RunResult& r, const std::string& what) {
  if (!r.problems.empty()) r.problems += "\n";
  r.problems += "seed " + std::to_string(r.seed) + ": " + what;
}

/// Shared end-of-run verdict over a StackHarness: fills the outcome
/// counters from the harness and appends one diagnostic per failed check —
/// the stack's verifier, the exact linearization DFS when the committed
/// projection is within `linearize_up_to` (and the stack enumerates that
/// checker), and the workload's decided-fraction floor.  `r.submitted`
/// must already be set.  Used by the generic FaultDriver and by aimed
/// sweeps that drive a harness directly
/// (baseline_termination_random_test.cc), so the checker policy cannot
/// drift between them.
template <typename Harness>
void apply_end_of_run_checks(RunResult& r, Harness& harness,
                             const typename Harness::Workload& w) {
  r.decided = harness.decided_count();
  r.committed = harness.committed_count();
  if constexpr (requires { harness.controller_attempts(); }) {
    r.ctrl_attempts = harness.controller_attempts();
  }
  if constexpr (requires { harness.engine_stats(); }) {
    auto es = harness.engine_stats();
    r.probes_sent = es.probes_sent;
    r.cas_losses = es.cas_losses;
    r.spares_reserved = es.spares_reserved;
    r.spares_released = es.spares_released;
  }
  if constexpr (requires { harness.reads_attempted(); }) {
    r.reads_attempted = harness.reads_attempted();
    r.reads_served = harness.reads_served();
  }
  if constexpr (requires { harness.termination_stats(); }) {
    auto ts = harness.termination_stats();
    r.term_resolved = ts.resolved();
    r.term_blocked = ts.blocked;
    r.term_adopted = ts.adopted_coordinations;
  }
  if constexpr (requires { harness.check_snapshot_reads(); }) {
    // Every served snapshot read must have observed a consistent, fresh
    // snapshot — checked even at read_fraction 0 (vacuously empty).
    std::string snap = harness.check_snapshot_reads();
    if (!snap.empty()) append_seed_problem(r, snap);
  }
  if constexpr (requires { harness.spare_ledger_verdict(); }) {
    // Every random sweep asserts the engines' spare ledger balances: a
    // reserved spare must end up installed in a stored configuration,
    // released back to the pool, or still awaiting its CAS outcome.
    std::string ledger = harness.spare_ledger_verdict();
    if (!ledger.empty()) append_seed_problem(r, ledger);
  }
  std::string verdict = harness.verify();
  if (!verdict.empty()) append_seed_problem(r, verdict);
  if constexpr (Harness::kCheckers.linearization) {
    if (r.committed <= w.linearize_up_to) {
      r.linearization_checked = true;
      std::string lin = harness.check_linearization();
      if (!lin.empty()) append_seed_problem(r, lin);
    }
  }
  if (static_cast<double>(r.decided) <
      w.min_decided_fraction * static_cast<double>(r.submitted)) {
    append_seed_problem(r, "liveness: only " + std::to_string(r.decided) +
                               " of " + std::to_string(r.submitted) +
                               " transactions decided (required fraction " +
                               std::to_string(w.min_decided_fraction) + ")");
  }
}

/// Per-stack workload aliases over the shared store::StackWorkload.  Tests
/// mutate fields; the derived types only adjust defaults to match each
/// stack's seed suites.
using CommitWorkloadOptions = store::StackWorkload;

struct RdmaWorkloadOptions : store::StackWorkload {
  RdmaWorkloadOptions() {
    total_txns = 160;
    retry_timeout = 100;
  }
};

struct BaselineWorkloadOptions : store::StackWorkload {
  BaselineWorkloadOptions() {
    shard_size = 3;  // 2f+1 Paxos groups
    spares_per_shard = 0;
    // A crashed coordinator blocks its in-flight transactions forever
    // (classical 2PC); sweeps therefore accept a lower decided fraction
    // than the recoverable stacks.
    min_decided_fraction = 0.5;
  }
};

/// The baseline plus cooperative termination (store::BaselineCoopHarness):
/// same topology and workload stream as BaselineWorkloadOptions, but
/// in-doubt transactions whose peers know the outcome get resolved, so only
/// the all-prepared window still blocks.
struct BaselineCoopWorkloadOptions : BaselineWorkloadOptions {
  BaselineCoopWorkloadOptions() { termination = baseline::Termination::kCooperative; }
};

/// Paxos Commit (store::PaxosCommitHarness): the baseline's topology and
/// workload stream, but every vote is a replicated consensus instance, so
/// recovery never blocks on the all-prepared window.  The decided-fraction
/// floor is accordingly higher than the 2PC rungs'; suites override it
/// with census-calibrated values per schedule shape (pc_random_test.cc).
struct PaxosCommitWorkloadOptions : BaselineWorkloadOptions {
  PaxosCommitWorkloadOptions() {
    termination = baseline::Termination::kPaxosCommit;
    min_decided_fraction = 0.75;
  }
};

struct PaxosWorkloadOptions {
  std::size_t replicas = 5;
  int total_txns = 60;  ///< commands
  ObjectId object_universe = 8;  ///< unused (commands carry no payload)
  bool exponential_delays = false;
  Duration drain = 2000;
  std::size_t linearize_up_to = 0;
  /// Minimum fraction of submitted commands the surviving log must contain.
  double min_decided_fraction = 0.5;
  bool capture_trace = true;
};

RunResult run_commit_workload(std::uint64_t seed, const CommitWorkloadOptions& w,
                              const Schedule& schedule);
RunResult run_rdma_workload(std::uint64_t seed, const RdmaWorkloadOptions& w,
                            const Schedule& schedule);
RunResult run_baseline_workload(std::uint64_t seed, const BaselineWorkloadOptions& w,
                                const Schedule& schedule);
RunResult run_baseline_coop_workload(std::uint64_t seed,
                                     const BaselineCoopWorkloadOptions& w,
                                     const Schedule& schedule);
RunResult run_paxos_commit_workload(std::uint64_t seed,
                                    const PaxosCommitWorkloadOptions& w,
                                    const Schedule& schedule);
RunResult run_paxos_workload(std::uint64_t seed, const PaxosWorkloadOptions& w,
                             const Schedule& schedule);

/// Seed count for a sweep: the RATC_SWEEP_SEEDS environment variable when
/// set to a positive integer (the nightly deep-sweep CI job sets it to run
/// hundreds of seeds per schedule shape), else `fallback` — the cheap
/// default the interactive/per-push suites use.
int sweep_seed_count(int fallback);

/// Aggregate of a multi-seed sweep.
struct SweepResult {
  int runs = 0;
  std::size_t total_submitted = 0;
  std::size_t total_decided = 0;
  std::size_t total_committed = 0;
  std::size_t linearization_checks = 0;
  /// Termination-counter aggregates (see RunResult); the ladder sweeps
  /// assert on these directly: coop blocks > 0, Paxos Commit blocks == 0.
  std::uint64_t total_term_resolved = 0;
  std::uint64_t total_term_blocked = 0;
  std::uint64_t total_term_adopted = 0;
  std::vector<RunResult> failures;

  bool ok() const { return failures.empty(); }
  /// Failure report with per-seed diagnostics and a reproduction hint.
  std::string report() const;

  void absorb(RunResult r) {
    ++runs;
    total_submitted += r.submitted;
    total_decided += r.decided;
    total_committed += r.committed;
    linearization_checks += r.linearization_checked ? 1 : 0;
    total_term_resolved += r.term_resolved;
    total_term_blocked += r.term_blocked;
    total_term_adopted += r.term_adopted;
    if (!r.problems.empty()) failures.push_back(std::move(r));
  }
};

/// Runs `run(seed)` for seeds first_seed .. first_seed+count-1, sequentially.
template <typename Fn>
SweepResult sweep_seeds(std::uint64_t first_seed, int count, Fn run) {
  SweepResult sweep;
  for (int i = 0; i < count; ++i) {
    sweep.absorb(run(first_seed + static_cast<std::uint64_t>(i)));
  }
  return sweep;
}

/// Thread-pool variant of sweep_seeds.  Each run builds its own simulator,
/// cluster and nemesis and is a pure function of its seed, so runs are
/// embarrassingly parallel; results are aggregated in seed order, making
/// the outcome identical for every thread count (tested).  `threads` = 0
/// uses the hardware concurrency.  `run` must be callable concurrently —
/// capture per-seed state by value or index into distinct slots only.
template <typename Fn>
SweepResult parallel_sweep_seeds(std::uint64_t first_seed, int count, Fn run,
                                 unsigned threads = 0) {
  if (count <= 0) return {};
  if (threads == 0) {
    unsigned hw = std::thread::hardware_concurrency();
    threads = hw != 0 ? hw : 4;
  }
  threads = std::min<unsigned>(threads, static_cast<unsigned>(count));
  std::vector<RunResult> results(static_cast<std::size_t>(count));
  std::atomic<int> next{0};
  auto worker = [&] {
    for (int i = next.fetch_add(1); i < count; i = next.fetch_add(1)) {
      results[static_cast<std::size_t>(i)] =
          run(first_seed + static_cast<std::uint64_t>(i));
    }
  };
  std::vector<std::thread> pool;
  pool.reserve(threads - 1);
  for (unsigned t = 1; t < threads; ++t) pool.emplace_back(worker);
  worker();
  for (auto& th : pool) th.join();
  SweepResult sweep;
  for (auto& r : results) sweep.absorb(std::move(r));
  return sweep;
}

/// FNV-1a over a byte string; the fingerprint primitive used by RunResult.
std::uint64_t fnv1a(const std::string& bytes, std::uint64_t h = 0xcbf29ce484222325ULL);

}  // namespace ratc::harness
