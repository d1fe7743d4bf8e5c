// Seeded fault-injection sweeps for Paxos Commit (store::PaxosCommitHarness:
// the baseline under Termination::kPaxosCommit), mirroring the baseline suites in
// harness_fault_injection_test.cc: crash/failover, partition shapes, lossy
// links, plus the batching/read-mix knobs and the same-seed-same-trace
// determinism guarantee.  The decided-fraction floors are calibrated
// against a 50-seed census (RATC_SWEEP_SEEDS=50) per schedule shape; the
// worst-seed numbers are quoted at each floor.
//
// The stack's distinguishing assertion rides on the termination counters
// surfaced through RunResult: across every sweep, `term_blocked` must stay
// 0 on crash-only schedules — vote recovery always terminates because the
// votes are chosen Paxos values (baseline/termination.h), never an unreadable
// coordinator's volatile memory.
#include <gtest/gtest.h>

#include <atomic>
#include <set>

#include "harness/schedule.h"
#include "harness/sweep.h"

namespace ratc::harness {
namespace {

constexpr std::uint64_t kFirstSeed = 1;
const int kSweepSeeds = sweep_seed_count(24);
const int kSmallSweepSeeds = sweep_seed_count(20);

Schedule schedule_for(std::uint64_t seed, const ScheduleOptions& opt) {
  Rng rng(seed * 0x9e3779b97f4a7c15ULL + 0x5eedULL);
  return generate_schedule(rng, opt);
}

TEST(PaxosCommitFaultSweep, CrashAndFailoverSchedules) {
  ScheduleOptions opt;
  opt.crashes = 2;
  opt.reconfigures = 1;  // leadership handover, same lever as the baseline
  opt.partitions = 0;
  opt.delay_windows = 1;
  PaxosCommitWorkloadOptions w;
  w.total_txns = 120;
  // 50-seed census (RATC_SWEEP_SEEDS=50): worst decided=0.9583 at seed 4.
  w.min_decided_fraction = 0.9;
  SweepResult sweep =
      parallel_sweep_seeds(kFirstSeed, kSweepSeeds, [&](std::uint64_t seed) {
        return run_paxos_commit_workload(seed, w, schedule_for(seed, opt));
      });
  EXPECT_TRUE(sweep.ok()) << sweep.report();
  // Crash-only schedules can never block vote recovery: every queried shard
  // either answers its chosen vote or forces its instance closed.
  EXPECT_EQ(sweep.total_term_blocked, 0u);
}

TEST(PaxosCommitFaultSweep, PartitionSchedulesIncludingNewShapes) {
  // Held-back partitions of all three shapes.  Eventual delivery holds; a
  // partitioned leader stalls both its Paxos group and the vote-query
  // rounds aimed at it, so the floor sits below the crash sweep's.  The
  // bounded-rounds give-up path (the only way `blocked` can grow on this
  // stack) is legitimately reachable while a peer shard is unreachable.
  ScheduleOptions opt;
  opt.crashes = 1;
  opt.reconfigures = 1;
  opt.partitions = 1;
  opt.majority_splits = 1;
  opt.one_way_partitions = 1;
  opt.clock_skews = 1;
  PaxosCommitWorkloadOptions w;
  w.total_txns = 120;
  // 50-seed census (RATC_SWEEP_SEEDS=50): worst decided=0.7917 at seed 21.
  w.min_decided_fraction = 0.7;
  SweepResult sweep =
      parallel_sweep_seeds(kFirstSeed, kSweepSeeds, [&](std::uint64_t seed) {
        return run_paxos_commit_workload(seed, w, schedule_for(seed, opt));
      });
  EXPECT_TRUE(sweep.ok()) << sweep.report();
}

TEST(PaxosCommitFaultSweep, LossySchedulesAreSafe) {
  // Arbitrary loss can eat prepares, votes, queries and answers alike; the
  // bounded query rounds must give up cleanly and every safety check hold
  // (replica agreement, atomic decisions, snapshot consistency).
  ScheduleOptions opt;
  opt.crashes = 1;
  opt.partitions = 1;
  opt.lossy_partitions = true;
  opt.drop_windows = 2;
  opt.drop_probability = 0.08;
  opt.delay_windows = 1;
  PaxosCommitWorkloadOptions w;
  w.total_txns = 100;
  // Liveness is deliberately not asserted under arbitrary loss; for the
  // record, the 50-seed census still saw worst decided=0.71 (seed 11), and
  // loss is the only schedule family where `blocked` grows (295 give-up
  // rounds across the census — all clean, no safety problems).
  w.min_decided_fraction = 0.0;
  SweepResult sweep =
      parallel_sweep_seeds(kFirstSeed, kSmallSweepSeeds, [&](std::uint64_t seed) {
        return run_paxos_commit_workload(seed, w, schedule_for(seed, opt));
      });
  EXPECT_TRUE(sweep.ok()) << sweep.report();
}

TEST(PaxosCommitFaultSweep, BatchedSubmissionAndReadMix) {
  // The driver's batching and read-mix knobs work unchanged on this stack:
  // batches ride one B_CERTIFY_BATCH per coordinator (scalar fallback at
  // size 1 is covered by every other suite), and the read mix issues
  // zero-message CSN snapshot reads that the snapshot checker validates
  // against the committed prefix.
  ScheduleOptions opt;
  opt.crashes = 1;
  opt.reconfigures = 1;
  opt.partitions = 0;
  opt.delay_windows = 1;
  PaxosCommitWorkloadOptions w;
  w.total_txns = 120;
  w.batch_size = 4;
  w.read_fraction = 0.2;
  w.read_staleness_bound = 400;
  // 50-seed census (RATC_SWEEP_SEEDS=50): worst decided=0.9500 at seed 50.
  w.min_decided_fraction = 0.85;
  std::atomic<std::size_t> reads_served{0};
  SweepResult sweep =
      parallel_sweep_seeds(kFirstSeed, kSmallSweepSeeds, [&](std::uint64_t seed) {
        RunResult r = run_paxos_commit_workload(seed, w, schedule_for(seed, opt));
        reads_served += r.reads_served;
        return r;
      });
  EXPECT_TRUE(sweep.ok()) << sweep.report();
  // The read mix actually exercised the leader-gated read path.
  EXPECT_GT(reads_served.load(), 0u);
}

TEST(PaxosCommitDeterminism, SameSeedIdenticalTrace) {
  // Acceptance bar for the stack: a run is a pure function of its seed —
  // identical message trace (fingerprint), counters and verdicts — with
  // the full recovery machinery (FD pings, in-doubt timers, query rounds)
  // in the loop.
  ScheduleOptions opt;
  opt.crashes = 1;
  opt.reconfigures = 1;
  opt.partitions = 1;
  opt.delay_windows = 1;
  opt.window_hi = 150;
  PaxosCommitWorkloadOptions w;
  w.total_txns = 50;
  w.drain = 4000;
  w.min_decided_fraction = 0.0;  // liveness is not under test here
  Rng r1(5), r2(5);
  Schedule s1 = generate_schedule(r1, opt);
  Schedule s2 = generate_schedule(r2, opt);
  RunResult a = run_paxos_commit_workload(5, w, s1);
  RunResult b = run_paxos_commit_workload(5, w, s2);
  EXPECT_EQ(a.fingerprint, b.fingerprint);
  EXPECT_EQ(a.submitted, b.submitted);
  EXPECT_EQ(a.decided, b.decided);
  EXPECT_EQ(a.committed, b.committed);
  EXPECT_EQ(a.term_resolved, b.term_resolved);
  EXPECT_EQ(a.problems, b.problems);

  // Different seeds explore different executions.
  std::set<std::uint64_t> fingerprints;
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    Rng r(seed);
    fingerprints.insert(
        run_paxos_commit_workload(seed, w, generate_schedule(r, opt)).fingerprint);
  }
  EXPECT_EQ(fingerprints.size(), 4u);
}

}  // namespace
}  // namespace ratc::harness
