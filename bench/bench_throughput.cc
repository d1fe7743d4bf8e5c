// E11: throughput scaling with the number of shards — the motivation for
// partitioning data into independently managed shards (paper Sec. 1) —
// plus the certification batch-size sweep: requirement (1)'s distributive
// vote lets a coordinator certify a whole batch in one PREPARE round per
// shard leader (and the baseline in one Paxos append per shard), so
// batching amortizes the protocol's fixed per-round cost at the price of
// per-transaction latency.
//
// Single-shard transactions scale near-linearly with shards (independent
// certification orders + coordinator-delegated replication); cross-shard
// transactions pay coordination but still scale.  The 2f+1 baseline's
// leaders saturate earlier at equal offered load.
//
// The read-mix section exercises the CSN snapshot-read fast path: a 95/5
// read-heavy phase per stack in which every read-only transaction is
// resolved locally at a consistent snapshot.  The binary ASSERTS that the
// message trace grows by zero entries during the read phase — no CERTIFY,
// no PREPARE, nothing on the wire — and exits nonzero otherwise.
//
// The ladder section (E13) runs the full strawman ladder — classical 2PC,
// 2PC + cooperative termination, Paxos Commit, and the paper protocol —
// through an identical coordinator-crash strike schedule and reports
// messages/txn, p50/p99 commit latency, committed fraction and blocked
// termination rounds per rung.
//
// Results are persisted to BENCH_throughput.json, BENCH_ladder.json and
// BENCH_readmix.json (bench/bench_report.h); RATC_BENCH_TXNS trims the
// per-cell transaction count for smoke runs.
#include <algorithm>
#include <cstdio>
#include <map>
#include <vector>

#include "bench/bench_common.h"
#include "bench/bench_report.h"
#include "common/random.h"

using namespace ratc;

namespace {

std::size_t txns() { return bench::bench_txns(800); }

store::WorkloadOptions workload_for(std::uint32_t shards) {
  return {.objects = 400 * shards, .ops_per_txn = 3, .write_fraction = 0.5};
}

store::RunnerStats run_ours(std::uint32_t shards, std::size_t window,
                            std::size_t batch = 1) {
  bench::CommitRig rig({.seed = 17, .num_shards = shards, .shard_size = 2,
                        .enable_monitor = false},
                       workload_for(shards), 3, window, batch);
  return rig.run(txns());
}

store::RunnerStats run_rdma(std::uint32_t shards, std::size_t window,
                            std::size_t batch = 1) {
  bench::RdmaRig rig({.seed = 19, .num_shards = shards, .shard_size = 2},
                     workload_for(shards), 3, window, batch);
  return rig.run(txns());
}

store::RunnerStats run_baseline(std::uint32_t shards, std::size_t window,
                                baseline::Termination termination,
                                std::size_t batch = 1) {
  // Paxos Commit's rows use their own cluster seed, so BENCH_throughput.json
  // stays comparable with runs from before the stacks were merged.
  const std::uint64_t seed = termination == baseline::Termination::kPaxosCommit ? 20 : 18;
  bench::BaselineRig rig({.seed = seed, .num_shards = shards, .shard_size = 3,
                          .termination = termination},
                         workload_for(shards), 3, window, batch);
  return rig.run(txns());
}

}  // namespace

int main() {
  bench::BenchReport report("throughput");

  bench::header("E11", "throughput scaling with shard count (committed txns / 1000 ticks)");
  bench::claim(
      "sharding scales certification; the f+1 protocol sustains higher\n"
      "throughput than 2f+1 Paxos at equal offered load (window = 32) —\n"
      "and bolting cooperative termination onto the baseline costs nothing\n"
      "in failure-free runs (the fix only speaks when coordinators die)");

  std::printf("%8s | %22s | %22s | %22s | %22s\n", "", "this work (MP, f=1)",
              "baseline (2f+1)", "baseline + coop term", "paxos commit (2f+1)");
  std::printf("%8s | %10s %11s | %10s %11s | %10s %11s | %10s %11s\n", "shards",
              "tput", "mean lat", "tput", "mean lat", "tput", "mean lat", "tput",
              "mean lat");
  for (std::uint32_t shards : {1u, 2u, 4u, 8u}) {
    store::RunnerStats ours = run_ours(shards, 32);
    store::RunnerStats base = run_baseline(shards, 32, baseline::Termination::kClassical);
    store::RunnerStats coop = run_baseline(shards, 32, baseline::Termination::kCooperative);
    store::RunnerStats paxc = run_baseline(shards, 32, baseline::Termination::kPaxosCommit);
    std::printf(
        "%8u | %10.1f %11.1f | %10.1f %11.1f | %10.1f %11.1f | %10.1f %11.1f\n",
        shards, ours.throughput(), ours.mean_latency(), base.throughput(),
        base.mean_latency(), coop.throughput(), coop.mean_latency(),
        paxc.throughput(), paxc.mean_latency());
    bench::fill_runner_row(report.add_row(), "commit", shards, 1, 32, ours)
        .set("sweep", "shards");
    bench::fill_runner_row(report.add_row(), "baseline", shards, 1, 32, base)
        .set("sweep", "shards");
    bench::fill_runner_row(report.add_row(), "baseline-coop", shards, 1, 32, coop)
        .set("sweep", "shards");
    bench::fill_runner_row(report.add_row(), "paxos-commit", shards, 1, 32, paxc)
        .set("sweep", "shards");
  }

  std::printf("\nwindow sweep at 4 shards (this work):\n");
  std::printf("%10s %12s %12s\n", "window", "tput", "mean lat");
  for (std::size_t w : {4u, 16u, 64u, 256u}) {
    store::RunnerStats s = run_ours(4, w);
    std::printf("%10zu %12.1f %12.1f\n", w, s.throughput(), s.mean_latency());
    bench::fill_runner_row(report.add_row(), "commit", 4, 1, w, s)
        .set("sweep", "window");
  }

  // Batch-size sweep: one certification round per coordinator per batch.
  // The window is held at 256 so the batcher can actually fill large
  // batches; batch 1 is the scalar path (bit-identical to the pre-batching
  // runner) and anchors the comparison.
  std::printf(
      "\nbatch-size sweep at 4 shards, window 256 (one CERTIFY round per "
      "batch):\n");
  std::printf("%10s | %9s | %10s %8s %8s %8s | %9s\n", "stack", "batch",
              "tput", "mean", "p50", "p99", "committed");
  for (std::size_t batch : {1u, 4u, 16u, 64u}) {
    struct NamedRun {
      const char* stack;
      store::RunnerStats stats;
    };
    NamedRun runs[] = {{"commit", run_ours(4, 256, batch)},
                       {"rdma", run_rdma(4, 256, batch)},
                       {"baseline", run_baseline(4, 256, baseline::Termination::kClassical,
                                                 batch)}};
    for (const NamedRun& r : runs) {
      std::printf("%10s | %9zu | %10.1f %8.1f %8llu %8llu | %8.1f%%\n",
                  r.stack, batch, r.stats.throughput(), r.stats.mean_latency(),
                  static_cast<unsigned long long>(r.stats.p50_latency()),
                  static_cast<unsigned long long>(r.stats.p99_latency()),
                  100.0 * r.stats.committed_fraction());
      bench::fill_runner_row(report.add_row(), r.stack, 4, batch, 256, r.stats)
          .set("sweep", "batch_size");
    }
  }

  report.write();

  // E13: the strawman ladder under coordinator-crash strikes.  All four
  // rungs run the identical workload — cross-shard transactions over two
  // shards on disjoint objects, one submission every 4 ticks — and take the
  // identical strike schedule: at 1/4, 2/4 and 3/4 of the run the
  // coordinating shard's leader is crashed mid-protocol and a survivor
  // takes over (the reconfigurable stack crashes a member and reconfigures
  // onto a spare, its own repair lever).  Groups are sized to tolerate the
  // strikes: 2f+1 = 5 for the consensus-per-shard rungs, f+1 = 3 plus two
  // spares for the paper protocol.
  bench::BenchReport ladder("ladder");
  bench::header("E13",
                "the strawman ladder under coordinator-crash strikes");
  bench::claim(
      "classical 2PC strands fully-prepared transactions when the\n"
      "coordinator dies; cooperative termination recovers all but the\n"
      "all-prepared window; Paxos Commit replicates the votes and never\n"
      "blocks; the paper protocol keeps non-blocking termination at f+1\n"
      "replicas");

  struct LadderCell {
    double msgs_per_txn = 0;
    Duration p50 = 0;
    Duration p99 = 0;
    double committed = 0;
    double decided = 0;
    std::uint64_t blocked = 0;
  };
  const std::size_t ladder_txns = std::max<std::size_t>(40, txns() / 4);
  auto drive = [ladder_txns](auto& cluster, store::TcsFrontend& frontend,
                             auto strike) {
    LadderCell cell;
    std::map<TxnId, Time> sent;
    std::vector<Duration> latencies;
    std::size_t committed = 0;
    frontend.on_decision = [&](TxnId txn, tcs::Decision d) {
      auto it = sent.find(txn);
      if (it == sent.end()) return;
      latencies.push_back(cluster.sim().now() - it->second);
      if (d == tcs::Decision::kCommit) ++committed;
    };
    // Bursts of 8 keep several transactions in flight at once, so a strike
    // catches them in mixed 2PC stages — some all-prepared (nobody but a
    // vote-replicating stack can save those), some prepared at only one
    // shard (cooperative termination's bread and butter).
    const std::size_t kBurst = 8;
    const std::size_t bursts = (ladder_txns + kBurst - 1) / kBurst;
    const std::size_t q = bursts / 4;
    std::size_t submitted = 0;
    for (std::size_t b = 0; b < bursts; ++b) {
      for (std::size_t j = 0; j < kBurst && submitted < ladder_txns; ++j) {
        const std::size_t i = submitted++;
        tcs::Payload p = bench::payload_on(
            {static_cast<ObjectId>(2 * i), static_cast<ObjectId>(2 * i + 1)},
            {static_cast<ObjectId>(2 * i)});
        TxnId txn = frontend.next_txn_id();
        sent[txn] = cluster.sim().now();
        frontend.submit(txn, p);
        // One tick between submissions: at strike time the burst spans the
        // whole protocol — newest still un-prepared, oldest all-prepared.
        cluster.sim().run_until(cluster.sim().now() + 1);
      }
      if (b == q || b == 2 * q || b == 3 * q) {
        strike(static_cast<ShardId>(b == 2 * q ? 1 : 0));
      }
      cluster.sim().run_until(cluster.sim().now() + 12);
    }
    cluster.sim().run();  // drain: recovery machinery finishes the backlog
    cell.msgs_per_txn =
        static_cast<double>(cluster.net().total_messages()) / ladder_txns;
    std::sort(latencies.begin(), latencies.end());
    auto pct = [&latencies](double p) -> Duration {
      if (latencies.empty()) return 0;
      std::size_t rank = std::min(latencies.size() - 1,
                                  static_cast<std::size_t>(p * latencies.size()));
      return latencies[rank];
    };
    cell.p50 = pct(0.50);
    cell.p99 = pct(0.99);
    cell.committed = static_cast<double>(committed) / ladder_txns;
    cell.decided = static_cast<double>(latencies.size()) / ladder_txns;
    return cell;
  };
  // Crash the shard's leader and promote the first surviving member — the
  // strike shape all three consensus-per-shard rungs share.
  auto strike_leader = [](auto& cluster, ShardId s) {
    ProcessId lead = cluster.leader_server(s);
    if (cluster.sim().crashed(lead)) return;
    cluster.crash_server(lead);
    for (ProcessId m : cluster.shard_servers(s)) {
      if (!cluster.sim().crashed(m)) {
        cluster.elect_leader(s, m);
        break;
      }
    }
  };
  auto baseline_rung = [&](baseline::Termination termination) {
    baseline::BaselineCluster cluster({.seed = 29, .num_shards = 2,
                                       .shard_size = 5,
                                       .termination = termination});
    store::BaselineFrontend frontend(cluster);
    LadderCell cell = drive(cluster, frontend, [&](ShardId s) {
      strike_leader(cluster, s);
    });
    cell.blocked = cluster.termination_stats().blocked;
    return cell;
  };
  auto commit_rung = [&] {
    commit::Cluster cluster({.seed = 29, .num_shards = 2, .shard_size = 3,
                             .spares_per_shard = 2, .enable_monitor = false});
    store::CommitFrontend frontend(cluster);
    LadderCell cell = drive(cluster, frontend, [&](ShardId s) {
      configsvc::ShardConfig cfg = cluster.current_config(s);
      ProcessId victim = kNoProcess;
      ProcessId healer = kNoProcess;
      for (ProcessId m : cfg.members) {
        if (cluster.sim().crashed(m)) continue;
        if (victim == kNoProcess) {
          victim = m;
        } else {
          healer = m;
          break;
        }
      }
      if (victim == kNoProcess || healer == kNoProcess) return;
      cluster.crash(victim);
      cluster.reconfigure(s, healer);
    });
    // No vote-query machinery to give up: reconfiguration is the recovery
    // path, and stranded submissions surface as undecided, not blocked.
    cell.blocked = 0;
    return cell;
  };

  std::printf("%14s | %9s %6s %6s | %10s %9s | %8s\n", "stack", "msgs/txn",
              "p50", "p99", "committed", "decided", "blocked");
  struct NamedCell {
    const char* stack;
    LadderCell cell;
  };
  NamedCell cells[] = {{"baseline-2pc", baseline_rung(baseline::Termination::kClassical)},
                       {"baseline-coop", baseline_rung(baseline::Termination::kCooperative)},
                       {"paxos-commit", baseline_rung(baseline::Termination::kPaxosCommit)},
                       {"commit", commit_rung()}};
  for (const NamedCell& c : cells) {
    std::printf("%14s | %9.1f %6llu %6llu | %9.1f%% %8.1f%% | %8llu\n",
                c.stack, c.cell.msgs_per_txn,
                static_cast<unsigned long long>(c.cell.p50),
                static_cast<unsigned long long>(c.cell.p99),
                100.0 * c.cell.committed, 100.0 * c.cell.decided,
                static_cast<unsigned long long>(c.cell.blocked));
    ladder.add_row()
        .set("stack", c.stack)
        .set("txns", static_cast<std::uint64_t>(ladder_txns))
        .set("strikes", std::uint64_t{3})
        .set("msgs_per_txn", c.cell.msgs_per_txn)
        .set("p50_latency", static_cast<std::uint64_t>(c.cell.p50))
        .set("p99_latency", static_cast<std::uint64_t>(c.cell.p99))
        .set("committed_fraction", c.cell.committed)
        .set("decided_fraction", c.cell.decided)
        .set("term_blocked", c.cell.blocked);
  }
  ladder.write();

  // Read-mix 95/5: after an update phase, each stack serves 19 read-only
  // snapshot transactions per decided update (the 95/5 mix) through its
  // TcsFrontend.  Reads resolve against the replicas' multi-version stores
  // below the CSN watermark, so the trace delta across the whole read
  // phase must be exactly zero messages.  The reconfigurable stacks rotate
  // the serving member (follower reads); the baseline serves only at
  // caught-up Paxos leaders.
  bench::BenchReport readmix("readmix");
  bench::header("E12", "read-mix 95/5: CSN snapshot reads, zero messages");
  bench::claim(
      "read-only transactions execute at a consistent snapshot on any\n"
      "replica with ZERO certification messages — the read phase leaves\n"
      "the wire untouched on all three stacks");
  std::printf("%10s | %9s %9s %9s %8s | %13s\n", "stack", "updates", "reads",
              "served", "served%", "msgs in reads");
  bool wire_silent = true;
  auto read_phase = [&](const char* stack, auto& rig,
                        const store::RunnerStats& updates) {
    Rng rng(23);
    const std::size_t objects = workload_for(4).objects;
    std::size_t decided = updates.committed + updates.aborted;
    std::size_t attempts = 19 * decided;
    std::size_t before = rig.cluster.tracer().entries().size();
    std::size_t served = 0;
    for (std::size_t i = 0; i < attempts; ++i) {
      std::vector<ObjectId> objs;
      std::uint64_t n = 1 + rng.below(3);
      for (std::uint64_t j = 0; j < n; ++j) {
        ObjectId o = static_cast<ObjectId>(rng.below(objects));
        if (std::find(objs.begin(), objs.end(), o) == objs.end())
          objs.push_back(o);
      }
      if (rig.frontend.submit_read_only(objs).has_value()) ++served;
    }
    std::size_t msgs = rig.cluster.tracer().entries().size() - before;
    if (msgs != 0) wire_silent = false;
    std::printf("%10s | %9zu %9zu %9zu %7.1f%% | %13zu%s\n", stack, decided,
                attempts, served,
                attempts == 0 ? 0.0 : 100.0 * served / attempts, msgs,
                msgs == 0 ? "" : "  <-- FAIL");
    readmix.add_row()
        .set("stack", stack)
        .set("shards", std::uint64_t{4})
        .set("updates_decided", std::uint64_t{decided})
        .set("reads_attempted", std::uint64_t{attempts})
        .set("reads_served", std::uint64_t{served})
        .set("served_fraction",
             attempts == 0 ? 0.0 : static_cast<double>(served) / attempts)
        .set("read_messages", std::uint64_t{msgs});
  };
  // enable_tracer: the zero-message claim is checked against the trace.
  {
    bench::CommitRig rig({.seed = 17, .num_shards = 4, .shard_size = 2,
                          .enable_monitor = false, .enable_tracer = true},
                         workload_for(4), 3, 32);
    store::RunnerStats updates = rig.run(txns());
    read_phase("commit", rig, updates);
  }
  {
    bench::RdmaRig rig({.seed = 19, .num_shards = 4, .shard_size = 2,
                        .enable_tracer = true},
                       workload_for(4), 3, 32);
    store::RunnerStats updates = rig.run(txns());
    read_phase("rdma", rig, updates);
  }
  {
    bench::BaselineRig rig({.seed = 18, .num_shards = 4, .shard_size = 3,
                            .enable_tracer = true},
                           workload_for(4), 3, 32);
    store::RunnerStats updates = rig.run(txns());
    read_phase("baseline", rig, updates);
  }
  readmix.write();
  if (!wire_silent) {
    std::fprintf(stderr,
                 "FAIL: snapshot reads put messages on the wire — the "
                 "zero-certification fast path regressed\n");
    return 1;
  }
  return 0;
}
