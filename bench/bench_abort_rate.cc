// E9: abort rates under contention — why FARM ships votes with RDMA.
//
// Paper claim (Sec. 5): "persisting a transaction t at followers using RDMA
// minimizes the time during which the transaction is prepared at leaders,
// which requires them to vote abort on all transactions conflicting with t
// [...]; this results in lower abort rates".
//
// The effect comes from two-sided messaging paying a CPU/software cost that
// one-sided writes avoid.  We model it with a cpu-cost knob c: every
// two-sided message takes 1+c ticks, while one-sided RDMA writes and NIC
// acks take 1 tick.  Transactions arrive OPEN-LOOP at a fixed rate, so as c
// grows the message-passing protocol's prepared-but-undecided window
// stretches relative to the arrival interval and its abort rate climbs,
// while the RDMA protocol's window (dominated by one-sided writes) stays
// nearly flat.
// A second experiment (E9b) rides along: the abort-rate cost of 2PC's
// blocking.  A coordinator crash mid-run leaves prepared-but-undecided
// witnesses that force leaders to vote abort on every conflicting
// transaction *forever*.  Cooperative termination (baseline/termination.h)
// resolves the in-doubt transactions whose peers decided and releases
// their objects, so the post-crash abort rate recovers.
#include <cstdio>
#include <map>

#include "baseline/cluster.h"
#include "bench/bench_common.h"
#include "commit/cluster.h"
#include "rdma/cluster.h"
#include "store/executor.h"
#include "store/versioned_store.h"
#include "tcs/decision.h"

using namespace ratc;

namespace {

constexpr int kTxns = 400;
constexpr Duration kArrivalEvery = 6;  // open-loop inter-arrival time (ticks)
constexpr ObjectId kObjects = 40;

struct OpenLoopResult {
  double abort_rate = 0;
  double mean_latency = 0;
};

/// Generates one random read-modify-write transaction against the store.
tcs::Payload make_txn(Rng& rng, const store::VersionedStore& db) {
  store::TransactionExecutor exec(db);
  for (int i = 0; i < 2; ++i) {
    ObjectId obj = rng.below(kObjects);
    Value v = exec.read(obj);
    exec.write(obj, v + 1);
  }
  return exec.finish();
}

template <typename Cluster, typename Client, typename PickCoordinator>
OpenLoopResult drive(Cluster& cluster, Client& client, PickCoordinator pick) {
  store::VersionedStore db;
  Rng rng(99);
  std::map<TxnId, tcs::Payload> payloads;
  std::size_t committed = 0, aborted = 0;
  Duration total_latency = 0;

  client.on_decision = [&](TxnId t, tcs::Decision d) {
    if (d == tcs::Decision::kCommit) {
      db.apply(payloads[t]);
      ++committed;
    } else {
      ++aborted;
    }
    total_latency += *client.latency(t);
  };

  // Open-loop arrivals: one transaction every kArrivalEvery ticks, no
  // matter how long decisions take.
  for (int i = 0; i < kTxns; ++i) {
    cluster.sim().schedule(static_cast<Duration>(i) * kArrivalEvery, [&, i] {
      (void)i;
      tcs::Payload p = make_txn(rng, db);
      TxnId t = cluster.next_txn_id();
      payloads[t] = p;
      client.certify_colocated(*pick(), t, p);
    });
  }
  cluster.sim().run();

  OpenLoopResult r;
  std::size_t decided = committed + aborted;
  r.abort_rate = decided ? static_cast<double>(aborted) / decided : 0;
  r.mean_latency = decided ? static_cast<double>(total_latency) / decided : 0;
  return r;
}

OpenLoopResult mp_run(Duration cpu_cost) {
  commit::Cluster cluster({.seed = 31, .num_shards = 2, .shard_size = 2,
                           .link_delay = [cpu_cost](ProcessId, ProcessId) {
                             return 1 + cpu_cost;
                           },
                           .enable_monitor = false});
  commit::Client& client = cluster.add_client();
  std::size_t rr = 0;
  auto pick = [&]() {
    ShardId s = static_cast<ShardId>(rr++ % 2);
    return &cluster.replica(s, 1);
  };
  return drive(cluster, client, pick);
}

OpenLoopResult rdma_run(Duration cpu_cost) {
  rdma::Cluster::Options opt;
  opt.seed = 31;
  opt.num_shards = 2;
  opt.shard_size = 2;
  // Two-sided traffic (PREPARE/PREPARE_ACK) pays the CPU cost; one-sided
  // ACCEPT/DECISION writes and their NIC acks do not.
  opt.link_delay = [cpu_cost](ProcessId, ProcessId) { return 1 + cpu_cost; };
  opt.fabric_delay = [](ProcessId, ProcessId) -> Duration { return 1; };
  rdma::Cluster cluster(opt);
  rdma::Client& client = cluster.add_client();
  std::size_t rr = 0;
  auto pick = [&]() {
    ShardId s = static_cast<ShardId>(rr++ % 2);
    return &cluster.replica(s, 1);
  };
  return drive(cluster, client, pick);
}

// --- E9b: the baseline's poisoned-object abort rate -----------------------------

struct CrashRunResult {
  double abort_rate = 0;       ///< among decided transactions
  std::size_t undecided = 0;   ///< blocked forever (classical 2PC)
  std::size_t committed = 0;
};

/// Open-loop run against the 2PC baseline with a coordinator crash (plus
/// leader failover) one third in; with cooperative termination the stranded
/// transactions resolve and their objects unpoison.
CrashRunResult baseline_crash_run(baseline::Termination termination) {
  baseline::BaselineCluster cluster({.seed = 41, .num_shards = 2, .shard_size = 3,
                                     .termination = termination});
  baseline::BaselineClient& client = cluster.add_client();
  store::VersionedStore db;
  Rng rng(99);
  std::map<TxnId, tcs::Payload> payloads;
  std::size_t committed = 0, aborted = 0;
  client.on_decision = [&](TxnId t, tcs::Decision d) {
    if (d == tcs::Decision::kCommit) {
      db.apply(payloads[t]);
      ++committed;
    } else {
      ++aborted;
    }
  };
  // One decision-window strike per shard: past one third of the run, the
  // first arrival coordinated by a not-yet-struck shard gets its
  // coordinator crashed 4 ticks later — prepare-acks are in, the decision
  // is not yet broadcast — and leadership fails over to a survivor.
  std::map<ShardId, bool> struck;
  for (int i = 0; i < kTxns; ++i) {
    cluster.sim().schedule(static_cast<Duration>(i) * kArrivalEvery, [&, i] {
      tcs::Payload p = make_txn(rng, db);
      ProcessId coordinator = cluster.coordinator_for(p);
      if (cluster.sim().crashed(coordinator)) return;  // never submitted
      TxnId t = cluster.next_txn_id();
      payloads[t] = p;
      client.certify(coordinator, t, p);
      ShardId s = cluster.shard_map().shards_of(p).front();
      if (i >= kTxns / 3 && !struck[s]) {
        struck[s] = true;
        cluster.sim().schedule(4, [&cluster, s] { cluster.fail_over(s, 1); });
      }
    });
  }
  cluster.sim().run();

  CrashRunResult r;
  std::size_t decided = committed + aborted;
  r.abort_rate = decided ? static_cast<double>(aborted) / decided : 0;
  r.undecided = payloads.size() - decided;
  r.committed = committed;
  return r;
}

}  // namespace

int main() {
  bench::header("E9", "abort rate vs CPU cost of two-sided messaging (open-loop arrivals)");
  bench::claim(
      "RDMA shortens the prepared-but-undecided window at leaders, lowering\n"
      "abort rates under contention; the gap grows with the CPU cost that\n"
      "two-sided messaging pays and one-sided writes avoid");

  std::printf("%-16s | %13s %10s | %13s %10s\n", "cpu cost", "MP abort", "MP lat",
              "RDMA abort", "RDMA lat");
  for (Duration c : {0u, 1u, 2u, 4u, 8u}) {
    OpenLoopResult mp = mp_run(c);
    OpenLoopResult rd = rdma_run(c);
    std::printf("%-16llu | %12.1f%% %10.1f | %12.1f%% %10.1f\n",
                (unsigned long long)c, 100 * mp.abort_rate, mp.mean_latency,
                100 * rd.abort_rate, rd.mean_latency);
  }
  std::printf("\n(2 objects read-modify-write per txn over %llu objects; one arrival\n"
              " every %llu ticks; latency in ticks)\n",
              (unsigned long long)kObjects, (unsigned long long)kArrivalEvery);

  bench::header("E9b", "2PC poisoning: abort rate after a coordinator crash");
  bench::claim(
      "a crashed 2PC coordinator strands prepared witnesses that abort every\n"
      "conflicting transaction forever; cooperative termination resolves the\n"
      "in-doubt transactions whose peers decided and releases their objects");
  std::printf("%-24s | %10s %10s %10s\n", "baseline variant", "abort", "undecided",
              "committed");
  CrashRunResult classical = baseline_crash_run(baseline::Termination::kClassical);
  CrashRunResult coop = baseline_crash_run(baseline::Termination::kCooperative);
  std::printf("%-24s | %9.1f%% %10zu %10zu\n", "classical 2PC",
              100 * classical.abort_rate, classical.undecided, classical.committed);
  std::printf("%-24s | %9.1f%% %10zu %10zu\n", "cooperative termination",
              100 * coop.abort_rate, coop.undecided, coop.committed);
  std::printf("\n(same open-loop workload; past txn %d each shard's leader is crashed\n"
              " 4 ticks after the first arrival it coordinates — mid decision window —\n"
              " with failover to a survivor; undecided = blocked forever)\n",
              kTxns / 3);
  return 0;
}
