// E4: replication cost — f+1 replicas per shard (this work) vs 2f+1
// (the vanilla scheme and Paxos Commit).
//
// Paper claim (Sec. 1): "if transaction data are written to all replicas of
// the shard, only f+1 replicas are needed for the data to survive
// failures"; using 2f+1 wastes messages and storage.  We measure messages
// and payload bytes shipped per committed transaction as f grows, across
// the paper protocol, the 2PC-over-Paxos baseline, and Paxos Commit (which
// buys non-blocking termination but still pays for 2f+1 vote replication).
//
// Results are persisted to BENCH_replication_cost.json
// (bench/bench_report.h); RATC_BENCH_TXNS trims the transaction count for
// smoke runs.
#include <cstdio>

#include "baseline/cluster.h"
#include "bench/bench_common.h"
#include "bench/bench_report.h"
#include "commit/cluster.h"

using namespace ratc;
using bench::payload_on;

namespace {

std::size_t txns() { return bench::bench_txns(300); }

struct Cost {
  double msgs_per_txn = 0;
  double bytes_per_txn = 0;
  std::size_t replicas = 0;
};

Cost measure_ours(std::size_t f) {
  commit::Cluster cluster({.seed = 1, .num_shards = 2,
                           .shard_size = f + 1, .enable_monitor = false});
  commit::Client& client = cluster.add_client();
  const std::size_t n = txns();
  for (std::size_t i = 0; i < n; ++i) {
    client.certify_colocated(
        cluster.replica(0, 0), cluster.next_txn_id(),
        payload_on({static_cast<ObjectId>(2 * i), static_cast<ObjectId>(2 * i + 1)},
                   {static_cast<ObjectId>(2 * i)}));
  }
  cluster.sim().run();
  Cost c;
  c.replicas = 2 * (f + 1);
  c.msgs_per_txn = static_cast<double>(cluster.net().total_messages()) / n;
  c.bytes_per_txn = static_cast<double>(cluster.net().total_bytes()) / n;
  return c;
}

/// The 2f+1 rungs: the 2PC-over-Paxos baseline and, under the Paxos Commit
/// termination policy, Paxos Commit.
Cost measure_baseline(std::size_t f, std::uint64_t seed,
                      baseline::Termination termination) {
  baseline::BaselineCluster cluster({.seed = seed, .num_shards = 2,
                                     .shard_size = 2 * f + 1,
                                     .termination = termination});
  baseline::BaselineClient& client = cluster.add_client();
  const std::size_t n = txns();
  for (std::size_t i = 0; i < n; ++i) {
    tcs::Payload p =
        payload_on({static_cast<ObjectId>(2 * i), static_cast<ObjectId>(2 * i + 1)},
                   {static_cast<ObjectId>(2 * i)});
    client.certify(cluster.coordinator_for(p), cluster.next_txn_id(), p);
  }
  cluster.sim().run();
  Cost c;
  c.replicas = 2 * (2 * f + 1);
  c.msgs_per_txn = static_cast<double>(cluster.net().total_messages()) / n;
  c.bytes_per_txn = static_cast<double>(cluster.net().total_bytes()) / n;
  return c;
}

void add_row(bench::BenchReport& report, std::size_t f, const char* stack,
             const Cost& c) {
  report.add_row()
      .set("f", static_cast<std::uint64_t>(f))
      .set("stack", stack)
      .set("replicas", static_cast<std::uint64_t>(c.replicas))
      .set("msgs_per_txn", c.msgs_per_txn)
      .set("bytes_per_txn", c.bytes_per_txn);
}

}  // namespace

int main() {
  bench::BenchReport report("replication_cost");
  bench::header("E4", "replication cost per committed transaction, f+1 vs 2f+1");
  bench::claim(
      "storing data at f+1 replicas + reconfiguration beats 2f+1 Paxos\n"
      "replication in replicas provisioned, messages and bytes shipped —\n"
      "Paxos Commit removes 2PC blocking but keeps the 2f+1 bill");

  std::printf("%3s | %28s | %28s | %28s\n", "", "this work (f+1 per shard)",
              "baseline (2f+1 per shard)", "paxos commit (2f+1)");
  std::printf("%3s | %8s %9s %9s | %8s %9s %9s | %8s %9s %9s\n", "f",
              "replicas", "msgs/txn", "bytes/txn", "replicas", "msgs/txn",
              "bytes/txn", "replicas", "msgs/txn", "bytes/txn");
  for (std::size_t f = 0; f <= 3; ++f) {
    Cost ours = measure_ours(f);
    // The baseline needs at least 1 replica; f=0 means a single unreplicated
    // process there too (degenerate but comparable).
    Cost base = measure_baseline(f, 2, baseline::Termination::kClassical);
    Cost paxc = measure_baseline(f, 3, baseline::Termination::kPaxosCommit);
    std::printf("%3zu | %8zu %9.1f %9.0f | %8zu %9.1f %9.0f | %8zu %9.1f %9.0f\n",
                f, ours.replicas, ours.msgs_per_txn, ours.bytes_per_txn,
                base.replicas, base.msgs_per_txn, base.bytes_per_txn,
                paxc.replicas, paxc.msgs_per_txn, paxc.bytes_per_txn);
    add_row(report, f, "commit", ours);
    add_row(report, f, "baseline", base);
    add_row(report, f, "paxos-commit", paxc);
  }
  std::printf("\n(two shards; every transaction spans both; 2-object payloads)\n");
  report.write();
  return 0;
}
