// The autonomous reconfiguration controller (src/ctrl/): staged scenarios.
//
// Each test builds a cluster with enable_controller and breaks it WITHOUT
// the omniscient harness levers — no crash_and_reconfigure, no
// reconfigure(s, by) — so any recovery observed is the control plane's own:
// FD suspicion -> PlacementPolicy -> CS CAS -> epoch handover.
#include <gtest/gtest.h>

#include "commit/cluster.h"
#include "harness/nemesis.h"
#include "rdma/cluster.h"

namespace ratc::ctrl {
namespace {

using commit::Cluster;

tcs::Payload payload_on(std::initializer_list<ObjectId> reads,
                        std::initializer_list<ObjectId> writes) {
  tcs::Payload p;
  for (ObjectId o : reads) p.reads.push_back({o, 0});
  for (ObjectId o : writes) p.writes.push_back({o, 1});
  p.commit_version = 1;
  return p;
}

TEST(ReconController, HealsCrashedFollowerAutonomously) {
  Cluster cluster({.seed = 11,
                   .num_shards = 2,
                   .shard_size = 2,
                   .spares_per_shard = 2,
                   .retry_timeout = 60,
                   .enable_controller = true});
  commit::Client& client = cluster.add_client();
  TxnId warm = cluster.next_txn_id();
  client.certify_colocated(cluster.replica(0, 0), warm, payload_on({0, 9}, {0}));
  ASSERT_TRUE(cluster.sim().run_until_pred([&] { return client.decided(warm); },
                                           1'000'000));

  ProcessId victim = cluster.replica(0, 1).id();  // follower of shard 0
  cluster.crash(victim);
  ASSERT_TRUE(cluster.await_active_epoch(0, 2));

  configsvc::ShardConfig cfg = cluster.current_config(0);
  EXPECT_FALSE(cfg.has_member(victim));
  EXPECT_EQ(cfg.members.size(), 2u);
  const ReconController::Stats& s = cluster.controller(0).stats();
  EXPECT_GE(s.suspicions, 1u);
  EXPECT_EQ(s.epochs_initiated, 1u);
  // The sibling shard's controller had no grievance and did nothing.
  EXPECT_EQ(cluster.controller(1).stats().attempts, 0u);

  TxnId post = cluster.next_txn_id();
  client.certify_colocated(cluster.replica_by_pid(cfg.leader), post,
                          payload_on({1, 10}, {1}));
  EXPECT_TRUE(cluster.sim().run_until_pred([&] { return client.decided(post); },
                                           1'000'000));
  EXPECT_EQ(cluster.verify(), "");
}

TEST(ReconController, HealsCrashedLeaderAndStrandedTransactionsRecover) {
  Cluster cluster({.seed = 12,
                   .num_shards = 2,
                   .shard_size = 2,
                   .spares_per_shard = 2,
                   .retry_timeout = 60,
                   .enable_controller = true});
  commit::Client& client = cluster.add_client();

  // A cross-shard transaction coordinated from shard 1; shard 0's leader
  // dies with the PREPARE in flight.  Shard 1 holds a prepared witness, so
  // after the controller heals shard 0, the retry path (line 70) re-drives
  // the transaction through the new epoch and it decides.
  ProcessId doomed = cluster.leader_of(0);
  TxnId stranded = cluster.next_txn_id();
  client.certify_colocated(cluster.replica(1, 0), stranded, payload_on({0, 1}, {1}));
  cluster.crash(doomed);

  ASSERT_TRUE(cluster.await_active_epoch(0, 2));
  configsvc::ShardConfig cfg = cluster.current_config(0);
  EXPECT_FALSE(cfg.has_member(doomed));
  EXPECT_NE(cfg.leader, doomed);

  EXPECT_TRUE(cluster.sim().run_until_pred([&] { return client.decided(stranded); },
                                           4'000'000));
  EXPECT_EQ(cluster.verify(), "");
}

TEST(ReconController, HealsRepeatedCrashesAcrossEpochs) {
  Cluster cluster({.seed = 13,
                   .num_shards = 1,
                   .shard_size = 2,
                   .spares_per_shard = 4,
                   .retry_timeout = 60,
                   .enable_controller = true});
  for (Epoch target = 2; target <= 4; ++target) {
    configsvc::ShardConfig cfg = cluster.current_config(0);
    // Crash the current leader each round; a fresh spare must backfill.
    cluster.crash(cfg.leader);
    ASSERT_TRUE(cluster.await_active_epoch(0, target)) << "epoch " << target;
  }
  EXPECT_EQ(cluster.controller(0).stats().epochs_initiated, 3u);
  EXPECT_EQ(cluster.verify(), "");
}

TEST(ReconController, RacesReplicaDrivenReconfigurationSafely) {
  // The controller and a replica-driven reconfigurer (the pre-existing
  // path) race for the same epoch through the CS CAS; exactly one wins and
  // every invariant holds.
  Cluster cluster({.seed = 14,
                   .num_shards = 1,
                   .shard_size = 2,
                   .spares_per_shard = 2,
                   .retry_timeout = 60,
                   .enable_controller = true});
  ProcessId victim = cluster.replica(0, 1).id();
  ProcessId survivor = cluster.replica(0, 0).id();
  cluster.crash(victim);
  // Let the controller's suspicion form (its attempt starts), THEN fire the
  // replica-driven reconfiguration so the two reconfigurers genuinely
  // overlap.  The CS CAS admits exactly one epoch-2 winner.
  ASSERT_TRUE(cluster.sim().run_until_pred(
      [&] { return cluster.controller(0).suspects(victim); }, 1'000'000));
  cluster.reconfigure(0, survivor);
  ASSERT_TRUE(cluster.await_active_epoch(0, 2));
  cluster.sim().run_until(cluster.sim().now() + 500);
  configsvc::ShardConfig cfg = cluster.current_config(0);
  EXPECT_EQ(cfg.epoch, 2u);  // one winner; the loser backed off cleanly
  EXPECT_FALSE(cfg.has_member(victim));
  EXPECT_EQ(cluster.verify(), "");
}

TEST(ReconController, FalseSuspicionCostsBoundedEpochsAndNoSafety) {
  // A one-way-partitioned follower is alive but silent towards the
  // controller: the controller may legitimately replace it (it cannot tell
  // the difference), but hysteresis must keep the epoch churn bounded and
  // every safety check must hold throughout.
  Cluster cluster({.seed = 15,
                   .num_shards = 2,
                   .shard_size = 2,
                   .spares_per_shard = 2,
                   .retry_timeout = 60,
                   .enable_controller = true});
  harness::Nemesis nemesis(cluster.sim(), 99);
  cluster.net().set_fault_injector(&nemesis);

  ProcessId muted = cluster.replica(0, 1).id();
  nemesis.isolate_one_way({muted}, 400, /*inbound_blocked=*/true);
  cluster.sim().run_until(cluster.sim().now() + 1500);

  const ReconController::Stats& s = cluster.controller(0).stats();
  EXPECT_GE(s.suspicions, 1u);
  EXPECT_LE(s.attempts, 3u) << "hysteresis failed to bound the churn";
  std::size_t attempts_after_heal = s.attempts;
  cluster.sim().run_until(cluster.sim().now() + 2000);
  // Once the suspect is replaced (or the partition healed), no further
  // controller activity: the churn does not continue unboundedly.
  EXPECT_EQ(cluster.controller(0).stats().attempts, attempts_after_heal);
  EXPECT_EQ(cluster.controller(1).stats().attempts, 0u);
  EXPECT_EQ(cluster.verify(), "");
}

TEST(ReconController, UnresolvedAttemptRetriesUntilAnEpochLands) {
  // The nasty interleaving: probes freeze the probed replicas (they stop
  // certifying until a NEW_CONFIG/NEW_STATE arrives), every ProbeAck is
  // lost, and then the suspicion is retracted.  Without the
  // pending-attempt tracking the controller would see no grievance and
  // never retry — leaving the shard frozen forever.  Staged with a lossy
  // mute-but-not-deaf partition of the whole shard: members hear the
  // probes (and freeze) but their acks and pongs are dropped; after the
  // window heals, pongs retract the suspicion.
  Cluster cluster({.seed = 17,
                   .num_shards = 1,
                   .shard_size = 2,
                   .spares_per_shard = 2,
                   .retry_timeout = 60,
                   .enable_controller = true});
  harness::Nemesis nemesis(cluster.sim(), 5);
  cluster.net().set_fault_injector(&nemesis);
  nemesis.isolate_one_way(cluster.initial_members(0), 250,
                          /*inbound_blocked=*/false, /*lossy=*/true);
  ASSERT_TRUE(cluster.await_active_epoch(0, 2, 4'000'000))
      << "frozen shard never re-driven to a new epoch";
  EXPECT_EQ(cluster.verify(), "");
}

TEST(ReconController, CustomPlacementPolicyIsConsulted) {
  // The PlacementPolicy extension point (recon/placement.h): a custom policy
  // that shrinks the shard to a singleton — the controller must install
  // exactly what the policy proposed.
  class SingletonPolicy final : public recon::PlacementPolicy {
   public:
    const char* name() const override { return "singleton"; }
    configsvc::ShardConfig plan(
        const recon::PlacementInput& in,
        const std::function<std::vector<ProcessId>(std::size_t)>&) override {
      ++invocations;
      configsvc::ShardConfig next;
      next.epoch = in.next_epoch;
      next.leader = in.leader_candidate;
      next.members = {in.leader_candidate};
      return next;
    }
    int invocations = 0;
  };
  SingletonPolicy policy;
  Cluster::Options opts{.seed = 16,
                        .num_shards = 1,
                        .shard_size = 2,
                        .spares_per_shard = 2,
                        .retry_timeout = 60,
                        .enable_controller = true};
  opts.controller_tuning.policy = &policy;
  Cluster cluster(opts);
  ProcessId victim = cluster.replica(0, 1).id();
  ProcessId survivor = cluster.replica(0, 0).id();
  cluster.crash(victim);
  ASSERT_TRUE(cluster.await_active_epoch(0, 2));
  EXPECT_GE(policy.invocations, 1);
  configsvc::ShardConfig cfg = cluster.current_config(0);
  EXPECT_EQ(cfg.members, std::vector<ProcessId>{survivor});
  EXPECT_EQ(cfg.leader, survivor);
  EXPECT_EQ(cluster.verify(), "");
}

TEST(ReconControllerRdma, NudgeHealsCrashedMemberGlobally) {
  rdma::Cluster cluster({.seed = 21,
                         .num_shards = 2,
                         .shard_size = 2,
                         .spares_per_shard = 2,
                         .retry_timeout = 100,
                         .enable_controller = true});
  rdma::Client& client = cluster.add_client();
  TxnId warm = cluster.next_txn_id();
  client.certify_colocated(cluster.replica(0, 0), warm, payload_on({0, 9}, {0}));
  ASSERT_TRUE(cluster.sim().run_until_pred([&] { return client.decided(warm); },
                                           1'000'000));

  ProcessId victim = cluster.replica(1, 1).id();
  cluster.crash(victim);
  // The shard-1 controller suspects the member, nudges a live replica, and
  // the replica-run global reconfiguration (Fig. 8) installs epoch 2.
  ASSERT_TRUE(cluster.await_active_epoch(2));
  configsvc::ShardConfig cfg = cluster.current_config(1);
  EXPECT_FALSE(cfg.has_member(victim));
  EXPECT_GE(cluster.controller(1).stats().nudges, 1u);

  TxnId post = cluster.next_txn_id();
  client.certify_colocated(cluster.replica_by_pid(cluster.current_config(0).leader),
                          post, payload_on({2, 8}, {2}));
  EXPECT_TRUE(cluster.sim().run_until_pred([&] { return client.decided(post); },
                                           1'000'000));
  EXPECT_EQ(cluster.verify(), "");
}

TEST(ReconControllerRdma, FalseSuspicionBoundedUnderOneWayPartition) {
  rdma::Cluster cluster({.seed = 22,
                         .num_shards = 2,
                         .shard_size = 2,
                         .spares_per_shard = 2,
                         .retry_timeout = 100,
                         .enable_controller = true});
  harness::Nemesis nemesis(cluster.sim(), 77);
  cluster.net().set_fault_injector(&nemesis);
  ProcessId muted = cluster.replica(0, 1).id();
  nemesis.isolate_one_way({muted}, 400, /*inbound_blocked=*/false);
  cluster.sim().run_until(cluster.sim().now() + 1500);
  EXPECT_LE(cluster.controller(0).stats().attempts, 3u);
  cluster.sim().run_until(cluster.sim().now() + 2000);
  EXPECT_LE(cluster.controller(0).stats().attempts, 3u);
  EXPECT_EQ(cluster.verify(), "");
}

}  // namespace
}  // namespace ratc::ctrl
