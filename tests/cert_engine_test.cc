// commit::CertEngine driven directly, without a replica around it: the
// negative test that the flat-scan cross-check (check_certifier_index) still
// fires.  The engine is the leader of both the message-passing and the RDMA
// stack, so this one test covers both.
#include <gtest/gtest.h>

#include "commit/cert_engine.h"
#include "common/log.h"
#include "sim/network.h"
#include "sim/simulator.h"

namespace ratc::commit {
namespace {

using tcs::Decision;

/// Not object-local: every prepared payload conflicts with every other,
/// whatever objects they touch.  The witness index consults only payloads
/// that share an object with the voter, so it misses these conflicts; the
/// flat L1/L2 scan sees them.
class ConflictAllCertifier final : public tcs::Certifier {
 public:
  Decision against_committed(const tcs::Payload&, const tcs::Payload&) const override {
    return Decision::kCommit;
  }
  Decision against_prepared(const tcs::Payload&, const tcs::Payload&) const override {
    return Decision::kAbort;
  }
  const char* name() const override { return "conflict-all"; }
};

/// A one-member shard: no followers, so nothing is ever shipped.
class NoFollowers final : public ReplicationHooks {
 public:
  Epoch epoch_of(ShardId) const override { return 1; }
  ProcessId leader_of(ShardId) const override { return 0; }
  std::vector<ProcessId> followers_of(ShardId) const override { return {}; }
  void replicate(ProcessId, const Accept&) override {}
  void replicate_batch(ProcessId, std::vector<Accept>) override {}
  void ship_decision(const DecisionMsg&) override {}
  void on_vote_computed(ShardId, Epoch, Slot, TxnId, Decision, const tcs::Payload&,
                        std::vector<TxnId>, std::vector<TxnId>) override {}
  void on_local_decision(TxnId, Decision) override {}
};

Prepare read_write(TxnId txn, ObjectId object) {
  Prepare p;
  p.txn = txn;
  p.payload.reads.push_back({object, 0});
  p.payload.writes.push_back({object, 1});
  p.payload.commit_version = 1;
  p.meta.txn = txn;
  p.meta.participants = {0};
  return p;
}

/// Prepares two transactions on disjoint objects and returns the second's
/// vote.
Decision second_vote(bool check_certifier_index) {
  sim::Simulator sim(1);
  sim::Network net(sim);
  tcs::ShardMap shard_map(1);
  ConflictAllCertifier certifier;
  NoFollowers hooks;
  CertEngine engine(net.runtime(), 0, "leader", hooks,
                    {.shard = 0,
                     .shard_map = &shard_map,
                     .certifier = &certifier,
                     .check_certifier_index = check_certifier_index});
  EXPECT_EQ(engine.prepare_txn(read_write(1, 10)).vote, Decision::kCommit);
  return engine.prepare_txn(read_write(2, 20)).vote;
}

TEST(CertEngineDeathTest, FlatScanCrossCheckAbortsOnIndexDivergence) {
  // Unchecked, the index's vote stands: it never consulted the prepared
  // payload on object 10, which the flat scan's vote would abort on.
  EXPECT_EQ(second_vote(false), Decision::kCommit);
  EXPECT_DEATH(
      {
        set_log_level(LogLevel::kError);
        second_vote(true);
      },
      "witness index vote diverged at slot 2: indexed=commit flat=abort");
}

}  // namespace
}  // namespace ratc::commit
