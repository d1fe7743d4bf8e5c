// Termination policies of the baseline 2PC stack: the decision-inference
// rules enumerated state-by-state for the cooperative and Paxos Commit
// policies (baseline/termination.h is pure, so every answer map is checked
// exhaustively and the two tables are diffed row by row), plus staged
// cooperative-termination protocol
// scenarios on a live cluster — a decision stranded in the coordinator's
// shard log, a stranded participant whose decision message was lost, the
// never-prepared abort rule, and the irreducible all-prepared window.
#include <gtest/gtest.h>

#include "baseline/cluster.h"
#include "baseline/termination.h"
#include "harness/nemesis.h"

namespace ratc::baseline {
namespace {

using tcs::Decision;
using tcs::Payload;

// --- inference rules, enumerated -----------------------------------------------

using Answers = std::map<ShardId, PeerTxnState>;
constexpr Termination kCoop = Termination::kCooperative;
constexpr Termination kPc = Termination::kPaxosCommit;

TEST(TerminationInference, AnyCommittedAnswerResolvesCommit) {
  // Rule 1: a surviving COMMIT decision is adopted, whatever else peers say
  // (a conflicting ABORT cannot coexist — that would be the 2PC safety
  // violation the checkers hunt).
  EXPECT_EQ(infer_termination({{0, PeerTxnState::kCommitted}}, 3, kCoop),
            TerminationOutcome::kCommit);
  EXPECT_EQ(infer_termination({{0, PeerTxnState::kPrepared},
                               {1, PeerTxnState::kCommitted}}, 3, kCoop),
            TerminationOutcome::kCommit);
  EXPECT_EQ(infer_termination({{0, PeerTxnState::kPrepared},
                               {1, PeerTxnState::kCommitted},
                               {2, PeerTxnState::kPrepared}}, 3, kCoop),
            TerminationOutcome::kCommit);
}

TEST(TerminationInference, AnyAbortedOrNeverPreparedAnswerResolvesAbort) {
  // Rule 2: an applied ABORT, a NO vote (answered as kAborted), or a
  // never-prepared peer (which tombstoned the txn before answering) all
  // foreclose commit.
  EXPECT_EQ(infer_termination({{1, PeerTxnState::kAborted}}, 3, kCoop),
            TerminationOutcome::kAbort);
  EXPECT_EQ(infer_termination({{1, PeerTxnState::kNeverPrepared}}, 3, kCoop),
            TerminationOutcome::kAbort);
  EXPECT_EQ(infer_termination({{0, PeerTxnState::kPrepared},
                               {1, PeerTxnState::kPrepared},
                               {2, PeerTxnState::kNeverPrepared}}, 3, kCoop),
            TerminationOutcome::kAbort);
}

TEST(TerminationInference, AllPreparedAndCoordinatorDeadRemainsBlocked) {
  // Rule 3: every participant in doubt (prepared, voted YES, no decision)
  // is exactly the window classical 2PC cannot escape.
  EXPECT_EQ(infer_termination({{0, PeerTxnState::kPrepared},
                               {1, PeerTxnState::kPrepared},
                               {2, PeerTxnState::kPrepared}}, 3, kCoop),
            TerminationOutcome::kBlocked);
  // Degenerate single-participant case: the lone shard is in doubt.
  EXPECT_EQ(infer_termination({{0, PeerTxnState::kPrepared}}, 1, kCoop),
            TerminationOutcome::kBlocked);
}

TEST(TerminationInference, OutstandingAnswersStayUnknown) {
  EXPECT_EQ(infer_termination({}, 3, kCoop), TerminationOutcome::kUnknown);
  EXPECT_EQ(infer_termination({{0, PeerTxnState::kPrepared}}, 3, kCoop),
            TerminationOutcome::kUnknown);
  EXPECT_EQ(infer_termination({{0, PeerTxnState::kPrepared},
                               {2, PeerTxnState::kPrepared}}, 3, kCoop),
            TerminationOutcome::kUnknown);
}

TEST(TerminationInference, ExhaustiveThreeParticipantEnumeration) {
  // Every complete three-answer combination, checked against the rule
  // priority: commit > abort > blocked.
  const PeerTxnState kStates[] = {
      PeerTxnState::kNeverPrepared, PeerTxnState::kPrepared,
      PeerTxnState::kCommitted, PeerTxnState::kAborted};
  for (PeerTxnState a : kStates) {
    for (PeerTxnState b : kStates) {
      for (PeerTxnState c : kStates) {
        Answers answers{{0, a}, {1, b}, {2, c}};
        TerminationOutcome expected = TerminationOutcome::kBlocked;
        bool committed = false, foreclosed = false;
        for (PeerTxnState s : {a, b, c}) {
          committed |= s == PeerTxnState::kCommitted;
          foreclosed |= s == PeerTxnState::kAborted ||
                        s == PeerTxnState::kNeverPrepared;
        }
        if (committed) {
          expected = TerminationOutcome::kCommit;
        } else if (foreclosed) {
          expected = TerminationOutcome::kAbort;
        }
        EXPECT_EQ(infer_termination(answers, 3, kCoop), expected)
            << to_string(a) << "/" << to_string(b) << "/" << to_string(c);
      }
    }
  }
}

TEST(TerminationInference, PaxosCommitVoteCases) {
  // The Paxos Commit table in its own vocabulary: a chosen PREPARED vote is
  // kPrepared, a chosen ABORT vote (NO or forced closed) or an applied abort
  // is kAborted, an applied commit is kCommitted.  All participants chose
  // PREPARED: the outcome is the deterministic meet of exactly these values
  // — COMMIT, even though no decision record exists anywhere (the
  // non-blocking rule 2PC lacks).
  EXPECT_EQ(infer_termination({{0, PeerTxnState::kPrepared},
                               {1, PeerTxnState::kPrepared}},
                              2, kPc),
            TerminationOutcome::kCommit);
  // Any chosen ABORT vote aborts immediately.
  EXPECT_EQ(infer_termination({{0, PeerTxnState::kPrepared},
                               {1, PeerTxnState::kAborted}},
                              2, kPc),
            TerminationOutcome::kAbort);
  EXPECT_EQ(infer_termination({{1, PeerTxnState::kAborted}}, 2, kPc),
            TerminationOutcome::kAbort);
  // A peer that already applied a decision short-circuits the inference.
  EXPECT_EQ(infer_termination({{0, PeerTxnState::kCommitted}}, 2, kPc),
            TerminationOutcome::kCommit);
  EXPECT_EQ(infer_termination({{0, PeerTxnState::kAborted}}, 2, kPc),
            TerminationOutcome::kAbort);
  // Missing answers keep the round open (never guess from a subset).
  EXPECT_EQ(infer_termination({{0, PeerTxnState::kPrepared}}, 2, kPc),
            TerminationOutcome::kUnknown);
  EXPECT_EQ(infer_termination({}, 2, kPc), TerminationOutcome::kUnknown);
  EXPECT_EQ(infer_termination({}, 0, kPc), TerminationOutcome::kUnknown);
}

TEST(TerminationInference, PoliciesDifferOnlyOnAllPrepared) {
  // Every answer map for up to three participants — each shard absent or in
  // one of the four states — under both recovery policies: the tables agree
  // on every row except the complete all-prepared one, where cooperative
  // termination stays blocked and Paxos Commit commits.
  const PeerTxnState kStates[] = {
      PeerTxnState::kNeverPrepared, PeerTxnState::kPrepared,
      PeerTxnState::kCommitted, PeerTxnState::kAborted};
  std::size_t rows = 0, differing = 0;
  for (std::size_t n = 1; n <= 3; ++n) {
    std::size_t combos = 1;
    for (std::size_t i = 0; i < n; ++i) combos *= 5;  // absent + four states
    for (std::size_t code = 0; code < combos; ++code) {
      Answers answers;
      std::string row;
      for (std::size_t shard = 0, c = code; shard < n; ++shard, c /= 5) {
        if (c % 5 == 4) {
          row += "-/";
          continue;
        }
        answers[static_cast<ShardId>(shard)] = kStates[c % 5];
        row += std::string(to_string(kStates[c % 5])) + "/";
      }
      bool all_prepared = answers.size() == n;
      for (const auto& [shard, state] : answers) {
        all_prepared &= state == PeerTxnState::kPrepared;
      }
      TerminationOutcome coop = infer_termination(answers, n, kCoop);
      TerminationOutcome pc = infer_termination(answers, n, kPc);
      ++rows;
      if (all_prepared) {
        ++differing;
        EXPECT_EQ(coop, TerminationOutcome::kBlocked) << row;
        EXPECT_EQ(pc, TerminationOutcome::kCommit) << row;
      } else {
        EXPECT_EQ(coop, pc) << row << " coop=" << to_string(coop)
                            << " paxos-commit=" << to_string(pc);
      }
    }
  }
  EXPECT_EQ(rows, 5u + 25u + 125u);
  EXPECT_EQ(differing, 3u);  // one all-prepared row per participant count
}

// --- staged protocol scenarios ---------------------------------------------------

Payload make_payload(std::vector<ObjectId> reads, std::vector<ObjectId> writes,
                     Version read_version, Version commit_version) {
  Payload p;
  for (ObjectId o : reads) p.reads.push_back({o, read_version});
  for (ObjectId o : writes) p.writes.push_back({o, static_cast<Value>(o)});
  p.commit_version = commit_version;
  return p;
}

BaselineCluster::Options coop_options(std::uint64_t seed, bool coop) {
  return {.seed = seed,
          .num_shards = 2,
          .shard_size = 3,
          .termination = coop ? kCoop : Termination::kClassical};
}

TEST(TerminationProtocol, RecoversDecisionStrandedInCoordinatorShardLog) {
  // Crash the coordinator one tick after the last participant prepared: the
  // decision command is in flight inside the coordinator's own Paxos group
  // and survives via election re-proposal, but the crashed coordinator
  // never propagates it.  Cooperative termination adopts the surviving
  // COMMIT; classical 2PC strands the peer shard and the client forever.
  for (bool coop : {false, true}) {
    BaselineCluster cluster(coop_options(1, coop));
    BaselineClient& client = cluster.add_client();
    TxnId t = cluster.next_txn_id();
    Payload p = make_payload({0, 1}, {0, 1}, 0, 1);
    ProcessId coordinator = cluster.coordinator_for(p);
    client.certify(coordinator, t, p);
    ASSERT_TRUE(cluster.sim().run_until_pred(
        [&] { return cluster.server(1, 0).has_prepared(t); }));
    cluster.sim().run_until(cluster.sim().now() + 1);
    cluster.crash_server(coordinator);
    cluster.elect_leader(0, cluster.shard_servers(0)[1]);
    cluster.sim().run();

    // The decision survived inside shard 0 either way (guard assertion: the
    // staging hit the intended window).
    ASSERT_TRUE(cluster.server(0, 1).has_decided(t));
    EXPECT_EQ(cluster.verify(), "");
    TerminationStats stats = cluster.termination_stats();
    if (coop) {
      EXPECT_EQ(client.decision(t), Decision::kCommit);
      EXPECT_TRUE(cluster.server(1, 0).has_decided(t));
      EXPECT_EQ(cluster.server(1, 0).decision_of(t), Decision::kCommit);
      // Recovered either by the successor leader adopting the orphaned
      // coordination outright, or by a peer's termination query — whichever
      // the failure detector's timing reached first.
      EXPECT_GE(stats.resolved_commits + stats.adopted_coordinations, 1u);
      EXPECT_EQ(stats.resolved_aborts, 0u);
    } else {
      EXPECT_FALSE(client.decided(t));  // classical 2PC blocks
      EXPECT_FALSE(cluster.server(1, 0).has_decided(t));
      EXPECT_EQ(stats.resolved(), 0u);
    }
  }
}

TEST(TerminationProtocol, StrandedParticipantResolvesViaInDoubtTimeout) {
  // The coordinator survives, but its decision message to the peer shard is
  // eaten by a lossy one-way partition and the baseline never retransmits.
  // The stranded participant's in-doubt timer queries the peers and adopts
  // the committed outcome; without termination the prepared witness poisons
  // the object forever.
  for (bool coop : {false, true}) {
    BaselineCluster cluster(coop_options(2, coop));
    BaselineClient& client = cluster.add_client();
    harness::Nemesis nemesis(cluster.sim(), 7);
    cluster.net().set_fault_injector(&nemesis);
    TxnId t = cluster.next_txn_id();
    Payload p = make_payload({0, 1}, {0, 1}, 0, 1);
    client.certify(cluster.coordinator_for(p), t, p);
    ASSERT_TRUE(cluster.sim().run_until_pred(
        [&] { return cluster.server(1, 0).has_prepared(t); }));
    nemesis.isolate_one_way(
        {cluster.leader_server(1), cluster.paxos_twin(cluster.leader_server(1))},
        40, /*inbound_blocked=*/true, /*lossy=*/true);
    cluster.sim().run();
    // Let the partition window expire before probing with T2.
    cluster.sim().run_until(cluster.sim().now() + 60);

    // The coordinator decided and told the client in both modes (guard).
    ASSERT_EQ(client.decision(t), Decision::kCommit);
    EXPECT_EQ(cluster.server(1, 0).has_decided(t), coop);

    // T2 conflicts with T1's write on shard 1.  Classical: T1's prepared
    // witness is still live there — poisoned, T2 aborts.  Coop: the shard
    // adopted the commit, so T2 reads the new version and commits.
    TxnId t2 = cluster.next_txn_id();
    Payload p2 = make_payload({1}, {1}, coop ? 1 : 0, 2);
    client.certify(cluster.coordinator_for(p2), t2, p2);
    cluster.sim().run();
    ASSERT_TRUE(client.decided(t2));
    EXPECT_EQ(client.decision(t2), coop ? Decision::kCommit : Decision::kAbort);
    EXPECT_EQ(cluster.verify(), "");
  }
}

TEST(TerminationProtocol, NeverPreparedPeerForeclosesAbortAndReleasesObjects) {
  // The prepare for shard 1 dies in a lossy partition, then the coordinator
  // crashes: shard 0 holds an in-doubt prepared record, shard 1 has never
  // heard of the transaction.  The termination query makes shard 1 durably
  // tombstone it (kNeverPrepared), the querier resolves ABORT, and the
  // poisoned object on shard 0 is released for later transactions.
  for (bool coop : {false, true}) {
    BaselineCluster cluster(coop_options(3, coop));
    BaselineClient& client = cluster.add_client();
    harness::Nemesis nemesis(cluster.sim(), 9);
    cluster.net().set_fault_injector(&nemesis);
    TxnId t = cluster.next_txn_id();
    Payload p = make_payload({0, 1}, {0, 1}, 0, 1);
    ProcessId coordinator = cluster.coordinator_for(p);
    nemesis.isolate(
        {cluster.leader_server(1), cluster.paxos_twin(cluster.leader_server(1))},
        30, /*lossy=*/true);
    client.certify(coordinator, t, p);
    ASSERT_TRUE(cluster.sim().run_until_pred(
        [&] { return cluster.server(0, 1).has_prepared(t); }));
    cluster.sim().run_until(cluster.sim().now() + 1);
    cluster.crash_server(coordinator);
    cluster.elect_leader(0, cluster.shard_servers(0)[1]);
    cluster.sim().run();

    ASSERT_FALSE(cluster.server(1, 0).has_prepared(t));  // guard: prepare lost
    TerminationStats stats = cluster.termination_stats();
    if (coop) {
      EXPECT_EQ(client.decision(t), Decision::kAbort);
      EXPECT_TRUE(cluster.server(1, 0).has_decided(t));  // tombstoned
      EXPECT_GE(stats.tombstones, 1u);
      EXPECT_GE(stats.resolved_aborts, 1u);
      EXPECT_EQ(stats.resolved_commits, 0u);
    } else {
      EXPECT_FALSE(client.decided(t));
      EXPECT_EQ(stats.resolved(), 0u);
    }

    // T2 touches T1's object on shard 0: poisoned iff T1 stays prepared.
    TxnId t2 = cluster.next_txn_id();
    Payload p2 = make_payload({0}, {0}, 0, 2);
    client.certify(cluster.coordinator_for(p2), t2, p2);
    cluster.sim().run();
    ASSERT_TRUE(client.decided(t2));
    EXPECT_EQ(client.decision(t2), coop ? Decision::kCommit : Decision::kAbort);
    EXPECT_EQ(cluster.verify(), "");
  }
}

TEST(TerminationProtocol, AllPreparedWindowRemainsBlockedButSafe) {
  // Crash the coordinator at the exact beat the last participant prepared:
  // every vote was YES, no decision exists anywhere, and only the dead
  // coordinator could have known the outcome.  Cooperative termination must
  // NOT invent a decision — the transaction stays blocked (the irreducible
  // 2PC window) and the give-up counter records it.
  BaselineCluster cluster(coop_options(4, /*coop=*/true));
  BaselineClient& client = cluster.add_client();
  TxnId t = cluster.next_txn_id();
  Payload p = make_payload({0, 1}, {0, 1}, 0, 1);
  ProcessId coordinator = cluster.coordinator_for(p);
  client.certify(coordinator, t, p);
  ASSERT_TRUE(cluster.sim().run_until_pred(
      [&] { return cluster.server(1, 0).has_prepared(t); }));
  cluster.crash_server(coordinator);
  cluster.elect_leader(0, cluster.shard_servers(0)[1]);
  cluster.sim().run();  // termination rounds run and give up; queue drains

  EXPECT_FALSE(client.decided(t));
  EXPECT_FALSE(cluster.server(1, 0).has_decided(t));
  TerminationStats stats = cluster.termination_stats();
  EXPECT_GE(stats.queries_sent, 1u);
  EXPECT_GE(stats.blocked, 1u);
  EXPECT_EQ(stats.resolved(), 0u);
  EXPECT_EQ(cluster.verify(), "");
}

TEST(TerminationProtocol, ToggleOffKeepsStatsZeroAndFailureFreeRunsIdentical) {
  // Failure-free runs decide every transaction identically with and without
  // the toggle, and the classical cluster reports all-zero metrics.
  for (bool coop : {false, true}) {
    BaselineCluster cluster(coop_options(5, coop));
    BaselineClient& client = cluster.add_client();
    std::vector<TxnId> txns;
    for (int i = 0; i < 20; ++i) {
      TxnId t = cluster.next_txn_id();
      txns.push_back(t);
      ObjectId a = static_cast<ObjectId>(2 * i);
      ObjectId b = static_cast<ObjectId>(2 * i + 1);
      Payload p = make_payload({a, b}, {a}, 0, 1);
      client.certify(cluster.coordinator_for(p), t, p);
    }
    cluster.sim().run();
    for (TxnId t : txns) EXPECT_EQ(client.decision(t), Decision::kCommit);
    TerminationStats stats = cluster.termination_stats();
    EXPECT_EQ(stats.resolved(), 0u);
    EXPECT_EQ(stats.blocked, 0u);
    if (!coop) {
      EXPECT_EQ(stats.queries_sent, 0u);
      EXPECT_EQ(stats.answers_sent, 0u);
    }
    EXPECT_EQ(cluster.verify(), "");
  }
}

}  // namespace
}  // namespace ratc::baseline
