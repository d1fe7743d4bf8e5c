// Baseline shard server: the TCS state machine replicated via Multi-Paxos,
// plus the 2PC coordinator role for transactions submitted to it.
//
// Vote computation happens at *apply* time and depends only on the applied
// command prefix, so every replica of a shard computes identical votes —
// the standard state-machine-replication discipline.  Only the replica
// that currently leads its Paxos group emits the Vote/decision messages.
// The vote for a transaction is fixed by the FIRST vote-determining entry
// in the shard's log: a CmdPrepare, or a querier's CmdResolveAbort
// tombstone; log order arbitrates races between the two.
//
// Options::termination picks one of three policies (baseline/termination.h):
//  * kClassical — blocking 2PC: a crashed coordinator strands its in-flight
//    transactions.
//  * kCooperative — every replica tracks its in-doubt transactions
//    (prepared, undecided, remote coordinator), watches their coordinators
//    through an fd::PingMonitor, and — on suspicion or after an in-doubt
//    timeout — the shard's current leader broadcasts TerminationQuery to
//    the peer shards and resolves from their answers.  Peers answer durable
//    facts only: a never-prepared peer first tombstones the transaction as
//    aborted through its own Paxos log (CmdResolveAbort).  Rounds are
//    bounded, so a run always quiesces; all-prepared transactions remain
//    blocked — the irreducible 2PC window the paper's protocols remove.
//  * kPaxosCommit — the same recovery machinery, but every vote is a chosen
//    consensus value, so an all-prepared answer set resolves to COMMIT and
//    `blocked` only counts give-ups against unreachable peers.  The
//    coordinator also answers the client as soon as every vote is chosen
//    and replicates the decide in parallel — one replicated round less on
//    the critical path than the other two policies, which reply once their
//    own shard's CmdDecide applies.
#pragma once

#include <map>
#include <memory>
#include <set>
#include <vector>

#include "baseline/messages.h"
#include "baseline/termination.h"
#include "fd/failure_detector.h"
#include "paxos/replica.h"
#include "sim/network.h"
#include "sim/process.h"
#include "store/versioned_store.h"
#include "tcs/certifier.h"
#include "tcs/csn.h"
#include "tcs/shard_map.h"

namespace ratc::baseline {

class ShardServer : public sim::Process {
 public:
  struct Options {
    ShardId shard = 0;
    const tcs::ShardMap* shard_map = nullptr;
    const tcs::Certifier* certifier = nullptr;
    /// How participants finish a transaction whose coordinator went silent.
    Termination termination = Termination::kClassical;
    /// In-doubt fallback: query peers this long after preparing even if the
    /// failure detector never fires (covers a live coordinator whose
    /// decision message was lost).
    Duration in_doubt_timeout = 300;
    /// Delay between termination query rounds.
    Duration termination_retry_every = 160;
    /// Query rounds before giving up (the transaction stays blocked).
    int termination_max_rounds = 5;
    /// Committed versions retained per object for snapshot reads.
    std::size_t snapshot_history_depth = 16;
    fd::PingMonitor::Options fd;
  };

  ShardServer(rt::Runtime& rt, ProcessId id, Options options);
  ShardServer(sim::Simulator& sim, sim::Network& net, ProcessId id, Options options);

  void attach_paxos(paxos::PaxosReplica* paxos) { paxos_ = paxos; }
  paxos::PaxosReplica& paxos() { return *paxos_; }

  /// Routing table: leader server of each shard (maintained by the cluster;
  /// static absent failures, updated on failover by the harness).
  void set_shard_leader(ShardId s, ProcessId leader) { leaders_[s] = leader; }
  ProcessId shard_leader(ShardId s) const { return leaders_.at(s); }

  void on_message(ProcessId from, const sim::AnyMessage& msg) override;

  /// Paxos apply upcall.
  void apply(Slot slot, const sim::AnyMessage& cmd);

  // Introspection for tests and the cluster-level verifier.
  bool has_prepared(TxnId t) const;
  bool has_decided(TxnId t) const;
  tcs::Decision decision_of(TxnId t) const { return txns_.at(t).decision; }
  std::size_t committed_count() const { return committed_.size(); }
  /// Every transaction this replica applied a decision for.
  std::map<TxnId, tcs::Decision> decided_txns() const {
    std::map<TxnId, tcs::Decision> out;
    for (const auto& [t, st] : txns_) {
      if (st.decided) out.emplace(t, st.decision);
    }
    return out;
  }
  const TerminationStats& termination_stats() const { return term_stats_; }

  // --- CSN reads (baseline) ----------------------------------------------------
  //
  // The baseline has no all-follower-ack rule, so only a Paxos leader that
  // has applied every chosen command may serve reads: its applied prefix
  // then contains every prepare whose transaction could commit with a csn
  // at or below the watermark (a commit needs this shard's vote, which the
  // leader only emits at prepare-apply time — any later decide is
  // externalized after the read and is exempt from mandatory visibility).

  /// Leader-gated read eligibility.
  bool can_serve_reads() const { return paxos_->is_leader() && paxos_->caught_up(); }
  /// Largest snapshot this replica can serve locally: below the smallest
  /// coordinator stamp among prepared-undecided transactions, else "now".
  tcs::Csn read_watermark() const;
  const store::SnapshotStore& snapshot_store() const { return store_; }

 private:
  struct TxnState {
    tcs::Payload payload;
    tcs::Decision vote = tcs::Decision::kAbort;
    bool prepared = false;
    bool decided = false;
    tcs::Decision decision = tcs::Decision::kAbort;
    // 2PC metadata replicated with the prepare; lets any replica of any
    // participant shard run termination after the coordinator died.
    std::vector<ShardId> participants;
    ProcessId client = kNoProcess;
    ProcessId coordinator = kNoProcess;
    Time prepare_ts = 0;  ///< coordinator CSN stamp; a commit's csn(t).ts
  };
  struct CoordState {
    std::vector<ShardId> participants;
    ProcessId client = kNoProcess;
    Time prepare_ts = 0;  ///< the stamp this coordinator issued for t
    std::map<ShardId, tcs::Decision> votes;
    bool decision_submitted = false;
    bool replied = false;  ///< client answered and peers told the decision
  };
  /// Per-transaction termination progress (querier side).
  /// Followers re-arm the retry timer without consuming the query budget —
  /// a replica elected leader mid-protocol still gets its full
  /// termination_max_rounds of queries; `rounds` (total fires, leader or
  /// not) is capped separately so the retry chain always terminates and
  /// the simulation quiesces.
  struct TermState {
    int rounds = 0;         ///< total retry fires (hard-capped)
    int leader_rounds = 0;  ///< query rounds actually broadcast as leader
    bool concluded = false;       ///< resolved, or given up (blocked)
    bool timer_armed = false;     ///< in-doubt fallback timer scheduled
    std::map<ShardId, PeerTxnState> answers;
  };

  void handle_certify(ProcessId from, const BCertify& m);
  void handle_certify_batch(ProcessId from, const BCertifyBatch& m);
  void handle_submit_prepare(const SubmitPrepare& m);
  /// Replicates the whole batch through ONE Paxos append (CmdPrepareBatch).
  void handle_submit_prepare_batch(const SubmitPrepareBatch& m);
  void handle_vote(const Vote& m);
  void handle_submit_decide(const SubmitDecide& m);
  void apply_prepare(const CmdPrepare& c);
  void apply_decide(const CmdDecide& c);
  void apply_resolve_abort(const CmdResolveAbort& c);
  void maybe_decide(TxnId t);

  /// Recovery is on for every policy but kClassical.
  bool recovery() const { return options_.termination != Termination::kClassical; }
  bool paxos_commit() const { return options_.termination == Termination::kPaxosCommit; }

  // --- termination (recovery policies) -----------------------------------------
  void handle_termination_query(ProcessId from, const TerminationQuery& q);
  void handle_termination_answer(const TerminationAnswer& a);
  /// Marks t in doubt (prepared, undecided, coordinator elsewhere): watch
  /// the coordinator and arm the in-doubt fallback timer.
  void note_in_doubt(TxnId t, ProcessId coordinator);
  void clear_in_doubt(TxnId t, ProcessId coordinator);
  void on_coordinator_suspected(ProcessId coordinator);
  /// One query round: leaders broadcast, everyone re-arms the retry timer;
  /// bounded by termination_max_rounds.
  void start_termination_round(TxnId t);
  /// Answers `to` with the durable state of t (which must exist).
  void send_termination_answer(ProcessId to, TxnId t);
  /// Runs the inference rules over the answers collected so far.
  void maybe_conclude_termination(TxnId t);
  /// Externalizes a durable decision: answers the client (if known) and
  /// sends SubmitDecide to every participant shard but our own.  `csn_ts`
  /// is the coordinator stamp for commits (0 for aborts).
  void announce_decision(TxnId t, tcs::Decision d,
                         const std::vector<ShardId>& participants,
                         ProcessId client, Time csn_ts);
  /// Adopts d for the in-doubt transaction t: replicate locally, propagate
  /// to the peer shards, and answer the stranded client.
  void resolve_in_doubt(TxnId t, tcs::Decision d);

  Options options_;
  paxos::PaxosReplica* paxos_ = nullptr;
  std::map<ShardId, ProcessId> leaders_;

  // Replicated TCS state (per shard).
  std::map<TxnId, TxnState> txns_;
  std::vector<tcs::Payload> committed_;
  /// Multi-version committed state for snapshot reads, fed by apply_decide;
  /// deterministic across replicas (csn = the replicated coordinator stamp).
  store::SnapshotStore store_;

  // Coordinator-side state (not replicated; dies with the coordinator, which
  // blocks classical 2PC; the recovery policies finish from replicated state).
  std::map<TxnId, CoordState> coord_;

  // Termination state (per replica; only leaders speak).
  fd::Responder responder_;
  std::unique_ptr<fd::PingMonitor> fd_monitor_;
  std::map<TxnId, TermState> term_;
  std::map<ProcessId, std::set<TxnId>> in_doubt_;  ///< by coordinator
  TerminationStats term_stats_;
};

}  // namespace ratc::baseline
