// Termination policies of the baseline shard server (ShardServer::Options::
// termination): how participants finish a transaction whose coordinator went
// silent.  Both stacks of the strawman ladder run one Multi-Paxos log per
// shard, so the three rungs differ only here (Gray & Lamport, "Consensus on
// Transaction Commit": 2PC is the F = 0 case of Paxos Commit):
//  * kClassical  — no recovery: blocking 2PC, the paper's strawman;
//  * kCooperative — the classic 2PC fix (Sec. 3; also Bernstein/Hadzilacos/
//    Goodman Ch. 7): a participant holding a prepared-but-undecided record
//    queries its peer shards and resolves from their durable states; an
//    all-prepared answer set stays blocked;
//  * kPaxosCommit — each shard's vote is a consensus instance, fixed by the
//    first vote-determining entry in its log (Sec. 4-6), so an all-prepared
//    answer set resolves to COMMIT: a crashed coordinator could only have
//    computed commit from these same replicated votes.
//
// This header holds the pure, message-free core — the policy, the
// peer-state vocabulary carried in TerminationAnswer, the inference function
// and the metrics struct — so the decision tables are unit-testable by
// enumeration (baseline_termination_test.cc) separately from the
// ShardServer state machine that feeds them.
#pragma once

#include <cstdint>
#include <map>

#include "common/types.h"

namespace ratc::baseline {

/// The termination policy of a baseline cluster (see the file comment).
/// Every policy but kClassical turns recovery on: the FD monitor on
/// coordinators, in-doubt tracking and orphaned-coordination adoption.
enum class Termination {
  kClassical = 0,
  kCooperative = 1,
  /// Also moves the coordinator's client reply earlier: it answers once every
  /// vote is chosen instead of once its own shard's decision applies.
  kPaxosCommit = 2,
};

/// A peer shard's durable knowledge about a transaction, as answered to a
/// TerminationQuery.  States are derived from the shard's *applied* Paxos
/// prefix, so every answer is a replicated fact:
///  * kCommitted / kAborted — the decision is applied (or, for kAborted,
///    foreclosed: a NO vote means the coordinator can only ever decide
///    abort, and a never-prepared peer answers kAborted once its abort
///    tombstone is durable if it had already been created by an earlier
///    query round).
///  * kPrepared — prepared with a YES vote and no decision: in doubt under
///    kCooperative; under kPaxosCommit the chosen value of the shard's vote
///    instance, a durable fact.
///  * kNeverPrepared — the query arrived before any prepare; the shard
///    durably tombstoned the transaction as aborted *before* answering, so
///    commit is foreclosed (a later prepare applies after the tombstone and
///    votes abort).  Under kPaxosCommit this forces the vote instance
///    closed with ABORT.
enum class PeerTxnState {
  kNeverPrepared = 0,
  kPrepared = 1,
  kCommitted = 2,
  kAborted = 3,
};

inline const char* to_string(PeerTxnState s) {
  switch (s) {
    case PeerTxnState::kNeverPrepared: return "never-prepared";
    case PeerTxnState::kPrepared: return "prepared";
    case PeerTxnState::kCommitted: return "committed";
    case PeerTxnState::kAborted: return "aborted";
  }
  return "?";
}

/// Outcome of one inference pass over the answers collected so far.
enum class TerminationOutcome {
  kUnknown = 0,  ///< answers outstanding and nothing conclusive yet
  kCommit = 1,   ///< some peer applied COMMIT: adopt it
  kAbort = 2,    ///< commit is foreclosed (abort applied, NO vote, or tombstone)
  kBlocked = 3,  ///< every participant is in doubt — the irreducible 2PC window
                 ///< (cooperative only; Paxos Commit resolves it to kCommit)
};

inline const char* to_string(TerminationOutcome o) {
  switch (o) {
    case TerminationOutcome::kUnknown: return "unknown";
    case TerminationOutcome::kCommit: return "commit";
    case TerminationOutcome::kAbort: return "abort";
    case TerminationOutcome::kBlocked: return "blocked";
  }
  return "?";
}

/// The decision-inference rules over the answers collected so far (keyed
/// by participant shard; the querier contributes its own durable state as
/// one answer).  `num_participants` is |shards(t)|:
///  * any kCommitted            => kCommit (a decision exists; adopt it)
///  * any kAborted              => kAbort  (decision exists or is foreclosed
///                                          by a NO vote)
///  * any kNeverPrepared        => kAbort  (the answering shard tombstoned
///                                          the txn before answering)
///  * all participants answered
///    kPrepared                 => kBlocked under kCooperative: every vote
///                                 was YES and no decision survives, so only
///                                 the crashed coordinator knew the outcome
///                                 (2PC's blocking window);
///                                 kCommit under kPaxosCommit: the votes are
///                                 chosen values, and commit is the only
///                                 outcome any coordinator could compute
///                                 from them
///  * otherwise                 => kUnknown (keep waiting / retry)
inline TerminationOutcome infer_termination(
    const std::map<ShardId, PeerTxnState>& answers, std::size_t num_participants,
    Termination policy) {
  bool abort_foreclosed = false;
  for (const auto& [shard, state] : answers) {
    (void)shard;
    if (state == PeerTxnState::kCommitted) return TerminationOutcome::kCommit;
    if (state == PeerTxnState::kAborted || state == PeerTxnState::kNeverPrepared) {
      abort_foreclosed = true;
    }
  }
  if (abort_foreclosed) return TerminationOutcome::kAbort;
  if (num_participants > 0 && answers.size() >= num_participants) {
    return policy == Termination::kPaxosCommit ? TerminationOutcome::kCommit
                                               : TerminationOutcome::kBlocked;
  }
  return TerminationOutcome::kUnknown;
}

/// Per-server termination counters; BaselineCluster::termination_stats()
/// sums them across all shard servers.  Sends are counted where they leave
/// (leaders only), so cluster totals are not inflated by followers that
/// track in-doubt state but never speak.  Note the totals are *event*
/// counts, not distinct-transaction counts: each participant shard's
/// leader runs its own termination protocol, so one in-doubt transaction
/// with k participants can contribute up to k resolutions (or give-ups)
/// to the cluster aggregate.
struct TerminationStats {
  std::uint64_t queries_sent = 0;    ///< TerminationQuery messages sent
  std::uint64_t answers_sent = 0;    ///< TerminationAnswer messages sent
  std::uint64_t tombstones = 0;      ///< never-prepared txns durably aborted on query
  std::uint64_t resolved_commits = 0;  ///< in-doubt txns resolved to COMMIT
  std::uint64_t resolved_aborts = 0;   ///< in-doubt txns resolved to ABORT
  /// Gave up: all participants in doubt (cooperative), or some peer stayed
  /// unreachable for every round (Paxos Commit, which has no all-prepared
  /// window: under pure coordinator crashes this stays 0).
  std::uint64_t blocked = 0;
  /// Orphaned 2PC rounds finished by a successor leader of the coordinator's
  /// own shard (decision recovered from the replicated log, client answered,
  /// peers informed) — no query round needed.
  std::uint64_t adopted_coordinations = 0;

  TerminationStats& operator+=(const TerminationStats& o) {
    queries_sent += o.queries_sent;
    answers_sent += o.answers_sent;
    tombstones += o.tombstones;
    resolved_commits += o.resolved_commits;
    resolved_aborts += o.resolved_aborts;
    blocked += o.blocked;
    adopted_coordinations += o.adopted_coordinations;
    return *this;
  }

  std::uint64_t resolved() const { return resolved_commits + resolved_aborts; }
};

}  // namespace ratc::baseline
