// Message and command vocabulary of the baseline TCS: classical 2PC where
// every shard is a Multi-Paxos replicated state machine over 2f+1 replicas
// and every 2PC action (prepare vote, decision) is replicated before it
// takes effect.  This is the "vanilla scheme" of the paper's introduction,
// whose latency is 7 message delays from the coordinator, against which
// experiments E2-E4 compare.  The same vocabulary carries every termination
// policy (baseline/termination.h), Paxos Commit included.
#pragma once

#include <vector>

#include "baseline/termination.h"
#include "common/types.h"
#include "tcs/decision.h"
#include "tcs/payload.h"

namespace ratc::baseline {

/// Client -> coordinator (the leader server of one involved shard).
struct BCertify {
  static constexpr const char* kName = "B_CERTIFY";
  TxnId txn = 0;
  tcs::Payload payload;
  std::size_t wire_size() const { return 16 + payload.wire_size(); }
};

/// Coordinator -> participant shard leader: replicate-and-prepare.
struct SubmitPrepare {
  static constexpr const char* kName = "B_SUBMIT_PREPARE";
  TxnId txn = 0;
  tcs::Payload payload;  ///< shard projection l|s
  std::vector<ShardId> participants;
  ProcessId client = kNoProcess;
  ProcessId coordinator = kNoProcess;
  /// Coordinator's CSN stamp, taken once per transaction and replicated
  /// with every shard's prepare; a commit's csn is exactly this stamp.
  Time prepare_ts = 0;
  std::size_t wire_size() const {
    return 40 + payload.wire_size() + participants.size() * 4;
  }
};

/// Client -> coordinator: one CERTIFY round for a whole batch (items are
/// handled in order, each as an independent 2PC instance).  Batches of one
/// are never sent — the scalar BCertify is used instead.
struct BCertifyBatch {
  static constexpr const char* kName = "B_CERTIFY_BATCH";
  std::vector<BCertify> items;
  std::size_t wire_size() const {
    std::size_t n = 16;
    for (const BCertify& it : items) n += it.wire_size();
    return n;
  }
};

/// Coordinator -> participant shard leader: replicate-and-prepare a whole
/// batch through ONE Paxos append (CmdPrepareBatch).
struct SubmitPrepareBatch {
  static constexpr const char* kName = "B_SUBMIT_PREPARE_BATCH";
  std::vector<SubmitPrepare> items;
  std::size_t wire_size() const {
    std::size_t n = 16;
    for (const SubmitPrepare& it : items) n += it.wire_size();
    return n;
  }
};

/// Participant shard leader -> coordinator, after the prepare applied.
struct Vote {
  static constexpr const char* kName = "B_VOTE";
  TxnId txn = 0;
  ShardId shard = 0;
  tcs::Decision vote = tcs::Decision::kAbort;
};

/// Coordinator (or recovery proposer) -> participant shard leader: replicate
/// the decision.
struct SubmitDecide {
  static constexpr const char* kName = "B_SUBMIT_DECIDE";
  TxnId txn = 0;
  tcs::Decision decision = tcs::Decision::kAbort;
};

/// Coordinator -> client.
struct BClientDecision {
  static constexpr const char* kName = "B_DECISION_CLIENT";
  TxnId txn = 0;
  tcs::Decision decision = tcs::Decision::kAbort;
  Time csn_ts = 0;  ///< csn(t).ts for commits (the coordinator's stamp)
};

// --- termination (recovery policies; see baseline/termination.h) --------------

/// Participant (shard leader holding an in-doubt prepared record) -> peer
/// shard leaders: what do you durably know about this transaction?  The
/// answer is routed back to the sending process.
struct TerminationQuery {
  static constexpr const char* kName = "B_TERM_QUERY";
  TxnId txn = 0;
};

/// Peer shard leader -> querier: durable state from the applied prefix.
struct TerminationAnswer {
  static constexpr const char* kName = "B_TERM_ANSWER";
  TxnId txn = 0;
  ShardId shard = 0;  ///< the answering shard
  PeerTxnState state = PeerTxnState::kPrepared;
};

// --- Paxos-replicated commands ------------------------------------------------

struct CmdPrepare {
  static constexpr const char* kName = "B_CMD_PREPARE";
  TxnId txn = 0;
  tcs::Payload payload;
  std::vector<ShardId> participants;
  ProcessId client = kNoProcess;
  ProcessId coordinator = kNoProcess;
  Time prepare_ts = 0;  ///< coordinator CSN stamp (see SubmitPrepare)
  std::size_t wire_size() const {
    return 40 + payload.wire_size() + participants.size() * 4;
  }
};

/// One replicated log entry carrying a whole batch of prepares: the batch
/// costs one Paxos round instead of one per transaction.  Applying it is
/// defined as applying its items in order, so every replica still computes
/// identical votes from the applied prefix.
struct CmdPrepareBatch {
  static constexpr const char* kName = "B_CMD_PREPARE_BATCH";
  std::vector<CmdPrepare> items;
  std::size_t wire_size() const {
    std::size_t n = 16;
    for (const CmdPrepare& it : items) n += it.wire_size();
    return n;
  }
};

struct CmdDecide {
  static constexpr const char* kName = "B_CMD_DECIDE";
  TxnId txn = 0;
  tcs::Decision decision = tcs::Decision::kAbort;
};

/// Replicated arbiter for the never-prepared termination rule: if the
/// transaction is still unprepared when this command applies, the shard
/// durably tombstones it as aborted (a later prepare then votes abort); if a
/// prepare won the race into the log, the shard's actual state stands.  The
/// current leader answers `querier` either way, so the answer is always a
/// fact about the applied prefix, never about a transient.  Under Paxos
/// Commit this is what forces the shard's vote instance closed with ABORT.
struct CmdResolveAbort {
  static constexpr const char* kName = "B_CMD_RESOLVE_ABORT";
  TxnId txn = 0;
  ProcessId querier = kNoProcess;
};

}  // namespace ratc::baseline
