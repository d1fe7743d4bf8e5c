// commit::CertEngine — the ONE shard leader and transaction coordinator of
// the paper's two protocols, Fig. 1 (message passing) and Fig. 7 (RDMA).
//
// Both figures certify and coordinate identically: the leader appends a
// PREPARE to its log and votes through the witness index (lines 4-17 /
// 78-90); the coordinator collects PREPARE_ACKs, replicates them to the
// followers and decides once every follower of every shard acknowledged
// (lines 18-29 / 91-100); any replica retries a long-prepared slot as an
// extra coordinator (line 70 / line 168).  They differ only in how ACCEPT
// and DECISION reach the followers — messages in Fig. 1, one-sided writes
// in Fig. 7 — and in how they reconfigure.  The engine owns the shared
// state and steps; each replica owns one engine and privately implements
// the narrow ReplicationHooks below, the way both replicas embed
// recon::Engine for their reconfigurer role.
//
// What stays in each replica is the protocols' real difference: the
// follower-side guards (Fig. 1 line 22 vs. the unguarded RAccept overwrite
// the Fig. 4a counterexample needs), how a follower's ack is matched to a
// coordination (epoch and slot vs. write token), every reconfiguration
// handler, and the two ablations (leader-shipped ACCEPTs, skipped flush).
#pragma once

#include <functional>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "commit/log.h"
#include "commit/messages.h"
#include "commit/witness_index.h"
#include "rt/runtime.h"
#include "store/versioned_store.h"
#include "tcs/certifier.h"
#include "tcs/csn.h"
#include "tcs/shard_map.h"

namespace ratc::commit {

enum class Status { kLeader, kFollower, kReconfiguring };

inline const char* to_string(Status s) {
  switch (s) {
    case Status::kLeader: return "leader";
    case Status::kFollower: return "follower";
    case Status::kReconfiguring: return "reconfiguring";
  }
  return "?";
}

/// The substrate seam.  Every hook either reads the replica's current
/// configuration view or hands a message to its transport.
class ReplicationHooks {
 public:
  virtual ~ReplicationHooks() = default;

  // The coordinator's view of shard s (its own shard included).
  virtual Epoch epoch_of(ShardId s) const = 0;
  virtual ProcessId leader_of(ShardId s) const = 0;
  /// The members of s other than its leader, in member order.
  virtual std::vector<ProcessId> followers_of(ShardId s) const = 0;

  /// Fig. 1 line 20 / Fig. 7 line 93: one ACCEPT to one follower.
  virtual void replicate(ProcessId follower, const Accept& acc) = 0;
  /// A whole batch's ACCEPTs for one follower in one message or write
  /// (always two or more items; a lone item goes through replicate).
  virtual void replicate_batch(ProcessId follower, std::vector<Accept> items) = 0;
  /// Lines 28-29 / 99-100: persist the decision at every member of d.shard.
  virtual void ship_decision(const DecisionMsg& d) = 0;

  // Forwarded to the stack's monitor; called only when Options::monitored.
  virtual void on_vote_computed(ShardId shard, Epoch epoch, Slot slot, TxnId txn,
                                tcs::Decision vote, const tcs::Payload& payload,
                                std::vector<TxnId> committed,
                                std::vector<TxnId> prepared) = 0;
  virtual void on_local_decision(TxnId txn, tcs::Decision d) = 0;
};

class CertEngine {
 public:
  /// Copied from the owning replica's options.
  struct Options {
    ShardId shard = 0;
    const tcs::ShardMap* shard_map = nullptr;
    const tcs::Certifier* certifier = nullptr;
    /// Nonzero: retry slots prepared but undecided for this long (line 70)
    /// and re-drive coordinations that long without progress.
    Duration retry_timeout = 0;
    /// Recompute every vote with the flat L1/L2 scan and abort on any
    /// divergence from the witness index.  Not assert(): it must fire in
    /// every build type the sweeps run.
    bool check_certifier_index = false;
    std::size_t snapshot_history_depth = 16;
    /// The stack has a monitor: collect witness sets for every vote and
    /// forward votes and local decisions through the hooks.
    bool monitored = false;
  };

  using LocalCallback = std::function<void(tcs::Decision, Time)>;
  using BatchCallback = std::function<void(TxnId, tcs::Decision, Time)>;

  CertEngine(rt::Runtime& rt, ProcessId id, std::string name, ReplicationHooks& hooks,
             Options options);
  // The retry timer holds `this`.
  CertEngine(const CertEngine&) = delete;
  CertEngine& operator=(const CertEngine&) = delete;

  // --- coordinator ------------------------------------------------------------

  /// certify(t, l) with a co-located client: the decision reaches `cb` with
  /// no extra message delay (csn(t).ts for commits, 0 for aborts).  `origin`
  /// rides in the meta so a successor coordinator can still deliver the
  /// decision as DECISION_CLIENT after this replica crashed.
  void certify_local(TxnId txn, const tcs::Payload& payload, LocalCallback cb,
                     ProcessId origin);
  /// One PREPARE_BATCH per participant shard for the whole batch; decisions
  /// reach `cb` per transaction.  A batch of one sends exactly what
  /// certify_local would.
  void certify_batch_local(const std::vector<std::pair<TxnId, tcs::Payload>>& batch,
                           BatchCallback cb, ProcessId origin);
  /// CERTIFY from a remote client: the decision goes back as DECISION_CLIENT.
  void certify_remote(ProcessId client, const CertifyRequest& req);
  /// CERTIFY_BATCH: certify_batch_local's path with decisions routed back to
  /// `client` instead of a callback.
  void certify_batch_remote(ProcessId client, const std::vector<CertifyRequest>& items);

  /// Lines 18-20 / 91-93: record the ack, replicate it to the followers.
  void on_prepare_ack(const PrepareAck& m);
  /// The same per item, with one batched ACCEPT per follower.
  void on_prepare_ack_batch(const PrepareAckBatch& m);
  /// A follower acknowledged the ACCEPT of (txn, shard).  A message ack
  /// names the (epoch, slot) it answers, which must match the replicated
  /// PREPARE_ACK (line 26); a one-sided write is matched by its token
  /// before this call and passes no position.
  void record_ack(TxnId txn, ShardId shard, ProcessId follower,
                  std::optional<std::pair<Epoch, Slot>> at = std::nullopt);

  /// Coordinator recovery for the transaction in slot k (line 70 / 168).
  void retry(Slot k);

  // --- leader -------------------------------------------------------------------

  /// Lines 6-17 / 78-90 without the send: appends (or re-reads) the slot and
  /// returns the ack to ship.
  PrepareAck prepare_txn(const Prepare& m);
  /// prepare_txn over a batch, in order: one run of log appends.
  PrepareAckBatch prepare_batch(const PrepareBatch& m);

  /// The ACCEPT that replicates a leader's PREPARE_ACK (line 20).
  static Accept accept_of(const PrepareAck& ack);

  // --- follower ----------------------------------------------------------------

  /// Fills slot `slot` as prepared (line 24 / line 95).  The caller applies
  /// its stack's guard first.
  void fill_prepared(Slot slot, TxnId txn, const tcs::Payload& payload, tcs::Decision vote,
                     const TxnMeta& meta, Time prepare_ts);
  /// Decides slot `slot` and applies a commit to the snapshot store
  /// (line 32 / line 102).  The caller applies its stack's guard first.
  void apply_decision(Slot slot, TxnId txn, tcs::Decision decision, Time csn_ts);

  // --- epoch installation ---------------------------------------------------------

  /// Leadership takeover (line 59 / 145): next = max filled slot, then
  /// reindex, refile the store and re-arm retries of prepared slots.
  void take_over();
  /// State transfer (lines 63-66 / 148-153): replace the log wholesale, then
  /// reindex, refile the store and re-arm retries of prepared slots.
  void install_log(const ReplicaLog& log);

  /// Starts the periodic retry timer (no-op if retry_timeout is 0).
  void arm_retry_timer();

  // --- state ------------------------------------------------------------------

  Status status() const { return status_; }
  void set_status(Status s) { status_ = s; }
  const ReplicaLog& log() const { return log_; }
  Slot next() const { return next_; }
  const store::SnapshotStore& snapshot_store() const { return store_; }

  /// The largest snapshot this replica can serve: just below the smallest
  /// prepare stamp among prepared-undecided slots, or `now` when every
  /// filled slot is decided.
  tcs::Csn read_watermark() const;

 private:
  struct ShardProgress {
    bool have_prepare_ack = false;
    Epoch epoch = kNoEpoch;
    Slot slot = kNoSlot;
    tcs::Decision vote = tcs::Decision::kAbort;
    Time prepare_ts = 0;  ///< leader's CSN stamp; csn(t).ts = max over shards
    std::set<ProcessId> follower_acks;
  };
  struct CoordState {
    TxnMeta meta;
    std::map<ShardId, ShardProgress> progress;
    bool decided = false;
    /// Set for co-located clients; second arg is csn(t).ts (0 for aborts).
    LocalCallback local_cb;
    /// Per-shard payload projections, kept so the coordinator can re-send a
    /// PREPARE that died with a crashed leader (empty for ⊥ retries).
    std::map<ShardId, tcs::Payload> shard_payloads;
    Time last_driven = 0;  ///< when PREPAREs were last (re-)sent
  };
  TxnMeta meta_of(TxnId txn, const tcs::Payload& payload, ProcessId client) const;
  /// The coordinator state every certify path opens, or null when there is
  /// nothing to coordinate: an empty transaction (decided here, trivially
  /// committed) or an already-decided one (a late retry).
  CoordState* open_coordination(TxnMeta meta, LocalCallback local_cb);
  /// PREPARE carrying `projection`, or ⊥ when it is null (line 73).
  static Prepare prepare_for(const TxnMeta& meta, const tcs::Payload* projection);
  void start_certification(TxnMeta meta, const tcs::Payload* full_payload,
                           LocalCallback local_cb);
  /// The one batch path: local when `cb` is set, else remote to `origin`.
  template <typename Item>
  void certify_batch(const std::vector<Item>& items, const BatchCallback& cb,
                     ProcessId origin);
  /// Line 19's guard and bookkeeping without the sends: records the ack
  /// against the coordination.  False if the guard rejects it (stale
  /// epoch, unknown or decided coordination).
  bool note_prepare_ack(const PrepareAck& m);
  /// Line 26's standing "when" condition, evaluated after every relevant
  /// event for the given transaction.
  void check_coordination(TxnId txn);

  /// The vote for the freshly appended slot (line 12) through the witness
  /// index, reported to the monitor.
  tcs::Decision compute_vote(Slot slot, const tcs::Payload& l);
  /// The L1/L2 sets (and their transaction ids) for a vote at `slot` by
  /// flat log scan: the reference the witness index is checked against.
  WitnessIndex::Witnesses collect_witnesses(Slot slot) const;
  /// Aborts the process if the index's vote or witnesses for `slot` diverge
  /// from the flat scan (no-op unless check_certifier_index).
  void check_index_against_flat(Slot slot, tcs::Decision indexed_vote,
                                const tcs::Payload& l,
                                const WitnessIndex::Witnesses& w) const;
  /// Sets-only variant for forced-abort slots (line 15), where the vote is a
  /// protocol constant rather than an index computation.
  void check_index_sets_against_flat(Slot slot, const WitnessIndex::Witnesses& w) const;

  /// Refiles every decided commit of the log into the snapshot store.
  void rebuild_snapshot_store();
  /// One retry-timer firing, collect-then-act: retry the stale prepared
  /// slots once each, then re-drive undecided coordinations.
  void run_retry_tick();
  /// Re-sends PREPAREs of undecided coordinated transactions to the current
  /// leaders.  `driven_this_tick` holds the transactions the slot-retry pass
  /// of the same tick already re-drove, to assert none is driven twice.
  void redrive_coordinations(const std::set<TxnId>& driven_this_tick);

  rt::Runtime& rt_;
  ProcessId id_;
  std::string name_;
  ReplicationHooks& hooks_;
  Options options_;

  Status status_ = Status::kReconfiguring;
  ReplicaLog log_;
  Slot next_ = 0;
  /// Object-indexed view of log_ (the certification hot path); maintained on
  /// every prepare/decide, rebuilt on log replacement and leader takeover.
  WitnessIndex index_;
  /// Committed multi-version state, filed under Csn{csn_ts, txn}.
  store::SnapshotStore store_;
  /// Retry bookkeeping: when each prepared slot was last (re)driven.
  std::map<Slot, Time> prepared_at_;

  // Coordinator state.  Decided entries stay as slim tombstones (so a late
  // retry cannot re-coordinate); the undecided set keeps the re-drive scan
  // bounded.
  std::map<TxnId, CoordState> coord_;
  std::set<TxnId> undecided_coords_;
};

}  // namespace ratc::commit
