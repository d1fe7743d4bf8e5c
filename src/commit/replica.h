// Replica process of the atomic commit protocol (paper Fig. 1).
//
// Every replica plays up to four roles simultaneously:
//  * shard leader: orders and certifies transactions (PREPARE handling);
//  * follower: persists votes shipped by transaction coordinators (ACCEPT);
//  * transaction coordinator: drives 2PC for transactions submitted to it
//    (any replica can coordinate; this spreads the replication fan-out
//    away from leaders, Fig. 1 lines 18-29);
//  * reconfigurer: replaces failed replicas via the configuration service
//    (Vertical-Paxos style probing, Fig. 1 lines 33-69).
//
// The leader and coordinator roles run on commit::CertEngine, shared with
// the RDMA replica; this replica supplies the message-passing transport
// through ReplicationHooks and keeps what is Fig. 1's own: the follower
// guards of lines 22 and 31, ack matching by epoch and slot, and the
// reconfiguration handlers.  The reconfigurer role runs on recon::Engine.
//
// Code comments cite figure line numbers.  Deviations from the pseudocode:
//  * PREPARE carries the transaction's participant list and client
//    (TxnMeta), so any replica can coordinate or retry it without a lookup;
//  * the non-deterministic probing rule (line 51) is realized by a timer
//    (recon::Engine's probe_patience);
//  * line 24 writes slot k where the paper writes `next`;
//  * the initial configuration is pre-activated: bootstrap() installs
//    epoch 1 everywhere instead of running a first reconfiguration.
#pragma once

#include <functional>
#include <map>
#include <utility>
#include <vector>

#include "commit/cert_engine.h"
#include "commit/log.h"
#include "commit/messages.h"
#include "configsvc/client.h"
#include "configsvc/config.h"
#include "fd/failure_detector.h"
#include "recon/engine.h"
#include "sim/network.h"
#include "sim/process.h"
#include "store/versioned_store.h"
#include "tcs/certifier.h"
#include "tcs/csn.h"
#include "tcs/shard_map.h"

namespace ratc::commit {

class Monitor;

class Replica : public sim::Process,
                private recon::StackHooks,
                private ReplicationHooks {
 public:
  struct Options {
    ShardId shard = 0;
    const tcs::ShardMap* shard_map = nullptr;
    const tcs::Certifier* certifier = nullptr;
    std::vector<ProcessId> cs_endpoints;
    /// Desired configuration size (f+1); compute_membership tops up to this.
    std::size_t target_shard_size = 2;
    /// Allocator for *fresh* processes (paper line 48: new members may only
    /// be probing responders or fresh processes).  Freshness must be global:
    /// a process that ever belonged to a configuration may not be handed out
    /// again (otherwise Invariant 5 breaks), so allocation permanently
    /// consumes from a shared pool — the cluster harness models the resource
    /// manager that real deployments use for this.
    std::function<std::vector<ProcessId>(ShardId, std::size_t)> allocate_spares;
    /// Returns spares reserved by a proposal whose CAS lost the race: they
    /// never entered a stored configuration, so they are still fresh.
    /// Without this, every lost reconfiguration race (routine once the
    /// autonomous controllers of src/ctrl/ race replica reconfigurers)
    /// permanently shrinks the pool.
    std::function<void(ShardId, const std::vector<ProcessId>&)> release_spares;
    /// How long the reconfigurer waits for a PROBE_ACK(true) after the first
    /// PROBE_ACK(false) before descending an epoch (the paper's
    /// non-deterministic rule at line 51, scheduled by timer).
    Duration probe_patience = 5;
    /// Membership policy consulted when this replica plays the reconfigurer
    /// role; null selects recon::ReplaceSuspectsPolicy.  Non-owning.
    recon::PlacementPolicy* placement_policy = nullptr;
    /// Cluster knowledge (zones, load, spare-pool depth) handed to the
    /// placement policy; replicas run no failure detector, so the suspect
    /// set stays empty here.
    std::function<recon::PlacementContext(ShardId)> placement_context;
    /// If nonzero, this replica periodically retries transactions that have
    /// been prepared but undecided for longer than this (coordinator
    /// recovery, line 70).
    Duration retry_timeout = 0;
    /// ABLATION (experiment E14): the leader ships ACCEPTs to its followers
    /// directly instead of delegating to the coordinator.  One message
    /// delay faster, but concentrates the replication fan-out on the
    /// leader — the design trade-off Sec. 3 discusses.
    bool leader_ships_accepts = false;
    /// Debug cross-check: recompute every vote with the flat L1/L2 log scan
    /// and abort on any divergence from the witness index (decision or
    /// witness sets).  Works in every build type, not just -DNDEBUG-less
    /// ones; sweeps and the randomized suites turn it on.
    bool check_certifier_index = false;
    /// Versions per object the snapshot store retains for CSN reads; older
    /// versions are evicted (reads below them report unserved, never wrong).
    std::size_t snapshot_history_depth = 16;
    Monitor* monitor = nullptr;
  };

  Replica(rt::Runtime& rt, ProcessId id, Options options);

  // --- bootstrap ------------------------------------------------------------

  /// Installs the pre-activated initial configuration (all shards' views).
  void bootstrap(Status status,
                 const std::map<ShardId, configsvc::ShardConfig>& all_views);

  /// Initializes a fresh spare: knows the views but holds no shard state.
  void bootstrap_spare(const std::map<ShardId, configsvc::ShardConfig>& all_views);

  // --- client API -------------------------------------------------------------

  /// certify(t, l) with this replica as coordinator and a co-located client:
  /// the decision is delivered through `cb` with no extra message delay
  /// (paper Sec. 3: "co-locating the client with the transaction
  /// coordinator").  The callback's Time is csn(t).ts for commits (0 for
  /// aborts).  `origin` is the co-located client's process id; when set, a
  /// successor coordinator that finishes the transaction after this replica
  /// crashed routes the decision there as DECISION_CLIENT instead of
  /// dropping it on the floor.
  void certify_local(TxnId txn, const tcs::Payload& payload,
                     std::function<void(tcs::Decision, Time)> cb,
                     ProcessId origin = kNoProcess) {
    cert_.certify_local(txn, payload, std::move(cb), origin);
  }

  /// Batched certify with this replica as coordinator of every item: the
  /// batch is grouped into one PREPARE_BATCH per participant shard (one
  /// message, one ordered run of log appends at the leader).  Decisions are
  /// delivered per transaction through `cb`; the items' 2PC instances stay
  /// independent (distributivity is what makes the grouping sound, not a
  /// change to the decision rule).  A batch of one degenerates to
  /// certify_local.  `origin` as in certify_local.
  void certify_batch_local(
      const std::vector<std::pair<TxnId, tcs::Payload>>& batch,
      std::function<void(TxnId, tcs::Decision, Time)> cb,
      ProcessId origin = kNoProcess) {
    cert_.certify_batch_local(batch, std::move(cb), origin);
  }

  // --- recovery API -------------------------------------------------------------

  /// Initiates reconfiguration of shard s (line 33).  Any process may call
  /// this when it suspects a failure in s.
  void reconfigure(ShardId s);

  /// Coordinator recovery for the transaction in slot k (line 70).
  void retry(Slot k) { cert_.retry(k); }

  // --- introspection (used by monitors, tests, benches) ---------------------

  ShardId shard() const { return options_.shard; }
  Status status() const { return cert_.status(); }
  bool initialized() const { return initialized_; }
  Epoch epoch() const { return view(options_.shard).epoch; }
  Epoch new_epoch() const { return new_epoch_; }
  const ReplicaLog& log() const { return cert_.log(); }
  Slot next() const { return cert_.next(); }
  const configsvc::ShardConfig& view(ShardId s) const;
  bool is_probing() const { return engine_.in_flight(); }
  /// The shared reconfigurer core this replica's reconfigurer role runs on
  /// (stats + spare-ledger introspection for harnesses).
  const recon::Engine& recon_engine() const { return engine_; }

  // --- CSN read surface ------------------------------------------------------
  //
  // Read-only transactions execute at a snapshot c without any certification
  // message: pick c at or below every involved replica's watermark and serve
  // each object from the replica's snapshot store.  Soundness rides on the
  // all-follower-ack rule (Fig. 1 line 26): a commit with csn(t).ts below
  // this replica's watermark either sits decided in the log (its writes are
  // in the store) or is still prepared here (and then gates the watermark).

  /// The largest snapshot this replica can currently serve: just below the
  /// smallest prepare stamp among prepared-undecided slots, or `now` when
  /// every filled slot is decided.
  tcs::Csn read_watermark() const { return cert_.read_watermark(); }

  /// The multi-version committed state CSN reads are served from.
  const store::SnapshotStore& snapshot_store() const { return cert_.snapshot_store(); }

  void on_message(ProcessId from, const sim::AnyMessage& msg) override;

 private:
  // Fig. 1 handlers; the shared leader/coordinator steps run on cert_.
  void handle_prepare(ProcessId from, const Prepare& m);            // line 4
  void handle_prepare_batch(ProcessId from, const PrepareBatch& m);
  void handle_accept(ProcessId from, const Accept& m);              // line 21
  void handle_accept_batch(ProcessId from, const AcceptBatch& m);
  void handle_decision(ProcessId from, const DecisionMsg& m);       // line 30
  void handle_probe(ProcessId from, const Probe& m);                // line 40
  void handle_new_config(ProcessId from, const NewConfig& m);       // line 56
  void handle_new_state(ProcessId from, const NewState& m);         // line 61
  void handle_config_change(const configsvc::ConfigChange& m);      // line 67

  /// Lines 22-25 without the send: applies the ACCEPT and fills *ack plus
  /// the coordinator it must go to.  Returns false if the line-22 guard
  /// rejects it.
  bool apply_accept(ProcessId from, const Accept& m, AcceptAck* ack,
                    ProcessId* coordinator);

  // ReplicationHooks — the message-passing transport of cert_.
  Epoch epoch_of(ShardId s) const override { return view(s).epoch; }
  ProcessId leader_of(ShardId s) const override { return view(s).leader; }
  std::vector<ProcessId> followers_of(ShardId s) const override {
    return view(s).followers();
  }
  void replicate(ProcessId follower, const Accept& acc) override;
  void replicate_batch(ProcessId follower, std::vector<Accept> items) override;
  void ship_decision(const DecisionMsg& d) override;
  void on_vote_computed(ShardId shard, Epoch epoch, Slot slot, TxnId txn,
                        tcs::Decision vote, const tcs::Payload& payload,
                        std::vector<TxnId> committed,
                        std::vector<TxnId> prepared) override;
  void on_local_decision(TxnId txn, tcs::Decision d) override;

  // recon::StackHooks — the substrate adapter for the shared reconfigurer
  // core (recon::Engine), which runs lines 33-55 + the CAS spare ledger.
  void fetch_latest(const std::vector<ShardId>& shards,
                    std::function<void(bool, recon::Snapshot)> cb) override;
  void fetch_members_at(
      ShardId shard, Epoch epoch,
      std::function<void(bool, std::vector<ProcessId>)> cb) override;
  void send_probe(ProcessId target, Epoch new_epoch) override;
  std::vector<ProcessId> reserve_spares(ShardId shard, std::size_t n) override;
  void release_spares(ShardId shard,
                      const std::vector<ProcessId>& spares) override;
  void submit(const recon::Proposal& proposal,
              std::function<void(bool)> done) override;
  void activate(const recon::Proposal& proposal) override;
  recon::PlacementContext placement_context(ShardId shard) override;

  Options options_;
  configsvc::CsClient cs_;
  fd::Responder fd_responder_;
  Monitor* monitor_;
  /// The reconfigurer role (lines 33-55), shared with every other stack
  /// through recon::Engine; this replica only supplies the hooks above.
  recon::Engine engine_;
  /// The leader and coordinator roles (lines 1-32, 70-73) and the shard
  /// state they share: log, witness index, snapshot store, status.
  CertEngine cert_;

  // Fig. 1 process state outside the shared core.
  bool initialized_ = false;
  Epoch new_epoch_ = kNoEpoch;
  std::map<ShardId, configsvc::ShardConfig> views_;  // epoch/members/leader arrays
};

}  // namespace ratc::commit
