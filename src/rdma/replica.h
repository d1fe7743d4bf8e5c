// Replica of the RDMA-based atomic commit protocol (paper Sec. 5, Figs. 7-8).
//
// Differences from the message-passing protocol of Fig. 1:
//  * ACCEPT and DECISION are one-sided RDMA writes; followers acknowledge
//    through their NIC without executing any check — the coordinator acts
//    on ack-rdma completions (Fig. 7 lines 93-100);
//  * because the follower-side epoch guard (Fig. 1 line 22) is therefore
//    gone, reconfiguration must be *global*: a single system epoch, probing
//    of every shard, CONFIG_PREPARE dissemination to the whole membership
//    before activation, and connection management (close on PROBE, flush on
//    NEW_CONFIG, re-open via CONNECT) — Fig. 8;
//  * processes keep one `epoch` variable instead of a per-shard vector.
//
// The leader and coordinator roles are commit::CertEngine, shared with the
// message-passing replica; this replica supplies the one-sided transport
// through commit::ReplicationHooks and keeps what is Fig. 7's own: the
// unguarded RAccept landing, ack matching by write token, and the
// reconfiguration handlers.
//
// The replica also implements ReconfigMode::kPerShardUnsafe: the Fig. 1
// reconfiguration (per-shard, no connection management) combined with the
// RDMA data path.  This is the protocol the paper proves INCORRECT via the
// Figure 4a counter-example; tests use it to reproduce the violation and
// to show the global protocol prevents it (experiment E7).
#pragma once

#include <functional>
#include <map>
#include <set>
#include <utility>
#include <vector>

#include "commit/cert_engine.h"
#include "commit/log.h"
#include "commit/messages.h"
#include "configsvc/client.h"
#include "configsvc/config.h"
#include "fd/failure_detector.h"
#include "rdma/fabric.h"
#include "rdma/messages.h"
#include "recon/engine.h"
#include "sim/network.h"
#include "sim/process.h"
#include "store/versioned_store.h"
#include "tcs/certifier.h"
#include "tcs/csn.h"
#include "tcs/shard_map.h"

namespace ratc::rdma {

class RdmaMonitor;

enum class ReconfigMode {
  kGlobalSafe,      ///< Fig. 8: the paper's corrected protocol
  kPerShardUnsafe,  ///< Fig. 4a strawman: per-shard reconfiguration + RDMA
};

class Replica : public sim::Process,
                private recon::StackHooks,
                private commit::ReplicationHooks {
 public:
  struct Options {
    ShardId shard = 0;
    ReconfigMode mode = ReconfigMode::kGlobalSafe;
    const tcs::ShardMap* shard_map = nullptr;
    const tcs::Certifier* certifier = nullptr;
    /// Global-CS endpoints (safe mode) or per-shard-CS endpoints (unsafe).
    std::vector<ProcessId> cs_endpoints;
    std::size_t target_shard_size = 2;
    std::function<std::vector<ProcessId>(ShardId, std::size_t)> allocate_spares;
    /// Returns spares reserved by a proposal whose CAS lost (they remain
    /// fresh; see commit::Replica::Options::release_spares).
    std::function<void(ShardId, const std::vector<ProcessId>&)> release_spares;
    Duration probe_patience = 5;
    /// Membership policy for the reconfigurer role (both modes); null
    /// selects recon::ReplaceSuspectsPolicy.  Non-owning.
    recon::PlacementPolicy* placement_policy = nullptr;
    /// Cluster knowledge (zones, load, spare depth) for the policy.
    std::function<recon::PlacementContext(ShardId)> placement_context;
    Duration connect_retry = 5;
    Duration retry_timeout = 0;
    /// ABLATION (tests only): skip the flush() at NEW_CONFIG (Fig. 8 line
    /// 142).  Unsafe: acknowledged-but-unpolled writes are dropped from the
    /// state transfer even though coordinators may have externalized
    /// decisions based on those acknowledgements.
    bool ablate_flush = false;
    /// Debug cross-check: recompute every vote with the flat L1/L2 log scan
    /// and abort on divergence from the witness index (see commit::Replica).
    bool check_certifier_index = false;
    /// Versions per object the snapshot store retains for CSN reads.
    std::size_t snapshot_history_depth = 16;
    RdmaMonitor* monitor = nullptr;
  };

  Replica(rt::Runtime& rt, Fabric& fabric, ProcessId id, Options options);

  /// Installs the pre-activated initial configuration.  The harness opens
  /// the initial RDMA connections.
  void bootstrap(commit::Status status, const configsvc::GlobalConfig& config);
  void bootstrap_spare(const configsvc::GlobalConfig& config);

  /// As commit::Replica::certify_local: the callback's Time is csn(t).ts
  /// (0 for aborts); `origin` is the co-located client a successor
  /// coordinator routes the decision to after a crash.
  void certify_local(TxnId txn, const tcs::Payload& payload,
                     std::function<void(tcs::Decision, Time)> cb,
                     ProcessId origin = kNoProcess) {
    cert_.certify_local(txn, payload, std::move(cb), origin);
  }

  /// Batched certify with this replica as coordinator of every item (see
  /// commit::Replica::certify_batch_local): one PREPARE_BATCH per shard
  /// leader, one batched one-sided ACCEPT write per follower.
  void certify_batch_local(
      const std::vector<std::pair<TxnId, tcs::Payload>>& batch,
      std::function<void(TxnId, tcs::Decision, Time)> cb,
      ProcessId origin = kNoProcess) {
    cert_.certify_batch_local(batch, std::move(cb), origin);
  }

  /// Global reconfiguration (safe mode, Fig. 8 line 103).
  void reconfigure();
  /// Per-shard reconfiguration (unsafe mode only).
  void reconfigure_shard(ShardId s);

  void retry(Slot k) { cert_.retry(k); }

  ShardId shard() const { return options_.shard; }
  commit::Status status() const { return cert_.status(); }
  bool initialized() const { return initialized_; }
  Epoch epoch() const { return epoch_of(options_.shard); }
  const commit::ReplicaLog& log() const { return cert_.log(); }
  const configsvc::GlobalConfig& global_config() const { return config_; }
  ProcessId leader_of(ShardId s) const override;
  std::vector<ProcessId> members_of(ShardId s) const;
  const std::set<ProcessId>& connections() const { return connections_; }
  /// The shared reconfigurer core (stats + spare-ledger introspection).
  const recon::Engine& recon_engine() const { return engine_; }

  // --- CSN read surface (see commit::Replica) --------------------------------
  //
  // No fabric flush is needed before serving a read: an RAccept still in
  // flight means this replica never acknowledged, so the transaction cannot
  // be decided anywhere (lines 96-97); an RDecision still in flight leaves
  // the slot prepared here, where it gates the watermark.

  /// The largest snapshot this replica can currently serve.
  tcs::Csn read_watermark() const { return cert_.read_watermark(); }

  /// The multi-version committed state CSN reads are served from.
  const store::SnapshotStore& snapshot_store() const { return cert_.snapshot_store(); }

  void on_message(ProcessId from, const sim::AnyMessage& msg) override;

 private:
  // Certification path (Fig. 7); the shared steps run on cert_.
  void handle_prepare(ProcessId from, const commit::Prepare& m);
  void handle_prepare_batch(ProcessId from, const commit::PrepareBatch& m);
  void deliver_rdma(ProcessId from, const sim::AnyMessage& msg);
  void handle_rdma_ack(const RdmaAck& ack);

  // commit::ReplicationHooks — the one-sided transport of cert_.
  Epoch epoch_of(ShardId s) const override;
  std::vector<ProcessId> followers_of(ShardId s) const override;
  void replicate(ProcessId follower, const commit::Accept& acc) override;
  void replicate_batch(ProcessId follower, std::vector<commit::Accept> items) override;
  void ship_decision(const commit::DecisionMsg& d) override;
  void on_vote_computed(ShardId shard, Epoch epoch, Slot slot, TxnId txn,
                        tcs::Decision vote, const tcs::Payload& payload,
                        std::vector<TxnId> committed,
                        std::vector<TxnId> prepared) override;
  void on_local_decision(TxnId txn, tcs::Decision d) override;

  // Reconfiguration (Fig. 8 for safe mode; Fig. 1 lines 33-69 for unsafe).
  // The probe/descend/placement/CAS lifecycle lives in recon::Engine; the
  // hooks below adapt it to the global (GCS) and per-shard (CS) substrates.
  // What stays here is the probed side (handle_probe) and the safe mode's
  // fabric-aware install phase (CONFIG_PREPARE .. CONNECT, Fig. 8 lines
  // 131-162), which the engine triggers through activate().
  void handle_probe(ProcessId from, const commit::Probe& m);
  void handle_config_prepare(ProcessId from, const ConfigPrepare& m);
  void handle_config_prepare_ack(ProcessId from, const ConfigPrepareAck& m);
  void handle_new_config(const RNewConfig& m);
  void handle_new_state(ProcessId from, const RNewState& m);
  void handle_connect(ProcessId from, const Connect& m);
  void handle_connect_ack(ProcessId from, const ConnectAck& m);
  void open_connections_to(const std::vector<ProcessId>& peers);
  void arm_connect_retry();

  // Unsafe-mode reconfiguration (per-shard, Fig. 1 shape).
  void handle_new_config_unsafe(const commit::NewConfig& m);
  void handle_new_state_unsafe(ProcessId from, const commit::NewState& m);
  void handle_config_change(const configsvc::ConfigChange& m);

  // recon::StackHooks.
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
  Fabric& fabric_;
  configsvc::GcsClient gcs_;
  configsvc::CsClient cs_;  // unsafe mode
  fd::Responder fd_responder_;
  RdmaMonitor* monitor_;

  bool initialized_ = false;
  Epoch new_epoch_ = kNoEpoch;
  Epoch epoch_ = kNoEpoch;  ///< the single system epoch (safe mode)
  configsvc::GlobalConfig config_;
  configsvc::GlobalConfig pending_config_;  ///< staged by CONFIG_PREPARE
  /// Unsafe mode: per-shard views, as in Fig. 1.
  std::map<ShardId, configsvc::ShardConfig> views_;
  std::set<ProcessId> connections_;

  // Reconfigurer: the probe/descend/CAS core is engine_; what remains here
  // is the safe mode's install phase (staged by activate()).
  recon::Engine engine_;
  bool installing_ = false;  ///< CONFIG_PREPARE dissemination in flight
  configsvc::GlobalConfig recon_config_;
  std::set<ProcessId> config_prepare_acks_;

  /// The leader and coordinator roles (Fig. 7) and the shard state they
  /// share: log, witness index, snapshot store, status.
  commit::CertEngine cert_;
  /// RDMA write tokens -> (txn, shard, follower) per batched item, for ack
  /// matching (scalar writes hold one entry; a batched write's single NIC
  /// ack fans out to every item it carried).
  std::map<std::uint64_t, std::vector<std::tuple<TxnId, ShardId, ProcessId>>>
      write_tokens_;
};

}  // namespace ratc::rdma
