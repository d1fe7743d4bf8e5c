#include "rdma/replica.h"

#include <algorithm>
#include <cassert>

#include "common/log.h"
#include "ctrl/messages.h"
#include "rdma/monitor.h"

namespace ratc::rdma {

Replica::Replica(rt::Runtime& rt, Fabric& fabric, ProcessId id, Options options)
    : Process(rt, id, "rr" + std::to_string(id) + "/s" + std::to_string(options.shard)),
      options_(std::move(options)),
      fabric_(fabric),
      gcs_(rt, id, options_.cs_endpoints),
      cs_(rt, id, options_.cs_endpoints),
      fd_responder_(rt, id),
      monitor_(options_.monitor),
      engine_(rt, id, *this,
              {.target_shard_size = options_.target_shard_size,
               .probe_patience = options_.probe_patience,
               .policy = options_.placement_policy}),
      cert_(rt, id, name(), *this,
            {.shard = options_.shard,
             .shard_map = options_.shard_map,
             .certifier = options_.certifier,
             .retry_timeout = options_.retry_timeout,
             .check_certifier_index = options_.check_certifier_index,
             .snapshot_history_depth = options_.snapshot_history_depth,
             .monitored = monitor_ != nullptr}) {
  fabric_.attach(
      id,
      [this](ProcessId from, const sim::AnyMessage& msg) { deliver_rdma(from, msg); },
      [this](const RdmaAck& ack) { handle_rdma_ack(ack); });
}

Epoch Replica::epoch_of(ShardId s) const {
  if (options_.mode == ReconfigMode::kGlobalSafe) return epoch_;
  auto it = views_.find(s);
  return it == views_.end() ? kNoEpoch : it->second.epoch;
}

ProcessId Replica::leader_of(ShardId s) const {
  if (options_.mode == ReconfigMode::kGlobalSafe) {
    auto it = config_.leaders.find(s);
    return it == config_.leaders.end() ? kNoProcess : it->second;
  }
  auto it = views_.find(s);
  return it == views_.end() ? kNoProcess : it->second.leader;
}

std::vector<ProcessId> Replica::members_of(ShardId s) const {
  if (options_.mode == ReconfigMode::kGlobalSafe) {
    auto it = config_.members.find(s);
    return it == config_.members.end() ? std::vector<ProcessId>{} : it->second;
  }
  auto it = views_.find(s);
  return it == views_.end() ? std::vector<ProcessId>{} : it->second.members;
}

std::vector<ProcessId> Replica::followers_of(ShardId s) const {
  std::vector<ProcessId> out = members_of(s);
  out.erase(std::remove(out.begin(), out.end(), leader_of(s)), out.end());
  return out;
}

void Replica::bootstrap(commit::Status status, const configsvc::GlobalConfig& config) {
  cert_.set_status(status);
  initialized_ = true;
  epoch_ = config.epoch;
  new_epoch_ = config.epoch;
  config_ = config;
  for (const auto& [s, members] : config.members) {
    configsvc::ShardConfig& v = views_[s];
    v.epoch = config.epoch;
    v.members = members;
    v.leader = config.leaders.at(s);
  }
  // Epoch 1 is pre-activated: all connections open.
  for (ProcessId p : config.all_members()) {
    if (p == id()) continue;
    fabric_.open(id(), p);
    connections_.insert(p);
  }
  cert_.arm_retry_timer();
}

void Replica::bootstrap_spare(const configsvc::GlobalConfig& config) {
  cert_.set_status(commit::Status::kReconfiguring);
  initialized_ = false;
  config_ = config;
  epoch_ = kNoEpoch;
  new_epoch_ = kNoEpoch;
  for (const auto& [s, members] : config.members) {
    configsvc::ShardConfig& v = views_[s];
    v.epoch = config.epoch;
    v.members = members;
    v.leader = config.leaders.at(s);
  }
  if (options_.mode == ReconfigMode::kPerShardUnsafe) {
    // No connection management in the strawman: spares accept writes too.
    for (ProcessId p : config.all_members()) {
      if (p != id()) fabric_.open(id(), p);
    }
  }
  cert_.arm_retry_timer();
}

// --- certification (Fig. 7) ---------------------------------------------------

void Replica::handle_prepare(ProcessId from, const commit::Prepare& m) {
  // Line 78 pre.
  if (status() != commit::Status::kLeader) return;
  rt().send_msg(id(), from, cert_.prepare_txn(m));
}

void Replica::handle_prepare_batch(ProcessId from, const commit::PrepareBatch& m) {
  if (status() != commit::Status::kLeader) return;  // line 78 pre, once for the batch
  rt().send_msg(id(), from, cert_.prepare_batch(m));
}

void Replica::handle_rdma_ack(const RdmaAck& ack) {
  auto it = write_tokens_.find(ack.token);
  if (it == write_tokens_.end()) return;  // a DECISION write; nothing to track
  std::vector<std::tuple<TxnId, ShardId, ProcessId>> entries = std::move(it->second);
  write_tokens_.erase(it);
  for (const auto& [txn, s, follower] : entries) cert_.record_ack(txn, s, follower);
}

void Replica::deliver_rdma(ProcessId from, const sim::AnyMessage& msg) {
  (void)from;
  // Line 95: no guard — the write already landed; the CPU just records it.
  auto land = [this](const RAccept& a) {
    cert_.fill_prepared(a.slot, a.txn, a.payload, a.vote, a.meta, a.prepare_ts);
  };
  if (const auto* a = msg.as<RAccept>()) {
    land(*a);
  } else if (const auto* ab = msg.as<RAcceptBatch>()) {
    // The batched write lands its items back-to-back, in order.
    for (const RAccept& item : ab->items) land(item);
  } else if (const auto* d = msg.as<RDecision>()) {
    cert_.apply_decision(d->slot, d->txn, d->decision, d->csn_ts);  // line 102
  }
}

// --- commit::ReplicationHooks ----------------------------------------------------

namespace {
RAccept to_raccept(commit::Accept a) {
  return RAccept{a.epoch, a.shard, a.slot,    a.txn, std::move(a.payload),
                 a.vote,  std::move(a.meta), a.prepare_ts};
}
}  // namespace

void Replica::replicate(ProcessId follower, const commit::Accept& acc) {
  // Line 93: a one-sided write; its NIC ack is matched through the token.
  std::uint64_t token = fabric_.send_rdma(id(), follower, sim::AnyMessage(to_raccept(acc)));
  write_tokens_[token] = {{acc.txn, acc.shard, follower}};
}

void Replica::replicate_batch(ProcessId follower, std::vector<commit::Accept> items) {
  // One batched write carries the whole batch; its single NIC ack fans out
  // to every item it carried.
  RAcceptBatch batch;
  std::vector<std::tuple<TxnId, ShardId, ProcessId>> entries;
  batch.items.reserve(items.size());
  entries.reserve(items.size());
  for (commit::Accept& a : items) {
    entries.emplace_back(a.txn, a.shard, follower);
    batch.items.push_back(to_raccept(std::move(a)));
  }
  std::uint64_t token = fabric_.send_rdma(id(), follower, sim::AnyMessage(std::move(batch)));
  write_tokens_[token] = std::move(entries);
}

void Replica::ship_decision(const commit::DecisionMsg& d) {
  // Lines 99-100: decisions are one-sided writes too.
  RDecision w{d.epoch, d.shard, d.slot, d.txn, d.decision, d.csn_ts};
  for (ProcessId p : members_of(d.shard)) fabric_.send_rdma(id(), p, sim::AnyMessage(w));
}

void Replica::on_vote_computed(ShardId shard, Epoch epoch, Slot slot, TxnId txn,
                               tcs::Decision vote, const tcs::Payload& payload,
                               std::vector<TxnId> committed,
                               std::vector<TxnId> prepared) {
  monitor_->on_vote_computed(shard, epoch, slot, txn, vote, payload, std::move(committed),
                             std::move(prepared));
}

void Replica::on_local_decision(TxnId txn, tcs::Decision d) {
  monitor_->on_local_decision(txn, d);
}

// --- reconfiguration: the engine's hooks ----------------------------------------
//
// Both modes run the shared reconfigurer core (recon::Engine).  Safe mode
// (Fig. 8): one multi-shard attempt over the global configuration service;
// the engine waits for an initialized responder in EVERY shard (line 117)
// before proposing, and activate() stages the fabric-aware install phase
// (CONFIG_PREPARE dissemination).  Unsafe mode (the Fig. 4a strawman): the
// Fig. 1 per-shard attempt, with NEW_CONFIG handed straight to the new
// leader — reproducing the protocol the paper proves incorrect.

void Replica::reconfigure() {
  assert(options_.mode == ReconfigMode::kGlobalSafe);
  // Line 104 pre: not already probing or installing.
  if (installing_) return;
  engine_.start({});  // shard set comes from the GCS snapshot
}

void Replica::reconfigure_shard(ShardId s) {
  assert(options_.mode == ReconfigMode::kPerShardUnsafe);
  engine_.start({s});
}

void Replica::handle_probe(ProcessId from, const commit::Probe& m) {
  // Line 112 pre (line 41 in unsafe mode).
  if (m.epoch < new_epoch_) return;
  cert_.set_status(commit::Status::kReconfiguring);
  if (options_.mode == ReconfigMode::kGlobalSafe) {
    // Line 114: sever all incoming RDMA connections — the guard that the
    // unsafe variant lacks.
    fabric_.close_all(id());
    connections_.clear();
  }
  new_epoch_ = m.epoch;
  rt().send_msg(id(), from, commit::ProbeAck{initialized_, m.epoch, options_.shard});
}

void Replica::fetch_latest(const std::vector<ShardId>& shards,
                           std::function<void(bool, recon::Snapshot)> cb) {
  if (options_.mode == ReconfigMode::kGlobalSafe) {
    // Lines 106-110: the global protocol probes every shard of the latest
    // stored global configuration.
    gcs_.get_last([cb](const configsvc::GlobalConfig& cfg) {
      if (!cfg.valid()) {
        cb(false, {});
        return;
      }
      recon::Snapshot snap;
      snap.epoch = cfg.epoch;
      snap.members = cfg.members;
      cb(true, snap);
    });
  } else {
    ShardId s = shards.front();
    cs_.get_last(s, [s, cb](const configsvc::ShardConfig& cfg) {
      if (!cfg.valid()) {
        cb(false, {});
        return;
      }
      recon::Snapshot snap;
      snap.epoch = cfg.epoch;
      snap.members[s] = cfg.members;
      cb(true, snap);
    });
  }
}

void Replica::fetch_members_at(ShardId shard, Epoch epoch,
                               std::function<void(bool, std::vector<ProcessId>)> cb) {
  if (options_.mode == ReconfigMode::kGlobalSafe) {
    gcs_.get(epoch, [shard, cb](bool found, const configsvc::GlobalConfig& cfg) {
      if (!found) {
        cb(false, {});
        return;
      }
      auto mit = cfg.members.find(shard);
      if (mit == cfg.members.end()) {
        cb(false, {});
        return;
      }
      cb(true, mit->second);
    });
  } else {
    cs_.get(shard, epoch, [cb](bool found, const configsvc::ShardConfig& cfg) {
      cb(found, cfg.members);
    });
  }
}

void Replica::send_probe(ProcessId target, Epoch new_epoch) {
  rt().send_msg(id(), target, commit::Probe{new_epoch});
}

std::vector<ProcessId> Replica::reserve_spares(ShardId shard, std::size_t n) {
  return options_.allocate_spares ? options_.allocate_spares(shard, n)
                                  : std::vector<ProcessId>{};
}

void Replica::release_spares(ShardId shard, const std::vector<ProcessId>& spares) {
  // Losing a CAS (e.g. two nudged replicas racing the global CAS) must not
  // consume the fresh spares the losing proposal reserved; the engine
  // routes them back here.
  if (options_.release_spares) options_.release_spares(shard, spares);
}

namespace {
configsvc::GlobalConfig to_global(const recon::Proposal& proposal) {
  configsvc::GlobalConfig gc;
  gc.epoch = proposal.epoch;
  for (const auto& [s, cfg] : proposal.shards) {
    gc.members[s] = cfg.members;
    gc.leaders[s] = cfg.leader;
  }
  return gc;
}
}  // namespace

void Replica::submit(const recon::Proposal& proposal,
                     std::function<void(bool)> done) {
  if (options_.mode == ReconfigMode::kGlobalSafe) {
    gcs_.cas(proposal.epoch - 1, to_global(proposal), std::move(done));
  } else {
    const auto& [shard, next] = *proposal.shards.begin();
    cs_.cas(shard, proposal.epoch - 1, next, std::move(done));
  }
}

void Replica::activate(const recon::Proposal& proposal) {
  if (options_.mode == ReconfigMode::kGlobalSafe) {
    // Lines 131-136 start here: disseminate CONFIG_PREPARE to the whole new
    // membership; activation (RNEW_CONFIG) waits for every ack.
    recon_config_ = to_global(proposal);
    installing_ = true;
    config_prepare_acks_.clear();
    for (ProcessId p : recon_config_.all_members()) {
      rt().send_msg(id(), p, ConfigPrepare{recon_config_.epoch, recon_config_});
    }
  } else {
    const configsvc::ShardConfig& next = proposal.shards.begin()->second;
    rt().send_msg(id(), next.leader, commit::NewConfig{next.epoch, next.members});
  }
}

recon::PlacementContext Replica::placement_context(ShardId shard) {
  return options_.placement_context ? options_.placement_context(shard)
                                    : recon::PlacementContext{};
}

void Replica::handle_config_prepare(ProcessId from, const ConfigPrepare& m) {
  // Lines 132-136.
  if (m.epoch < new_epoch_) return;
  pending_config_ = m.config;
  new_epoch_ = m.epoch;
  rt().send_msg(id(), from, ConfigPrepareAck{m.epoch});
}

void Replica::handle_config_prepare_ack(ProcessId from, const ConfigPrepareAck& m) {
  // Lines 137-140.
  if (!installing_ || m.epoch != recon_config_.epoch) return;
  config_prepare_acks_.insert(from);
  for (ProcessId p : recon_config_.all_members()) {
    if (config_prepare_acks_.count(p) == 0) return;
  }
  installing_ = false;
  for (ProcessId l : recon_config_.all_leaders()) {
    rt().send_msg(id(), l, RNewConfig{recon_config_.epoch});
  }
}

void Replica::handle_new_config(const RNewConfig& m) {
  // Lines 141-147.
  if (m.epoch < new_epoch_ || pending_config_.epoch != m.epoch) return;
  // Line 142: everything the NICs acknowledged must be visible before the
  // state transfer — coordinators may have externalized decisions based on
  // those acknowledgements.
  if (!options_.ablate_flush) fabric_.flush(id());
  cert_.set_status(commit::Status::kLeader);
  epoch_ = m.epoch;
  new_epoch_ = m.epoch;
  config_ = pending_config_;
  cert_.take_over();  // line 145
  RNewState ns;
  ns.epoch = epoch_;
  ns.log = cert_.log();
  for (ProcessId p : config_.members.at(options_.shard)) {
    if (p != id()) rt().send_msg(id(), p, ns);
  }
  open_connections_to(config_.all_members());  // line 147
  arm_connect_retry();
  RATC_DEBUG(name() << " leads s" << options_.shard << " at global epoch " << epoch_);
}

void Replica::handle_new_state(ProcessId from, const RNewState& m) {
  (void)from;
  // Lines 148-153.
  if (m.epoch < new_epoch_ || pending_config_.epoch != m.epoch) return;
  cert_.set_status(commit::Status::kFollower);
  epoch_ = m.epoch;
  new_epoch_ = m.epoch;
  initialized_ = true;
  config_ = pending_config_;
  cert_.install_log(m.log);
  // Deviation: line 153 sends CONNECT only to other shards' members; we
  // connect to all members so same-shard followers can serve as
  // coordinators for each other's transactions too.
  open_connections_to(config_.all_members());
  arm_connect_retry();
}

void Replica::open_connections_to(const std::vector<ProcessId>& peers) {
  for (ProcessId p : peers) {
    if (p == id() || connections_.count(p)) continue;
    rt().send_msg(id(), p, Connect{epoch_});
  }
}

void Replica::arm_connect_retry() {
  rt().schedule_for(id(), options_.connect_retry, [this, e = epoch_] {
    if (epoch_ != e || status() == commit::Status::kReconfiguring) return;
    bool missing = false;
    for (ProcessId p : config_.all_members()) {
      if (p != id() && connections_.count(p) == 0) {
        rt().send_msg(id(), p, Connect{epoch_});
        missing = true;
      }
    }
    if (missing) arm_connect_retry();
  });
}

void Replica::handle_connect(ProcessId from, const Connect& m) {
  // Lines 154-158.
  if (status() == commit::Status::kReconfiguring || m.epoch != epoch_) return;
  if (connections_.count(from) == 0) {
    fabric_.open(id(), from);
    connections_.insert(from);
  }
  rt().send_msg(id(), from, ConnectAck{epoch_});
}

void Replica::handle_connect_ack(ProcessId from, const ConnectAck& m) {
  // Lines 159-162.
  if (status() == commit::Status::kReconfiguring || m.epoch != epoch_) return;
  if (connections_.count(from)) return;
  fabric_.open(id(), from);
  connections_.insert(from);
}

// --- reconfiguration: per-shard unsafe mode (Fig. 4a strawman) -----------------

void Replica::handle_new_config_unsafe(const commit::NewConfig& m) {
  if (m.epoch < new_epoch_) return;
  new_epoch_ = m.epoch;
  cert_.set_status(commit::Status::kLeader);
  configsvc::ShardConfig& v = views_[options_.shard];
  v.epoch = m.epoch;
  v.members = m.members;
  v.leader = id();
  cert_.take_over();
  commit::NewState ns;
  ns.epoch = m.epoch;
  ns.members = m.members;
  ns.log = cert_.log();
  for (ProcessId p : m.members) {
    if (p != id()) rt().send_msg(id(), p, ns);
  }
}

void Replica::handle_new_state_unsafe(ProcessId from, const commit::NewState& m) {
  if (m.epoch < new_epoch_) return;
  new_epoch_ = m.epoch;
  initialized_ = true;
  cert_.set_status(commit::Status::kFollower);
  configsvc::ShardConfig& v = views_[options_.shard];
  v.epoch = m.epoch;
  v.members = m.members;
  v.leader = from;
  cert_.install_log(m.log);
}

void Replica::handle_config_change(const configsvc::ConfigChange& m) {
  if (m.shard == options_.shard) return;
  configsvc::ShardConfig& v = views_[m.shard];
  if (v.epoch >= m.config.epoch) return;
  v = m.config;
}

void Replica::on_message(ProcessId from, const sim::AnyMessage& msg) {
  if (options_.mode == ReconfigMode::kGlobalSafe ? gcs_.handle(msg) : cs_.handle(msg)) {
    return;
  }
  if (fd_responder_.handle(from, msg)) return;
  if (const auto* c = msg.as<commit::CertifyRequest>()) {
    cert_.certify_remote(from, *c);
  } else if (const auto* p = msg.as<commit::Prepare>()) {
    handle_prepare(from, *p);
  } else if (const auto* pb = msg.as<commit::PrepareBatch>()) {
    handle_prepare_batch(from, *pb);
  } else if (const auto* pa = msg.as<commit::PrepareAck>()) {
    cert_.on_prepare_ack(*pa);
  } else if (const auto* pab = msg.as<commit::PrepareAckBatch>()) {
    cert_.on_prepare_ack_batch(*pab);
  } else if (const auto* pr = msg.as<commit::Probe>()) {
    handle_probe(from, *pr);
  } else if (const auto* pra = msg.as<commit::ProbeAck>()) {
    engine_.on_probe_ack(from, pra->shard, pra->epoch, pra->initialized);
  } else if (const auto* cp = msg.as<ConfigPrepare>()) {
    handle_config_prepare(from, *cp);
  } else if (const auto* cpa = msg.as<ConfigPrepareAck>()) {
    handle_config_prepare_ack(from, *cpa);
  } else if (const auto* nc = msg.as<RNewConfig>()) {
    handle_new_config(*nc);
  } else if (const auto* ns = msg.as<RNewState>()) {
    handle_new_state(from, *ns);
  } else if (const auto* cn = msg.as<Connect>()) {
    handle_connect(from, *cn);
  } else if (const auto* cna = msg.as<ConnectAck>()) {
    handle_connect_ack(from, *cna);
  } else if (const auto* nc2 = msg.as<commit::NewConfig>()) {
    handle_new_config_unsafe(*nc2);
  } else if (const auto* ns2 = msg.as<commit::NewState>()) {
    handle_new_state_unsafe(from, *ns2);
  } else if (const auto* cc = msg.as<configsvc::ConfigChange>()) {
    handle_config_change(*cc);
  } else if (msg.as<ctrl::NudgeReconfig>() != nullptr) {
    // A reconfiguration controller suspects a member: run the global
    // reconfiguration (Fig. 8).  No-op while one is already in flight
    // (reconfigure()'s installing_ guard, and recon::Engine::start refuses
    // while probing); the controller's watchdog re-nudges if nothing lands.
    if (options_.mode == ReconfigMode::kGlobalSafe) reconfigure();
  }
}

}  // namespace ratc::rdma
