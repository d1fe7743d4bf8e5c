#include "commit/replica.h"

#include "commit/monitor.h"
#include "common/log.h"

namespace ratc::commit {

Replica::Replica(rt::Runtime& rt, ProcessId id, Options options)
    : Process(rt, id, "r" + std::to_string(id) + "/s" + std::to_string(options.shard)),
      options_(std::move(options)),
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
             .monitored = monitor_ != nullptr}) {}

const configsvc::ShardConfig& Replica::view(ShardId s) const {
  static const configsvc::ShardConfig kInvalid;
  auto it = views_.find(s);
  return it == views_.end() ? kInvalid : it->second;
}

void Replica::bootstrap(Status status,
                        const std::map<ShardId, configsvc::ShardConfig>& all_views) {
  views_ = all_views;
  cert_.set_status(status);
  initialized_ = true;
  new_epoch_ = view(options_.shard).epoch;
  cert_.arm_retry_timer();
}

void Replica::bootstrap_spare(
    const std::map<ShardId, configsvc::ShardConfig>& all_views) {
  views_ = all_views;
  cert_.set_status(Status::kReconfiguring);  // inert until it receives NEW_STATE
  initialized_ = false;
  new_epoch_ = kNoEpoch;
  // A spare's view of its own shard must not claim membership.
  cert_.arm_retry_timer();
}

// --- certification ----------------------------------------------------------

static Accept make_accept(const PrepareAck& ack, ProcessId coordinator) {
  Accept acc = CertEngine::accept_of(ack);
  acc.coordinator = coordinator;
  return acc;
}

void Replica::handle_prepare(ProcessId from, const Prepare& m) {
  // Line 5 pre: status = leader.
  if (status() != Status::kLeader) return;
  PrepareAck ack = cert_.prepare_txn(m);
  rt().send_msg(id(), from, ack);
  if (options_.leader_ships_accepts) {
    // Ablation: leader-driven replication — the leader fans the ACCEPT out
    // itself; followers acknowledge to the coordinator.
    Accept acc = make_accept(ack, from);
    for (ProcessId f : view(options_.shard).followers()) {
      rt().send_msg(id(), f, acc);
    }
  }
}

void Replica::handle_prepare_batch(ProcessId from, const PrepareBatch& m) {
  if (status() != Status::kLeader) return;  // line 5 pre, once for the batch
  PrepareAckBatch acks = cert_.prepare_batch(m);
  std::map<ProcessId, AcceptBatch> ship;  // leader-driven ablation only
  if (options_.leader_ships_accepts) {
    for (const PrepareAck& ack : acks.items) {
      Accept acc = make_accept(ack, from);
      for (ProcessId f : view(options_.shard).followers()) ship[f].items.push_back(acc);
    }
  }
  rt().send_msg(id(), from, std::move(acks));
  for (auto& [f, batch] : ship) rt().send_msg(id(), f, std::move(batch));
}

bool Replica::apply_accept(ProcessId from, const Accept& m, AcceptAck* ack,
                           ProcessId* coordinator) {
  // Line 22 pre: status = follower ∧ epoch[s0] = e.  This guard is what the
  // RDMA variant loses (Sec. 5) — see rdma/replica.cc.
  if (status() != Status::kFollower) return false;
  if (view(options_.shard).epoch != m.epoch) return false;
  const LogEntry* current = cert_.log().find(m.slot);
  if (current == nullptr || !current->filled()) {
    // Line 24 (the paper writes `next`; the intended index is k).
    cert_.fill_prepared(m.slot, m.txn, m.payload, m.vote, m.meta, m.prepare_ts);
  }
  // Line 25: acknowledge to the coordinator (which in the leader-driven
  // ablation is not the sender).
  *coordinator = m.coordinator != kNoProcess ? m.coordinator : from;
  *ack = AcceptAck{options_.shard, m.epoch, m.slot, m.txn, m.vote};
  return true;
}

void Replica::handle_accept(ProcessId from, const Accept& m) {
  AcceptAck ack;
  ProcessId coordinator = kNoProcess;
  if (!apply_accept(from, m, &ack, &coordinator)) return;
  rt().send_msg(id(), coordinator, ack);
}

void Replica::handle_accept_batch(ProcessId from, const AcceptBatch& m) {
  std::map<ProcessId, AcceptAckBatch> replies;
  for (const Accept& item : m.items) {
    AcceptAck ack;
    ProcessId coordinator = kNoProcess;
    if (!apply_accept(from, item, &ack, &coordinator)) continue;
    replies[coordinator].items.push_back(ack);
  }
  for (auto& [coordinator, batch] : replies) {
    if (batch.items.size() == 1) {
      rt().send_msg(id(), coordinator, std::move(batch.items.front()));
    } else {
      rt().send_msg(id(), coordinator, std::move(batch));
    }
  }
}

void Replica::handle_decision(ProcessId from, const DecisionMsg& m) {
  (void)from;
  // Line 31 pre: status ∈ {leader, follower} ∧ epoch[s0] ≥ e.
  if (status() == Status::kReconfiguring) return;
  if (view(options_.shard).epoch < m.epoch) return;
  cert_.apply_decision(m.slot, m.txn, m.decision, m.csn_ts);  // line 32
}

// --- ReplicationHooks ---------------------------------------------------------

void Replica::replicate(ProcessId follower, const Accept& acc) {
  // Line 20.  Suppressed in the leader-driven ablation, where the leader
  // already fanned the ACCEPT out.
  if (options_.leader_ships_accepts) return;
  rt().send_msg(id(), follower, acc);
}

void Replica::replicate_batch(ProcessId follower, std::vector<Accept> items) {
  if (options_.leader_ships_accepts) return;
  rt().send_msg(id(), follower, AcceptBatch{std::move(items)});
}

void Replica::ship_decision(const DecisionMsg& d) {
  // Lines 28-29: persist the decision at every member of the shard.
  for (ProcessId p : view(d.shard).members) rt().send_msg(id(), p, d);
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

// --- reconfiguration ----------------------------------------------------------

void Replica::reconfigure(ShardId s) {
  // The attempt lifecycle — probe/descend epoch search, placement, CAS with
  // loser spare-release — is the shared reconfigurer core (recon::Engine);
  // this replica only supplies the StackHooks below.  start() refuses while
  // an attempt is in flight (line 34's probing guard).
  engine_.start({s});
}

void Replica::handle_probe(ProcessId from, const Probe& m) {
  // Line 41 pre: e ≥ new_epoch.
  if (m.epoch < new_epoch_) return;
  // Lines 42-44: stop processing transactions and acknowledge.
  cert_.set_status(Status::kReconfiguring);
  new_epoch_ = m.epoch;
  rt().send_msg(id(), from, ProbeAck{initialized_, m.epoch, options_.shard});
}

// --- recon::StackHooks --------------------------------------------------------

void Replica::fetch_latest(const std::vector<ShardId>& shards,
                           std::function<void(bool, recon::Snapshot)> cb) {
  ShardId s = shards.front();  // per-shard reconfiguration: one shard
  cs_.get_last(s, [s, cb](const configsvc::ShardConfig& cfg) {
    if (!cfg.valid()) {  // nothing stored: cannot reconfigure an unborn shard
      cb(false, {});
      return;
    }
    recon::Snapshot snap;
    snap.epoch = cfg.epoch;
    snap.members[s] = cfg.members;
    cb(true, snap);
  });
}

void Replica::fetch_members_at(ShardId shard, Epoch epoch,
                               std::function<void(bool, std::vector<ProcessId>)> cb) {
  cs_.get(shard, epoch, [cb](bool found, const configsvc::ShardConfig& cfg) {
    cb(found, cfg.members);
  });
}

void Replica::send_probe(ProcessId target, Epoch new_epoch) {
  rt().send_msg(id(), target, Probe{new_epoch});
}

std::vector<ProcessId> Replica::reserve_spares(ShardId shard, std::size_t n) {
  return options_.allocate_spares ? options_.allocate_spares(shard, n)
                                  : std::vector<ProcessId>{};
}

void Replica::release_spares(ShardId shard, const std::vector<ProcessId>& spares) {
  if (options_.release_spares) options_.release_spares(shard, spares);
}

void Replica::submit(const recon::Proposal& proposal,
                     std::function<void(bool)> done) {
  const auto& [shard, next] = *proposal.shards.begin();
  cs_.cas(shard, proposal.epoch - 1, next, std::move(done));
}

void Replica::activate(const recon::Proposal& proposal) {
  // Line 50: hand the won configuration to its new leader.
  const configsvc::ShardConfig& next = proposal.shards.begin()->second;
  rt().send_msg(id(), next.leader, NewConfig{next.epoch, next.members});
}

recon::PlacementContext Replica::placement_context(ShardId shard) {
  return options_.placement_context ? options_.placement_context(shard)
                                    : recon::PlacementContext{};
}

void Replica::handle_new_config(ProcessId from, const NewConfig& m) {
  (void)from;
  // Guard per the proof of Invariant 3: only accept configurations at least
  // as new as the highest probed epoch.
  if (m.epoch < new_epoch_) return;
  new_epoch_ = m.epoch;
  // Lines 57-58.
  cert_.set_status(Status::kLeader);
  configsvc::ShardConfig& v = views_[options_.shard];
  v.epoch = m.epoch;
  v.members = m.members;
  v.leader = id();
  cert_.take_over();  // line 59
  if (monitor_) monitor_->on_epoch_installed(*this);
  // Line 60: transfer state to the followers.
  NewState ns;
  ns.epoch = m.epoch;
  ns.members = m.members;
  ns.log = cert_.log();
  for (ProcessId p : m.members) {
    if (p != id()) rt().send_msg(id(), p, ns);
  }
  RATC_DEBUG(name() << " leads s" << options_.shard << " at epoch " << m.epoch);
}

void Replica::handle_new_state(ProcessId from, const NewState& m) {
  // Line 62 pre: e ≥ new_epoch.
  if (m.epoch < new_epoch_) return;
  new_epoch_ = m.epoch;
  // Lines 63-66.
  initialized_ = true;
  cert_.set_status(Status::kFollower);
  configsvc::ShardConfig& v = views_[options_.shard];
  v.epoch = m.epoch;
  v.members = m.members;
  v.leader = from;
  cert_.install_log(m.log);
  if (monitor_) monitor_->on_epoch_installed(*this);
  RATC_DEBUG(name() << " follows " << process_name(from) << " in s" << options_.shard
                    << " at epoch " << m.epoch);
}

void Replica::handle_config_change(const configsvc::ConfigChange& m) {
  // Line 68 pre: epoch[s] < e ∧ s ≠ s0.
  if (m.shard == options_.shard) return;
  configsvc::ShardConfig& v = views_[m.shard];
  if (v.epoch >= m.config.epoch) return;
  v = m.config;  // line 69
}

// --- dispatch ----------------------------------------------------------------

void Replica::on_message(ProcessId from, const sim::AnyMessage& msg) {
  if (cs_.handle(msg)) return;
  if (fd_responder_.handle(from, msg)) return;
  if (const auto* m = msg.as<CertifyRequest>()) {
    cert_.certify_remote(from, *m);
  } else if (const auto* b = msg.as<CertifyBatchRequest>()) {
    cert_.certify_batch_remote(from, b->items);
  } else if (const auto* p = msg.as<Prepare>()) {
    handle_prepare(from, *p);
  } else if (const auto* pb = msg.as<PrepareBatch>()) {
    handle_prepare_batch(from, *pb);
  } else if (const auto* pa = msg.as<PrepareAck>()) {
    cert_.on_prepare_ack(*pa);
  } else if (const auto* pab = msg.as<PrepareAckBatch>()) {
    cert_.on_prepare_ack_batch(*pab);
  } else if (const auto* a = msg.as<Accept>()) {
    handle_accept(from, *a);
  } else if (const auto* ab = msg.as<AcceptBatch>()) {
    handle_accept_batch(from, *ab);
  } else if (const auto* aa = msg.as<AcceptAck>()) {
    // Only acks at the epoch and slot we replicated count (line 26).
    cert_.record_ack(aa->txn, aa->shard, from, {{aa->epoch, aa->slot}});
  } else if (const auto* aab = msg.as<AcceptAckBatch>()) {
    for (const AcceptAck& item : aab->items) {
      cert_.record_ack(item.txn, item.shard, from, {{item.epoch, item.slot}});
    }
  } else if (const auto* d = msg.as<DecisionMsg>()) {
    handle_decision(from, *d);
  } else if (const auto* pr = msg.as<Probe>()) {
    handle_probe(from, *pr);
  } else if (const auto* pra = msg.as<ProbeAck>()) {
    engine_.on_probe_ack(from, pra->shard, pra->epoch, pra->initialized);
  } else if (const auto* nc = msg.as<NewConfig>()) {
    handle_new_config(from, *nc);
  } else if (const auto* ns = msg.as<NewState>()) {
    handle_new_state(from, *ns);
  } else if (const auto* cc = msg.as<configsvc::ConfigChange>()) {
    handle_config_change(*cc);
  }
}

}  // namespace ratc::commit
