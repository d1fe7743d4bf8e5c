#include "commit/cert_engine.h"

#include <algorithm>
#include <cassert>
#include <cstdlib>

#include "common/log.h"

namespace ratc::commit {

using tcs::Decision;

CertEngine::CertEngine(rt::Runtime& rt, ProcessId id, std::string name,
                       ReplicationHooks& hooks, Options options)
    : rt_(rt),
      id_(id),
      name_(std::move(name)),
      hooks_(hooks),
      options_(std::move(options)),
      store_(options_.snapshot_history_depth) {
  assert(options_.shard_map != nullptr && options_.certifier != nullptr);
}

// --- coordinator ---------------------------------------------------------------

TxnMeta CertEngine::meta_of(TxnId txn, const tcs::Payload& payload, ProcessId client) const {
  TxnMeta meta;
  meta.txn = txn;
  meta.participants = options_.shard_map->shards_of(payload);
  // The client's id rides in the meta so a successor coordinator (retry
  // path, line 70) can still deliver the decision after this replica
  // crashed — the live coordinator of a co-located client always uses the
  // local callback.
  meta.client = client;
  return meta;
}

void CertEngine::certify_local(TxnId txn, const tcs::Payload& payload, LocalCallback cb,
                               ProcessId origin) {
  start_certification(meta_of(txn, payload, origin), &payload, std::move(cb));
}

void CertEngine::certify_remote(ProcessId client, const CertifyRequest& req) {
  start_certification(meta_of(req.txn, req.payload, client), &req.payload, nullptr);
}

CertEngine::CoordState* CertEngine::open_coordination(TxnMeta meta, LocalCallback local_cb) {
  TxnId txn = meta.txn;
  // Transactions touching no shard (empty payloads) commit trivially.
  if (meta.participants.empty()) {
    if (local_cb) {
      if (options_.monitored) hooks_.on_local_decision(txn, Decision::kCommit);
      local_cb(Decision::kCommit, 0);
    } else if (meta.client != kNoProcess) {
      rt_.send_msg(id_, meta.client, ClientDecision{txn, Decision::kCommit});
    }
    return nullptr;
  }
  CoordState& c = coord_[txn];
  if (c.decided) return nullptr;  // late retry of an already-decided coordination
  undecided_coords_.insert(txn);
  c.meta = std::move(meta);
  if (local_cb) c.local_cb = std::move(local_cb);
  c.last_driven = rt_.now();
  return &c;
}

Prepare CertEngine::prepare_for(const TxnMeta& meta, const tcs::Payload* projection) {
  Prepare p;
  p.txn = meta.txn;
  p.has_payload = projection != nullptr;  // ⊥: retry path (line 73)
  if (projection != nullptr) p.payload = *projection;
  p.meta = meta;
  return p;
}

void CertEngine::start_certification(TxnMeta meta, const tcs::Payload* full_payload,
                                     LocalCallback local_cb) {
  CoordState* c = open_coordination(std::move(meta), std::move(local_cb));
  if (c == nullptr) return;
  // Lines 2-3: send PREPARE with the shard projection to each leader.
  for (ShardId s : c->meta.participants) {
    const tcs::Payload* projection = nullptr;
    if (full_payload != nullptr) {
      projection = &(c->shard_payloads[s] = options_.shard_map->project(*full_payload, s));
    }
    rt_.send_msg(id_, hooks_.leader_of(s), prepare_for(c->meta, projection));
  }
}

void CertEngine::certify_batch_local(
    const std::vector<std::pair<TxnId, tcs::Payload>>& batch, BatchCallback cb,
    ProcessId origin) {
  certify_batch(batch, cb, origin);
}

void CertEngine::certify_batch_remote(ProcessId client,
                                      const std::vector<CertifyRequest>& items) {
  certify_batch(items, nullptr, client);
}

template <typename Item>
void CertEngine::certify_batch(const std::vector<Item>& items, const BatchCallback& cb,
                               ProcessId origin) {
  // Same per-transaction coordinator state as start_certification, but the
  // PREPAREs of the whole batch are grouped into one message per shard
  // leader (and one run of consecutive log appends there).  A batch of one
  // sends exactly what start_certification would: participants are sorted,
  // and a lone PREPARE goes out in the scalar form.
  std::map<ShardId, PrepareBatch> per_shard;
  for (const Item& item : items) {
    const auto& [txn, payload] = item;
    LocalCallback local_cb;
    if (cb) local_cb = [cb, txn](Decision d, Time csn_ts) { cb(txn, d, csn_ts); };
    // As in certify_local: carrying the origin client lets a successor
    // coordinator finish *each batch item independently* after a crash —
    // without it, decisions recovered by the line-70 retry path had nowhere
    // to go for locally-submitted batches and the whole batch's outcomes
    // were lost with the coordinator.
    CoordState* c = open_coordination(meta_of(txn, payload, origin), std::move(local_cb));
    if (c == nullptr) continue;
    for (ShardId s : c->meta.participants) {
      const tcs::Payload& projection = c->shard_payloads[s] =
          options_.shard_map->project(payload, s);
      per_shard[s].items.push_back(prepare_for(c->meta, &projection));
    }
  }
  for (auto& [s, pb] : per_shard) {
    if (pb.items.size() == 1) {
      // A lone prepare keeps the scalar vocabulary (and the scalar trace).
      rt_.send_msg(id_, hooks_.leader_of(s), std::move(pb.items.front()));
    } else {
      rt_.send_msg(id_, hooks_.leader_of(s), std::move(pb));
    }
  }
}

Accept CertEngine::accept_of(const PrepareAck& ack) {
  Accept acc;
  acc.epoch = ack.epoch;
  acc.shard = ack.shard;
  acc.slot = ack.slot;
  acc.txn = ack.txn;
  acc.payload = ack.payload;
  acc.vote = ack.vote;
  acc.meta = ack.meta;
  acc.prepare_ts = ack.prepare_ts;
  return acc;
}

bool CertEngine::note_prepare_ack(const PrepareAck& m) {
  // Line 19 pre: epoch[s] = e (the coordinator's view matches the ack).
  if (hooks_.epoch_of(m.shard) != m.epoch) return false;
  auto it = coord_.find(m.txn);
  if (it == coord_.end() || it->second.decided) return false;
  ShardProgress& pr = it->second.progress[m.shard];
  if (!(pr.have_prepare_ack && pr.epoch == m.epoch && pr.slot == m.slot)) {
    pr.have_prepare_ack = true;
    pr.epoch = m.epoch;
    pr.slot = m.slot;
    pr.vote = m.vote;
    pr.prepare_ts = m.prepare_ts;
    pr.follower_acks.clear();
  }
  // Otherwise a duplicate: keep the follower acks, just re-replicate.
  return true;
}

void CertEngine::on_prepare_ack(const PrepareAck& m) {
  if (!note_prepare_ack(m)) return;
  // Line 20: the coordinator ships the leader's result to the followers.
  Accept acc = accept_of(m);
  for (ProcessId f : hooks_.followers_of(m.shard)) hooks_.replicate(f, acc);
  check_coordination(m.txn);  // zero-follower shards complete immediately
}

void CertEngine::on_prepare_ack_batch(const PrepareAckBatch& m) {
  // One batched ACCEPT per follower carries the whole batch's replication;
  // the items all come from one leader, so the follower sets agree.
  std::map<ProcessId, std::vector<Accept>> ship;
  for (const PrepareAck& item : m.items) {
    if (!note_prepare_ack(item)) continue;
    Accept acc = accept_of(item);
    for (ProcessId f : hooks_.followers_of(item.shard)) ship[f].push_back(acc);
    check_coordination(item.txn);  // zero-follower shards complete immediately
  }
  for (auto& [f, items] : ship) {
    if (items.size() == 1) {
      hooks_.replicate(f, items.front());
    } else {
      hooks_.replicate_batch(f, std::move(items));
    }
  }
}

void CertEngine::record_ack(TxnId txn, ShardId shard, ProcessId follower,
                            std::optional<std::pair<Epoch, Slot>> at) {
  auto it = coord_.find(txn);
  if (it == coord_.end() || it->second.decided) return;
  auto pit = it->second.progress.find(shard);
  if (pit == it->second.progress.end()) return;
  ShardProgress& pr = pit->second;
  // Only acks matching the epoch/slot we replicated count (line 26 requires
  // acks at epoch[s]).
  if (at && (!pr.have_prepare_ack || pr.epoch != at->first || pr.slot != at->second)) {
    return;
  }
  pr.follower_acks.insert(follower);
  check_coordination(txn);
}

void CertEngine::check_coordination(TxnId txn) {
  auto it = coord_.find(txn);
  if (it == coord_.end() || it->second.decided) return;
  CoordState& c = it->second;
  // Line 26 / lines 96-97: acks from every follower of every involved
  // shard, at the coordinator's current epoch for that shard.
  Decision decision = Decision::kCommit;
  Time csn_ts = 0;  // csn(t).ts = max prepare stamp over the involved shards
  for (ShardId s : c.meta.participants) {
    auto pit = c.progress.find(s);
    if (pit == c.progress.end()) return;
    const ShardProgress& pr = pit->second;
    if (!pr.have_prepare_ack || pr.epoch != hooks_.epoch_of(s)) return;
    for (ProcessId f : hooks_.followers_of(s)) {
      if (pr.follower_acks.count(f) == 0) return;
    }
    decision = meet(decision, pr.vote);  // line 27's ⊓ fold
    csn_ts = std::max(csn_ts, pr.prepare_ts);
  }
  if (decision != Decision::kCommit) csn_ts = 0;  // aborts never enter the CSN log
  c.decided = true;  // guards re-entrancy from the client callback below
  // Line 27: report the decision to the client.
  if (c.local_cb) {
    if (options_.monitored) hooks_.on_local_decision(txn, decision);
    c.local_cb(decision, csn_ts);
  } else if (c.meta.client != kNoProcess) {
    rt_.send_msg(id_, c.meta.client, ClientDecision{txn, decision, csn_ts});
  }
  // Lines 28-29: persist the decision at every member of each shard.
  for (ShardId s : c.meta.participants) {
    const ShardProgress& pr = c.progress.at(s);
    hooks_.ship_decision(DecisionMsg{pr.epoch, s, pr.slot, txn, decision, csn_ts});
  }
  // The coordination is complete: shed the heavy state but keep the entry
  // as a decided tombstone — a late retry() of a still-prepared slot would
  // otherwise recreate the coordination from scratch and re-decide.
  c.progress.clear();
  c.shard_payloads.clear();
  c.local_cb = nullptr;
  undecided_coords_.erase(txn);
}

void CertEngine::retry(Slot k) {
  const LogEntry* e = log_.find(k);
  // Line 71 pre: phase[k] = prepared.
  if (e == nullptr || e->phase != Phase::kPrepared) return;
  TxnMeta meta = e->meta;
  RATC_DEBUG(name_ << " retries txn" << meta.txn);
  // Lines 72-73: PREPARE(txn[k], ⊥) to the leaders of shards(txn[k]); this
  // replica becomes an additional coordinator for the transaction.
  start_certification(std::move(meta), nullptr, nullptr);
}

void CertEngine::redrive_coordinations(const std::set<TxnId>& driven_this_tick) {
  // A PREPARE sent to a leader that crashed before certifying leaves no
  // prepared witness anywhere, so the line-70 retry path can never find it:
  // without this re-drive the transaction stays undecided forever (the
  // availability hole the autonomous-reconfiguration sweeps exposed).  The
  // coordinator still holds the projections, so it re-sends the PREPAREs to
  // the *current* leaders; leaders that already certified the transaction
  // just re-send their stored result (lines 6-7), making this idempotent.
  // Each coordination is re-driven independently with its *own* per-shard
  // projections — transactions that arrived in one client batch share no
  // fate here, so one item's lost PREPARE never stalls its batch-mates.
  (void)driven_this_tick;  // only read by the assert below
  Time now = rt_.now();
  for (TxnId txn : undecided_coords_) {
    CoordState& c = coord_.at(txn);
    if (now - c.last_driven < options_.retry_timeout) continue;
    // A transaction the slot-retry pass just re-drove has last_driven == now
    // and was skipped above; this pins that no coordination is driven twice
    // within one timer tick.
    assert(driven_this_tick.count(txn) == 0 &&
           "coordination re-driven twice in one retry tick");
    c.last_driven = now;
    for (ShardId s : c.meta.participants) {
      auto it = c.shard_payloads.find(s);
      const tcs::Payload* projection = it == c.shard_payloads.end() ? nullptr : &it->second;
      rt_.send_msg(id_, hooks_.leader_of(s), prepare_for(c.meta, projection));
    }
  }
}

// --- leader ----------------------------------------------------------------------

PrepareAck CertEngine::prepare_txn(const Prepare& m) {
  Slot existing = log_.slot_of(m.txn);
  PrepareAck ack;
  ack.epoch = hooks_.epoch_of(options_.shard);
  ack.shard = options_.shard;
  ack.txn = m.txn;
  if (existing != kNoSlot) {
    // Lines 6-7: already certified; re-send the stored result.
    const LogEntry& e = *log_.find(existing);
    ack.slot = existing;
    ack.payload = e.payload;
    ack.vote = e.vote;
    ack.meta = e.meta;
    ack.prepare_ts = e.prepare_ts;
  } else {
    // Lines 9-17: append to the certification order and vote.
    next_ += 1;
    LogEntry& e = log_.prepare(next_, m.txn);
    e.meta = m.meta;
    // The CSN-log stamp: final for the slot's life, replayed verbatim by the
    // stored-result path above so csn(t) is stable across prepare retries.
    e.prepare_ts = rt_.now();
    if (m.has_payload) {
      e.payload = m.payload;                    // line 13
      e.vote = compute_vote(next_, m.payload);  // line 12
    } else {
      e.vote = Decision::kAbort;         // line 15
      e.payload = tcs::empty_payload();  // line 16
      if (options_.monitored || options_.check_certifier_index) {
        // Report the same witness sets a real vote computation would use:
        // constraint (10) of Fig. 6 pins T_s exactly even for abort votes.
        // The vote itself is line 15's protocol constant, not an index
        // computation, so only the sets are cross-checked against the flat
        // scan (the flat vote over the empty payload trivially commits).
        WitnessIndex::Witnesses w = index_.collect(log_, next_);
        check_index_sets_against_flat(next_, w);
        if (options_.monitored) {
          hooks_.on_vote_computed(options_.shard, hooks_.epoch_of(options_.shard), next_,
                                  m.txn, e.vote, e.payload, std::move(w.committed),
                                  std::move(w.prepared));
        }
      }
    }
    prepared_at_[next_] = rt_.now();
    // The slot's vote and payload are final for its prepared life: index it
    // (no-op for abort votes, which never enter L2).
    index_.on_prepared(log_, next_);
    ack.slot = next_;
    ack.payload = e.payload;
    ack.vote = e.vote;
    ack.meta = e.meta;
    ack.prepare_ts = e.prepare_ts;
  }
  return ack;
}

PrepareAckBatch CertEngine::prepare_batch(const PrepareBatch& m) {
  PrepareAckBatch acks;
  acks.items.reserve(m.items.size());
  for (const Prepare& p : m.items) acks.items.push_back(prepare_txn(p));
  return acks;
}

tcs::Decision CertEngine::compute_vote(Slot slot, const tcs::Payload& l) {
  // Line 12: vote = f_s(L1, l) ⊓ g_s(L2, l), through the witness index — a
  // vote touches only payloads sharing an object with l instead of the whole
  // log.  The voting slot itself is not indexed yet (on_prepared runs after
  // the vote lands in the entry), so the index covers exactly slots < slot.
  Decision vote = index_.vote(*options_.certifier, log_, l);
  WitnessIndex::Witnesses w;
  if (options_.monitored || options_.check_certifier_index) w = index_.collect(log_, slot);
  check_index_against_flat(slot, vote, l, w);
  if (options_.monitored) {
    hooks_.on_vote_computed(options_.shard, hooks_.epoch_of(options_.shard), slot,
                            log_.find(slot)->txn, vote, l, std::move(w.committed),
                            std::move(w.prepared));
  }
  return vote;
}

WitnessIndex::Witnesses CertEngine::collect_witnesses(Slot slot) const {
  // The L1/L2 definitions below Fig. 1:
  //   L1 = payloads of decided-commit slots before this one,
  //   L2 = payloads of prepared slots with commit votes before this one.
  WitnessIndex::Witnesses w;
  for (Slot k = 1; k < slot; ++k) {
    const LogEntry* e = log_.find(k);
    if (e == nullptr || !e->filled()) continue;
    if (e->phase == Phase::kDecided && e->dec == Decision::kCommit) {
      w.l1.push_back(&e->payload);
      w.committed.push_back(e->txn);
    } else if (e->phase == Phase::kPrepared && e->vote == Decision::kCommit) {
      w.l2.push_back(&e->payload);
      w.prepared.push_back(e->txn);
    }
  }
  return w;
}

void CertEngine::check_index_against_flat(Slot slot, tcs::Decision indexed_vote,
                                          const tcs::Payload& l,
                                          const WitnessIndex::Witnesses& w) const {
  if (!options_.check_certifier_index) return;
  // Deliberately not assert(): the cross-check must fire in RelWithDebInfo
  // sweeps too, not only in -UNDEBUG builds.
  WitnessIndex::Witnesses flat = collect_witnesses(slot);
  Decision flat_vote = options_.certifier->vote(flat.l1, flat.l2, l);
  if (indexed_vote != flat_vote) {
    RATC_ERROR(name_ << " witness index vote diverged at slot " << slot << ": indexed="
                     << tcs::to_string(indexed_vote) << " flat=" << tcs::to_string(flat_vote));
    std::abort();
  }
  check_index_sets_against_flat(slot, w);
}

void CertEngine::check_index_sets_against_flat(Slot slot,
                                               const WitnessIndex::Witnesses& w) const {
  if (!options_.check_certifier_index) return;
  WitnessIndex::Witnesses flat = collect_witnesses(slot);
  if (flat.committed != w.committed || flat.prepared != w.prepared) {
    RATC_ERROR(name_ << " witness index T_s/P_s sets diverged at slot " << slot);
    std::abort();
  }
}

// --- follower ----------------------------------------------------------------------

void CertEngine::fill_prepared(Slot slot, TxnId txn, const tcs::Payload& payload,
                               tcs::Decision vote, const TxnMeta& meta, Time prepare_ts) {
  LogEntry& e = log_.prepare(slot, txn);
  e.payload = payload;
  e.vote = vote;
  e.meta = meta;
  e.prepare_ts = prepare_ts;  // the leader's CSN stamp, replicated
  prepared_at_[slot] = rt_.now();
  index_.on_prepared(log_, slot);
}

void CertEngine::apply_decision(Slot slot, TxnId txn, tcs::Decision decision, Time csn_ts) {
  LogEntry& e = log_.decide(slot, txn);  // a hole takes txn (abort only)
  e.dec = decision;
  e.csn_ts = csn_ts;
  prepared_at_.erase(slot);
  index_.on_decided(log_, slot);
  // Advance the committed multi-version state.  A commit decision can only
  // land on a filled slot (line 26 / lines 96-97 required this replica's own
  // acknowledgement), so the payload is present; duplicate decisions
  // re-apply the same csn, which the store skips.
  if (decision == Decision::kCommit) store_.apply_at(e.payload, tcs::Csn{csn_ts, txn});
}

// --- epoch installation -------------------------------------------------------------

void CertEngine::take_over() {
  next_ = log_.max_filled();
  // The log may hold entries this process never saw individually (earlier
  // state transfers), so reindex wholesale and make sure every
  // still-prepared slot has live retry bookkeeping.
  index_.rebuild(log_);
  rebuild_snapshot_store();
  for (Slot k = 1; k <= log_.size(); ++k) {
    const LogEntry* e = log_.find(k);
    if (e != nullptr && e->phase == Phase::kPrepared && prepared_at_.count(k) == 0) {
      prepared_at_[k] = rt_.now();
    }
  }
}

void CertEngine::install_log(const ReplicaLog& log) {
  log_ = log;
  index_.rebuild(log_);
  rebuild_snapshot_store();
  // Re-arm the retry bookkeeping for slots still prepared in the new epoch:
  // clearing prepared_at_ wholesale here used to drop them from the line-70
  // retry contract entirely — if their coordinator died mid-2PC, no replica
  // ever re-drove them and they stayed undecided forever.
  prepared_at_.clear();
  for (Slot k = 1; k <= log_.size(); ++k) {
    const LogEntry* e = log_.find(k);
    if (e != nullptr && e->phase == Phase::kPrepared) prepared_at_[k] = rt_.now();
  }
}

void CertEngine::rebuild_snapshot_store() {
  // The log replaced wholesale (state transfer) or inherited across a
  // takeover is the authoritative committed state: refile every decided
  // commit under its csn.  Entries decided elsewhere while this replica was
  // down arrive with csn_ts carried in the transferred log.
  store_.clear();
  for (const LogEntry& e : log_.entries()) {
    if (e.phase == Phase::kDecided && e.dec == Decision::kCommit) {
      store_.apply_at(e.payload, tcs::Csn{e.csn_ts, e.txn});
    }
  }
}

// --- CSN reads -------------------------------------------------------------------

tcs::Csn CertEngine::read_watermark() const {
  // Below the smallest prepare stamp among prepared-undecided slots: any
  // commit this replica has not yet applied either sits prepared here (and
  // then its csn >= that stamp, above the watermark) or has not gathered
  // this replica's acknowledgement yet (line 26) and so is not decided
  // anywhere.
  bool any = false;
  Time min_ts = 0;
  for (const LogEntry& e : log_.entries()) {
    if (e.phase != Phase::kPrepared) continue;
    if (!any || e.prepare_ts < min_ts) min_ts = e.prepare_ts;
    any = true;
  }
  if (any) return tcs::watermark_below(min_ts);
  return tcs::watermark_at(rt_.now());
}

// --- retry timer -------------------------------------------------------------------

void CertEngine::arm_retry_timer() {
  if (options_.retry_timeout == 0) return;
  rt_.schedule_for(id_, options_.retry_timeout, [this] {
    run_retry_tick();
    arm_retry_timer();
  });
}

void CertEngine::run_retry_tick() {
  Time now = rt_.now();
  // Pass 1 — collect.  retry() re-enters coordination state and the
  // rate-limit updates of pass 2 write prepared_at_, so nothing may mutate
  // the map while it is iterated.
  std::vector<Slot> stale;
  for (const auto& [slot, since] : prepared_at_) {
    const LogEntry* e = log_.find(slot);
    if (e != nullptr && e->phase == Phase::kPrepared && now - since >= options_.retry_timeout) {
      stale.push_back(slot);
    }
  }
  // Pass 2 — act.  Both passes run in the same synchronous event, so a
  // collected slot cannot have left the prepared phase in between (nothing
  // is silently skipped), and the driven set pins that no transaction is
  // re-driven twice within the tick (a replica's log holds each transaction
  // in at most one slot).
  std::set<TxnId> driven;
  for (Slot k : stale) {
    prepared_at_[k] = now;  // rate-limit further retries
    const LogEntry* e = log_.find(k);
    assert(e != nullptr && e->phase == Phase::kPrepared &&
           "stale slot silently skipped within one retry tick");
    bool first = driven.insert(e->txn).second;
    (void)first;
    assert(first && "slot retry duplicated within one retry tick");
    retry(k);
  }
  redrive_coordinations(driven);
}

}  // namespace ratc::commit
