// The per-replica certification log: the paper's txn / payload / vote /
// dec / phase arrays (Fig. 1), stored as one slot-indexed array of entries.
// Slots are 1-based; followers may have holes (phase == kStart) because
// ACCEPT messages are sent by transaction coordinators, not the leader, and
// therefore arrive unordered (paper Sec. 3, Invariant 1 discussion).
//
// Every PREPARE asks whether its transaction already has a slot (Fig. 1
// line 6, "∃k. t = txn[k]"; line 79 of the RDMA protocol), so the log keeps
// an index from transaction to slot next to the entries and slot_of() is one
// hash lookup.  Index invariant: for every transaction t held by some filled
// slot, lowest_[t] is the lowest filled slot holding t, and others_ holds
// (t, k) for each other filled slot k holding t (the RDMA stack's RAccept
// overwrites a slot with no guard, so a transaction can sit in two slots);
// nothing else is indexed.  The invariant holds because only the mutators
// prepare() and decide() write LogEntry::txn and LogEntry::phase; at() hands
// out entries for the other fields.  The index is derived state: copies and
// assignments (NEW_STATE) carry it, and wire_size() does not count it.
#pragma once

#include <set>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/types.h"
#include "tcs/decision.h"
#include "tcs/payload.h"

namespace ratc::commit {

enum class Phase { kStart, kPrepared, kDecided };

/// Transaction metadata carried in PREPARE/ACCEPT so that any replica that
/// has the transaction prepared can act as a recovery coordinator
/// (`retry`, Fig. 1 line 70): the paper's shards(t) and client(t) functions
/// made concrete.
struct TxnMeta {
  TxnId txn = 0;
  std::vector<ShardId> participants;
  ProcessId client = kNoProcess;

  friend bool operator==(const TxnMeta&, const TxnMeta&) = default;
};

struct LogEntry {
  TxnId txn = 0;
  tcs::Payload payload;
  tcs::Decision vote = tcs::Decision::kAbort;
  tcs::Decision dec = tcs::Decision::kAbort;
  Phase phase = Phase::kStart;
  TxnMeta meta;
  /// Leader-stamped prepare time (CSN log): set when the leader appends the
  /// slot, carried to followers in ACCEPT, preserved by NEW_STATE.  The
  /// replica's read watermark sits below the smallest prepare_ts among
  /// prepared-undecided slots.
  Time prepare_ts = 0;
  /// csn(t).ts of the commit decision (0 until decided / for aborts); with
  /// `txn` this is the key the snapshot store files the writes under.
  Time csn_ts = 0;

  bool filled() const { return phase != Phase::kStart; }
};

class ReplicaLog {
 public:
  /// Entry at 1-based slot k, growing the log with holes as needed.  Write
  /// only the fields other than txn and phase through it.
  LogEntry& at(Slot k) {
    if (k > entries_.size()) entries_.resize(k);
    return entries_[k - 1];
  }

  /// Fills slot k with transaction t in phase kPrepared: the leader's append
  /// (Fig. 1 line 10), a follower's ACCEPT into a hole (line 24), or the
  /// RDMA RAccept (line 95), which may overwrite a slot holding another
  /// transaction.  The caller sets the remaining fields on the result.
  LogEntry& prepare(Slot k, TxnId t) {
    LogEntry& e = at(k);
    if (!e.filled() || e.txn != t) {
      if (e.filled()) unindex(e.txn, k);
      index(t, k);
      e.txn = t;
    }
    e.phase = Phase::kPrepared;
    return e;
  }

  /// Moves slot k to phase kDecided (line 32).  A filled slot keeps its
  /// transaction; a hole (an abort for a slot never accepted here) takes t.
  LogEntry& decide(Slot k, TxnId t) {
    LogEntry& e = at(k);
    if (!e.filled()) {
      index(t, k);
      e.txn = t;
    }
    e.phase = Phase::kDecided;
    return e;
  }

  const LogEntry* find(Slot k) const {
    if (k == kNoSlot || k > entries_.size()) return nullptr;
    return &entries_[k - 1];
  }

  /// max{k | phase[k] != start} (Fig. 1 line 59); 0 when empty.
  Slot max_filled() const {
    for (Slot k = entries_.size(); k >= 1; --k) {
      if (entries_[k - 1].filled()) return k;
    }
    return 0;
  }

  /// Lowest filled slot holding transaction t, or kNoSlot (Fig. 1 line 6
  /// "∃k. t = txn[k]").
  Slot slot_of(TxnId t) const {
    auto it = lowest_.find(t);
    return it == lowest_.end() ? kNoSlot : it->second;
  }

  Slot size() const { return entries_.size(); }

  /// Iteration support (slot k => index k-1).
  const std::vector<LogEntry>& entries() const { return entries_; }

  std::size_t wire_size() const {
    std::size_t total = 16;
    for (const auto& e : entries_) total += 32 + e.payload.wire_size();
    return total;
  }

 private:
  /// Records that filled slot k now holds t.
  void index(TxnId t, Slot k) {
    auto [it, fresh] = lowest_.try_emplace(t, k);
    if (fresh) return;
    if (k < it->second) std::swap(k, it->second);
    others_.emplace(t, k);
  }

  /// Records that slot k no longer holds t.
  void unindex(TxnId t, Slot k) {
    auto it = lowest_.find(t);
    if (it->second != k) {
      others_.erase({t, k});
      return;
    }
    auto next = others_.lower_bound({t, kNoSlot});
    if (next == others_.end() || next->first != t) {
      lowest_.erase(it);
      return;
    }
    it->second = next->second;
    others_.erase(next);
  }

  std::vector<LogEntry> entries_;
  std::unordered_map<TxnId, Slot> lowest_;
  std::set<std::pair<TxnId, Slot>> others_;
};

}  // namespace ratc::commit
