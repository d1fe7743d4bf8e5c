// Unit tests for the replica-side certification log (the paper's txn /
// payload / vote / dec / phase arrays with holes).
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "commit/log.h"
#include "common/random.h"

namespace ratc::commit {
namespace {

using tcs::Decision;

TEST(ReplicaLog, EmptyLog) {
  ReplicaLog log;
  EXPECT_EQ(log.max_filled(), 0u);
  EXPECT_EQ(log.slot_of(1), kNoSlot);
  EXPECT_EQ(log.find(1), nullptr);
  EXPECT_EQ(log.size(), 0u);
}

TEST(ReplicaLog, AtGrowsAndFills) {
  ReplicaLog log;
  LogEntry& e = log.prepare(3, 42);
  EXPECT_EQ(e.txn, 42u);
  EXPECT_EQ(e.phase, Phase::kPrepared);
  EXPECT_EQ(log.size(), 3u);
  EXPECT_EQ(log.max_filled(), 3u);
  EXPECT_EQ(log.slot_of(42), 3u);
  // Slots 1 and 2 are holes.
  EXPECT_FALSE(log.find(1)->filled());
  EXPECT_FALSE(log.find(2)->filled());
}

TEST(ReplicaLog, MaxFilledSkipsTrailingHoles) {
  ReplicaLog log;
  log.prepare(1, 1);
  log.at(5);  // grows but stays a hole
  EXPECT_EQ(log.size(), 5u);
  EXPECT_EQ(log.max_filled(), 1u);
}

TEST(ReplicaLog, SlotOfIgnoresHoles) {
  ReplicaLog log;
  log.at(2);  // a hole: not "filled"
  EXPECT_EQ(log.slot_of(7), kNoSlot);
  log.decide(2, 7);  // a decision for the hole fills it
  EXPECT_EQ(log.slot_of(7), 2u);
}

TEST(ReplicaLog, DecideKeepsFilledSlotsTransaction) {
  ReplicaLog log;
  log.prepare(1, 5);
  LogEntry& e = log.decide(1, 9);
  EXPECT_EQ(e.txn, 5u);
  EXPECT_EQ(e.phase, Phase::kDecided);
  EXPECT_EQ(log.slot_of(5), 1u);
  EXPECT_EQ(log.slot_of(9), kNoSlot);
}

TEST(ReplicaLog, SlotOfReturnsLowestSlotAcrossOverwrites) {
  // The RDMA RAccept overwrites a slot with no guard, so one transaction
  // can sit in two slots and a slot can change transaction.
  ReplicaLog log;
  log.prepare(4, 7);
  log.prepare(2, 7);
  EXPECT_EQ(log.slot_of(7), 2u);
  log.prepare(2, 8);  // overwrite: 7 survives only at slot 4
  EXPECT_EQ(log.slot_of(7), 4u);
  EXPECT_EQ(log.slot_of(8), 2u);
  log.prepare(4, 8);
  EXPECT_EQ(log.slot_of(7), kNoSlot);
  EXPECT_EQ(log.slot_of(8), 2u);
}

TEST(ReplicaLog, FindOutOfRange) {
  ReplicaLog log;
  log.prepare(2, 1);
  EXPECT_EQ(log.find(0), nullptr);   // slot 0 invalid
  EXPECT_EQ(log.find(3), nullptr);   // beyond the end
  EXPECT_NE(log.find(2), nullptr);
}

TEST(ReplicaLog, CopySemanticsForStateTransfer) {
  // NEW_STATE copies the whole log; the copy must be independent.
  ReplicaLog log;
  log.prepare(1, 1).vote = Decision::kCommit;
  ReplicaLog copy = log;
  copy.at(1).vote = Decision::kAbort;
  copy.prepare(2, 2);
  EXPECT_EQ(log.find(1)->vote, Decision::kCommit);
  EXPECT_EQ(log.size(), 1u);
  EXPECT_EQ(copy.size(), 2u);
  EXPECT_EQ(log.slot_of(2), kNoSlot);
  EXPECT_EQ(copy.slot_of(2), 2u);
}

TEST(ReplicaLog, WireSizeGrowsWithPayloads) {
  ReplicaLog small, big;
  small.prepare(1, 1);
  big.prepare(1, 1).payload.reads = {{1, 0}, {2, 0}, {3, 0}};
  big.prepare(2, 2);
  EXPECT_GT(big.wire_size(), small.wire_size());
}

/// The linear scan the index replaced: the lowest filled slot holding t.
Slot scan_slot_of(const ReplicaLog& log, TxnId t) {
  for (Slot k = 1; k <= log.size(); ++k) {
    const LogEntry* e = log.find(k);
    if (e->filled() && e->txn == t) return k;
  }
  return kNoSlot;
}

constexpr TxnId kAbsent = 1'000'000;

/// slot_of for every transaction in `seen` and for one absent id.
std::vector<Slot> lookups(const ReplicaLog& log, const std::vector<TxnId>& seen) {
  std::vector<Slot> out;
  for (TxnId t : seen) out.push_back(log.slot_of(t));
  out.push_back(log.slot_of(kAbsent));
  return out;
}

std::vector<Slot> scans(const ReplicaLog& log, const std::vector<TxnId>& seen) {
  std::vector<Slot> out;
  for (TxnId t : seen) out.push_back(scan_slot_of(log, t));
  out.push_back(scan_slot_of(log, kAbsent));
  return out;
}

/// A random sequence of every kind of write the two stacks make — leader
/// appends, out-of-order follower fills, decisions on holes, RDMA
/// overwrites, NEW_STATE copies and assignments — checked against the scan
/// after each one.
void run_slot_of_differential(std::uint64_t seed) {
  Rng rng(seed);
  ReplicaLog log;
  std::vector<TxnId> seen;
  TxnId fresh = 1;
  // A new transaction, or (for the writes that can repeat one) an old one.
  auto pick = [&](bool may_repeat) {
    if (may_repeat && !seen.empty() && rng.chance(0.3)) return seen[rng.below(seen.size())];
    seen.push_back(fresh);
    return fresh++;
  };
  auto filled_slot = [&]() -> Slot {
    for (int tries = 0; tries < 8 && log.size() > 0; ++tries) {
      Slot k = 1 + rng.below(log.size());
      if (log.find(k)->filled()) return k;
    }
    return kNoSlot;
  };
  for (int step = 0; step < 150; ++step) {
    std::string op;
    switch (rng.below(5)) {
      case 0:
        op = "leader append";
        log.prepare(log.size() + 1, pick(false));
        break;
      case 1: {
        op = "follower fill";
        Slot k = 1 + rng.below(log.size() + 4);
        const LogEntry* e = log.find(k);
        if (e == nullptr || !e->filled()) log.prepare(k, pick(false));
        break;
      }
      case 2:
        op = "decision";
        log.decide(1 + rng.below(log.size() + 3), pick(true));
        break;
      case 3:
        op = "rdma overwrite";
        if (Slot k = filled_slot(); k != kNoSlot) log.prepare(k, pick(true));
        break;
      default: {
        // NEW_STATE: `ns.log = log_` on the sender, `log_ = m.log` on the
        // receiver.  Writes to the copy must not reach the original.
        op = "copy";
        std::vector<TxnId> seen_before = seen;
        std::vector<Slot> before = lookups(log, seen_before);
        ReplicaLog copy = log;
        copy.prepare(copy.size() + 1, pick(false));
        copy.prepare(1 + rng.below(copy.size()), pick(true));
        ASSERT_EQ(lookups(copy, seen), scans(copy, seen)) << "copy, seed " << seed;
        ASSERT_EQ(lookups(log, seen_before), before) << "copy leaked, seed " << seed;
        if (rng.chance(0.5)) {
          op = "assignment";
          ReplicaLog target;
          target.prepare(1, pick(false));
          target = copy;
          log = target;
        }
        break;
      }
    }
    ASSERT_EQ(lookups(log, seen), scans(log, seen))
        << "after " << op << " at step " << step << ", seed " << seed;
  }
}

TEST(ReplicaLog, SlotOfMatchesLinearScan) {
  for (std::uint64_t seed = 1; seed <= 60; ++seed) {
    run_slot_of_differential(seed);
    if (HasFatalFailure()) return;
  }
}

TEST(TxnMetaEquality, UsedByResendPaths) {
  TxnMeta a{1, {0, 2}, 77};
  TxnMeta b{1, {0, 2}, 77};
  TxnMeta c{1, {0, 1}, 77};
  EXPECT_EQ(a, b);
  EXPECT_FALSE(a == c);
}

}  // namespace
}  // namespace ratc::commit
