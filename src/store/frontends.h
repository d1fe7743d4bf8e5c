// TcsFrontend adapters for the three TCS implementations, so the same
// WorkloadRunner (and hence the same benches/examples) can drive them all.
#pragma once

#include <functional>
#include <map>
#include <utility>
#include <vector>

#include "baseline/cluster.h"
#include "commit/cluster.h"
#include "rdma/cluster.h"
#include "store/runner.h"

namespace ratc::store {

/// Paper protocol (Fig. 1).  Coordinators round-robin over the current
/// members of all shards (co-located clients: 4-delay path).
class CommitFrontend : public TcsFrontend {
 public:
  explicit CommitFrontend(commit::Cluster& cluster)
      : cluster_(cluster), client_(cluster.add_client()) {
    client_.on_decision = [this](TxnId t, tcs::Decision d) {
      if (on_decision) on_decision(t, d);
    };
  }

  TxnId next_txn_id() override { return cluster_.next_txn_id(); }

  void submit(TxnId txn, const tcs::Payload& payload) override {
    commit::Replica* coord = pick_coordinator();
    if (coord == nullptr) return;  // no live coordinator: stays undecided
    client_.certify_colocated(*coord, txn, payload);
  }

  /// One coordinator drives the whole batch: one PREPARE_BATCH per shard
  /// leader instead of one PREPARE per transaction each.
  void submit_batch(
      const std::vector<std::pair<TxnId, tcs::Payload>>& batch) override {
    commit::Replica* coord = pick_coordinator();
    if (coord == nullptr) return;
    client_.certify_batch_colocated(*coord, batch);
  }

  std::optional<tcs::Csn> submit_read_only(
      const std::vector<ObjectId>& objects, Duration staleness_bound = 0) override {
    // Rotate the serving member so follower reads get exercised too.
    return cluster_.snapshot_read(objects, staleness_bound, next_read_member_++);
  }

 private:
  commit::Replica* pick_coordinator() {
    for (std::uint32_t attempts = 0; attempts < 4 * cluster_.num_shards(); ++attempts) {
      ShardId s = next_shard_++ % cluster_.num_shards();
      configsvc::ShardConfig cfg = cluster_.current_config(s);
      if (cfg.members.empty()) continue;
      ProcessId pid = cfg.members[next_member_++ % cfg.members.size()];
      if (cluster_.sim().crashed(pid)) continue;
      commit::Replica& r = cluster_.replica_by_pid(pid);
      if (r.epoch() != cfg.epoch) continue;  // stale view: cannot coordinate
      return &r;
    }
    return nullptr;
  }

  commit::Cluster& cluster_;
  commit::Client& client_;
  std::uint32_t next_shard_ = 0;
  std::size_t next_member_ = 0;
  std::uint64_t next_read_member_ = 0;
};

/// RDMA protocol (Figs. 7-8).
class RdmaFrontend : public TcsFrontend {
 public:
  explicit RdmaFrontend(rdma::Cluster& cluster)
      : cluster_(cluster), client_(cluster.add_client()) {
    client_.on_decision = [this](TxnId t, tcs::Decision d) {
      if (on_decision) on_decision(t, d);
    };
  }

  TxnId next_txn_id() override { return cluster_.next_txn_id(); }

  void submit(TxnId txn, const tcs::Payload& payload) override {
    rdma::Replica* coord = pick_coordinator();
    if (coord == nullptr) return;
    client_.certify_colocated(*coord, txn, payload);
  }

  void submit_batch(
      const std::vector<std::pair<TxnId, tcs::Payload>>& batch) override {
    rdma::Replica* coord = pick_coordinator();
    if (coord == nullptr) return;
    client_.certify_batch_colocated(*coord, batch);
  }

  std::optional<tcs::Csn> submit_read_only(
      const std::vector<ObjectId>& objects, Duration staleness_bound = 0) override {
    return cluster_.snapshot_read(objects, staleness_bound, next_read_member_++);
  }

 private:
  rdma::Replica* pick_coordinator() {
    for (std::uint32_t attempts = 0; attempts < 4 * shard_count(); ++attempts) {
      ShardId s = next_shard_++ % shard_count();
      configsvc::ShardConfig cfg = cluster_.current_config(s);
      if (cfg.members.empty()) continue;
      ProcessId pid = cfg.members[next_member_++ % cfg.members.size()];
      if (cluster_.sim().crashed(pid)) continue;
      rdma::Replica& r = cluster_.replica_by_pid(pid);
      if (r.epoch() != cfg.epoch) continue;
      return &r;
    }
    return nullptr;
  }

  std::uint32_t shard_count() const {
    return cluster_.shard_map().num_shards();
  }

  rdma::Cluster& cluster_;
  rdma::Client& client_;
  std::uint32_t next_shard_ = 0;
  std::size_t next_member_ = 0;
  std::uint64_t next_read_member_ = 0;
};

/// 2PC-over-Paxos baseline under any termination policy (classical,
/// cooperative, Paxos Commit: BaselineCluster::Options::termination).
class BaselineFrontend : public TcsFrontend {
 public:
  explicit BaselineFrontend(baseline::BaselineCluster& cluster)
      : cluster_(cluster), client_(cluster.add_client()) {
    client_.on_decision = [this](TxnId t, tcs::Decision d) {
      if (on_decision) on_decision(t, d);
    };
  }

  TxnId next_txn_id() override { return cluster_.next_txn_id(); }

  void submit(TxnId txn, const tcs::Payload& payload) override {
    client_.certify(cluster_.coordinator_for(payload), txn, payload);
  }

  /// The baseline routes each transaction to the leader of its first
  /// participant shard, so a batch is re-grouped by coordinator; each group
  /// becomes one B_CERTIFY_BATCH and (per participant shard) one Paxos
  /// append.
  void submit_batch(
      const std::vector<std::pair<TxnId, tcs::Payload>>& batch) override {
    std::map<ProcessId, std::vector<std::pair<TxnId, tcs::Payload>>> groups;
    for (const auto& item : batch) {
      groups[cluster_.coordinator_for(item.second)].push_back(item);
    }
    for (auto& [coordinator, group] : groups) {
      client_.certify_batch(coordinator, group);
    }
  }

  std::optional<tcs::Csn> submit_read_only(
      const std::vector<ObjectId>& objects, Duration staleness_bound = 0) override {
    // Leader-gated (no member rotation): see BaselineCluster::snapshot_read.
    return cluster_.snapshot_read(objects, staleness_bound);
  }

 private:
  baseline::BaselineCluster& cluster_;
  baseline::BaselineClient& client_;
};

}  // namespace ratc::store
