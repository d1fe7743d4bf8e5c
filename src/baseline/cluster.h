// Harness for the baseline 2PC-over-Paxos TCS under any termination policy
// (classical, cooperative, Paxos Commit): builds shards of 2f+1 servers
// (each paired with a Paxos replica), a routing table of shard leaders, and
// history-recording clients.
#pragma once

#include <map>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "baseline/shard_server.h"
#include "configsvc/config.h"
#include "sim/network.h"
#include "sim/simulator.h"
#include "sim/trace.h"
#include "tcs/certifier.h"
#include "tcs/history.h"
#include "tcs/shard_map.h"

namespace ratc::baseline {

class BaselineClient : public sim::Process {
 public:
  BaselineClient(rt::Runtime& rt, ProcessId id, tcs::History* history)
      : Process(rt, id, "bclient" + std::to_string(id)), history_(history) {}
  BaselineClient(sim::Simulator& sim, sim::Network& net, ProcessId id,
                 tcs::History* history)
      : BaselineClient(net.runtime(), id, history) { (void)sim; }

  void certify(ProcessId coordinator, TxnId txn, const tcs::Payload& payload) {
    history_->record_certify(rt().now(), txn, payload);
    sent_[txn] = rt().now();
    rt().send_msg(id(), coordinator, BCertify{txn, payload});
  }

  /// One CERTIFY round for a whole batch sharing a coordinator (size 1
  /// falls back to the scalar message).
  void certify_batch(ProcessId coordinator,
                     const std::vector<std::pair<TxnId, tcs::Payload>>& batch) {
    if (batch.size() == 1) {
      certify(coordinator, batch.front().first, batch.front().second);
      return;
    }
    BCertifyBatch m;
    m.items.reserve(batch.size());
    for (const auto& [txn, payload] : batch) {
      history_->record_certify(rt().now(), txn, payload);
      sent_[txn] = rt().now();
      m.items.push_back(BCertify{txn, payload});
    }
    rt().send_msg(id(), coordinator, std::move(m));
  }

  void on_message(ProcessId from, const sim::AnyMessage& msg) override {
    (void)from;
    if (const auto* d = msg.as<BClientDecision>()) {
      if (decisions_.count(d->txn)) return;
      history_->record_decide(rt().now(), d->txn, d->decision,
                              tcs::Csn{d->csn_ts, d->txn});
      decisions_[d->txn] = d->decision;
      decided_at_[d->txn] = rt().now();
      if (on_decision) on_decision(d->txn, d->decision);
    }
  }

  /// Invoked once per transaction on its decision.
  std::function<void(TxnId, tcs::Decision)> on_decision;

  bool decided(TxnId t) const { return decisions_.count(t) > 0; }
  std::optional<tcs::Decision> decision(TxnId t) const {
    auto it = decisions_.find(t);
    if (it == decisions_.end()) return std::nullopt;
    return it->second;
  }
  std::size_t decided_count() const { return decisions_.size(); }
  std::optional<Duration> latency(TxnId t) const {
    auto d = decided_at_.find(t);
    auto s = sent_.find(t);
    if (d == decided_at_.end() || s == sent_.end()) return std::nullopt;
    return d->second - s->second;
  }

 private:
  tcs::History* history_;
  std::map<TxnId, tcs::Decision> decisions_;
  std::map<TxnId, Time> sent_;
  std::map<TxnId, Time> decided_at_;
};

class BaselineCluster {
 public:
  struct Options {
    std::uint64_t seed = 1;
    std::uint32_t num_shards = 2;
    std::size_t shard_size = 3;  ///< 2f+1 replicas per shard
    std::string isolation = "serializability";
    bool exponential_delays = false;
    double delay_mean = 5.0;
    bool enable_tracer = false;
    /// Termination policy of every shard server (baseline/termination.h):
    /// kClassical is the paper's strawman, kCooperative the classic 2PC
    /// fix, kPaxosCommit Gray & Lamport's non-blocking Paxos Commit.
    Termination termination = Termination::kClassical;
    /// Forwarded to ShardServer::Options (used by the recovery policies).
    Duration in_doubt_timeout = 300;
    Duration termination_retry_every = 160;
    int termination_max_rounds = 5;
  };

  explicit BaselineCluster(Options options);

  ShardServer& server(ShardId s, std::size_t idx);
  ShardServer& server_by_pid(ProcessId pid);
  ProcessId leader_server(ShardId s) const;
  /// The server a client should submit to: the leader of the transaction's
  /// first participant shard.
  ProcessId coordinator_for(const tcs::Payload& payload) const;

  // --- topology (the baseline's membership is static: no spares) --------------

  std::uint32_t num_shards() const { return options_.num_shards; }
  /// All server pids of shard s (including crashed ones).
  std::vector<ProcessId> shard_servers(ShardId s) const;
  /// The Paxos replica co-located with a shard server (they share a
  /// machine: a crash or partition takes both).
  ProcessId paxos_twin(ProcessId server) const;
  /// Synthesized configuration view, mirroring the reconfigurable stacks:
  /// static members, current leader, and a leadership epoch bumped by every
  /// (fail-over or healthy) leader change.
  configsvc::ShardConfig current_config(ShardId s) const;

  BaselineClient& add_client();
  TxnId next_txn_id() { return next_txn_++; }

  // --- failure & leadership-change hooks ---------------------------------------

  /// Crashes one server and its Paxos twin.  Does NOT repoint leadership:
  /// callers crashing the leader must follow up with elect_leader (the
  /// coordinator state it held is lost regardless — classical 2PC's
  /// blocking weakness).
  void crash_server(ProcessId server);

  /// Leadership change without a crash (the baseline's only analogue of
  /// reconfiguration): `new_leader` starts a Paxos election and the routing
  /// tables are repointed.
  void elect_leader(ShardId s, ProcessId new_leader);

  /// Crashes server idx of shard s (and its Paxos replica), then has
  /// another replica take over leadership and updates the routing tables.
  void fail_over(ShardId s, std::size_t new_leader_idx);

  sim::Simulator& sim() { return sim_; }
  sim::Network& net() { return *net_; }
  sim::Tracer& tracer() { return *tracer_; }
  tcs::History& history() { return history_; }
  const tcs::ShardMap& shard_map() const { return shard_map_; }
  const tcs::Certifier& certifier() const { return *certifier_; }

  /// Aggregate termination counters over every shard server (all zero
  /// under kClassical).
  TerminationStats termination_stats() const;

  /// Read-only snapshot transaction, leader-gated: the baseline lacks the
  /// all-follower-ack rule, so only a caught-up Paxos leader of each
  /// involved shard may serve (ShardServer::can_serve_reads); the snapshot
  /// is the minimum of their CSN watermarks.  Zero certification messages;
  /// served reads are recorded in the history.  Returns nullopt when some
  /// shard's designated leader is crashed, electing, or lagging, when the
  /// version history was truncated, or when a nonzero staleness bound is
  /// violated.  `member_hint` is accepted for signature parity with the
  /// reconfigurable stacks and ignored — followers never serve here.
  std::optional<tcs::Csn> snapshot_read(const std::vector<ObjectId>& objects,
                                        Duration staleness_bound = 0,
                                        std::uint64_t member_hint = 0);

  /// End-of-run verdict: no conflicting client decisions, and every server
  /// (of any shard, crashed or not) that decided a transaction agrees on
  /// its decision — the state-machine-replication and 2PC-atomicity
  /// obligations of the baseline.  Returns a diagnostic on failure.
  std::string verify() const;

 private:
  ProcessId server_pid(ShardId s, std::size_t idx) const;
  ProcessId paxos_pid(ShardId s, std::size_t idx) const;

  Options options_;
  sim::Simulator sim_;
  std::unique_ptr<sim::Network> net_;
  tcs::ShardMap shard_map_;
  std::unique_ptr<tcs::Certifier> certifier_;
  std::unique_ptr<sim::Tracer> tracer_;
  std::vector<std::unique_ptr<ShardServer>> servers_;
  std::vector<std::unique_ptr<paxos::PaxosReplica>> paxoses_;
  std::vector<std::unique_ptr<BaselineClient>> clients_;
  std::map<ShardId, ProcessId> leader_;
  /// Leadership epoch per shard (starts at 1, bumped by leader changes).
  std::map<ShardId, Epoch> epoch_;
  tcs::History history_;
  TxnId next_txn_ = 1;
};

}  // namespace ratc::baseline
