#include "baseline/cluster.h"

#include <algorithm>
#include <cassert>
#include <set>
#include <stdexcept>

namespace ratc::baseline {

namespace {
constexpr ProcessId kServerBase = 100;
constexpr ProcessId kShardStride = 100;
constexpr ProcessId kPaxosOffset = 50;
constexpr ProcessId kClientBase = 5000;
}  // namespace

BaselineCluster::BaselineCluster(Options options)
    : options_(options), sim_(options.seed), shard_map_(options.num_shards) {
  sim::Network::Options nopt = options_.exponential_delays
                                   ? sim::Network::exponential_delay_options(
                                         options_.delay_mean)
                                   : sim::Network::unit_delay_options();
  net_ = std::make_unique<sim::Network>(sim_, nopt);
  certifier_ = tcs::make_certifier(options_.isolation);
  if (options_.enable_tracer) {
    tracer_ = std::make_unique<sim::Tracer>();
    net_->add_observer(tracer_.get());
  }

  for (ShardId s = 0; s < options_.num_shards; ++s) {
    std::vector<ProcessId> group;
    for (std::size_t i = 0; i < options_.shard_size; ++i) {
      group.push_back(paxos_pid(s, i));
    }
    for (std::size_t i = 0; i < options_.shard_size; ++i) {
      ShardServer::Options sopt;
      sopt.shard = s;
      sopt.shard_map = &shard_map_;
      sopt.certifier = certifier_.get();
      sopt.termination = options_.termination;
      sopt.in_doubt_timeout = options_.in_doubt_timeout;
      sopt.termination_retry_every = options_.termination_retry_every;
      sopt.termination_max_rounds = options_.termination_max_rounds;
      auto server = std::make_unique<ShardServer>(sim_, *net_, server_pid(s, i), sopt);
      paxos::PaxosReplica::Options popt;
      popt.group = group;
      popt.initial_leader = group[0];
      ShardServer* raw = server.get();
      auto paxos = std::make_unique<paxos::PaxosReplica>(
          sim_, *net_, paxos_pid(s, i), "bpaxos" + std::to_string(paxos_pid(s, i)),
          popt, [raw](Slot slot, const sim::AnyMessage& cmd) { raw->apply(slot, cmd); });
      server->attach_paxos(paxos.get());
      sim_.add_process(server.get());
      sim_.add_process(paxos.get());
      servers_.push_back(std::move(server));
      paxoses_.push_back(std::move(paxos));
    }
    leader_[s] = server_pid(s, 0);
    epoch_[s] = 1;
  }
  // Install the full routing table at every server.
  for (auto& server : servers_) {
    for (const auto& [s, l] : leader_) server->set_shard_leader(s, l);
  }
}

ProcessId BaselineCluster::server_pid(ShardId s, std::size_t idx) const {
  return kServerBase + s * kShardStride + static_cast<ProcessId>(idx);
}

ProcessId BaselineCluster::paxos_pid(ShardId s, std::size_t idx) const {
  return kServerBase + s * kShardStride + kPaxosOffset + static_cast<ProcessId>(idx);
}

ShardServer& BaselineCluster::server(ShardId s, std::size_t idx) {
  return server_by_pid(server_pid(s, idx));
}

ShardServer& BaselineCluster::server_by_pid(ProcessId pid) {
  for (auto& sv : servers_) {
    if (sv->id() == pid) return *sv;
  }
  throw std::out_of_range("no baseline server with pid " + std::to_string(pid));
}

std::vector<ProcessId> BaselineCluster::shard_servers(ShardId s) const {
  std::vector<ProcessId> out;
  for (std::size_t i = 0; i < options_.shard_size; ++i) out.push_back(server_pid(s, i));
  return out;
}

ProcessId BaselineCluster::paxos_twin(ProcessId server) const {
  return server + kPaxosOffset;
}

configsvc::ShardConfig BaselineCluster::current_config(ShardId s) const {
  configsvc::ShardConfig cfg;
  cfg.epoch = epoch_.at(s);
  cfg.members = shard_servers(s);
  cfg.leader = leader_.at(s);
  return cfg;
}

ProcessId BaselineCluster::leader_server(ShardId s) const { return leader_.at(s); }

ProcessId BaselineCluster::coordinator_for(const tcs::Payload& payload) const {
  std::vector<ShardId> parts = shard_map_.shards_of(payload);
  assert(!parts.empty());
  return leader_.at(parts.front());
}

BaselineClient& BaselineCluster::add_client() {
  ProcessId pid = kClientBase + static_cast<ProcessId>(clients_.size());
  auto c = std::make_unique<BaselineClient>(sim_, *net_, pid, &history_);
  sim_.add_process(c.get());
  clients_.push_back(std::move(c));
  return *clients_.back();
}

void BaselineCluster::crash_server(ProcessId server) {
  sim_.crash(server);
  sim_.crash(paxos_twin(server));
}

void BaselineCluster::elect_leader(ShardId s, ProcessId new_leader) {
  server_by_pid(new_leader).paxos().start_election();
  leader_[s] = new_leader;
  ++epoch_[s];
  // Repoint the routing tables (in a real deployment clients discover this
  // via the Paxos leader hint; the harness shortcuts that).
  for (auto& sv : servers_) sv->set_shard_leader(s, new_leader);
}

void BaselineCluster::fail_over(ShardId s, std::size_t new_leader_idx) {
  // Crash the current leader pair, then elect the chosen replica.
  crash_server(leader_.at(s));
  elect_leader(s, server_pid(s, new_leader_idx));
}

TerminationStats BaselineCluster::termination_stats() const {
  TerminationStats total;
  for (const auto& sv : servers_) total += sv->termination_stats();
  return total;
}

std::optional<tcs::Csn> BaselineCluster::snapshot_read(
    const std::vector<ObjectId>& objects, Duration staleness_bound,
    std::uint64_t member_hint) {
  (void)member_hint;  // leader-gated: there is exactly one eligible server
  if (objects.empty()) return std::nullopt;
  std::set<ShardId> shards;
  for (ObjectId o : objects) shards.insert(shard_map_.shard_of(o));
  std::map<ShardId, ShardServer*> serving;
  tcs::Csn snapshot = tcs::watermark_at(sim_.now());
  for (ShardId s : shards) {
    ProcessId pid = leader_.at(s);
    if (sim_.crashed(pid)) return std::nullopt;
    ShardServer& sv = server_by_pid(pid);
    if (!sv.can_serve_reads()) return std::nullopt;  // electing or lagging
    serving[s] = &sv;
    snapshot = std::min(snapshot, sv.read_watermark());
  }
  if (staleness_bound > 0 && snapshot.ts + staleness_bound < sim_.now()) {
    return std::nullopt;
  }
  tcs::SnapshotReadRecord rec;
  rec.time = sim_.now();
  rec.snapshot = snapshot;
  rec.staleness_bound = staleness_bound;
  for (ObjectId o : objects) {
    ShardServer* sv = serving.at(shard_map_.shard_of(o));
    std::optional<store::VersionedValue> v = sv->snapshot_store().read_at(o, snapshot);
    if (!v) return std::nullopt;
    rec.observations.push_back({o, v->version, v->value});
  }
  history_.record_snapshot_read(std::move(rec));
  return snapshot;
}

std::string BaselineCluster::verify() const {
  std::string problems;
  auto conflicting = history_.conflicting_decisions();
  if (!conflicting.empty()) {
    problems += "conflicting client decisions for " +
                std::to_string(conflicting.size()) + " transaction(s)\n";
  }
  // Replicated-state-machine + 2PC atomicity: every server that applied a
  // decision for t (same shard or not) applied the same one, and it matches
  // what clients observed.
  std::map<TxnId, tcs::Decision> global;
  for (const auto& sv : servers_) {
    for (const auto& [t, d] : sv->decided_txns()) {
      auto [it, inserted] = global.emplace(t, d);
      if (!inserted && it->second != d) {
        problems += "txn" + std::to_string(t) + " decided both " +
                    std::string(tcs::to_string(it->second)) + " and " +
                    std::string(tcs::to_string(d)) + " across servers\n";
      }
    }
  }
  for (const auto& [t, d] : global) {
    auto observed = history_.decision_of(t);
    if (observed.has_value() && *observed != d) {
      problems += "txn" + std::to_string(t) + " externalized as " +
                  std::string(tcs::to_string(*observed)) + " but applied as " +
                  std::string(tcs::to_string(d)) + "\n";
    }
  }
  return problems;
}

}  // namespace ratc::baseline
