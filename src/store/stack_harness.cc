#include "store/stack_harness.h"

#include <stdexcept>
#include <utility>

#include "checker/conflict_graph.h"
#include "checker/linearization.h"
#include "checker/snapshot.h"

namespace ratc::store {

namespace {

/// Resolves StackWorkload::placement against the policies the harness owns.
/// Null means "engine default" (recon::ReplaceSuspectsPolicy).
recon::PlacementPolicy* select_placement(const StackWorkload& w,
                                         recon::ZoneAntiAffinityPolicy* zone) {
  if (w.placement.empty() || w.placement == "replace-suspects") return nullptr;
  if (w.placement == "zone-anti-affinity") return zone;
  throw std::invalid_argument("unknown StackWorkload::placement: " + w.placement);
}

std::string lin_verdict(const tcs::History& history, const tcs::Certifier& certifier) {
  checker::LinearizationResult lin = checker::check_linearization(history, certifier);
  return lin.ok ? "" : "linearization: " + lin.error;
}

std::string snapshot_verdict(const tcs::History& history) {
  checker::SnapshotReadResult r = checker::check_snapshot_reads(history);
  return r.ok ? "" : "snapshot reads: " + r.error;
}

// The commit and RDMA clusters expose the same surface (current_config,
// replica_by_pid, sim, certify_colocated clients); these helpers hold the
// shared coordinator-pick and topology logic so it cannot drift between
// the two harnesses.

template <typename ClusterT, typename ClientT>
bool submit_colocated(ClusterT& cluster, ClientT& client, Rng& rng,
                      std::uint32_t num_shards, TxnId txn,
                      const tcs::Payload& payload) {
  for (int attempts = 0; attempts < 20; ++attempts) {
    ShardId s = static_cast<ShardId>(rng.below(num_shards));
    configsvc::ShardConfig cfg = cluster.current_config(s);
    if (cfg.members.empty()) continue;
    ProcessId pid = cfg.members[rng.below(cfg.members.size())];
    if (cluster.sim().crashed(pid)) continue;
    auto& r = cluster.replica_by_pid(pid);
    if (r.epoch() != cfg.epoch) continue;  // stale view: cannot coordinate
    client.certify_colocated(r, txn, payload);
    return true;
  }
  return false;  // no live coordinator: the transaction stays undecided
}

/// Batched variant of submit_colocated: the same seeded coordinator pick,
/// but the whole batch rides one certify_batch_colocated call.
template <typename ClusterT, typename ClientT>
bool submit_batch_colocated(
    ClusterT& cluster, ClientT& client, Rng& rng, std::uint32_t num_shards,
    const std::vector<std::pair<TxnId, tcs::Payload>>& batch) {
  for (int attempts = 0; attempts < 20; ++attempts) {
    ShardId s = static_cast<ShardId>(rng.below(num_shards));
    configsvc::ShardConfig cfg = cluster.current_config(s);
    if (cfg.members.empty()) continue;
    ProcessId pid = cfg.members[rng.below(cfg.members.size())];
    if (cluster.sim().crashed(pid)) continue;
    auto& r = cluster.replica_by_pid(pid);
    if (r.epoch() != cfg.epoch) continue;
    client.certify_batch_colocated(r, batch);
    return true;
  }
  return false;
}

template <typename ClusterT>
std::vector<ProcessId> alive_config_members(ClusterT& cluster, ShardId s) {
  std::vector<ProcessId> alive;
  for (ProcessId m : cluster.current_config(s).members) {
    if (!cluster.sim().crashed(m)) alive.push_back(m);
  }
  return alive;
}

template <typename ClusterT>
std::vector<std::vector<ProcessId>> member_units(const ClusterT& cluster, ShardId s) {
  std::vector<std::vector<ProcessId>> units;
  for (ProcessId m : cluster.current_config(s).members) units.push_back({m});
  return units;
}

template <typename ClusterT>
std::vector<std::vector<ProcessId>> member_units_all(const ClusterT& cluster,
                                                     std::uint32_t num_shards) {
  std::vector<std::vector<ProcessId>> units;
  for (ShardId s = 0; s < num_shards; ++s) {
    for (auto& u : member_units(cluster, s)) units.push_back(std::move(u));
  }
  return units;
}

}  // namespace

// --- commit ---------------------------------------------------------------------

CommitHarness::CommitHarness(std::uint64_t seed, const StackWorkload& w)
    : w_(w),
      cluster_({.seed = seed,
                .num_shards = w.num_shards,
                .shard_size = w.shard_size,
                .spares_per_shard = w.spares_per_shard,
                .isolation = w.isolation,
                .retry_timeout = w.retry_timeout,
                .exponential_delays = w.exponential_delays,
                .enable_tracer = w.capture_trace,
                .enable_controller = w.autonomous_controller,
                .controller_tuning = w.controller,
                .placement_policy = select_placement(w, &zone_policy_),
                .num_zones = w.num_zones,
                .check_certifier_index = w.check_certifier_index}),
      client_(&cluster_.add_client()) {}

void CommitHarness::install_fault_injector(sim::FaultInjector* fi) {
  cluster_.net().set_fault_injector(fi);
}

void CommitHarness::set_on_decision(std::function<void(TxnId, tcs::Decision)> fn) {
  client_->on_decision = std::move(fn);
}

bool CommitHarness::submit(Rng& rng, TxnId txn, const tcs::Payload& payload) {
  return submit_colocated(cluster_, *client_, rng, w_.num_shards, txn, payload);
}

bool CommitHarness::submit_batch(
    Rng& rng, const std::vector<std::pair<TxnId, tcs::Payload>>& batch) {
  return submit_batch_colocated(cluster_, *client_, rng, w_.num_shards, batch);
}

bool CommitHarness::snapshot_read(Rng& rng, const std::vector<ObjectId>& objects) {
  ++reads_attempted_;
  bool served =
      cluster_.snapshot_read(objects, w_.read_staleness_bound, rng.below(64))
          .has_value();
  if (served) ++reads_served_;
  return served;
}

std::string CommitHarness::check_snapshot_reads() {
  return snapshot_verdict(cluster_.history());
}

std::vector<ProcessId> CommitHarness::alive_members(ShardId s) {
  return alive_config_members(cluster_, s);
}

std::vector<std::vector<ProcessId>> CommitHarness::fault_units(ShardId s) const {
  return member_units(cluster_, s);
}

std::vector<std::vector<ProcessId>> CommitHarness::all_units() const {
  return member_units_all(cluster_, num_shards());
}

bool CommitHarness::crash_and_reconfigure(Rng& rng, ShardId s) {
  configsvc::ShardConfig cfg = cluster_.current_config(s);
  std::vector<ProcessId> alive = alive_members(s);
  // Keep Assumption 1: only crash when the whole configuration is still up
  // and a survivor remains to drive reconfiguration.
  if (alive.size() < cfg.members.size() || alive.size() <= 1) return false;
  ProcessId victim = alive[rng.below(alive.size())];
  cluster_.crash(victim);
  // Crash-only nemesis: no omniscient repair — the autonomous controller
  // (if enabled) must detect the crash and reconfigure on its own.
  if (!w_.harness_repair) return true;
  ProcessId survivor = kNoProcess;
  for (ProcessId m : alive) {
    if (m != victim) survivor = m;
  }
  cluster_.reconfigure(s, survivor);
  cluster_.await_active_epoch(s, cfg.epoch + 1, 200'000);
  return true;
}

bool CommitHarness::reconfigure_healthy(Rng& rng, ShardId s) {
  configsvc::ShardConfig cfg = cluster_.current_config(s);
  std::vector<ProcessId> alive = alive_members(s);
  if (alive.empty()) return false;
  // Any current member may trigger it (Fig. 1 line 33).
  cluster_.reconfigure(s, alive[rng.below(alive.size())]);
  cluster_.await_active_epoch(s, cfg.epoch + 1, 200'000);
  return true;
}

void CommitHarness::drain(Duration d, Rng& rng) {
  (void)rng;
  cluster_.sim().run_until(cluster_.sim().now() + d);
}

std::string CommitHarness::check_linearization() {
  return lin_verdict(cluster_.history(), cluster_.certifier());
}

std::string CommitHarness::trace() {
  return w_.capture_trace ? cluster_.tracer().render() : "";
}

// --- rdma -----------------------------------------------------------------------

RdmaHarness::RdmaHarness(std::uint64_t seed, const StackWorkload& w)
    : w_(w),
      cluster_({.seed = seed,
                .num_shards = w.num_shards,
                .shard_size = w.shard_size,
                .spares_per_shard = w.spares_per_shard,
                .isolation = w.isolation,
                .retry_timeout = w.retry_timeout,
                .enable_tracer = w.capture_trace,
                .enable_controller = w.autonomous_controller,
                .controller_tuning = w.controller,
                .placement_policy = select_placement(w, &zone_policy_),
                .num_zones = w.num_zones,
                .check_certifier_index = w.check_certifier_index}),
      client_(&cluster_.add_client()) {}

void RdmaHarness::install_fault_injector(sim::FaultInjector* fi) {
  cluster_.net().set_fault_injector(fi);
  if (w_.faults_on_fabric) cluster_.fabric().set_fault_injector(fi);
}

void RdmaHarness::set_on_decision(std::function<void(TxnId, tcs::Decision)> fn) {
  client_->on_decision = std::move(fn);
}

bool RdmaHarness::submit(Rng& rng, TxnId txn, const tcs::Payload& payload) {
  return submit_colocated(cluster_, *client_, rng, w_.num_shards, txn, payload);
}

bool RdmaHarness::submit_batch(
    Rng& rng, const std::vector<std::pair<TxnId, tcs::Payload>>& batch) {
  return submit_batch_colocated(cluster_, *client_, rng, w_.num_shards, batch);
}

bool RdmaHarness::snapshot_read(Rng& rng, const std::vector<ObjectId>& objects) {
  ++reads_attempted_;
  bool served =
      cluster_.snapshot_read(objects, w_.read_staleness_bound, rng.below(64))
          .has_value();
  if (served) ++reads_served_;
  return served;
}

std::string RdmaHarness::check_snapshot_reads() {
  return snapshot_verdict(cluster_.history());
}

std::vector<ProcessId> RdmaHarness::alive_members(ShardId s) {
  return alive_config_members(cluster_, s);
}

std::vector<std::vector<ProcessId>> RdmaHarness::fault_units(ShardId s) const {
  return member_units(cluster_, s);
}

std::vector<std::vector<ProcessId>> RdmaHarness::all_units() const {
  return member_units_all(cluster_, num_shards());
}

bool RdmaHarness::crash_and_reconfigure(Rng& rng, ShardId s) {
  configsvc::ShardConfig cfg = cluster_.current_config(s);
  std::vector<ProcessId> alive = alive_members(s);
  if (alive.size() < cfg.members.size() || alive.size() <= 1) return false;
  ProcessId victim = alive[rng.below(alive.size())];
  cluster_.crash(victim);
  if (!w_.harness_repair) return true;  // crash-only nemesis (see CommitHarness)
  ProcessId survivor = victim == alive[0] ? alive[1] : alive[0];
  Epoch before = cluster_.current_epoch();
  cluster_.replica_by_pid(survivor).reconfigure();
  cluster_.await_active_epoch(before + 1, 200'000);
  return true;
}

bool RdmaHarness::reconfigure_healthy(Rng& rng, ShardId s) {
  std::vector<ProcessId> alive = alive_members(s);
  if (alive.empty()) return false;
  // Global reconfiguration with no failure: the safe protocol's only (and
  // most expensive) reconfiguration lever.
  Epoch before = cluster_.current_epoch();
  cluster_.replica_by_pid(alive[rng.below(alive.size())]).reconfigure();
  cluster_.await_active_epoch(before + 1, 200'000);
  return true;
}

void RdmaHarness::drain(Duration d, Rng& rng) {
  (void)rng;
  cluster_.sim().run_until(cluster_.sim().now() + d);
}

std::string RdmaHarness::check_linearization() {
  return lin_verdict(cluster_.history(), cluster_.certifier());
}

std::string RdmaHarness::trace() {
  return w_.capture_trace ? cluster_.tracer().render() : "";
}

// --- baseline -------------------------------------------------------------------

BaselineHarness::BaselineHarness(std::uint64_t seed, const StackWorkload& w)
    : w_(w),
      cluster_({.seed = seed,
                .num_shards = w.num_shards,
                .shard_size = w.shard_size,
                .isolation = w.isolation,
                .exponential_delays = w.exponential_delays,
                .enable_tracer = w.capture_trace,
                .termination = w.termination}),
      client_(&cluster_.add_client()) {}

void BaselineHarness::install_fault_injector(sim::FaultInjector* fi) {
  cluster_.net().set_fault_injector(fi);
}

void BaselineHarness::set_on_decision(std::function<void(TxnId, tcs::Decision)> fn) {
  client_->on_decision = std::move(fn);
}

bool BaselineHarness::submit(Rng& rng, TxnId txn, const tcs::Payload& payload) {
  (void)rng;  // routing is deterministic: the leader of the first shard
  ProcessId coordinator = cluster_.coordinator_for(payload);
  if (cluster_.sim().crashed(coordinator)) return false;
  client_->certify(coordinator, txn, payload);
  return true;
}

bool BaselineHarness::submit_batch(
    Rng& rng, const std::vector<std::pair<TxnId, tcs::Payload>>& batch) {
  (void)rng;
  std::map<ProcessId, std::vector<std::pair<TxnId, tcs::Payload>>> groups;
  for (const auto& item : batch) {
    groups[cluster_.coordinator_for(item.second)].push_back(item);
  }
  bool any = false;
  for (auto& [coordinator, group] : groups) {
    if (cluster_.sim().crashed(coordinator)) continue;
    client_->certify_batch(coordinator, group);
    any = true;
  }
  return any;
}

bool BaselineHarness::snapshot_read(Rng& rng, const std::vector<ObjectId>& objects) {
  (void)rng;  // leader-gated: no member rotation to randomize
  ++reads_attempted_;
  bool served =
      cluster_.snapshot_read(objects, w_.read_staleness_bound).has_value();
  if (served) ++reads_served_;
  return served;
}

std::string BaselineHarness::check_snapshot_reads() {
  return snapshot_verdict(cluster_.history());
}

std::vector<ProcessId> BaselineHarness::alive_servers(ShardId s) {
  std::vector<ProcessId> alive;
  for (ProcessId m : cluster_.shard_servers(s)) {
    if (!cluster_.sim().crashed(m)) alive.push_back(m);
  }
  return alive;
}

std::vector<std::vector<ProcessId>> BaselineHarness::fault_units(ShardId s) const {
  // A baseline machine hosts the shard server and its Paxos replica; a
  // partition or clock fault hits both.
  std::vector<std::vector<ProcessId>> units;
  for (ProcessId m : cluster_.shard_servers(s)) {
    units.push_back({m, cluster_.paxos_twin(m)});
  }
  return units;
}

std::vector<std::vector<ProcessId>> BaselineHarness::all_units() const {
  std::vector<std::vector<ProcessId>> units;
  for (ShardId s = 0; s < cluster_.num_shards(); ++s) {
    for (auto& u : fault_units(s)) units.push_back(std::move(u));
  }
  return units;
}

bool BaselineHarness::crash_and_reconfigure(Rng& rng, ShardId s) {
  std::vector<ProcessId> alive = alive_servers(s);
  std::size_t majority = w_.shard_size / 2 + 1;
  // Keep a Paxos majority alive after the crash.
  if (alive.size() <= majority) return false;
  ProcessId victim = alive[rng.below(alive.size())];
  bool was_leader = victim == cluster_.leader_server(s);
  cluster_.crash_server(victim);
  if (!w_.harness_repair) return true;  // crash-only nemesis: no failover
  if (was_leader) {
    // Fail leadership over to a survivor.  Coordinator state held by the
    // victim is NOT recovered as state: classical 2PC blocks those
    // transactions, the recovery policies finish them from replicated state.
    ProcessId survivor = kNoProcess;
    for (ProcessId m : alive) {
      if (m != victim) survivor = m;
    }
    cluster_.elect_leader(s, survivor);
  }
  sim().run_until(sim().now() + 300);
  return true;
}

bool BaselineHarness::reconfigure_healthy(Rng& rng, ShardId s) {
  // The baseline cannot change membership; a leadership handover is its
  // only reconfiguration analogue.
  std::vector<ProcessId> alive = alive_servers(s);
  if (alive.empty()) return false;
  cluster_.elect_leader(s, alive[rng.below(alive.size())]);
  sim().run_until(sim().now() + 200);
  return true;
}

void BaselineHarness::drain(Duration d, Rng& rng) {
  (void)rng;
  sim().run_until(sim().now() + d);
  // Lost Paxos messages stall slots (commands are not retransmitted); a
  // re-election by the sitting leader re-proposes pending slots and fills
  // gaps without disturbing the 2PC routing tables.
  for (int round = 0; round < 2; ++round) {
    for (ShardId s = 0; s < cluster_.num_shards(); ++s) {
      ProcessId leader = cluster_.leader_server(s);
      if (!sim().crashed(leader)) {
        cluster_.server_by_pid(leader).paxos().start_election();
      }
    }
    sim().run();
  }
}

std::string BaselineHarness::verify() {
  std::string problems = cluster_.verify();
  if (w_.isolation == "serializability") {
    // End-to-end conflict-graph oracle over the committed projection: the
    // decision-agreement check above cannot see a cyclic commit order, and
    // this stack has no online monitor or TCS-LL oracle to catch one.
    checker::ConflictGraphResult cg =
        checker::check_conflict_graph(cluster_.history());
    if (!cg.ok) {
      if (!problems.empty()) problems += "\n";
      problems += "conflict graph: " + cg.error;
    }
  }
  return problems;
}

std::string BaselineHarness::check_linearization() {
  return lin_verdict(cluster_.history(), cluster_.certifier());
}

std::string BaselineHarness::trace() {
  return w_.capture_trace ? cluster_.tracer().render() : "";
}

}  // namespace ratc::store
