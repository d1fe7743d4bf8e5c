#include "sim_failover.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <optional>

#include "checker/conflict_graph.h"
#include "checker/snapshot.h"
#include "checker/tcsll.h"
#include "commit/cluster.h"
#include "store/stack_harness.h"

namespace perfbench {

using namespace ratc;

namespace {

constexpr ShardId kStruck = 0;

store::StackWorkload stack_workload(const SimShape& s) {
  store::StackWorkload w;
  w.num_shards = s.shards;
  w.shard_size = 2;
  w.spares_per_shard = s.spares;
  w.object_universe = s.universe;
  w.capture_trace = false;
  w.autonomous_controller = true;
  w.harness_repair = false;
  return w;
}

/// CommitHarness with the online monitor switched off: the same cluster
/// options, client and coordinator pick, so a seed's trace is identical to
/// the harness's (run_sim checks this through the fingerprint).  Only the
/// commit stack can run unmonitored; this measures what the monitor costs.
class UnmonitoredCommit {
 public:
  UnmonitoredCommit(std::uint64_t seed, const store::StackWorkload& w)
      : w_(w),
        cluster_({.seed = seed,
                  .num_shards = w.num_shards,
                  .shard_size = w.shard_size,
                  .spares_per_shard = w.spares_per_shard,
                  .isolation = w.isolation,
                  .retry_timeout = w.retry_timeout,
                  .exponential_delays = w.exponential_delays,
                  .enable_monitor = false,
                  .enable_tracer = w.capture_trace,
                  .enable_controller = w.autonomous_controller,
                  .controller_tuning = w.controller,
                  .num_zones = w.num_zones,
                  .check_certifier_index = w.check_certifier_index}),
        client_(&cluster_.add_client()) {}

  sim::Simulator& sim() { return cluster_.sim(); }
  commit::Cluster& cluster() { return cluster_; }
  void set_on_decision(std::function<void(TxnId, tcs::Decision)> fn) {
    client_->on_decision = std::move(fn);
  }
  TxnId next_txn_id() { return cluster_.next_txn_id(); }
  bool submit(Rng& rng, TxnId txn, const tcs::Payload& p) {
    commit::Replica* r = pick(rng);
    if (r != nullptr) client_->certify_colocated(*r, txn, p);
    return r != nullptr;
  }
  bool submit_batch(Rng& rng, const std::vector<std::pair<TxnId, tcs::Payload>>& b) {
    commit::Replica* r = pick(rng);
    if (r != nullptr) client_->certify_batch_colocated(*r, b);
    return r != nullptr;
  }
  bool snapshot_read(Rng& rng, const std::vector<ObjectId>& objects) {
    return cluster_.snapshot_read(objects, w_.read_staleness_bound, rng.below(64))
        .has_value();
  }
  std::size_t controller_attempts() const { return cluster_.controller_attempts(); }
  recon::EngineStats engine_stats() const { return cluster_.engine_stats(); }
  std::string spare_ledger_verdict() const { return cluster_.spare_ledger_verdict(); }
  // Never called (unmonitored runs are unchecked); drive() names them.
  std::string verify() { return cluster_.verify(); }
  std::string check_snapshot_reads() { return ""; }

 private:
  // store::CommitHarness's seeded coordinator pick, draw for draw.
  commit::Replica* pick(Rng& rng) {
    for (int attempts = 0; attempts < 20; ++attempts) {
      auto s = static_cast<ShardId>(rng.below(w_.num_shards));
      configsvc::ShardConfig cfg = cluster_.current_config(s);
      if (cfg.members.empty()) continue;
      ProcessId pid = cfg.members[rng.below(cfg.members.size())];
      if (cluster_.sim().crashed(pid)) continue;
      commit::Replica& r = cluster_.replica_by_pid(pid);
      if (r.epoch() != cfg.epoch) continue;
      return &r;
    }
    return nullptr;
  }

  store::StackWorkload w_;
  commit::Cluster cluster_;
  commit::Client* client_;
};

std::uint64_t fabric_writes(store::RdmaHarness& h) { return h.cluster().fabric().writes_sent(); }
std::uint64_t fabric_rejected(store::RdmaHarness& h) {
  return h.cluster().fabric().writes_rejected();
}
template <typename H>
std::uint64_t fabric_writes(H&) { return 0; }
template <typename H>
std::uint64_t fabric_rejected(H&) { return 0; }

bool is_cs_message(const std::string& type) {
  return type.rfind("CS_", 0) == 0 || type.rfind("GCS_", 0) == 0 ||
         type == "CONFIG_CHANGE" || type == "GCONFIG_CHANGE";
}

struct TxnRec {
  tcs::Payload payload;
  Time submit_tick = 0;
  double submit_wall = 0;
  bool touches_struck = false;
};

template <typename H>
SimRun drive(const SimShape& shape, std::uint64_t seed, Checks checks, SpanLog* spans) {
  SimRun out;
  store::StackWorkload w = stack_workload(shape);
  const double t0 = wall_s();
  auto us = [t0](double t) { return 1e6 * (t - t0); };
  H h(seed, w);
  out.setup_s = wall_s() - t0;
  auto& cluster = h.cluster();
  sim::Simulator& sim = h.sim();

  // Three independent streams: coordinator picks, payloads, reads.
  Rng pick_rng(seed * 0x9e3779b97f4a7c15ULL + 1);
  Rng payload_rng(seed * 0xbf58476d1ce4e5b9ULL + 2);
  Rng read_rng(seed * 0x94d049bb133111ebULL + 3);
  store::ContendedPayloadGen gen(payload_rng, shape.universe);

  std::vector<TxnRec> txns;  // index txn-1: harness ids are dense from 1
  std::optional<Time> crash_at;
  Time activated_at = 0;
  h.set_on_decision([&](TxnId txn, tcs::Decision d) {
    const TxnRec& rec = txns.at(txn - 1);
    double now_wall = wall_s();
    out.delays.push_back(sim.now() - rec.submit_tick);
    out.wall_latency_us.push_back(1e6 * (now_wall - rec.submit_wall));
    if (spans) spans->add({txn, "txn", "sim.run", us(rec.submit_wall), us(now_wall)});
    if (d == tcs::Decision::kCommit) {
      ++out.committed;
      gen.observe_commit(rec.payload);
      if (crash_at && activated_at == 0 && rec.touches_struck &&
          rec.submit_tick >= *crash_at) {
        activated_at = sim.now();
      }
    } else {
      ++out.aborted;
    }
  });

  const std::size_t rounds = (shape.txns + shape.batch - 1) / shape.batch;
  const Time crash_tick = static_cast<Time>(rounds / 3) * shape.gap;
  Epoch epoch0 = 0;
  std::size_t attempts0 = 0;
  Time detected_at = 0, installed_at = 0;
  double read_ns = 0;

  auto tick = [&] {
    double w0 = wall_s();
    sim.run_until(sim.now() + 1);
    out.run_s += wall_s() - w0;
    if (!crash_at) return;
    if (detected_at == 0 && h.controller_attempts() > attempts0) detected_at = sim.now();
    if (installed_at == 0 && cluster.current_config(kStruck).epoch > epoch0) {
      installed_at = sim.now();
    }
  };

  const double run_begin = wall_s();
  const double cpu_begin = process_cpu_s();
  std::size_t round = 0;
  while (round < rounds) {
    if (sim.now() == crash_tick && !crash_at) {
      configsvc::ShardConfig cfg = cluster.current_config(kStruck);
      epoch0 = cfg.epoch;
      attempts0 = h.controller_attempts();
      cluster.crash(cfg.leader);
      crash_at = sim.now();
    }
    if (sim.now() % shape.gap == 0) {
      std::vector<std::pair<TxnId, tcs::Payload>> batch;
      for (std::size_t i = 0; i < shape.batch && out.attempted < shape.txns; ++i) {
        TxnId txn = h.next_txn_id();
        tcs::Payload p = gen.next();
        TxnRec rec{p, sim.now(), wall_s(), false};
        for (ShardId s : cluster.shard_map().shards_of(p)) {
          rec.touches_struck = rec.touches_struck || s == kStruck;
        }
        if (txns.size() != txn - 1) out.problems.push_back("non-dense txn ids");
        txns.push_back(std::move(rec));
        batch.emplace_back(txn, std::move(p));
        ++out.attempted;
      }
      if (batch.size() == 1) {
        h.submit(pick_rng, batch[0].first, batch[0].second);
      } else {
        h.submit_batch(pick_rng, batch);
      }
      ++round;
      while (read_rng.chance(shape.read_fraction)) {
        std::vector<ObjectId> objects(1 + read_rng.below(2));
        for (ObjectId& o : objects) o = read_rng.below(shape.universe);
        auto r0 = std::chrono::steady_clock::now();
        ++out.reads_attempted;
        if (h.snapshot_read(read_rng, objects)) ++out.reads_served;
        read_ns += std::chrono::duration<double, std::nano>(
                       std::chrono::steady_clock::now() - r0)
                       .count();
      }
    }
    tick();
  }
  for (Duration d = 0; d < shape.drain; ++d) {
    bool all_decided = out.committed + out.aborted == out.attempted;
    if (all_decided && activated_at != 0) break;
    tick();
  }

  out.cpu_s = process_cpu_s() - cpu_begin;
  if (spans) spans->add({0, "sim.run", "run", us(run_begin), us(wall_s())});
  out.undecided = out.attempted - out.committed - out.aborted;
  out.crash_tick = crash_at.value_or(0);
  if (activated_at != 0 && installed_at != 0) {
    // A commit on the struck shard needs the new epoch, so the phases are
    // ordered; a detection nobody's controller made counts as immediate.
    if (detected_at == 0 || detected_at > installed_at) detected_at = installed_at;
    out.detect = detected_at - out.crash_tick;
    out.install = installed_at - detected_at;
    out.activate = activated_at - installed_at;
  } else {
    out.problems.push_back("struck shard never committed again after the crash");
  }
  out.snapshot_read_ns = ratio(read_ns, static_cast<double>(out.reads_attempted));

  // Traffic, from the network's per-process counters (pids are < 10000).
  std::uint64_t counted = 0;
  for (ProcessId p = 0; p < 10000; ++p) {
    const sim::ProcessTraffic& t = cluster.net().traffic(p);
    counted += t.msgs_sent;
    for (const auto& [type, n] : t.sent_by_type) {
      out.msgs_by_type[type] += n;
      if (is_cs_message(type)) out.cs_messages += n;
    }
  }
  out.messages = cluster.net().total_messages();
  if (counted != out.messages) out.problems.push_back("traffic counters do not add up");
  recon::EngineStats es = h.engine_stats();
  out.recon_attempts = es.attempts;
  out.recon_probes = es.probes_sent;
  out.recon_cas_losses = es.cas_losses;
  out.fabric_writes = fabric_writes(h);
  out.fabric_rejected = fabric_rejected(h);

  Fnv fp;
  for (const tcs::HistoryEvent& e : cluster.history().events()) {
    fp.add(static_cast<std::uint64_t>(e.kind));
    fp.add(e.time);
    fp.add(e.txn);
    fp.add(static_cast<std::uint64_t>(e.decision));
  }
  fp.add(out.messages);
  fp.add(out.fabric_writes);
  out.fingerprint = fp.h;

  if (checks == Checks::kNone) return out;
  auto timed = [&](double& slot, const char* name, auto&& fn) {
    double s0 = wall_s();
    auto v = fn();
    slot = wall_s() - s0;
    if (spans) spans->add({0, name, "run", us(s0), us(s0 + slot)});
    return v;
  };
  std::string v = timed(out.verify_s, "checker.verify", [&] { return h.verify(); });
  if (!v.empty()) out.problems.push_back("verify: " + v);
  auto cg = timed(out.conflict_s, "checker.conflict_graph",
                  [&] { return checker::check_conflict_graph(cluster.history()); });
  if (!cg.ok) out.problems.push_back("conflict graph: " + cg.error);
  std::string sr =
      timed(out.snapshot_s, "checker.snapshot", [&] { return h.check_snapshot_reads(); });
  if (!sr.empty()) out.problems.push_back(sr);
  std::string ledger = h.spare_ledger_verdict();
  if (!ledger.empty()) out.problems.push_back("spare ledger: " + ledger);
  if (checks == Checks::kGateAndTcsllTiming) {
    auto ll = timed(out.tcsll_s, "checker.tcsll", [&] {
      return checker::check_tcsll(cluster.monitor().tcsll_input(
          cluster.history(), cluster.shard_map(), cluster.certifier()));
    });
    if (!ll.ok) out.problems.push_back("TCS-LL: " + ll.summary());
  }
  out.cpu_s = process_cpu_s() - cpu_begin;
  return out;
}

}  // namespace

SimRun run_sim(const SimShape& shape, std::uint64_t seed, Checks checks, bool monitor,
               SpanLog* spans) {
  if (shape.rdma) return drive<store::RdmaHarness>(shape, seed, checks, spans);
  if (monitor) return drive<store::CommitHarness>(shape, seed, checks, spans);
  return drive<UnmonitoredCommit>(shape, seed, Checks::kNone, spans);
}

namespace {

/// The part of a run that must repeat exactly for one seed.
std::vector<std::uint64_t> signature(const SimRun& r) {
  return {r.attempted, r.committed, r.aborted, r.undecided, r.messages,
          r.reads_attempted, r.reads_served, r.detect, r.install, r.activate,
          r.fabric_writes, r.fingerprint};
}

double decided(const SimRun& r) { return static_cast<double>(r.committed + r.aborted); }

/// Runs `shape` at each of `seeds` in turn until `seconds` have passed (each
/// seed at least `min_runs` times) and returns the runs of each seed.  Taking
/// the seeds in turn spreads a slow spell of the host over all of them.
/// Every repetition passes the gate and matches the deterministic signature
/// of its seed's first run.
std::vector<std::vector<SimRun>> repeat(const SimShape& shape,
                                        const std::vector<std::uint64_t>& seeds,
                                        double seconds, std::size_t min_runs, Checks checks,
                                        Result& r, SpanLog* spans = nullptr) {
  std::vector<std::vector<SimRun>> runs(seeds.size());
  double deadline = wall_s() + seconds;
  for (std::size_t n = 0; n < min_runs * seeds.size() || wall_s() < deadline; ++n) {
    std::vector<SimRun>& mine = runs[n % seeds.size()];
    const std::uint64_t seed = seeds[n % seeds.size()];
    mine.push_back(run_sim(shape, seed, checks, true, n == 0 ? spans : nullptr));
    for (const std::string& p : mine.back().problems) r.fail(p);
    if (signature(mine.back()) != signature(mine.front())) {
      r.fail("repetition " + std::to_string(mine.size()) + " of seed " +
             std::to_string(seed) + " diverged from the first");
    }
  }
  return runs;
}

/// Message types reported one by one on the simulator; the rest (the
/// configuration service's among them) fold into OTHER.
const std::string kSimTypes[] = {
    "PREPARE",     "PREPARE_ACK",   "ACCEPT",       "ACCEPT_ACK",        "DECISION",
    "DECISION_CLIENT", "PREPARE_BATCH", "PREPARE_ACK_BATCH", "ACCEPT_BATCH",
    "ACCEPT_ACK_BATCH", "PROBE",     "PROBE_ACK",    "NEW_CONFIG",        "NEW_STATE",
    "CONFIG_PREPARE", "CONFIG_PREPARE_ACK", "CONNECT", "CONNECT_ACK",     "FD_PING",
    "FD_PONG"};

/// The simulator-side per-layer metrics: timings from the `traced`
/// repetitions, counts per transaction and phase lengths over the scenarios'
/// first runs `firsts` (so the phases sum to unavailable_ticks).  With no
/// runs every one reads 0, which is what workloads that do not trace these
/// layers report.
void sim_layer_metrics(Metrics& m, const std::vector<SimRun>& traced,
                       const std::vector<SimRun>& firsts, double monitor_s) {
  double dec = 0;
  std::map<std::string, std::uint64_t> by_type;
  for (const SimRun& f : firsts) {
    dec += decided(f);
    for (const auto& [type, n] : f.msgs_by_type) by_type[type] += n;
  }
  auto total = [&firsts](auto value) {
    double sum = 0;
    for (const SimRun& f : firsts) sum += static_cast<double>(value(f));
    return sum;
  };
  auto mean = [&](auto value) { return ratio(total(value), static_cast<double>(firsts.size())); };
  m.set("sim.run_s", median(each(traced, [](const SimRun& x) { return x.run_s; })), "s");
  std::uint64_t other = 0;
  for (const auto& [type, n] : by_type) {
    if (std::find(std::begin(kSimTypes), std::end(kSimTypes), type) == std::end(kSimTypes)) {
      other += n;
    }
  }
  for (const std::string& type : kSimTypes) {
    auto it = by_type.find(type);
    double n = it == by_type.end() ? 0 : static_cast<double>(it->second);
    m.set("sim.msgs_per_txn." + type, ratio(n, dec), "msgs");
  }
  m.set("sim.msgs_per_txn.OTHER", ratio(static_cast<double>(other), dec), "msgs");
  m.set("checker.tcsll_s", median(each(traced, [](const SimRun& x) { return x.tcsll_s; })), "s");
  m.set("checker.verify_s", median(each(traced, [](const SimRun& x) { return x.verify_s; })), "s");
  m.set("checker.conflict_graph_s",
        median(each(traced, [](const SimRun& x) { return x.conflict_s; })), "s");
  m.set("checker.snapshot_s",
        median(each(traced, [](const SimRun& x) { return x.snapshot_s; })), "s");
  m.set("store.snapshot_read_ns",
        median(each(traced, [](const SimRun& x) { return x.snapshot_read_ns; })), "ns");
  m.set("commit.monitor_s", monitor_s, "s");
  m.set("ctrl.detect_ticks", mean([](const SimRun& f) { return f.detect; }), "ticks");
  m.set("recon.install_ticks", mean([](const SimRun& f) { return f.install; }), "ticks");
  m.set("recon.activate_ticks", mean([](const SimRun& f) { return f.activate; }), "ticks");
  m.set("recon.attempts", mean([](const SimRun& f) { return f.recon_attempts; }), "count");
  m.set("recon.probes", mean([](const SimRun& f) { return f.recon_probes; }), "count");
  m.set("recon.cas_losses", mean([](const SimRun& f) { return f.recon_cas_losses; }), "count");
  m.set("configsvc.msgs_per_txn", ratio(total([](const SimRun& f) { return f.cs_messages; }), dec),
        "msgs");
  m.set("rdma.fabric_writes_per_txn",
        ratio(total([](const SimRun& f) { return f.fabric_writes; }), dec), "writes");
  m.set("rdma.fabric_writes_rejected", mean([](const SimRun& f) { return f.fabric_rejected; }),
        "count");
}

}  // namespace

void zero_sim_layers(Metrics& m) { sim_layer_metrics(m, {}, {}, 0); }

void add_failover_metrics(Result& r, const std::vector<SimRun>& runs) {
  auto mean = [](const std::vector<double>& v) {
    double sum = 0;
    for (double x : v) sum += x;
    return ratio(sum, static_cast<double>(v.size()));
  };
  r.metrics.set("delays_p50",
                mean(each(runs, [](const SimRun& x) { return percentile(x.delays, 0.50); })),
                "msg_delays");
  r.metrics.set("delays_p99",
                mean(each(runs, [](const SimRun& x) { return percentile(x.delays, 0.99); })),
                "msg_delays");
  r.metrics.set("unavailable_ticks",
                mean(each(runs, [](const SimRun& x) { return double(x.unavailable()); })),
                "ticks");
  r.metrics.set("reads_served_fraction", mean(each(runs, [](const SimRun& x) {
                  return ratio(double(x.reads_served), double(x.reads_attempted));
                })),
                "fraction");
  r.info["sim.fingerprint"] = std::to_string(runs.front().fingerprint);
  r.info["sim.crash_tick"] = std::to_string(runs.front().crash_tick);
}

Result sim_workload(const Args& args, bool rdma) {
  Result r;
  SimShape shape;
  shape.rdma = rdma;
  // One submission per tick: the outage then holds back about 3 % of the
  // transactions, well clear of the 1 % that delays_p99 looks past.
  shape.gap = 1;
  if (args.tiny) shape.txns = 150;
  const std::size_t min_runs = args.tiny ? 1 : 3;
  // One scenario's cost and outage depend on what its seed puts in flight at
  // the crash; the run reports the mean over kScenarios seeds drawn from
  // --seed, each measured by its least-disturbed repetitions.
  std::vector<std::uint64_t> seeds;
  for (std::uint64_t k = 0; k < kScenarios; ++k) seeds.push_back(args.seed * kScenarios + k);

  std::vector<std::vector<SimRun>> runs =
      repeat(shape, seeds, args.seconds, min_runs, Checks::kGate, r);
  std::vector<SimRun> firsts;
  std::uint64_t messages = 0, repetitions = 0;
  for (const std::vector<SimRun>& mine : runs) {
    const SimRun& f = mine.front();
    firsts.push_back(f);
    r.attempted += f.attempted;
    r.committed += f.committed;
    r.aborted += f.aborted;
    r.undecided += f.undecided;
    messages += f.messages;
    repetitions += mine.size();
  }
  const SimRun& first = firsts.front();
  // Mean over the scenarios of `stat` over each scenario's repetitions.
  auto per_scenario = [&runs](auto stat, auto value) {
    double sum = 0;
    for (const std::vector<SimRun>& mine : runs) sum += stat(each(mine, value));
    return sum / static_cast<double>(runs.size());
  };
  auto cost = [](const std::vector<double>& v) { return steady_cost(v); };
  auto rate = [](const std::vector<double>& v) { return steady_rate(v); };

  auto p50 = [](const SimRun& x) { return percentile(x.wall_latency_us, 0.50); };
  auto checked_rate = [](const SimRun& x) { return ratio(decided(x), x.checked_s()); };
  Metrics& m = r.metrics;
  m.set("setup_s", per_scenario(cost, [](const SimRun& x) { return x.setup_s; }), "s");
  m.set("p50_us", per_scenario(cost, p50), "us");
  m.set("txn_per_s", per_scenario(rate, checked_rate), "1/s");
  auto cpu_us = [](const SimRun& x) { return 1e6 * ratio(x.cpu_s, decided(x)); };
  m.set("cpu_us_per_txn", per_scenario(cost, cpu_us), "us");
  m.set("committed_fraction",
        ratio(static_cast<double>(r.committed), static_cast<double>(r.attempted)), "fraction");
  m.set("msgs_per_txn",
        ratio(static_cast<double>(messages), static_cast<double>(r.committed + r.aborted)),
        "msgs");
  auto p999 = [](const SimRun& x) { return percentile(x.wall_latency_us, 0.999); };
  m.set("p999_us", per_scenario(cost, p999), "us");
  add_failover_metrics(r, firsts);
  r.info["repetitions"] = std::to_string(repetitions);
  r.info["latency_samples_per_repetition"] = std::to_string(first.wall_latency_us.size());

  if (!args.trace) return r;

  // Traced pass: the first scenario's repetitions with the checkers timed
  // one by one and spans kept.
  r.spans = SpanLog();
  std::vector<SimRun> traced = repeat(shape, {seeds.front()}, args.seconds, min_runs,
                                      Checks::kGateAndTcsllTiming, r, &r.spans)
                                   .front();
  // The commit stack also runs the seed unmonitored; its trace must not
  // change.  The RDMA stack always runs its monitor.
  std::vector<SimRun> unmonitored;
  for (std::size_t i = 0; !rdma && i < traced.size(); ++i) {
    unmonitored.push_back(run_sim(shape, seeds.front(), Checks::kNone, false));
    if (unmonitored.back().fingerprint != first.fingerprint) {
      r.fail("the unmonitored run's trace differs from the monitored one");
    }
  }
  auto run_s = [](const SimRun& x) { return x.run_s; };
  const double monitor_s =
      rdma ? 0 : steady_cost(each(traced, run_s)) - steady_cost(each(unmonitored, run_s));
  sim_layer_metrics(m, traced, firsts, monitor_s);

  m.set("trace.overhead.txn_per_s",
        ratio(steady_rate(each(traced, checked_rate)),
              steady_rate(each(runs.front(), checked_rate))),
        "ratio");
  m.set("trace.overhead.p50_us",
        ratio(steady_cost(each(traced, p50)), steady_cost(each(runs.front(), p50))), "ratio");
  return r;
}

}  // namespace perfbench
