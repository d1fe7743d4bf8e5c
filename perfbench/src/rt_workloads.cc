#include "rt_workloads.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <memory>
#include <thread>
#include <unordered_map>

#include "commit/client.h"
#include "commit/witness_index.h"
#include "rt/commit_system.h"
#include "rt/loadgen.h"
#include "rt/threaded_runtime.h"
#include "rt_tap.h"
#include "sim_failover.h"
#include "store/stack_harness.h"

namespace perfbench {

using namespace ratc;

namespace {

constexpr std::uint32_t kShards = 4;

// rt-open.  The reference rate sits inside capacity for the whole reference
// window.  The ladder climbs in steps of 1.25x from below the seed's
// capacity to twice it: below capacity the p99.9 stays well under the limit,
// past it the backlog grows and the p99.9 overshoots the limit within a rung.
// The decided rate peaks over the rung just past capacity.
constexpr std::size_t kOpenClients = 64;
constexpr ObjectId kOpenKeyspace = ObjectId{1} << 24;
constexpr double kRefRate = 3000;
constexpr double kLadder[] = {4450, 5570, 6960, 8700, 10880, 13600, 17000, 21250};
constexpr double kLimitUs = 100000;
/// Shares of the measurement window: the reference phase, and each rung.
constexpr double kRefShare = 0.5;
constexpr double kRungShare = 0.06;
/// The first part of the reference phase warms caches and is not timed.
constexpr double kWarmShare = 0.1;
/// The timed reference window is cut into this many equal windows, and
/// latency is summarised per window (see steady_cost).
constexpr int kWindows = 10;

// rt-batch-hot.
constexpr std::size_t kHotClients = 32;
constexpr std::size_t kHotWindow = 2;
constexpr std::size_t kHotBatch = 8;
constexpr std::size_t kHotTxnsPerClient = 1250;  // 40k txns per trial
constexpr ObjectId kHotKeyspace = ObjectId{1} << 16;

double secs_since(std::chrono::steady_clock::time_point t) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t).count();
}

void sleep_ms(int ms) { std::this_thread::sleep_for(std::chrono::milliseconds(ms)); }

/// Counts sends, so that quiesce() can tell when every message sent has
/// been handled.
struct SendCounter : sim::NetworkObserver {
  std::atomic<std::uint64_t> sent{0};
  void on_send(Time, ProcessId, ProcessId, const sim::AnyMessage&) override {
    sent.fetch_add(1, std::memory_order_relaxed);
  }
};

/// Waits until every message sent has been delivered or dropped, so every
/// DECISION in flight has reached its replica before the logs are read.  The
/// runtime counts a send before queueing it and a delivery after its handler
/// returns, so equal counts mean no message is queued or being handled; a
/// quiet spell alone does not, since the host can stall a worker for tens of
/// milliseconds.  Reading the handled count first keeps the test exact.
void quiesce(rt::ThreadedRuntime& trt, const SendCounter& sends, Result& r) {
  auto t0 = std::chrono::steady_clock::now();
  while (secs_since(t0) < 30) {
    std::uint64_t handled = trt.delivered_count() + trt.dropped_count();
    if (sends.sent.load() == handled) return;
    sleep_ms(1);
  }
  r.fail("messages still in flight 30 s after the last decision");
}

/// The rt correctness gate.  Every client decision must match the outcome
/// in each participant shard leader's log, no transaction may decide twice,
/// and attempted = committed + aborted + undecided.
void gate_logs(rt::CommitSystem& sys, const std::vector<const tcs::History*>& histories,
               std::uint64_t attempted, Result& r) {
  std::vector<std::unordered_map<TxnId, const commit::LogEntry*>> logs(sys.num_shards());
  for (ShardId s = 0; s < sys.num_shards(); ++s) {
    for (const commit::LogEntry& e : sys.replica(s, 0).log().entries()) {
      if (e.filled()) logs[s][e.txn] = &e;
    }
  }
  std::uint64_t certified = 0, committed = 0, aborted = 0, undecided = 0;
  std::uint64_t mismatched = 0, twice = 0, stray = 0;
  for (const tcs::History* h : histories) {
    std::unordered_map<TxnId, std::pair<int, tcs::Decision>> decides;
    for (const tcs::HistoryEvent& e : h->events()) {
      if (e.kind == tcs::HistoryEvent::Kind::kDecide) {
        auto& [n, d] = decides[e.txn];
        ++n;
        d = e.decision;
      }
    }
    for (const tcs::HistoryEvent& e : h->events()) {
      if (e.kind != tcs::HistoryEvent::Kind::kCertify) continue;
      ++certified;
      auto it = decides.find(e.txn);
      if (it == decides.end()) {
        ++undecided;
        continue;
      }
      auto [n, d] = it->second;
      decides.erase(it);
      if (n > 1) ++twice;
      ++(d == tcs::Decision::kCommit ? committed : aborted);
      for (ShardId s : sys.shard_map().shards_of(e.payload)) {
        auto le = logs[s].find(e.txn);
        if (le == logs[s].end() || le->second->phase != commit::Phase::kDecided ||
            le->second->dec != d) {
          ++mismatched;
        }
      }
    }
    stray += decides.size();  // decided but never certified by this client
  }
  if (certified != attempted) {
    r.fail("clients certified " + std::to_string(certified) + " of " +
           std::to_string(attempted) + " attempted transactions");
  }
  if (committed + aborted + undecided != attempted) r.fail("decision accounting is off");
  if (mismatched > 0) {
    r.fail(std::to_string(mismatched) + " client decisions disagree with a leader log");
  }
  if (twice > 0) r.fail(std::to_string(twice) + " transactions decided twice");
  if (stray > 0) r.fail(std::to_string(stray) + " decisions for uncertified transactions");
  r.attempted += attempted;
  r.committed += committed;
  r.aborted += aborted;
  r.undecided += undecided;
}

/// Per-layer probes of the commit layer, timed from outside on copies of
/// the longest shard-leader log once the runtime has stopped.
void probe_commit_layer(rt::CommitSystem& sys, Metrics& m) {
  const commit::ReplicaLog* longest = nullptr;
  for (ShardId s = 0; s < sys.num_shards(); ++s) {
    const commit::ReplicaLog& log = sys.replica(s, 0).log();
    if (longest == nullptr || log.size() > longest->size()) longest = &log;
  }
  commit::ReplicaLog copy = *longest;
  m.set("commit.log_len.max", static_cast<double>(copy.size()), "entries");

  TxnId missing = 0;
  for (const commit::LogEntry& e : copy.entries()) missing = std::max(missing, e.txn);
  missing += 1'000'000'000;
  std::size_t calls = 0, hits = 0;
  double t0 = wall_s();
  while (calls < 50 || (wall_s() - t0 < 0.2 && calls < 5000)) {
    hits += copy.slot_of(missing + calls) != kNoSlot;
    ++calls;
  }
  m.set("commit.log_slot_of_ns", 1e9 * (wall_s() - t0) / static_cast<double>(calls + hits),
        "ns");

  commit::WitnessIndex index;
  index.rebuild(copy);
  std::size_t votes = 0;
  t0 = wall_s();
  for (const commit::LogEntry& e : copy.entries()) {
    if (!e.filled()) continue;
    index.vote(sys.certifier(), copy, e.payload);  // out of line: not elided
    if (++votes == 20000) break;
  }
  m.set("commit.index_vote_ns", 1e9 * ratio(wall_s() - t0, static_cast<double>(votes)), "ns");
}

/// (process CPU, decided) pairs sampled by the main thread while it waits.
struct Progress {
  std::vector<std::pair<double, std::uint64_t>> samples;
  void sample(std::uint64_t decided) { samples.emplace_back(process_cpu_s(), decided); }
  /// CPU µs per transaction between the samples nearest to decided counts
  /// `lo` and `hi`.
  double cpu_us_per_txn(std::uint64_t lo, std::uint64_t hi) const {
    auto at = [&](std::uint64_t d) {
      auto it = std::lower_bound(samples.begin(), samples.end(), d,
                                 [](const auto& s, std::uint64_t v) { return s.second < v; });
      return it == samples.end() ? samples.back() : *it;
    };
    if (samples.empty()) return 0;
    auto a = at(lo), b = at(hi);
    return 1e6 * ratio(b.first - a.first, static_cast<double>(b.second - a.second));
  }
};

/// Worker CPU busy shares over a window, from the tap's worker clocks.
struct BusyWindow {
  std::vector<clockid_t> clocks;
  std::vector<double> cpu0;
  double wall0 = 0;
  void begin(RtTap& tap) {
    clocks = tap.worker_clocks();
    cpu0.clear();
    for (clockid_t c : clocks) cpu0.push_back(clock_s(c));
    wall0 = wall_s();
  }
  void end(Metrics& m) {
    double wall = wall_s() - wall0;
    std::vector<double> busy;
    for (std::size_t i = 0; i < clocks.size(); ++i) {
      busy.push_back(ratio(clock_s(clocks[i]) - cpu0[i], wall));
    }
    m.set("rt.worker_busy.max", busy.empty() ? 0 : *std::max_element(busy.begin(), busy.end()),
          "fraction");
    m.set("rt.worker_busy.min", busy.empty() ? 0 : *std::min_element(busy.begin(), busy.end()),
          "fraction");
  }
};

void report_tap(RtTap& tap, double decided, Metrics& m) {
  std::vector<std::uint32_t> waits = tap.queue_waits();
  m.set("rt.queue_wait_us.p50", percentile(waits, 0.50), "us");
  m.set("rt.queue_wait_us.p999", percentile(waits, 0.999), "us");
  auto cpu = tap.deliver_cpu_ns();
  auto sent = tap.sent_by_type();
  for (std::size_t i = 0; i < kRtTypes.size(); ++i) {
    m.set(std::string("rt.deliver_cpu_ns.") + kRtTypes[i], cpu[i], "ns");
    m.set(std::string("rt.msgs_per_txn.") + kRtTypes[i],
          ratio(static_cast<double>(sent[i]), decided), "msgs");
  }
  m.set("rt.bytes_per_txn", ratio(static_cast<double>(tap.bytes_sent()), decided), "bytes");
}

/// Paired deliveries plus unpaired sends must account for every message
/// the runtime delivered or dropped.
void gate_tap(RtTap& tap, rt::ThreadedRuntime& trt, Result& r) {
  std::uint64_t seen = tap.paired() + tap.unmatched_sends() + tap.dropped_sends();
  std::uint64_t runtime = trt.delivered_count() + trt.dropped_count();
  if (seen != runtime || tap.unpaired_deliveries() != 0) {
    r.fail("tap pairing: " + std::to_string(seen) + " sends seen vs " +
           std::to_string(runtime) + " delivered+dropped, " +
           std::to_string(tap.unpaired_deliveries()) + " unpaired deliveries");
  }
  r.info["tap.paired"] = std::to_string(tap.paired());
  r.info["tap.unpaired_sends"] = std::to_string(tap.unmatched_sends() + tap.dropped_sends());
  r.info["tap.delivered_plus_dropped"] = std::to_string(runtime);
}

/// The simulator twin of an rt shape: the same shards, batch and keyspace
/// under a leader crash, for the message-delay, outage and read metrics that
/// only the deterministic runtime can measure.  One crash's outage depends on
/// what happens to be in flight (over ten seeds it read 64 or 82 ticks), so
/// the twin averages five crash scenarios drawn from the seed.
void run_twin(const SimShape& shape, std::uint64_t seed, Result& r) {
  std::vector<SimRun> twins;
  for (std::uint64_t k = 0; k < 5; ++k) {
    twins.push_back(run_sim(shape, seed * 5 + k, Checks::kGate));
    for (const std::string& p : twins.back().problems) r.fail("simulator twin: " + p);
  }
  add_failover_metrics(r, twins);
}

// --- rt-open ----------------------------------------------------------------

/// Open-loop arrivals from commit::Client processes that run on the
/// runtime's own workers.  Client i's k-th transaction of a phase is due at
/// start + (i + k*C)/rate; each is timed from when it was due, so a stall
/// that delays later sends shows in their latency.
class OpenLoop {
 public:
  struct Phase {
    Time start = 0, end = 0;  ///< runtime µs
    double rate = 0;          ///< txn/s over all clients
  };
  struct Txn {
    TxnId id = 0;
    Time due = 0, sent = 0, decided = 0;
    std::uint8_t phase = 0;
  };

  OpenLoop(rt::ThreadedRuntime& trt, const std::vector<ProcessId>& coordinators,
           std::uint64_t seed)
      : rt_(trt) {
    for (std::size_t i = 0; i < kOpenClients; ++i) {
      auto c = std::make_unique<Client>();
      c->index = i;
      c->history = std::make_unique<tcs::History>();
      c->proc = std::make_unique<commit::Client>(
          trt, rt::CommitSystem::kClientBase + static_cast<ProcessId>(i), c->history.get());
      c->rng = std::make_unique<Rng>(seed * 6364136223846793005ULL + i + 1);
      c->gen = std::make_unique<store::ContendedPayloadGen>(*c->rng, kOpenKeyspace);
      c->coordinator = coordinators[i % coordinators.size()];
      Client* cp = c.get();
      c->proc->on_decision = [this, cp](TxnId txn, tcs::Decision d) { decide(*cp, txn, d); };
      trt.spawn(c->proc.get());
      clients_.push_back(std::move(c));
    }
  }

  /// Arms every client's first timer; call once, after the runtime started.
  void start(std::vector<Phase> phases) {
    phases_ = std::move(phases);
    within_ = std::make_unique<std::atomic<std::uint64_t>[]>(phases_.size());
    for (std::size_t p = 0; p < phases_.size(); ++p) within_[p] = 0;
    for (auto& c : clients_) arm(*c);
  }

  /// Transactions due in phase p, over all clients.
  std::uint64_t due_in(std::size_t p) const {
    std::uint64_t n = 0;
    for (const auto& c : clients_) {
      for (std::uint64_t k = 0; due_at(p, c->index, k) < phases_[p].end; ++k) ++n;
    }
    return n;
  }
  std::uint64_t within_limit(std::size_t p) const { return within_[p].load(); }
  std::uint64_t sent() const { return sent_.load(); }
  std::uint64_t decided() const { return decided_.load(); }
  /// Wall time of the first submission (0 until it happened).
  double first_send_wall() const { return first_send_.load(); }

  // --- after the runtime stopped ---------------------------------------------

  std::vector<const tcs::History*> histories() const {
    std::vector<const tcs::History*> out;
    for (const auto& c : clients_) out.push_back(c->history.get());
    return out;
  }
  std::vector<Txn> txns() const {
    std::vector<Txn> out;
    for (const auto& c : clients_) out.insert(out.end(), c->txns.begin(), c->txns.end());
    return out;
  }

 private:
  struct Client {
    std::size_t index = 0;
    std::unique_ptr<tcs::History> history;
    std::unique_ptr<commit::Client> proc;
    std::unique_ptr<Rng> rng;
    std::unique_ptr<store::ContendedPayloadGen> gen;
    ProcessId coordinator = kNoProcess;
    std::size_t phase = 0;
    std::uint64_t k = 0;  ///< next transaction's index within the phase
    std::vector<Txn> txns;
    std::unordered_map<TxnId, std::size_t> slot;
  };

  Time due_at(std::size_t p, std::size_t i, std::uint64_t k) const {
    double offset_us = 1e6 * static_cast<double>(i + k * kOpenClients) / phases_[p].rate;
    return phases_[p].start + static_cast<Time>(offset_us);
  }

  /// The client's next due time, moving it to the next phase when the
  /// current one is exhausted; false when the schedule is done.
  bool next_due(Client& c, Time& due) {
    while (c.phase < phases_.size()) {
      due = due_at(c.phase, c.index, c.k);
      if (due < phases_[c.phase].end) return true;
      ++c.phase;
      c.k = 0;
    }
    return false;
  }

  void arm(Client& c) {
    Time due = 0;
    if (!next_due(c, due)) return;
    Time now = rt_.now();
    Client* cp = &c;
    rt_.schedule_for(c.proc->id(), due > now ? due - now : 0, [this, cp] { fire(*cp); });
  }

  void fire(Client& c) {
    Time now = rt_.now();
    Time due = 0;
    while (next_due(c, due) && due <= now) {
      TxnId id = 1 + c.index + c.txns.size() * kOpenClients;
      tcs::Payload payload = c.gen->next();
      c.slot[id] = c.txns.size();
      c.txns.push_back({id, due, now, 0, static_cast<std::uint8_t>(c.phase)});
      ++c.k;
      double unset = 0;
      first_send_.compare_exchange_strong(unset, wall_s());
      sent_.fetch_add(1);
      c.proc->certify_remote(c.coordinator, id, payload);
    }
    arm(c);
  }

  void decide(Client& c, TxnId txn, tcs::Decision d) {
    Txn& t = c.txns[c.slot.at(txn)];
    t.decided = rt_.now();
    if (d == tcs::Decision::kCommit) c.gen->observe_commit(*c.history->payload_of(txn));
    if (static_cast<double>(t.decided - t.due) <= kLimitUs) within_[t.phase].fetch_add(1);
    decided_.fetch_add(1);
  }

  rt::ThreadedRuntime& rt_;
  std::vector<std::unique_ptr<Client>> clients_;
  std::vector<Phase> phases_;
  std::unique_ptr<std::atomic<std::uint64_t>[]> within_;
  std::atomic<std::uint64_t> sent_{0};
  std::atomic<std::uint64_t> decided_{0};
  std::atomic<double> first_send_{0};
};

/// One assembled rt-open system: runtime, commit stack and clients.
struct OpenSystem {
  SendCounter sends;  // outlives the runtime's workers
  rt::ThreadedRuntime trt;
  rt::CommitSystem sys;
  OpenLoop load;
  // One protocol tick = 1 µs, so open-loop timers fire at µs precision.
  // With coordinator recovery and the monitor off, no protocol timer runs
  // in these failure-free runs, so the tick length changes nothing else.
  explicit OpenSystem(std::uint64_t seed)
      : trt({.threads = kRtWorkers, .tick_us = 1, .seed = seed}),
        sys(trt, {.num_shards = kShards, .shard_size = 2, .enable_monitor = false}),
        load(trt, sys.coordinators(), seed) {
    trt.add_observer(&sends);
  }
};

struct OpenPass {
  double setup_s = 0;
  /// Peak RSS at the end of the reference phase: the ladder's length
  /// depends on where it stops, and so would a later peak.
  double peak_rss_mb = 0;
  double max_rate = 0;   ///< highest rate whose rungs up to it all passed
  double peak_rate = 0;  ///< highest decided txn/s over any one rung
  double p50_us = 0, p999_us = 0;
  double cpu_us_per_txn = 0;
  std::uint64_t ref_samples = 0;
};

/// One rt-open pass: set-up, the reference phase, the ladder, drain, gate.
OpenPass open_pass(const Args& args, RtTap* tap, Result& r, bool report) {
  OpenPass out;
  const double window = args.seconds;
  auto t_setup = wall_s();
  auto s = std::make_unique<OpenSystem>(args.seed);
  if (tap != nullptr) s->trt.add_observer(tap);
  s->trt.start();

  std::vector<OpenLoop::Phase> phases;
  const Time t0 = s->trt.now();
  const auto us = [](double sec) { return static_cast<Time>(1e6 * sec); };
  Time ref_end = t0 + us(kRefShare * window);
  phases.push_back({t0, ref_end, kRefRate});
  Time at = ref_end;
  for (double rate : kLadder) {
    phases.push_back({at, at + us(kRungShare * window), rate});
    at += us(kRungShare * window);
  }
  s->load.start(phases);
  while (s->load.first_send_wall() == 0) std::this_thread::yield();
  out.setup_s = s->load.first_send_wall() - t_setup;

  // Main thread: sample progress, bracket the timed reference window and
  // judge each phase once its stragglers are past the latency limit.
  const Time warm_end = t0 + us(kWarmShare * kRefShare * window);
  Progress progress;
  BusyWindow busy;
  double cpu_w0 = 0, cpu_w1 = 0;
  std::uint64_t dec_w0 = 0, dec_w1 = 0;
  bool in_window = false, window_done = false;
  std::size_t judged = 0;
  const Time limit = static_cast<Time>(kLimitUs);
  // (runtime µs, decided) at the first sample past each rung boundary.
  std::vector<Time> edges;
  for (std::size_t p = 1; p < phases.size(); ++p) edges.push_back(phases[p].start);
  edges.push_back(phases.back().end);
  std::vector<std::pair<Time, std::uint64_t>> marks;
  bool passing = true;
  while (judged < phases.size()) {
    sleep_ms(1);
    Time now = s->trt.now();
    std::uint64_t dec = s->load.decided();
    if (!in_window && now >= warm_end) {
      in_window = true;
      cpu_w0 = process_cpu_s();
      dec_w0 = dec;
      if (tap != nullptr) busy.begin(*tap);
    }
    if (in_window && !window_done) progress.sample(dec);
    if (in_window && !window_done && now >= ref_end) {
      window_done = true;
      out.peak_rss_mb = peak_rss_mib();
      cpu_w1 = process_cpu_s();
      dec_w1 = dec;
      if (tap != nullptr) busy.end(r.metrics);
    }
    while (marks.size() < edges.size() && now >= edges[marks.size()]) marks.push_back({now, dec});
    if (now >= phases[judged].end + limit) {
      std::uint64_t due = s->load.due_in(judged);
      std::uint64_t within = s->load.within_limit(judged);
      passing = passing && static_cast<double>(within) >= std::ceil(0.999 * static_cast<double>(due));
      if (passing) out.max_rate = phases[judged].rate;
      r.info["phase." + std::to_string(judged) + ".within_limit"] =
          std::to_string(within) + "/" + std::to_string(due);
      ++judged;
    }
  }
  for (std::size_t k = 0; k + 1 < marks.size(); ++k) {
    out.peak_rate = std::max(
        out.peak_rate, ratio(static_cast<double>(marks[k + 1].second - marks[k].second),
                             1e-6 * static_cast<double>(marks[k + 1].first - marks[k].first)));
  }
  // Drain: every sent transaction decides (the transport is reliable and
  // nothing crashes), then in-flight DECISIONs reach the replicas.
  auto t_drain = std::chrono::steady_clock::now();
  while (s->load.decided() < s->load.sent() && secs_since(t_drain) < 60) sleep_ms(2);
  quiesce(s->trt, s->sends, r);
  s->trt.stop();

  std::vector<OpenLoop::Txn> txns = s->load.txns();
  gate_logs(s->sys, s->load.histories(), s->load.sent(), r);
  std::vector<double> lat, lag;
  std::vector<std::vector<double>> window_lat(kWindows);
  const double window_us = static_cast<double>(ref_end - warm_end) / kWindows;
  for (const OpenLoop::Txn& t : txns) {
    if (t.phase != 0 || t.due < warm_end) continue;
    lag.push_back(static_cast<double>(t.sent - t.due));
    // An undecided transaction counts as missing every limit.
    double l = t.decided == 0 ? 1e12 : static_cast<double>(t.decided - t.due);
    lat.push_back(l);
    auto w = static_cast<std::size_t>(static_cast<double>(t.due - warm_end) / window_us);
    window_lat[std::min<std::size_t>(w, kWindows - 1)].push_back(l);
  }
  std::vector<double> p50s, p999s;
  for (const auto& w : window_lat) {
    p50s.push_back(percentile(w, 0.50));
    p999s.push_back(percentile(w, 0.999));
  }
  out.p50_us = steady_cost(p50s);
  out.p999_us = steady_cost(p999s);
  out.ref_samples = lat.size();
  out.cpu_us_per_txn = 1e6 * ratio(cpu_w1 - cpu_w0, static_cast<double>(dec_w1 - dec_w0));

  if (report) {
    r.metrics.set("msgs_per_txn",
                  ratio(static_cast<double>(s->trt.delivered_count() + s->trt.dropped_count()),
                        static_cast<double>(s->load.decided())),
                  "msgs");
    r.info["ref_latency_samples"] = std::to_string(out.ref_samples);
  }
  if (tap != nullptr) {
    const double n = static_cast<double>(dec_w1 - dec_w0);
    const auto tenth = static_cast<std::uint64_t>(n / 10);
    r.metrics.set("rt.cpu_us_per_txn.first_tenth",
                  progress.cpu_us_per_txn(dec_w0, dec_w0 + tenth), "us");
    r.metrics.set("rt.cpu_us_per_txn.last_tenth",
                  progress.cpu_us_per_txn(dec_w1 - tenth, dec_w1), "us");
    r.metrics.set("loadgen.lag_us.p999", percentile(lag, 0.999), "us");
    report_tap(*tap, static_cast<double>(s->load.decided()), r.metrics);
    gate_tap(*tap, s->trt, r);
    probe_commit_layer(s->sys, r.metrics);
    for (const OpenLoop::Txn& t : txns) {
      if (t.decided != 0) {
        r.spans.add({t.id, "txn", "", static_cast<double>(t.due), static_cast<double>(t.decided)});
      }
    }
    tap->move_spans_into(r.spans);
  }
  return out;
}

// --- rt-batch-hot -------------------------------------------------------------

struct HotTrial {
  double setup_s = 0, wall_s = 0, cpu_s = 0;
  std::uint64_t decided = 0;
  double p50_us = 0, p999_us = 0;
  std::uint64_t messages = 0;
};

HotTrial hot_trial(const Args& args, RtTap* tap, Result& r) {
  HotTrial out;
  double t_setup = wall_s();
  SendCounter sends;
  rt::ThreadedRuntime trt({.threads = kRtWorkers, .seed = args.seed});
  trt.add_observer(&sends);
  if (tap != nullptr) trt.add_observer(tap);
  rt::CommitSystem sys(trt, {.num_shards = kShards, .shard_size = 2, .enable_monitor = false});
  const std::size_t per_client = args.tiny ? 60 : kHotTxnsPerClient;
  rt::LoadGen gen(trt, sys.coordinators(),
                  {.clients = kHotClients,
                   .txns_per_client = per_client,
                   .batch_size = kHotBatch,
                   .window = kHotWindow,
                   .keyspace = kHotKeyspace,
                   .seed = args.seed,
                   .first_pid = rt::CommitSystem::kClientBase});
  trt.start();
  double c0 = process_cpu_s();
  gen.start();
  double w0 = wall_s();
  out.setup_s = w0 - t_setup;

  Progress progress;
  BusyWindow busy;
  if (tap != nullptr) {
    while (tap->worker_clocks().size() < trt.worker_count() && gen.decided() == 0) {
      std::this_thread::yield();
    }
    busy.begin(*tap);
  }
  auto t_run = std::chrono::steady_clock::now();
  while (!gen.done() && secs_since(t_run) < 120) {
    sleep_ms(1);
    progress.sample(gen.decided());
  }
  out.wall_s = wall_s() - w0;
  out.cpu_s = process_cpu_s() - c0;
  out.decided = gen.decided();
  if (tap != nullptr) busy.end(r.metrics);
  quiesce(trt, sends, r);
  trt.stop();

  tcs::History merged = gen.merged_history();
  gate_logs(sys, {&merged}, gen.submitted(), r);
  std::vector<Duration> lat = gen.latencies();
  out.p50_us = percentile(lat, 0.50);
  out.p999_us = percentile(lat, 0.999);
  out.messages = trt.delivered_count() + trt.dropped_count();
  if (tap != nullptr) {
    const auto tenth = out.decided / 10;
    r.metrics.set("rt.cpu_us_per_txn.first_tenth", progress.cpu_us_per_txn(0, tenth), "us");
    r.metrics.set("rt.cpu_us_per_txn.last_tenth",
                  progress.cpu_us_per_txn(out.decided - tenth, out.decided), "us");
    r.metrics.set("loadgen.lag_us.p999", 0, "us");  // closed loop: nothing is due
    report_tap(*tap, static_cast<double>(out.decided), r.metrics);
    gate_tap(*tap, trt, r);
    probe_commit_layer(sys, r.metrics);
    std::unordered_map<TxnId, Time> certified;
    for (const tcs::HistoryEvent& e : merged.events()) {
      if (e.kind == tcs::HistoryEvent::Kind::kCertify) {
        certified[e.txn] = e.time;
      } else if (certified.count(e.txn)) {
        r.spans.add({e.txn, "txn", "", static_cast<double>(certified[e.txn]),
                     static_cast<double>(e.time)});
      }
    }
    tap->move_spans_into(r.spans);
  }
  return out;
}

std::vector<HotTrial> hot_trials(const Args& args, Result& r, bool traced) {
  std::vector<HotTrial> trials;
  const std::size_t min_trials = args.tiny ? 1 : 3;
  double deadline = wall_s() + args.seconds;
  while (trials.size() < min_trials || wall_s() < deadline) {
    // Traced trials each get their own tap; the last one's layer metrics
    // stand, and the spans of all of them are kept up to the cap.
    std::unique_ptr<RtTap> tap = traced ? std::make_unique<RtTap>() : nullptr;
    trials.push_back(hot_trial(args, tap.get(), r));
  }
  return trials;
}

}  // namespace

void zero_rt_layers(Metrics& m) {
  RtTap idle;
  report_tap(idle, 0, m);
  for (const char* name : {"rt.worker_busy.max", "rt.worker_busy.min"}) m.set(name, 0, "fraction");
  for (const char* name : {"rt.cpu_us_per_txn.first_tenth", "rt.cpu_us_per_txn.last_tenth",
                           "loadgen.lag_us.p999"}) {
    m.set(name, 0, "us");
  }
  m.set("commit.log_len.max", 0, "entries");
  m.set("commit.log_slot_of_ns", 0, "ns");
  m.set("commit.index_vote_ns", 0, "ns");
}

Result rt_open(const Args& args) {
  Result r;
  Args a = args;
  if (a.tiny) a.seconds = std::min(a.seconds, 2.0);
  // Extra set-ups for a steady set-up time: build, start, first send, stop.
  std::vector<double> setups;
  for (int i = 0; i < (a.tiny ? 1 : 6); ++i) {
    double t0 = wall_s();
    OpenSystem s(a.seed);
    s.trt.start();
    Time now = s.trt.now();
    s.load.start({{now, now + 1000, kRefRate}});
    while (s.load.first_send_wall() == 0) std::this_thread::yield();
    setups.push_back(s.load.first_send_wall() - t0);
    s.trt.stop();
  }
  std::string ladder;
  for (double rate : kLadder) ladder += (ladder.empty() ? "" : " ") + std::to_string(int(rate));
  r.info["ref_rate"] = std::to_string(int(kRefRate));
  r.info["ladder"] = ladder;
  r.info["limit_us"] = std::to_string(int(kLimitUs));
  OpenPass main = open_pass(a, nullptr, r, true);
  setups.push_back(main.setup_s);
  Metrics& m = r.metrics;
  m.set("setup_s", steady_cost(setups), "s");
  m.set("peak_rss_mb", main.peak_rss_mb, "MiB");
  m.set("p50_us", main.p50_us, "us");
  m.set("p999_us", main.p999_us, "us");
  m.set("txn_per_s", main.peak_rate, "1/s");
  m.set("max_rate_txn_per_s", main.max_rate, "1/s");
  m.set("cpu_us_per_txn", main.cpu_us_per_txn, "us");
  m.set("committed_fraction",
        ratio(static_cast<double>(r.committed), static_cast<double>(r.attempted)), "fraction");

  SimShape twin;
  twin.shards = kShards;
  twin.universe = kOpenKeyspace;
  twin.txns = a.tiny ? 120 : 400;
  run_twin(twin, a.seed, r);

  if (a.trace) {
    Result traced;
    traced.spans = SpanLog();
    RtTap tap;
    OpenPass t = open_pass(a, &tap, traced, false);
    for (const std::string& p : traced.problems) r.fail("traced pass: " + p);
    r.spans = std::move(traced.spans);
    r.info.insert(traced.info.begin(), traced.info.end());
    m.merge(traced.metrics);
    m.set("trace.overhead.txn_per_s", ratio(t.peak_rate, main.peak_rate), "ratio");
    m.set("trace.overhead.p50_us", ratio(t.p50_us, main.p50_us), "ratio");
  }
  return r;
}

Result rt_batch_hot(const Args& args) {
  Result r;
  std::vector<HotTrial> trials = hot_trials(args, r, false);
  Metrics& m = r.metrics;
  auto tps = [](const HotTrial& t) { return ratio(static_cast<double>(t.decided), t.wall_s); };
  auto p50 = [](const HotTrial& t) { return t.p50_us; };
  m.set("setup_s", steady_cost(each(trials, [](const HotTrial& t) { return t.setup_s; })), "s");
  m.set("p50_us", steady_cost(each(trials, p50)), "us");
  m.set("p999_us", steady_cost(each(trials, [](const HotTrial& t) { return t.p999_us; })), "us");
  const double txn_per_s = steady_rate(each(trials, tps));
  m.set("txn_per_s", txn_per_s, "1/s");
  m.set("cpu_us_per_txn", steady_cost(each(trials, [](const HotTrial& t) {
          return 1e6 * ratio(t.cpu_s, static_cast<double>(t.decided));
        })),
        "us");
  m.set("committed_fraction",
        ratio(static_cast<double>(r.committed), static_cast<double>(r.attempted)), "fraction");
  m.set("msgs_per_txn", median(each(trials, [](const HotTrial& t) {
          return ratio(static_cast<double>(t.messages), static_cast<double>(t.decided));
        })),
        "msgs");
  r.info["trials"] = std::to_string(trials.size());
  r.info["latency_samples_per_trial"] = std::to_string(trials.front().decided);

  SimShape twin;
  twin.shards = kShards;
  twin.batch = kHotBatch;
  twin.universe = kHotKeyspace;
  twin.gap = 4;
  twin.txns = args.tiny ? 160 : 800;
  run_twin(twin, args.seed, r);

  if (args.trace) {
    Result traced;
    traced.spans = SpanLog();
    std::vector<HotTrial> t = hot_trials(args, traced, true);
    for (const std::string& p : traced.problems) r.fail("traced pass: " + p);
    r.spans = std::move(traced.spans);
    r.info.insert(traced.info.begin(), traced.info.end());
    m.merge(traced.metrics);
    m.set("trace.overhead.txn_per_s", ratio(steady_rate(each(t, tps)), txn_per_s), "ratio");
    m.set("trace.overhead.p50_us", ratio(steady_cost(each(t, p50)), m.get("p50_us")), "ratio");
  }
  return r;
}

}  // namespace perfbench
