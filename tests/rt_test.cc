// Unit and stress tests for the threaded runtime (src/rt/): inbox FIFO and
// backpressure, timer ordering, crash-stop semantics matching
// Simulator::crash, graceful shutdown with mail in flight — plus the
// sim-vs-threaded twin tests: the same commit-protocol workload runs on the
// deterministic simulator and on real threads, and the threaded histories
// must satisfy the same monitor / TCS-LL / linearization checkers.
//
// The whole file runs under -DRATC_SANITIZE=THREAD in CI; the stress cases
// exist mainly to give TSan interleavings to chew on.
// RATC_RT_STRESS_TXNS scales the big stress run (default 10000).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <map>
#include <thread>
#include <vector>

#include "checker/conflict_graph.h"
#include "checker/linearization.h"
#include "checker/tcsll.h"
#include "commit/client.h"
#include "commit/cluster.h"
#include "rt/commit_system.h"
#include "rt/inbox.h"
#include "rt/loadgen.h"
#include "rt/threaded_runtime.h"
#include "store/stack_harness.h"

namespace ratc {
namespace {

using namespace std::chrono_literals;

struct SeqMsg {
  static constexpr const char* kName = "SEQ";
  ProcessId producer = 0;
  std::uint64_t n = 0;
};

std::size_t stress_txns() {
  const char* v = std::getenv("RATC_RT_STRESS_TXNS");
  if (v == nullptr || *v == '\0') return 10000;
  return static_cast<std::size_t>(std::strtoull(v, nullptr, 10));
}

/// Polls `pred` until true or `limit` elapses.
template <typename Pred>
bool eventually(Pred pred, std::chrono::milliseconds limit = 30s) {
  auto deadline = std::chrono::steady_clock::now() + limit;
  while (!pred()) {
    if (std::chrono::steady_clock::now() > deadline) return false;
    std::this_thread::sleep_for(1ms);
  }
  return true;
}

// --- Inbox ------------------------------------------------------------------

/// Per-(sender,receiver) FIFO under multi-producer load.
TEST(Inbox, FifoPerSenderLockFree) {
  rt::Inbox inbox({1 << 10});
  constexpr std::size_t kProducers = 4;
  constexpr std::uint64_t kPerProducer = 20000;
  std::vector<std::thread> producers;
  for (std::size_t p = 0; p < kProducers; ++p) {
    producers.emplace_back([&inbox, p] {
      for (std::uint64_t n = 0; n < kPerProducer; ++n) {
        inbox.push(rt::Envelope{static_cast<ProcessId>(p),
                                sim::AnyMessage(SeqMsg{static_cast<ProcessId>(p), n})});
      }
    });
  }
  std::map<ProcessId, std::uint64_t> next_expected;
  std::uint64_t received = 0;
  rt::Envelope e;
  while (received < kProducers * kPerProducer) {
    if (!inbox.try_pop(e)) {
      std::this_thread::yield();
      continue;
    }
    const SeqMsg* m = e.msg.as<SeqMsg>();
    ASSERT_NE(m, nullptr);
    ASSERT_EQ(m->producer, e.from);
    // The FIFO contract: per sender, strictly sequential.
    ASSERT_EQ(m->n, next_expected[e.from]) << "sender " << e.from;
    ++next_expected[e.from];
    ++received;
  }
  for (auto& t : producers) t.join();
  EXPECT_TRUE(inbox.empty());
}

TEST(Inbox, BackpressureBlocksInsteadOfReordering) {
  // Capacity 4: the producer must block on the full ring, and the consumer
  // must still see a gapless sequence.
  rt::Inbox inbox({4});
  constexpr std::uint64_t kTotal = 1000;
  std::thread producer([&inbox] {
    for (std::uint64_t n = 0; n < kTotal; ++n) {
      inbox.push(rt::Envelope{1, sim::AnyMessage(SeqMsg{1, n})});
    }
  });
  rt::Envelope e;
  for (std::uint64_t n = 0; n < kTotal;) {
    if (!inbox.try_pop(e)) continue;
    ASSERT_EQ(e.msg.as<SeqMsg>()->n, n);
    ++n;
  }
  producer.join();
}

// --- ThreadedRuntime primitives ---------------------------------------------

/// Records deliveries; used as both counter and echo.
class Recorder : public sim::Process {
 public:
  Recorder(rt::Runtime& rt, ProcessId id, bool echo = false)
      : Process(rt, id, "recorder" + std::to_string(id)), echo_(echo) {}

  void on_message(ProcessId from, const sim::AnyMessage& msg) override {
    received_.fetch_add(1, std::memory_order_acq_rel);
    if (echo_) rt().send(id(), from, msg);
  }

  std::uint64_t received() const { return received_.load(std::memory_order_acquire); }

 private:
  bool echo_;
  std::atomic<std::uint64_t> received_{0};
};

TEST(ThreadedRuntime, TimersFireInDeadlineOrder) {
  rt::ThreadedRuntime trt({.threads = 2, .tick_us = 200, .seed = 7});
  Recorder owner(trt, 1);
  trt.spawn(&owner);
  // Only the owner's worker fires these, so `order` needs no lock.
  std::vector<int> order;
  std::atomic<std::size_t> fired{0};
  auto arm = [&](Duration delay, int tag) {
    trt.schedule_for(1, delay, [&order, &fired, tag] {
      order.push_back(tag);
      fired.fetch_add(1, std::memory_order_acq_rel);
    });
  };
  arm(50, 50);
  arm(10, 10);
  arm(30, 30);
  arm(20, 20);
  arm(40, 40);
  arm(10, 11);  // same deadline: submission order breaks the tie
  trt.start();
  ASSERT_TRUE(eventually([&] { return fired.load() == 6; }));
  trt.stop();
  EXPECT_EQ(order, (std::vector<int>{10, 11, 20, 30, 40, 50}));
}

TEST(ThreadedRuntime, CrashStopsDeliveriesAndTimers) {
  rt::ThreadedRuntime trt({.threads = 2, .seed = 3});
  Recorder a(trt, 1);
  Recorder b(trt, 2);
  trt.spawn(&a);
  trt.spawn(&b);
  trt.start();
  for (int i = 0; i < 10; ++i) trt.send(2, 1, sim::AnyMessage(SeqMsg{2, 0}));
  ASSERT_TRUE(eventually([&] { return a.received() == 10; }));

  EXPECT_FALSE(trt.crashed(1));
  trt.crash(1);
  EXPECT_TRUE(trt.crashed(1));
  // Like Simulator::crash: no further deliveries, timers are discarded at
  // fire time, and a crashed sender sends nothing.
  std::atomic<bool> timer_fired{false};
  trt.schedule_for(1, 1, [&] { timer_fired.store(true); });
  for (int i = 0; i < 10; ++i) trt.send(2, 1, sim::AnyMessage(SeqMsg{2, 0}));
  std::uint64_t b_before = b.received();
  trt.send(1, 2, sim::AnyMessage(SeqMsg{1, 0}));  // crashed sender
  std::this_thread::sleep_for(50ms);
  trt.stop();
  EXPECT_EQ(a.received(), 10u);
  EXPECT_EQ(b.received(), b_before);
  EXPECT_FALSE(timer_fired.load());
  EXPECT_GE(trt.dropped_count(), 10u);
}

TEST(ThreadedRuntime, GracefulShutdownWithMailInFlight) {
  // Echo storm: every delivery sends the message back, so mail is always in
  // flight; stop() must cut it off without hanging or crashing.
  rt::ThreadedRuntime trt({.threads = 4, .seed = 11});
  std::vector<std::unique_ptr<Recorder>> procs;
  for (ProcessId id = 1; id <= 8; ++id) {
    procs.push_back(std::make_unique<Recorder>(trt, id, /*echo=*/true));
    trt.spawn(procs.back().get());
  }
  trt.start();
  for (ProcessId id = 1; id <= 8; ++id) {
    trt.send(id, (id % 8) + 1, sim::AnyMessage(SeqMsg{id, 0}));
  }
  ASSERT_TRUE(eventually([&] { return trt.delivered_count() > 10000; }));
  trt.stop();
  std::uint64_t delivered = trt.delivered_count();
  EXPECT_GT(delivered, 10000u);
  std::this_thread::sleep_for(20ms);
  EXPECT_EQ(trt.delivered_count(), delivered);  // really stopped
  trt.stop();  // idempotent
}

// --- sim-vs-threaded twins ---------------------------------------------------

std::vector<std::pair<TxnId, tcs::Payload>> conflict_free_workload(std::size_t n) {
  // Disjoint read/write sets: every certifier must commit every item, on
  // either runtime, under any interleaving — exact decision agreement.
  std::vector<std::pair<TxnId, tcs::Payload>> out;
  for (std::size_t i = 0; i < n; ++i) {
    tcs::Payload p;
    p.reads = {{static_cast<ObjectId>(2 * i), 0}, {static_cast<ObjectId>(2 * i + 1), 0}};
    p.writes = {{static_cast<ObjectId>(2 * i), 1}};
    p.commit_version = 1;
    out.emplace_back(static_cast<TxnId>(i + 1), p);
  }
  return out;
}

TEST(SimVsThreaded, DecisionAgreementOnConflictFreeWorkload) {
  auto workload = conflict_free_workload(20);

  // Simulator twin.
  std::map<TxnId, tcs::Decision> sim_decisions;
  {
    commit::Cluster cluster({.seed = 5, .num_shards = 2, .shard_size = 2});
    commit::Client& client = cluster.add_client();
    for (const auto& [txn, p] : workload) {
      client.certify_remote(cluster.replica(0, 1).id(), txn, p);
    }
    ASSERT_TRUE(cluster.sim().run_until_pred(
        [&] { return client.decided_count() == workload.size(); }, 1'000'000));
    EXPECT_EQ(cluster.verify(), "");
    for (const auto& [txn, p] : workload) {
      (void)p;
      sim_decisions[txn] = *client.decision(txn);
    }
    auto lin = checker::check_linearization(cluster.history(), cluster.certifier());
    EXPECT_TRUE(lin.ok) << lin.error;
  }

  // Threaded twin: same payloads, same topology, real threads, with the
  // monitor tapping sends/deliveries exactly as the sim network does.
  std::map<TxnId, tcs::Decision> rt_decisions;
  {
    rt::ThreadedRuntime trt({.threads = 4, .seed = 5});
    rt::CommitSystem system(trt, {.num_shards = 2, .shard_size = 2});
    trt.add_observer(system.monitor());
    tcs::History history;
    commit::Client client(trt, rt::CommitSystem::kClientBase, &history);
    trt.spawn(&client);
    std::atomic<std::size_t> decided{0};
    client.on_decision = [&](TxnId, tcs::Decision) {
      decided.fetch_add(1, std::memory_order_acq_rel);
    };
    ProcessId coordinator = system.replica(0, 1).id();
    for (std::size_t i = 0; i < workload.size(); ++i) {
      auto [txn, p] = workload[i];
      trt.schedule_for(client.id(), static_cast<Duration>(i + 1),
                       [&client, coordinator, txn, p] {
                         client.certify_remote(coordinator, txn, p);
                       });
    }
    trt.start();
    ASSERT_TRUE(eventually([&] { return decided.load() == workload.size(); }));
    trt.stop();

    // Post-stop, the workers are joined: client/monitor state is plain data.
    EXPECT_TRUE(system.monitor()->violations().empty())
        << system.monitor()->violations().summary();
    EXPECT_TRUE(history.complete());
    EXPECT_TRUE(history.conflicting_decisions().empty());
    auto tcsll = checker::check_tcsll(system.monitor()->tcsll_input(
        history, system.shard_map(), system.certifier()));
    EXPECT_TRUE(tcsll.ok) << tcsll.summary();
    auto lin = checker::check_linearization(history, system.certifier());
    EXPECT_TRUE(lin.ok) << lin.error;
    for (const auto& [txn, p] : workload) {
      (void)p;
      ASSERT_TRUE(history.decision_of(txn).has_value());
      rt_decisions[txn] = *history.decision_of(txn);
    }
  }

  // Exact agreement: conflict-free, so both runtimes must commit everything.
  EXPECT_EQ(sim_decisions, rt_decisions);
  for (const auto& [txn, d] : rt_decisions) {
    EXPECT_EQ(d, tcs::Decision::kCommit) << "txn " << txn;
  }
}

TEST(SimVsThreaded, ContendedWorkloadPassesCheckersOnThreads) {
  // Contended mix via the load generator (real aborts, real races between
  // coordinators), full safety-checker stack on the threaded history.
  rt::ThreadedRuntime trt({.threads = 4, .seed = 23});
  rt::CommitSystem system(trt, {.num_shards = 2, .shard_size = 2});
  trt.add_observer(system.monitor());
  rt::LoadGen gen(trt, system.coordinators(),
                  {.clients = 8, .txns_per_client = 2, .batch_size = 1,
                   .window = 1, .keyspace = 6, .seed = 23});
  trt.start();
  gen.start();
  ASSERT_TRUE(eventually([&] { return gen.done(); }));
  trt.stop();

  EXPECT_TRUE(system.monitor()->violations().empty())
      << system.monitor()->violations().summary();
  tcs::History history = gen.merged_history();
  EXPECT_TRUE(history.complete());
  EXPECT_TRUE(history.conflicting_decisions().empty());
  auto tcsll = checker::check_tcsll(system.monitor()->tcsll_input(
      history, system.shard_map(), system.certifier()));
  EXPECT_TRUE(tcsll.ok) << tcsll.summary();
  auto lin = checker::check_linearization(history, system.certifier());
  EXPECT_TRUE(lin.ok) << lin.error;
}

// --- stress ------------------------------------------------------------------

TEST(ThreadedStress, TenThousandTxnsSatisfySerializability) {
  const std::size_t txns = stress_txns();
  rt::ThreadedRuntime trt({.threads = 4, .seed = 99});
  rt::CommitSystem system(trt, {.num_shards = 4, .shard_size = 2});
  trt.add_observer(system.monitor());
  rt::LoadGen::Options lopt;
  lopt.clients = 32;
  lopt.txns_per_client = std::max<std::size_t>(txns / 32, 1);
  lopt.batch_size = 4;
  lopt.window = 2;
  lopt.keyspace = 4096;
  lopt.seed = 99;
  rt::LoadGen gen(trt, system.coordinators(), lopt);
  trt.start();
  gen.start();
  ASSERT_TRUE(eventually([&] { return gen.done(); }, 300s));
  trt.stop();

  EXPECT_TRUE(system.monitor()->violations().empty())
      << system.monitor()->violations().summary();
  tcs::History history = gen.merged_history();
  EXPECT_TRUE(history.complete());
  EXPECT_TRUE(history.conflicting_decisions().empty());
  EXPECT_EQ(history.all_txns().size(), gen.target_txns());
  // The exact linearization checker is exponential; at 10k transactions the
  // polynomial conflict-graph oracle (MVSG acyclicity) is the right tool.
  auto cg = checker::check_conflict_graph(history);
  EXPECT_TRUE(cg.ok) << cg.error;
  // TCS-LL is polynomial and runs at full size.
  auto tcsll = checker::check_tcsll(system.monitor()->tcsll_input(
      history, system.shard_map(), system.certifier()));
  EXPECT_TRUE(tcsll.ok) << tcsll.summary();
}

}  // namespace
}  // namespace ratc
