// rt::Runtime on real threads and real clocks — the production side of the
// runtime seam.
//
// Execution model:
//  * N worker threads; every process is pinned to one worker (round-robin
//    at spawn).  A process's handlers and timers all run on its worker, so
//    per-process state needs no locking — exactly the guarantee protocol
//    code already assumed under the simulator.
//  * One MPSC Inbox per process (rt/inbox.h): any worker produces, the
//    owning worker consumes.  Per-(sender,receiver) FIFO holds because a
//    sender enqueues from one thread and the ring/deque preserves order.
//  * Per-worker timer min-heap; schedule_for() routes to the owner's
//    worker.  now() is steady-clock microseconds since construction;
//    protocol Durations (sim ticks) are scaled by Options::tick_us.
//  * crash() flips an atomic flag; deliveries and timers for a crashed
//    process are discarded at fire time, matching Simulator::crash.
//  * NetworkObservers (the commit::Monitor tap) fire on_send on the
//    *sender's* thread and on_deliver on the *receiver's* thread — every
//    process-state read the monitor performs is of the acting process, so a
//    thread-safe observer needs only its own internal lock.
//
// Determinism does NOT hold here: interleavings are scheduler-dependent.
// The sim twin owns reproducibility; this runtime owns wall-clock truth.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/random.h"
#include "rt/inbox.h"
#include "rt/runtime.h"
#include "sim/network.h"

namespace ratc::rt {

class ThreadedRuntime final : public Runtime {
 public:
  struct Options {
    std::size_t threads = 4;
    /// One protocol Duration tick = this many microseconds of real time
    /// (timer granularity of retries, FD periods, probe patience...).
    Duration tick_us = 100;
    std::size_t inbox_capacity = 1 << 16;
    std::uint64_t seed = 1;
  };

  explicit ThreadedRuntime(Options options);
  ~ThreadedRuntime() override;

  // --- Runtime seam ---------------------------------------------------------

  Time now() const override;
  /// Worker threads get their own seeded stream; other threads share the
  /// setup stream (single-threaded use only).
  Rng& rng() override;
  /// Only legal before start().
  void spawn(sim::Process* p) override;
  void crash(ProcessId id) override;
  bool crashed(ProcessId id) const override;
  void schedule(Duration delay, std::function<void()> fn) override;
  void schedule_for(ProcessId owner, Duration delay, std::function<void()> fn) override;
  void send(ProcessId from, ProcessId to, sim::AnyMessage msg) override;

  // --- lifecycle ------------------------------------------------------------

  /// Non-owning; observers must be thread-safe (see file comment) and must
  /// be added before start().
  void add_observer(sim::NetworkObserver* obs) { observers_.push_back(obs); }

  void start();
  /// Graceful shutdown: workers finish the handler they are in, remaining
  /// queued messages and timers are dropped, threads are joined.  Safe to
  /// call twice; the destructor calls it.
  void stop();
  bool running() const { return running_; }

  // --- stats ----------------------------------------------------------------

  std::uint64_t delivered_count() const { return delivered_.load(); }
  std::uint64_t dropped_count() const { return dropped_.load(); }
  std::size_t worker_count() const { return workers_.size(); }

 private:
  struct ProcessRecord {
    sim::Process* proc = nullptr;
    std::size_t worker = 0;
    std::atomic<bool> crashed{false};
    std::unique_ptr<Inbox> inbox;
  };

  struct Timer {
    Time at = 0;
    std::uint64_t seq = 0;
    ProcessId owner = kNoProcess;
    std::function<void()> fn;
  };
  struct TimerOrder {  // min-heap by (at, seq)
    bool operator()(const Timer& a, const Timer& b) const {
      if (a.at != b.at) return a.at > b.at;
      return a.seq > b.seq;
    }
  };

  struct Worker {
    std::mutex mu;
    std::condition_variable cv;
    /// Pending-wakeup / parked flags.  seq_cst on both sides makes the
    /// classic store-then-load-the-other-flag handshake safe: a producer
    /// that finds waiting == false is guaranteed the worker saw signaled
    /// before parking, so the mutex + notify can be skipped entirely on the
    /// hot path.
    std::atomic<bool> signaled{false};
    std::atomic<bool> waiting{false};
    std::vector<Timer> timers;      // heap, guarded by mu
    std::vector<ProcessRecord*> procs;
    std::unique_ptr<Rng> rng;
    std::thread thread;
  };

  ProcessRecord* find(ProcessId id) const;
  void wake(std::size_t w);
  void worker_loop(std::size_t index);
  /// Pops due timers (deadline <= now) into `out`; returns the next pending
  /// deadline or 0 if none.
  Time pop_due_timers(Worker& w, std::vector<Timer>& out);

  Options options_;
  std::chrono::steady_clock::time_point epoch_;
  std::vector<std::unique_ptr<Worker>> workers_;
  std::unordered_map<ProcessId, std::unique_ptr<ProcessRecord>> procs_;
  std::vector<sim::NetworkObserver*> observers_;
  Rng setup_rng_;
  std::atomic<std::uint64_t> timer_seq_{0};
  std::atomic<std::uint64_t> delivered_{0};
  std::atomic<std::uint64_t> dropped_{0};
  std::atomic<bool> stop_{false};
  bool running_ = false;
  std::size_t next_worker_ = 0;  // round-robin spawn pinning
};

}  // namespace ratc::rt
