#include "rt/threaded_runtime.h"

#include <algorithm>
#include <cassert>

#include "sim/process.h"

namespace ratc::rt {

namespace {
/// Messages handled per process per scheduling round, so one chatty inbox
/// cannot starve timers or sibling processes on the same worker.
constexpr std::size_t kDrainBatch = 64;

/// Set by worker_loop for the lifetime of the thread; rng() falls back to
/// the setup stream on non-worker threads.
thread_local Rng* g_worker_rng = nullptr;
/// Which runtime+worker the current thread is, for the same-worker send
/// fast path (a handler enqueuing to its own worker needs no wake: the
/// worker re-scans its inboxes before parking after any round that did
/// work, and it is doing work right now).
thread_local const void* g_worker_rt = nullptr;
thread_local std::size_t g_worker_index = 0;
}  // namespace

ThreadedRuntime::ThreadedRuntime(Options options)
    : options_(options),
      epoch_(std::chrono::steady_clock::now()),
      setup_rng_(options.seed) {
  if (options_.threads == 0) options_.threads = 1;
  if (options_.tick_us == 0) options_.tick_us = 1;
  // Workers exist from construction (threads only from start()) so that
  // protocol constructors may already enqueue timers and sends.
  workers_.reserve(options_.threads);
  for (std::size_t i = 0; i < options_.threads; ++i) {
    auto w = std::make_unique<Worker>();
    w->rng = std::make_unique<Rng>(options_.seed * 7919 + i + 1);
    workers_.push_back(std::move(w));
  }
}

ThreadedRuntime::~ThreadedRuntime() { stop(); }

Time ThreadedRuntime::now() const {
  return static_cast<Time>(std::chrono::duration_cast<std::chrono::microseconds>(
                               std::chrono::steady_clock::now() - epoch_)
                               .count());
}

Rng& ThreadedRuntime::rng() {
  if (g_worker_rng != nullptr) return *g_worker_rng;
  return setup_rng_;
}

void ThreadedRuntime::spawn(sim::Process* p) {
  assert(p != nullptr);
  assert(!running_ && "spawn is only legal before start()");
  assert(procs_.find(p->id()) == procs_.end() && "duplicate process id");
  auto rec = std::make_unique<ProcessRecord>();
  rec->proc = p;
  rec->worker = next_worker_;
  next_worker_ = (next_worker_ + 1) % workers_.size();
  rec->inbox = std::make_unique<Inbox>(
      Inbox::Options{options_.inbox_capacity});
  workers_[rec->worker]->procs.push_back(rec.get());
  procs_.emplace(p->id(), std::move(rec));
}

ThreadedRuntime::ProcessRecord* ThreadedRuntime::find(ProcessId id) const {
  // procs_ is frozen once start() runs, so concurrent reads are safe.
  auto it = procs_.find(id);
  return it == procs_.end() ? nullptr : it->second.get();
}

void ThreadedRuntime::crash(ProcessId id) {
  ProcessRecord* rec = find(id);
  if (rec == nullptr) return;
  rec->crashed.store(true, std::memory_order_release);
  wake(rec->worker);
}

bool ThreadedRuntime::crashed(ProcessId id) const {
  ProcessRecord* rec = find(id);
  return rec != nullptr && rec->crashed.load(std::memory_order_acquire);
}

void ThreadedRuntime::schedule(Duration delay, std::function<void()> fn) {
  schedule_for(kNoProcess, delay, std::move(fn));
}

void ThreadedRuntime::schedule_for(ProcessId owner, Duration delay,
                                   std::function<void()> fn) {
  ProcessRecord* rec = owner == kNoProcess ? nullptr : find(owner);
  std::size_t widx = rec != nullptr ? rec->worker : 0;
  Timer t;
  t.at = now() + delay * options_.tick_us;
  t.seq = timer_seq_.fetch_add(1, std::memory_order_relaxed);
  t.owner = owner;
  t.fn = std::move(fn);
  Worker& w = *workers_[widx];
  {
    std::lock_guard<std::mutex> lock(w.mu);
    w.timers.push_back(std::move(t));
    std::push_heap(w.timers.begin(), w.timers.end(), TimerOrder{});
  }
  // Self-armed timers need no wake: the arming handler's round counts as
  // work, so the worker recomputes its park deadline before sleeping.
  if (g_worker_rt != this || g_worker_index != widx) wake(widx);
}

void ThreadedRuntime::send(ProcessId from, ProcessId to, sim::AnyMessage msg) {
  ProcessRecord* src = find(from);
  if (src != nullptr && src->crashed.load(std::memory_order_acquire)) return;
  Time t_now = now();
  // on_send runs on the *sender's* thread: any process state the observer
  // inspects belongs to the acting process (see threaded_runtime.h).
  for (auto* obs : observers_) obs->on_send(t_now, from, to, msg);
  ProcessRecord* dst = find(to);
  if (dst == nullptr || dst->crashed.load(std::memory_order_acquire)) {
    for (auto* obs : observers_) obs->on_drop(t_now, from, to, msg);
    dropped_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  std::size_t widx = dst->worker;
  dst->inbox->push(Envelope{from, std::move(msg)});
  if (g_worker_rt != this || g_worker_index != widx) wake(widx);
}

void ThreadedRuntime::wake(std::size_t widx) {
  Worker& w = *workers_[widx];
  w.signaled.store(true, std::memory_order_seq_cst);
  if (w.waiting.load(std::memory_order_seq_cst)) {
    // Taking the mutex before notifying closes the park/notify race: the
    // worker re-checks signaled under the mutex before it can sleep.
    std::lock_guard<std::mutex> lock(w.mu);
    w.cv.notify_one();
  }
}

void ThreadedRuntime::start() {
  assert(!running_);
  stop_.store(false, std::memory_order_release);
  running_ = true;
  for (std::size_t i = 0; i < workers_.size(); ++i) {
    workers_[i]->thread = std::thread([this, i] { worker_loop(i); });
  }
}

void ThreadedRuntime::stop() {
  if (!running_) return;
  stop_.store(true, std::memory_order_release);
  for (std::size_t i = 0; i < workers_.size(); ++i) wake(i);
  for (auto& w : workers_) {
    if (w->thread.joinable()) w->thread.join();
  }
  // In-flight mail and timers die with the runtime, like a sim that stops
  // stepping; account for the mail so stats stay truthful.
  Envelope env;
  for (auto& [id, rec] : procs_) {
    (void)id;
    while (rec->inbox->try_pop(env)) dropped_.fetch_add(1, std::memory_order_relaxed);
  }
  running_ = false;
}

Time ThreadedRuntime::pop_due_timers(Worker& w, std::vector<Timer>& out) {
  Time t_now = now();
  std::lock_guard<std::mutex> lock(w.mu);
  while (!w.timers.empty() && w.timers.front().at <= t_now) {
    std::pop_heap(w.timers.begin(), w.timers.end(), TimerOrder{});
    out.push_back(std::move(w.timers.back()));
    w.timers.pop_back();
  }
  return w.timers.empty() ? 0 : w.timers.front().at;
}

void ThreadedRuntime::worker_loop(std::size_t index) {
  Worker& w = *workers_[index];
  g_worker_rng = w.rng.get();
  g_worker_rt = this;
  g_worker_index = index;
  std::vector<Timer> due;
  Envelope env;
  while (!stop_.load(std::memory_order_acquire)) {
    due.clear();
    Time next_deadline = pop_due_timers(w, due);
    bool did_work = false;
    for (Timer& t : due) {
      if (t.owner != kNoProcess) {
        ProcessRecord* rec = find(t.owner);
        if (rec == nullptr || rec->crashed.load(std::memory_order_acquire)) continue;
      }
      did_work = true;
      t.fn();
    }
    for (ProcessRecord* rec : w.procs) {
      std::size_t budget = kDrainBatch;
      while (budget-- > 0 && rec->inbox->try_pop(env)) {
        did_work = true;
        if (rec->crashed.load(std::memory_order_acquire)) {
          dropped_.fetch_add(1, std::memory_order_relaxed);
          continue;
        }
        Time t_now = now();
        // on_deliver + on_message both run here, on the owner's worker —
        // the per-process serialization the protocol code relies on.
        for (auto* obs : observers_) {
          obs->on_deliver(t_now, env.from, rec->proc->id(), env.msg);
        }
        rec->proc->on_message(env.from, env.msg);
        delivered_.fetch_add(1, std::memory_order_relaxed);
      }
    }
    if (did_work) continue;
    std::unique_lock<std::mutex> lock(w.mu);
    w.waiting.store(true, std::memory_order_seq_cst);
    // Anything enqueued after our drain pass set signaled before reading
    // waiting, so we either see it here or the producer sees waiting and
    // notifies under the mutex — no lost wakeups (see Worker).
    if (!w.signaled.load(std::memory_order_seq_cst)) {
      auto woken = [&] {
        return w.signaled.load(std::memory_order_acquire) ||
               stop_.load(std::memory_order_acquire);
      };
      if (next_deadline == 0) {
        w.cv.wait(lock, woken);
      } else {
        w.cv.wait_until(lock, epoch_ + std::chrono::microseconds(next_deadline),
                        woken);
      }
    }
    w.waiting.store(false, std::memory_order_seq_cst);
    w.signaled.store(false, std::memory_order_seq_cst);
  }
  g_worker_rng = nullptr;
  g_worker_rt = nullptr;
}

}  // namespace ratc::rt
