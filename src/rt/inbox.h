// MPSC inbox of the threaded runtime: every process owns one, all workers
// may produce into it, only the owning worker consumes.
//
// The queue is a bounded Vyukov-style ring (per-cell sequence numbers):
// producers and the consumer synchronize only through the cell seqlocks.
// A full ring exerts *backpressure*: push() spin-yields until a slot frees.
// Blocking (rather than spilling to an overflow list) is what preserves
// per-sender FIFO order — a message may never overtake an earlier one from
// the same sender.  The capacity must therefore exceed the workload's
// in-flight burst per process; if every worker ever blocked pushing
// simultaneously the system would deadlock, so size generously (default
// 1<<16 envelopes ≈ cheap, envelopes are two words + a shared_ptr).
#pragma once

#include <atomic>
#include <cassert>
#include <cstddef>
#include <memory>
#include <optional>
#include <thread>

#include "common/types.h"
#include "sim/message.h"

namespace ratc::rt {

struct Envelope {
  ProcessId from = kNoProcess;
  sim::AnyMessage msg;
};

class Inbox {
 public:
  struct Options {
    std::size_t capacity = 1 << 16;  ///< rounded up to a power of two
  };

  explicit Inbox(Options options) {
    std::size_t cap = 1;
    while (cap < options.capacity) cap <<= 1;
    mask_ = cap - 1;
    cells_ = std::make_unique<Cell[]>(cap);
    for (std::size_t i = 0; i < cap; ++i) {
      cells_[i].seq.store(i, std::memory_order_relaxed);
    }
  }

  Inbox(const Inbox&) = delete;
  Inbox& operator=(const Inbox&) = delete;

  /// Multi-producer push.  Spin-yields while the ring is full
  /// (backpressure; see file comment).
  void push(Envelope e) {
    while (!try_push_ring(e)) std::this_thread::yield();
  }

  /// Single-consumer pop; returns false when (momentarily) empty.
  bool try_pop(Envelope& out) {
    Cell& cell = cells_[head_ & mask_];
    // The consumer is unique, so head_ needs no atomicity — only the cell
    // handoff does.
    if (cell.seq.load(std::memory_order_acquire) != head_ + 1) return false;
    out = std::move(*cell.item);
    cell.item.reset();
    cell.seq.store(head_ + mask_ + 1, std::memory_order_release);
    ++head_;
    return true;
  }

  /// Approximate (exact when no producer is mid-push).
  bool empty() const {
    return cells_[head_ & mask_].seq.load(std::memory_order_acquire) != head_ + 1;
  }

 private:
  struct Cell {
    std::atomic<std::size_t> seq{0};
    std::optional<Envelope> item;
  };

  bool try_push_ring(Envelope& e) {
    std::size_t pos = tail_.load(std::memory_order_relaxed);
    for (;;) {
      Cell& cell = cells_[pos & mask_];
      std::size_t seq = cell.seq.load(std::memory_order_acquire);
      std::intptr_t dif = static_cast<std::intptr_t>(seq) - static_cast<std::intptr_t>(pos);
      if (dif == 0) {
        if (tail_.compare_exchange_weak(pos, pos + 1, std::memory_order_relaxed)) {
          cell.item.emplace(std::move(e));
          cell.seq.store(pos + 1, std::memory_order_release);
          return true;
        }
      } else if (dif < 0) {
        return false;  // full
      } else {
        pos = tail_.load(std::memory_order_relaxed);
      }
    }
  }

  std::unique_ptr<Cell[]> cells_;
  std::size_t mask_ = 0;
  std::atomic<std::size_t> tail_{0};  ///< next enqueue position (producers)
  std::size_t head_ = 0;              ///< next dequeue position (consumer only)
};

}  // namespace ratc::rt
