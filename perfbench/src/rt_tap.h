// The traced runs' view into rt::ThreadedRuntime, through its public
// observer tap.  Every send is paired with its delivery through a
// per-(from,to) FIFO (the runtime delivers FIFO per channel), which gives
// each message's queue wait; the thread CPU clock is sampled in the
// delivery callback, which runs on the receiving worker, so the CPU spent
// between two deliveries on one worker is charged to the earlier message's
// type.  Spans (one per transaction per hop) are kept per worker in memory.
#pragma once

#include <pthread.h>

#include <array>
#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "sim/network.h"
#include "util.h"

namespace perfbench {

/// Commit-stack message types the tap reports one by one; everything else
/// is folded into OTHER.
inline constexpr std::array<const char*, 12> kRtTypes = {
    "CERTIFY",        "PREPARE",           "PREPARE_ACK",  "ACCEPT",
    "ACCEPT_ACK",     "DECISION",          "DECISION_CLIENT", "CERTIFY_BATCH",
    "PREPARE_BATCH",  "PREPARE_ACK_BATCH", "ACCEPT_BATCH", "ACCEPT_ACK_BATCH"};
inline constexpr std::size_t kOtherType = kRtTypes.size();
inline constexpr std::size_t kNumTypes = kRtTypes.size() + 1;

class RtTap final : public ratc::sim::NetworkObserver {
 public:
  /// Per-thread tallies; a thread registers on its first callback.
  struct ThreadStats {
    clockid_t cpu_clock{};
    std::atomic<bool> delivers{false};  ///< a worker (it ran on_deliver)
    std::size_t last_type = kNumTypes;
    double last_cpu_s = 0;
    std::array<double, kNumTypes> cpu_ns{};
    std::array<std::uint64_t, kNumTypes> cpu_samples{};
    std::array<std::uint64_t, kNumTypes> sent{};
    std::uint64_t bytes_sent = 0;
    std::uint64_t paired = 0;
    std::uint64_t unpaired_deliveries = 0;
    std::uint64_t dropped_sends = 0;
    std::vector<std::uint32_t> queue_wait_us;
    std::vector<Span> spans;
  };

  RtTap();
  RtTap(const RtTap&) = delete;
  RtTap& operator=(const RtTap&) = delete;

  void on_send(ratc::Time now, ratc::ProcessId from, ratc::ProcessId to,
               const ratc::sim::AnyMessage& msg) override;
  void on_deliver(ratc::Time now, ratc::ProcessId from, ratc::ProcessId to,
                  const ratc::sim::AnyMessage& msg) override;
  void on_drop(ratc::Time now, ratc::ProcessId from, ratc::ProcessId to,
               const ratc::sim::AnyMessage& msg) override;

  // --- after the runtime stopped ---------------------------------------------

  /// Sends still waiting in a channel FIFO (never delivered).
  std::uint64_t unmatched_sends() const;
  std::uint64_t paired() const;
  std::uint64_t dropped_sends() const;
  std::uint64_t unpaired_deliveries() const;
  std::vector<std::uint32_t> queue_waits() const;
  std::array<std::uint64_t, kNumTypes> sent_by_type() const;
  std::uint64_t bytes_sent() const;
  /// Mean worker CPU (ns) per delivery interval, charged per type.
  std::array<double, kNumTypes> deliver_cpu_ns() const;
  void move_spans_into(SpanLog& log);

  /// CPU clocks of the threads that delivered messages (the workers);
  /// readable from any thread while the runtime runs.
  std::vector<clockid_t> worker_clocks();

 private:
  ThreadStats& self();

  static constexpr std::size_t kStripes = 64;
  struct Stripe {
    std::mutex mu;
    std::unordered_map<std::uint64_t, std::deque<ratc::Time>> fifo;
  };
  std::array<Stripe, kStripes> stripes_;
  std::uint64_t generation_;
  std::mutex threads_mu_;
  std::vector<std::unique_ptr<ThreadStats>> threads_;
};

}  // namespace perfbench
