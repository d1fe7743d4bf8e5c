#include "rt_tap.h"

#include <atomic>
#include <cstring>

#include "commit/messages.h"

namespace perfbench {

using namespace ratc;

namespace {

/// Distinguishes taps, so a thread's cached registration never outlives
/// the tap it belongs to (a later tap may reuse the address).
std::atomic<std::uint64_t> g_generation{1};
thread_local std::uint64_t t_generation = 0;
thread_local RtTap::ThreadStats* t_stats = nullptr;

constexpr std::size_t kSpansPerThread = 150000;

std::size_t type_index(const char* name) {
  for (std::size_t i = 0; i < kRtTypes.size(); ++i) {
    if (std::strcmp(name, kRtTypes[i]) == 0) return i;
  }
  return kOtherType;
}

std::uint64_t channel(ProcessId from, ProcessId to) {
  return (static_cast<std::uint64_t>(from) << 32) | to;
}

template <typename M>
bool scalar_txn(const sim::AnyMessage& m, std::vector<TxnId>& out) {
  if (const M* x = m.as<M>()) {
    out.push_back(x->txn);
    return true;
  }
  return false;
}

template <typename M>
bool batch_txns(const sim::AnyMessage& m, std::vector<TxnId>& out) {
  if (const M* x = m.as<M>()) {
    for (const auto& item : x->items) out.push_back(item.txn);
    return true;
  }
  return false;
}

/// The transaction ids a commit-stack message carries.
void txns_of(const sim::AnyMessage& m, std::vector<TxnId>& out) {
  scalar_txn<commit::CertifyRequest>(m, out) || scalar_txn<commit::Prepare>(m, out) ||
      scalar_txn<commit::PrepareAck>(m, out) || scalar_txn<commit::Accept>(m, out) ||
      scalar_txn<commit::AcceptAck>(m, out) || scalar_txn<commit::DecisionMsg>(m, out) ||
      scalar_txn<commit::ClientDecision>(m, out) ||
      batch_txns<commit::CertifyBatchRequest>(m, out) ||
      batch_txns<commit::PrepareBatch>(m, out) ||
      batch_txns<commit::PrepareAckBatch>(m, out) ||
      batch_txns<commit::AcceptBatch>(m, out) || batch_txns<commit::AcceptAckBatch>(m, out);
}

}  // namespace

RtTap::RtTap() : generation_(g_generation.fetch_add(1)) {}

RtTap::ThreadStats& RtTap::self() {
  if (t_generation != generation_) {
    auto stats = std::make_unique<ThreadStats>();
    pthread_getcpuclockid(pthread_self(), &stats->cpu_clock);
    stats->spans.reserve(1024);
    t_stats = stats.get();
    t_generation = generation_;
    std::lock_guard<std::mutex> lock(threads_mu_);
    threads_.push_back(std::move(stats));
  }
  return *t_stats;
}

void RtTap::on_send(Time now, ProcessId from, ProcessId to, const sim::AnyMessage& msg) {
  ThreadStats& st = self();
  ++st.sent[type_index(msg.type_name())];
  st.bytes_sent += msg.wire_size();
  std::uint64_t ch = channel(from, to);
  Stripe& s = stripes_[ch % kStripes];
  std::lock_guard<std::mutex> lock(s.mu);
  s.fifo[ch].push_back(now);
}

void RtTap::on_drop(Time now, ProcessId from, ProcessId to, const sim::AnyMessage& msg) {
  (void)now;
  (void)msg;
  // Dropped at send time, on the sender's thread, right after on_send: the
  // entry to retract is the channel's newest.
  ThreadStats& st = self();
  ++st.dropped_sends;
  std::uint64_t ch = channel(from, to);
  Stripe& s = stripes_[ch % kStripes];
  std::lock_guard<std::mutex> lock(s.mu);
  auto it = s.fifo.find(ch);
  if (it != s.fifo.end() && !it->second.empty()) it->second.pop_back();
}

void RtTap::on_deliver(Time now, ProcessId from, ProcessId to, const sim::AnyMessage& msg) {
  ThreadStats& st = self();
  double cpu = clock_s(st.cpu_clock);
  std::size_t type = type_index(msg.type_name());
  if (st.last_type < kNumTypes) {
    st.cpu_ns[st.last_type] += 1e9 * (cpu - st.last_cpu_s);
    ++st.cpu_samples[st.last_type];
  }
  st.delivers = true;
  st.last_type = type;
  st.last_cpu_s = cpu;

  Time sent = now;
  bool paired = false;
  {
    std::uint64_t ch = channel(from, to);
    Stripe& s = stripes_[ch % kStripes];
    std::lock_guard<std::mutex> lock(s.mu);
    auto it = s.fifo.find(ch);
    if (it != s.fifo.end() && !it->second.empty()) {
      sent = it->second.front();
      it->second.pop_front();
      paired = true;
    }
  }
  if (!paired) {
    ++st.unpaired_deliveries;
    return;
  }
  ++st.paired;
  st.queue_wait_us.push_back(static_cast<std::uint32_t>(now - sent));
  if (st.spans.size() < kSpansPerThread) {
    thread_local std::vector<TxnId> ids;
    ids.clear();
    txns_of(msg, ids);
    for (TxnId t : ids) {
      st.spans.push_back({t, msg.type_name(), "txn", static_cast<double>(sent),
                          static_cast<double>(now)});
    }
  }
  // The tap's own bookkeeping is charged to this message as well; reset the
  // clock so the next interval starts after it.
  st.last_cpu_s = clock_s(st.cpu_clock);
}

std::uint64_t RtTap::unmatched_sends() const {
  std::uint64_t n = 0;
  for (const Stripe& s : stripes_) {
    for (const auto& [ch, q] : s.fifo) n += q.size();
  }
  return n;
}

std::uint64_t RtTap::paired() const {
  std::uint64_t n = 0;
  for (const auto& t : threads_) n += t->paired;
  return n;
}

std::uint64_t RtTap::dropped_sends() const {
  std::uint64_t n = 0;
  for (const auto& t : threads_) n += t->dropped_sends;
  return n;
}

std::uint64_t RtTap::unpaired_deliveries() const {
  std::uint64_t n = 0;
  for (const auto& t : threads_) n += t->unpaired_deliveries;
  return n;
}

std::vector<std::uint32_t> RtTap::queue_waits() const {
  std::vector<std::uint32_t> out;
  for (const auto& t : threads_) {
    out.insert(out.end(), t->queue_wait_us.begin(), t->queue_wait_us.end());
  }
  return out;
}

std::array<std::uint64_t, kNumTypes> RtTap::sent_by_type() const {
  std::array<std::uint64_t, kNumTypes> out{};
  for (const auto& t : threads_) {
    for (std::size_t i = 0; i < kNumTypes; ++i) out[i] += t->sent[i];
  }
  return out;
}

std::uint64_t RtTap::bytes_sent() const {
  std::uint64_t n = 0;
  for (const auto& t : threads_) n += t->bytes_sent;
  return n;
}

std::array<double, kNumTypes> RtTap::deliver_cpu_ns() const {
  std::array<double, kNumTypes> ns{};
  std::array<std::uint64_t, kNumTypes> n{};
  for (const auto& t : threads_) {
    for (std::size_t i = 0; i < kNumTypes; ++i) {
      ns[i] += t->cpu_ns[i];
      n[i] += t->cpu_samples[i];
    }
  }
  for (std::size_t i = 0; i < kNumTypes; ++i) ns[i] = ratio(ns[i], static_cast<double>(n[i]));
  return ns;
}

void RtTap::move_spans_into(SpanLog& log) {
  for (auto& t : threads_) {
    for (const Span& s : t->spans) log.add(s);
    t->spans.clear();
  }
}

std::vector<clockid_t> RtTap::worker_clocks() {
  std::lock_guard<std::mutex> lock(threads_mu_);
  std::vector<clockid_t> out;
  for (const auto& t : threads_) {
    if (t->delivers) out.push_back(t->cpu_clock);
  }
  return out;
}

}  // namespace perfbench
