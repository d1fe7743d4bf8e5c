// Small measurement helpers shared by the workloads: clocks, order
// statistics, the metric table and the result line the runner parses.
#pragma once

#include <sys/resource.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

inline double wall_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

inline double clock_s(clockid_t id) {
  timespec ts{};
  clock_gettime(id, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}
inline double process_cpu_s() { return clock_s(CLOCK_PROCESS_CPUTIME_ID); }

/// Time the host took this machine's virtual CPUs away (steal), summed over
/// CPUs; 0 where /proc/stat has no steal column.
inline double steal_s() {
  FILE* f = std::fopen("/proc/stat", "r");
  if (f == nullptr) return 0;
  unsigned long long v[8] = {};
  int n = std::fscanf(f, "cpu %llu %llu %llu %llu %llu %llu %llu %llu", &v[0], &v[1], &v[2],
                      &v[3], &v[4], &v[5], &v[6], &v[7]);
  std::fclose(f);
  return n == 8 ? static_cast<double>(v[7]) / static_cast<double>(sysconf(_SC_CLK_TCK)) : 0;
}

/// The process's peak resident set so far (ru_maxrss), in MiB.
inline double peak_rss_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

/// Nearest-rank percentile (q in [0,1]) of an unsorted sample; 0 if empty.
template <typename T>
double percentile(std::vector<T> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(v.size())));
  rank = std::clamp<std::size_t>(rank, 1, v.size());
  return static_cast<double>(v[rank - 1]);
}

/// f applied to every element, for the summaries below.
template <typename T, typename F>
std::vector<double> each(const std::vector<T>& xs, F f) {
  std::vector<double> v;
  for (const T& x : xs) v.push_back(f(x));
  return v;
}

inline double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// The host's co-tenants and vCPU steal slow a repetition by up to 2x at
/// random, never speed one up.  Of repeated measurements of the same work,
/// the least-disturbed quarter is the steadiest estimate of the program's
/// own cost: the lower quartile of a cost, the upper quartile of a rate.
inline double steady_cost(const std::vector<double>& v) { return percentile(v, 0.25); }
inline double steady_rate(const std::vector<double>& v) { return percentile(v, 0.75); }

inline double ratio(double num, double den) { return den == 0 ? 0 : num / den; }

/// FNV-1a, for run fingerprints.
struct Fnv {
  std::uint64_t h = 1469598103934665603ULL;
  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xff;
      h *= 1099511628211ULL;
    }
  }
};

/// In-memory trace: one span per layer boundary crossed.  Spans of one
/// transaction share its txn id (0 for spans that belong to no single
/// transaction).  Times are µs on the clock of the runtime that produced
/// them.  Written out once, when the run ends.
struct Span {
  std::uint64_t txn = 0;
  const char* name = "";
  const char* parent = "";
  double start_us = 0;
  double end_us = 0;
};

class SpanLog {
 public:
  explicit SpanLog(std::size_t cap = 400000) : cap_(cap) { spans_.reserve(cap); }
  void add(const Span& s) {
    if (spans_.size() < cap_) {
      spans_.push_back(s);
    } else {
      ++dropped_;
    }
  }
  std::size_t size() const { return spans_.size(); }
  std::size_t dropped() const { return dropped_; }
  /// CSV: txn,name,parent,start_us,end_us.  Returns false on I/O failure.
  bool write(const std::string& path) const {
    FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::fprintf(f, "txn,name,parent,start_us,end_us\n");
    for (const Span& s : spans_) {
      std::fprintf(f, "%llu,%s,%s,%.3f,%.3f\n", static_cast<unsigned long long>(s.txn),
                   s.name, s.parent, s.start_us, s.end_us);
    }
    return std::fclose(f) == 0;
  }

 private:
  std::size_t cap_;
  std::size_t dropped_ = 0;
  std::vector<Span> spans_;
};

/// Named metrics with units, printed in insertion order.
class Metrics {
 public:
  void set(const std::string& name, double value, const std::string& unit) {
    if (index_.count(name) == 0) {
      index_[name] = rows_.size();
      rows_.push_back({name, value, unit});
    } else {
      rows_[index_[name]] = {name, value, unit};
    }
  }
  void merge(const Metrics& other) {
    for (const Row& row : other.rows_) set(row.name, row.value, row.unit);
  }
  bool has(const std::string& name) const { return index_.count(name) > 0; }
  double get(const std::string& name) const {
    auto it = index_.find(name);
    return it == index_.end() ? 0 : rows_[it->second].value;
  }

  std::string json() const {
    std::string out = "{";
    char buf[64];
    for (std::size_t i = 0; i < rows_.size(); ++i) {
      std::snprintf(buf, sizeof buf, "%.17g", rows_[i].value);
      out += (i ? ", \"" : "\"") + rows_[i].name + "\": {\"value\": " + buf +
             ", \"unit\": \"" + rows_[i].unit + "\"}";
    }
    return out + "}";
  }

 private:
  struct Row {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Row> rows_;
  std::map<std::string, std::size_t> index_;
};

/// What a workload hands back to main(): the gate verdict, the operation
/// counts and every metric it measured (end-to-end and per-layer alike).
struct Result {
  bool correct = true;
  std::vector<std::string> problems;  ///< one line per failed gate
  std::uint64_t attempted = 0;
  std::uint64_t committed = 0;
  std::uint64_t aborted = 0;
  std::uint64_t undecided = 0;
  Metrics metrics;
  /// Free-form context (sample counts, fingerprints, phase detail).
  std::map<std::string, std::string> info;
  /// Filled by traced runs only.
  SpanLog spans{0};

  void fail(const std::string& why) {
    correct = false;
    problems.push_back(why);
  }
};

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool tiny = false;  ///< smoke-test sizes (the benchmark's own tests)
  std::string trace_dir = ".bench_build/traces";
};

}  // namespace perfbench
