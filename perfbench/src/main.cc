// perfbench: the repository benchmark's workload program.
//
//   perfbench --workload rt-open|rt-batch-hot|sim-failover|sim-failover-rdma
//             --seed N --seconds S --trace 0|1 [--tiny]
//
// Prints one "context" JSON line (machine, build, sample counts, gate
// problems) and, last, the result line:
//   {"correct": .., "attempted": .., "failed": .., "metrics": {name: {value, unit}}}
// with every metric the workload measured; perfbench/run.py keeps the ones
// BENCHMARK.json declares.  Exits 1 when a correctness gate fails, 2 on bad
// arguments or when an rt-* workload would need more workers than the
// processors this process may run on.
#include <sched.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>

#include "rt_workloads.h"
#include "sim_failover.h"
#include "util.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

using namespace perfbench;

namespace {

std::string quote(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (c == '\n') {
      out += "\\n";
    } else if (static_cast<unsigned char>(c) >= 0x20) {
      out += c;
    }
  }
  return out + "\"";
}

int usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 [--tiny]\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    std::string a = argv[i];
    auto value = [&]() -> std::string { return i + 1 < argc ? argv[++i] : ""; };
    if (a == "--workload") {
      args.workload = value();
    } else if (a == "--seed") {
      args.seed = std::strtoull(value().c_str(), nullptr, 10);
    } else if (a == "--seconds") {
      args.seconds = std::strtod(value().c_str(), nullptr);
    } else if (a == "--trace") {
      args.trace = value() == "1";
    } else if (a == "--tiny") {
      args.tiny = true;
    } else if (a == "--trace-dir") {
      args.trace_dir = value();
    } else {
      return usage(("unknown argument " + a).c_str());
    }
  }
  if (!(args.seconds > 0 && args.seconds <= 600)) return usage("--seconds must be in (0, 600]");

  // The processors this process may run on, as nproc(1) counts them.
  cpu_set_t cpus;
  const long nproc = sched_getaffinity(0, sizeof cpus, &cpus) == 0
                         ? CPU_COUNT(&cpus)
                         : sysconf(_SC_NPROCESSORS_ONLN);
  const bool rt = args.workload.rfind("rt-", 0) == 0;
  if (rt && static_cast<long>(kRtWorkers) > nproc) {
    return usage(("refusing " + std::to_string(kRtWorkers) + " runtime workers on " +
                  std::to_string(nproc) + " processors")
                     .c_str());
  }

  const double steal0 = steal_s();
  Result r;
  if (args.workload == "rt-open") {
    r = rt_open(args);
  } else if (args.workload == "rt-batch-hot") {
    r = rt_batch_hot(args);
  } else if (args.workload == "sim-failover") {
    r = sim_workload(args, false);
  } else if (args.workload == "sim-failover-rdma") {
    r = sim_workload(args, true);
  } else {
    return usage(("unknown workload '" + args.workload + "'").c_str());
  }
  if (!r.metrics.has("peak_rss_mb")) r.metrics.set("peak_rss_mb", peak_rss_mib(), "MiB");

  if (args.trace) {
    // Layers a workload does not run report 0.
    Metrics all;
    if (rt) {
      zero_sim_layers(all);
    } else {
      zero_rt_layers(all);
    }
    all.merge(r.metrics);
    r.metrics = all;
    std::error_code ec;
    std::filesystem::create_directories(args.trace_dir, ec);
    std::string path = args.trace_dir + "/" + args.workload + "-seed" +
                       std::to_string(args.seed) + ".csv";
    if (!r.spans.write(path)) r.fail("could not write spans to " + path);
    r.info["spans"] = std::to_string(r.spans.size()) + " in " + path + " (" +
                      std::to_string(r.spans.dropped()) + " over the cap)";
  }

  char steal[32];
  std::snprintf(steal, sizeof steal, "%.2f", steal_s() - steal0);
  std::string ctx = "{\"nproc\": " + std::to_string(nproc) +
                    ", \"cpu_steal_s\": " + steal +
                    ", \"workers\": " + std::to_string(rt ? kRtWorkers : 1) +
                    ", \"build_type\": " + quote(PERFBENCH_BUILD_TYPE) +
                    ", \"workload\": " + quote(args.workload) +
                    ", \"seed\": " + std::to_string(args.seed) +
                    ", \"committed\": " + std::to_string(r.committed) +
                    ", \"aborted\": " + std::to_string(r.aborted) +
                    ", \"undecided\": " + std::to_string(r.undecided);
  for (const auto& [k, v] : r.info) ctx += ", " + quote(k) + ": " + quote(v);
  ctx += ", \"problems\": [";
  for (std::size_t i = 0; i < r.problems.size(); ++i) {
    ctx += (i ? ", " : "") + quote(r.problems[i]);
  }
  ctx += "]}";
  std::printf("context %s\n", ctx.c_str());
  // failed = transactions that never reached a decision; an abort is a
  // decision, reported through committed_fraction and the context line.
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": %s}\n",
              r.correct ? "true" : "false", static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.undecided), r.metrics.json().c_str());
  return r.correct ? 0 : 1;
}
