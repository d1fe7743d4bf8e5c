// Shared helpers for the experiment binaries.  Each bench names its
// experiment (E1-E14) in its header comment and prints the paper claim it
// exercises; ROADMAP.md carries the experiment roadmap, and the benches
// that persist results write BENCH_<name>.json via bench/bench_report.h
// (schema documented in tests/README.md).
#pragma once

#include <cstdio>
#include <string>
#include <vector>

#include "common/types.h"
#include "store/frontends.h"
#include "store/runner.h"
#include "store/workload.h"
#include "tcs/payload.h"

namespace ratc::bench {

/// One fully wired closed-loop experiment: cluster + TcsFrontend + store +
/// workload generator + WorkloadRunner.  Every closed-loop bench used to
/// repeat this five-object dance per stack; instantiate a Rig instead.
/// FrontendT must be constructible from ClusterT& (see store/frontends.h).
/// Not movable: the runner's payload callback captures `this`.
template <typename ClusterT, typename FrontendT>
class Rig {
 public:
  /// `batch_size` groups submissions into batched certification rounds
  /// (1 = scalar submission; see store::WorkloadRunner).
  Rig(typename ClusterT::Options cluster_options,
      store::WorkloadOptions workload_options, std::uint64_t workload_seed,
      std::size_t window = 8, std::size_t batch_size = 1)
      : cluster(std::move(cluster_options)),
        frontend(cluster),
        gen(workload_options, workload_seed),
        runner(
            cluster.sim(), frontend, db,
            [this](const store::VersionedStore& d) { return gen.next(d); },
            window, batch_size) {}

  Rig(const Rig&) = delete;
  Rig& operator=(const Rig&) = delete;

  store::RunnerStats run(std::size_t txns) { return runner.run(txns); }

  ClusterT cluster;
  FrontendT frontend;
  store::VersionedStore db;
  store::WorkloadGenerator gen;
  store::WorkloadRunner runner;
};

using CommitRig = Rig<commit::Cluster, store::CommitFrontend>;
using RdmaRig = Rig<rdma::Cluster, store::RdmaFrontend>;
using BaselineRig = Rig<baseline::BaselineCluster, store::BaselineFrontend>;

/// Payload reading (and optionally writing) one object per listed id.
inline tcs::Payload payload_on(std::vector<ObjectId> reads, std::vector<ObjectId> writes,
                               Version read_version = 0, Version commit_version = 1) {
  tcs::Payload p;
  for (ObjectId o : reads) p.reads.push_back({o, read_version});
  for (ObjectId o : writes) p.writes.push_back({o, static_cast<Value>(o)});
  p.commit_version = commit_version;
  return p;
}

inline void header(const std::string& id, const std::string& title) {
  std::printf("\n==============================================================\n");
  std::printf("%s  %s\n", id.c_str(), title.c_str());
  std::printf("==============================================================\n");
}

inline void claim(const std::string& text) {
  std::printf("paper claim: %s\n\n", text.c_str());
}

}  // namespace ratc::bench
