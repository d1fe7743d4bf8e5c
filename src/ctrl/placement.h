// Controller tuning.  The PlacementPolicy extension point itself lives in
// the shared reconfiguration module (src/recon/placement.h), which replica-
// and controller-driven reconfigurations both consult; this header holds
// ControllerTuning, which is genuinely controller-specific (failure-detector
// cadence, hysteresis, watchdog).
#pragma once

#include "fd/failure_detector.h"
#include "recon/placement.h"

namespace ratc::ctrl {

/// Timing and policy knobs of a ReconController, separated out so cluster
/// harnesses and StackWorkload can pass them through untouched.
struct ControllerTuning {
  /// Failure-detector cadence for member watching.
  fd::PingMonitor::Options fd{};
  /// Hysteresis: minimum gap between controller-initiated attempts for one
  /// shard, doubling per attempt up to the cap.  This is what bounds the
  /// epoch churn a falsely-suspected (live but half-partitioned) replica
  /// can cause.
  Duration backoff_initial = 40;
  Duration backoff_max = 1280;
  /// A quiet period this long resets the backoff to its initial value.
  Duration backoff_reset_after = 2000;
  /// Watchdog: an attempt (probe round / delegated nudge) that produces
  /// neither a new epoch nor a definitive failure within this window is
  /// abandoned and, if suspects remain, retried under backoff.  Also covers
  /// stored-but-never-activated (stuck) epochs.
  Duration attempt_timeout = 300;
  /// Probing-descent patience, as in the replica reconfigurer.
  Duration probe_patience = 5;
  /// Membership policy; null selects the cluster's placement_policy (and
  /// ReplaceSuspectsPolicy when that is unset too).  Non-owning.
  recon::PlacementPolicy* policy = nullptr;
};

}  // namespace ratc::ctrl
