// Per-chaos-step traffic accounting.
#pragma once

#include <string>

#include "ranycast/core/record.hpp"
#include "ranycast/traffic/solver.hpp"

namespace ranycast::traffic {

/// Traffic state across one chaos step: the post-fault solve plus the
/// before/after deltas that make overload-driven failure legible — how hot
/// the surviving sites ran before the fault, how many the fault tipped over,
/// and how far the resulting shed cascade travelled.
struct StepTraffic {
  std::size_t index{0};
  std::string event;

  TrafficSolve solve;  ///< post-fault serving state

  double before_max_utilization{0.0};
  double before_mean_utilization{0.0};
  /// Sites under the admission threshold before the fault and over it after
  /// — the "failover landed on an already-hot site" signal.
  std::size_t tipped_sites{0};
  /// (tipped_sites > 0) + the post-fault solve's shed-wave cascade depth:
  /// 0 means the fault was absorbed, 1 means it tipped sites but the damage
  /// stopped there, >1 means the overload propagated.
  std::size_t cascade_depth{0};

  /// RTT percentiles over routed probes with the per-site M/M/1 queueing
  /// delay added — the latency a client actually experiences under load
  /// (steady after_p50_ms/after_p90_ms measure propagation alone).
  double inflated_p50_ms{0.0};
  double inflated_p90_ms{0.0};
};

template <class V, core::RecordOf<StepTraffic> T>
void fields(V& v, T& r) {
  v("index", r.index);
  v("event", r.event);
  v("solve", r.solve);
  v("before_max_utilization", r.before_max_utilization);
  v("before_mean_utilization", r.before_mean_utilization);
  v("tipped_sites", r.tipped_sites);
  v("cascade_depth", r.cascade_depth);
  v("inflated_p50_ms", r.inflated_p50_ms);
  v("inflated_p90_ms", r.inflated_p90_ms);
}

}  // namespace ranycast::traffic
