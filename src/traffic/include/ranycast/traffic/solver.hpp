// The capacity/overload solve: map a window's flows onto the current
// catchment, apply the overload policy, and report per-site serving state.
//
// The solve is a pure serial function of (flows, assignment, config) — flows
// are walked in index order, shed waves visit sites in ascending id and move
// flows from the back of a site's arrival list, ties break on the lowest
// site id. No RNG, no clock: the same inputs produce the same TrafficSolve
// bytes, which is what lets chaos fold traffic accounting into its
// byte-identical resume guarantee.
#pragma once

#include <cstddef>
#include <vector>

#include "ranycast/core/record.hpp"
#include "ranycast/core/types.hpp"
#include "ranycast/traffic/flows.hpp"
#include "ranycast/traffic/model.hpp"

namespace ranycast::traffic {

/// Where one probe's flows land: its catchment site, plus the sites it could
/// be steered to via other regional prefixes (DNS-steered shedding targets,
/// deduplicated, ordered by region index — deterministic).
struct ProbeAssign {
  SiteId site{kInvalidSite};
  std::vector<SiteId> alternates;
};

/// Serving state of one site after the policy ran.
struct SiteLoad {
  double capacity_mbps{0.0};
  double offered_mbps{0.0};  ///< catchment demand arriving at the site
  double served_mbps{0.0};
  double shed_out_mbps{0.0};  ///< steered away under Shed
  double dropped_mbps{0.0};   ///< beyond raw capacity, lost
  /// served / capacity; exactly 0 for a zero-capacity site (which serves
  /// nothing — all arrivals drop; reported as `n/a` by the table renderers).
  double utilization{0.0};
  /// M/M/1 wait: service_ms * rho / (1 - rho), rho clamped to max_rho.
  double queue_delay_ms{0.0};
  std::size_t flows_offered{0};
  std::size_t flows_served{0};
  std::size_t flows_shed_out{0};
  std::size_t flows_shed_in{0};
  std::size_t flows_dropped{0};
  bool overloaded{false};  ///< past the admission threshold (or capacity 0 with demand)
};

template <class V, core::RecordOf<SiteLoad> T>
void fields(V& v, T& r) {
  v("capacity_mbps", r.capacity_mbps);
  v("offered_mbps", r.offered_mbps);
  v("served_mbps", r.served_mbps);
  v("shed_out_mbps", r.shed_out_mbps);
  v("dropped_mbps", r.dropped_mbps);
  v("utilization", r.utilization);
  v("queue_delay_ms", r.queue_delay_ms);
  v("flows_offered", r.flows_offered);
  v("flows_served", r.flows_served);
  v("flows_shed_out", r.flows_shed_out);
  v("flows_shed_in", r.flows_shed_in);
  v("flows_dropped", r.flows_dropped);
  v("overloaded", r.overloaded);
}

struct TrafficSolve {
  std::vector<SiteLoad> sites;

  double offered_mbps{0.0};
  double served_mbps{0.0};
  double shed_mbps{0.0};
  double dropped_mbps{0.0};
  std::size_t flows_offered{0};
  std::size_t flows_served{0};
  std::size_t flows_shed{0};
  std::size_t flows_dropped{0};
  /// Flows whose probe had no route at all this step (catchment lost, not a
  /// capacity question) — kept out of the per-site math so a dark catchment
  /// cannot divide by zero or masquerade as served load.
  std::size_t flows_unrouted{0};
  double unrouted_mbps{0.0};

  std::size_t overloaded_sites{0};
  /// Shed waves that pushed a previously-healthy site past the admission
  /// threshold (each wave sheds from the sites the previous wave tipped).
  std::size_t cascade_depth{0};
  double max_utilization{0.0};
  double mean_utilization{0.0};  ///< over sites with capacity > 0
  double queue_delay_p50_ms{0.0};
  double queue_delay_p90_ms{0.0};
  double queue_delay_max_ms{0.0};
};

template <class V, core::RecordOf<TrafficSolve> T>
void fields(V& v, T& r) {
  v("sites", r.sites);
  v("offered_mbps", r.offered_mbps);
  v("served_mbps", r.served_mbps);
  v("shed_mbps", r.shed_mbps);
  v("dropped_mbps", r.dropped_mbps);
  v("flows_offered", r.flows_offered);
  v("flows_served", r.flows_served);
  v("flows_shed", r.flows_shed);
  v("flows_dropped", r.flows_dropped);
  v("flows_unrouted", r.flows_unrouted);
  v("unrouted_mbps", r.unrouted_mbps);
  v("overloaded_sites", r.overloaded_sites);
  v("cascade_depth", r.cascade_depth);
  v("max_utilization", r.max_utilization);
  v("mean_utilization", r.mean_utilization);
  v("queue_delay_p50_ms", r.queue_delay_p50_ms);
  v("queue_delay_p90_ms", r.queue_delay_p90_ms);
  v("queue_delay_max_ms", r.queue_delay_max_ms);
}

/// The M/M/1 wait-time inflation for one site. Monotone non-decreasing in
/// utilization; finite for every input (rho clamps to max_rho, non-positive
/// service time yields 0).
double queueing_delay_ms(double utilization, double service_ms, double max_rho) noexcept;

/// Mean per-flow service time at a site, milliseconds.
double service_time_ms(double mean_flow_bytes, double capacity_mbps) noexcept;

/// Run the policy. `assign` is indexed by Flow::probe; `site_count` sizes the
/// per-site output (assignments referencing sites >= site_count are treated
/// as unrouted).
TrafficSolve solve(const FlowSet& flows, std::span<const ProbeAssign> assign,
                   std::size_t site_count, const TrafficConfig& cfg);

}  // namespace ranycast::traffic
