// The traffic step plane: every step solves the flow-level load model
// against the pre-fault and post-fault catchments, filling
// ChaosReport::traffic.
#include "step_plane.hpp"

#include <bit>

#include "ranycast/analysis/stats.hpp"
#include "ranycast/exec/pool.hpp"
#include "ranycast/guard/codec.hpp"
#include "ranycast/obs/journal.hpp"
#include "ranycast/obs/span.hpp"

namespace ranycast::chaos {

namespace {

obs::MetricsRegistry& metrics() { return obs::MetricsRegistry::global(); }

class TrafficPlane final : public StepPlane {
 public:
  explicit TrafficPlane(const traffic::TrafficConfig& cfg) : cfg_(cfg) {}

  const char* name() const override { return "traffic"; }
  std::uint64_t fingerprint() const override { return traffic::fingerprint(cfg_); }

  void before_fault(const StepContext& step) override {
    // Solved pre-apply: the shed alternates come from route_for, which the
    // fault's re-solve is about to invalidate.
    before_ = solve(step, step.before);
  }

  void after_fault(const StepContext& step) override {
    static obs::Gauge& util_max = metrics().gauge("traffic.max_utilization");
    static obs::Gauge& util_mean = metrics().gauge("traffic.mean_utilization");
    static obs::Counter& shed_flows = metrics().counter("traffic.flows_shed");
    static obs::Counter& dropped_flows = metrics().counter("traffic.flows_dropped");
    static obs::Histogram& delay_hist = metrics().histogram("traffic.queue_delay_ms");
    traffic::StepTraffic t;
    t.index = step.index;
    t.event = step.event;
    t.solve = solve(step, step.after);
    t.before_max_utilization = before_.max_utilization;
    t.before_mean_utilization = before_.mean_utilization;
    const double threshold = cfg_.admission_threshold;
    const std::size_t site_count = std::min(before_.sites.size(), t.solve.sites.size());
    for (std::size_t s = 0; s < site_count; ++s) {
      const traffic::SiteLoad& b = before_.sites[s];
      const traffic::SiteLoad& a = t.solve.sites[s];
      if (a.capacity_mbps > 0.0 && b.utilization <= threshold && a.utilization > threshold) {
        ++t.tipped_sites;
      }
    }
    // Depth 0: absorbed. 1: the fault itself tipped sites. >1: shedding off
    // the tipped sites overloaded further neighbors in turn.
    t.cascade_depth = (t.tipped_sites > 0 ? 1 : 0) + t.solve.cascade_depth;
    std::vector<double> inflated;
    inflated.reserve(step.after.size());
    for (const ProbeView& a : step.after) {
      if (!a.routed || !a.rtt) continue;
      const std::size_t s = value(a.site);
      const double wait = s < t.solve.sites.size() ? t.solve.sites[s].queue_delay_ms : 0.0;
      inflated.push_back(a.rtt->ms + wait);
      delay_hist.record(wait);
    }
    t.inflated_p50_ms = analysis::percentile(inflated, 50);
    t.inflated_p90_ms = analysis::percentile(inflated, 90);
    util_max.set(t.solve.max_utilization);
    util_mean.set(t.solve.mean_utilization);
    shed_flows.add(t.solve.flows_shed);
    dropped_flows.add(t.solve.flows_dropped);
    record_ = std::move(t);
  }

  /// The journal line: the step's scalars, then its solve's scalars as a
  /// nested `solve` object; per-site loads stay in the report.
  void commit(ChaosReport& report) override {
    if (obs::journal() != nullptr) {
      const obs::EventFields solve = obs::journal_fields(record_.solve);
      obs::EventFields line = obs::journal_fields(record_);
      line.emplace_back("solve", io::JsonObject(solve.begin(), solve.end()));
      obs::journal_event("traffic_step", line);
    }
    report.traffic.push_back(std::move(record_));
  }

  std::size_t records(const ChaosReport& report) const override {
    return report.traffic.size();
  }

  void encode(guard::ByteWriter& w, const ChaosReport& report) const override {
    guard::encode(w, report.traffic);
  }

  bool decode(guard::ByteReader& r, std::size_t steps, ChaosReport& report,
              const std::string&) const override {
    return guard::decode(r, report.traffic) && report.traffic.size() == steps;
  }

  // The surge scale is engine fault state, restored by the fast-forward
  // replay like every other fault; only the flows derived from it go.
  void reset() override { flows_.reset(); }

 private:
  /// The window's flows under the current surge scale (cached: regenerated
  /// only when a traffic_surge/_restore event changes the scale).
  const traffic::FlowSet& current_flows(const StepContext& step) {
    const auto retained = step.lab.census().retained();
    if (!groups_) groups_ = atlas::group_probes(retained);
    // Key the cache on the exact bits so equal scales never regenerate.
    const std::uint64_t key = std::bit_cast<std::uint64_t>(step.surge_scale);
    if (!flows_ || flows_->first != key) {
      flows_.emplace(key, traffic::generate_flows(*groups_, retained, cfg_, step.surge_scale));
    }
    return flows_->second;
  }

  /// Solves the traffic model against one measurement pass's catchment.
  /// Must run while the routes the views were snapshotted from are still
  /// live (route_for supplies the shed alternates).
  traffic::TrafficSolve solve(const StepContext& step, const std::vector<ProbeView>& views) {
    obs::Span span("chaos.traffic_solve");
    const traffic::FlowSet& flows = current_flows(step);
    const lab::DeploymentHandle& handle = step.handle;
    const std::size_t regions = handle.deployment.regions().size();
    const bool shed = cfg_.policy == traffic::OverloadPolicy::Shed;
    // Per-probe assignment is pure in (view, live routes): disjoint slots, so
    // the fan-out is worker-count independent like every other snapshot pass.
    std::vector<traffic::ProbeAssign> assign(views.size());
    exec::ThreadPool::global().parallel_for(views.size(), [&](std::size_t i) {
      const ProbeView& v = views[i];
      if (!v.routed) return;
      traffic::ProbeAssign pa;
      pa.site = v.site;
      if (shed) {
        // DNS can steer this client to any other regional prefix it still
        // has a route to; the shed targets are those prefixes' catchment
        // sites (region order — deterministic).
        for (std::size_t r2 = 0; r2 < regions; ++r2) {
          if (r2 == v.answer.region) continue;
          const bgp::Route* route = handle.route_for(v.probe->asn, r2);
          if (route == nullptr || route->origin_site == v.site) continue;
          bool dup = false;
          for (SiteId existing : pa.alternates) dup = dup || existing == route->origin_site;
          if (!dup) pa.alternates.push_back(route->origin_site);
        }
      }
      assign[i] = std::move(pa);
    });
    return traffic::solve(flows, assign, handle.deployment.sites().size(), cfg_);
  }

  traffic::TrafficConfig cfg_;
  std::optional<std::vector<atlas::ProbeGroup>> groups_;  ///< built lazily, stable per run
  std::optional<std::pair<std::uint64_t, traffic::FlowSet>> flows_;
  traffic::TrafficSolve before_;  ///< this step's pre-fault solve
  traffic::StepTraffic record_;
};

}  // namespace

std::unique_ptr<StepPlane> make_traffic_plane(const traffic::TrafficConfig& cfg) {
  return std::make_unique<TrafficPlane>(cfg);
}

}  // namespace ranycast::chaos
