#include "ranycast/converge/plane.hpp"

#include <algorithm>

#include "ranycast/analysis/stats.hpp"
#include "ranycast/core/rng.hpp"
#include "ranycast/exec/pool.hpp"
#include "ranycast/obs/journal.hpp"
#include "ranycast/obs/metrics.hpp"
#include "ranycast/obs/span.hpp"

namespace ranycast::converge {

namespace {

/// Convergence and outage windows run milliseconds to minutes.
constexpr double kTransientMsBounds[] = {10,  20,  50,  100, 200,   500,  1e3,
                                         2e3, 5e3, 1e4, 2e4, 5e4, 1e5};

bool same_origin(const bgp::OriginAttachment& a, const bgp::OriginAttachment& b) {
  return a.site == b.site && a.site_city == b.site_city && a.neighbor == b.neighbor &&
         a.neighbor_rel == b.neighbor_rel && a.onsite_router == b.onsite_router;
}

}  // namespace

std::vector<std::vector<bgp::OriginAttachment>> origins_by_region(
    const cdn::Deployment& dep) {
  std::vector<std::vector<bgp::OriginAttachment>> out;
  out.reserve(dep.regions().size());
  for (std::size_t r = 0; r < dep.regions().size(); ++r) {
    out.push_back(dep.origins_for_region(r));
  }
  return out;
}

std::vector<std::vector<OriginDelta>> diff_origins(
    const std::vector<std::vector<bgp::OriginAttachment>>& before,
    const std::vector<std::vector<bgp::OriginAttachment>>& after) {
  std::vector<std::vector<OriginDelta>> out(before.size());
  for (std::size_t r = 0; r < before.size(); ++r) {
    const auto& b = before[r];
    const auto& a = r < after.size() ? after[r] : std::vector<bgp::OriginAttachment>{};
    const auto in = [](const std::vector<bgp::OriginAttachment>& set,
                       const bgp::OriginAttachment& o) {
      return std::any_of(set.begin(), set.end(),
                         [&](const bgp::OriginAttachment& x) { return same_origin(x, o); });
    };
    for (const bgp::OriginAttachment& o : b) {
      if (!in(a, o)) out[r].push_back(OriginDelta{false, o});
    }
    for (const bgp::OriginAttachment& o : a) {
      if (!in(b, o)) out[r].push_back(OriginDelta{true, o});
    }
  }
  return out;
}

Plane::Plane(const lab::Lab& lab, const lab::DeploymentHandle& handle, const Config& cfg)
    : lab_(lab), handle_(handle), cfg_(cfg) {
  obs::Span span("converge.plane.build");
  const cdn::Deployment& dep = handle_.deployment;
  const topo::Graph& graph = lab_.world().graph;
  // Every region's prefix runs over the same adjacencies: one session index
  // serves them all.
  const auto index = std::make_shared<const SessionIndex>(graph);
  sims_.resize(dep.regions().size());
  exec::ThreadPool::global().parallel_for(sims_.size(), [&](std::size_t r) {
    // Same per-region tie-break salt as Lab's steady-state solve, so the
    // quiesced attributes are bit-equal to the solver's.
    sims_[r] = std::make_unique<PrefixSim>(graph, index, dep.asn(),
                                           hash_combine(lab_.config().seed, r), cfg_);
  });
}

void Plane::rebuild() {
  obs::Span span("converge.plane.rebuild");
  const cdn::Deployment& dep = handle_.deployment;
  exec::ThreadPool::global().parallel_for(sims_.size(), [&](std::size_t r) {
    const auto origins = dep.origins_for_region(r);
    sims_[r]->cold_start(origins);
  });
}

StepTransient Plane::step(std::size_t index, std::string event,
                          std::span<const std::vector<OriginDelta>> deltas_by_region,
                          std::span<const ProbeRef> probes) {
  obs::Span span("converge.plane.step");
  StepTransient out;
  out.index = index;
  out.event = std::move(event);
  out.regions.resize(sims_.size());

  const topo::Graph& graph = lab_.world().graph;
  exec::ThreadPool::global().parallel_for(sims_.size(), [&](std::size_t r) {
    static const std::vector<OriginDelta> kEmpty;
    const auto& deltas = r < deltas_by_region.size() ? deltas_by_region[r] : kEmpty;
    RegionTransient rt = sims_[r]->run_step(deltas);
    // Differential verdict: the quiesced catchment must equal the solver's
    // for the same (already re-solved) topology.
    const bgp::RoutingOutcome& steady = handle_.outcomes[r];
    const auto nodes = graph.nodes();
    for (std::size_t i = 0; i < nodes.size(); ++i) {
      if (sims_[r]->catchment(i) != steady.catchment(nodes[i].asn)) ++rt.mismatches;
    }
    rt.matches_steady = rt.mismatches == 0;
    out.regions[r] = rt;
  });

  out.matches_steady = true;
  for (const RegionTransient& rt : out.regions) {
    out.matches_steady = out.matches_steady && rt.matches_steady;
    out.oscillating = out.oscillating || rt.oscillating;
  }

  // Probe rollup, in probe order so the reduce is thread-count independent.
  std::vector<double> reconverge_ms;
  std::vector<double> blackhole_ms;
  out.probes = probes.size();
  for (const ProbeRef& p : probes) {
    const auto idx = graph.index_of(p.asn);
    if (!idx || p.region >= sims_.size()) continue;
    const NodeTimeline& t = sims_[p.region]->timelines()[*idx];
    if (t.blackhole_us > 0) {
      ++out.probes_blackholed;
      blackhole_ms.push_back(static_cast<double>(t.blackhole_us) / 1000.0);
    }
    if (t.looped) ++out.probes_looped;
    if (t.site_flips > 0) ++out.probes_flipped;
    if (t.dark_at_end) ++out.probes_dark_at_end;
    if (t.changed) reconverge_ms.push_back(static_cast<double>(t.last_change_us) / 1000.0);
  }
  if (!reconverge_ms.empty()) {
    out.reconverge_p50_ms = analysis::percentile(reconverge_ms, 50.0);
    out.reconverge_p90_ms = analysis::percentile(reconverge_ms, 90.0);
    out.reconverge_max_ms = *std::max_element(reconverge_ms.begin(), reconverge_ms.end());
  }
  if (!blackhole_ms.empty()) {
    out.blackhole_p50_ms = analysis::percentile(blackhole_ms, 50.0);
    out.blackhole_p90_ms = analysis::percentile(blackhole_ms, 90.0);
    out.blackhole_max_ms = *std::max_element(blackhole_ms.begin(), blackhole_ms.end());
  }

  if (obs::enabled()) {
    auto& reg = obs::MetricsRegistry::global();
    reg.counter("converge.steps").add();
    if (out.oscillating) reg.counter("converge.oscillations").add();
    auto& reconv = reg.histogram("converge.reconverge_ms", kTransientMsBounds);
    for (double v : reconverge_ms) reconv.record(v);
    auto& dark = reg.histogram("converge.blackhole_ms", kTransientMsBounds);
    for (double v : blackhole_ms) dark.record(v);
  }

  if (obs::journal() != nullptr) {
    // Per-region convergence/blackhole envelope (virtual µs), which the
    // trace exporter renders as async blackhole windows.
    io::JsonArray regions;
    for (std::size_t r = 0; r < out.regions.size(); ++r) {
      const RegionTransient& rt = out.regions[r];
      // Filled in place: an initializer list of temporaries trips GCC 12's
      // -Wmaybe-uninitialized false positive in std::variant (PR105593).
      io::JsonObject& region = regions.emplace_back(io::JsonObject{}).as_object();
      region.emplace("region", r);
      region.emplace("converged_us", rt.converged_us);
      region.emplace("max_blackhole_us", rt.max_blackhole_us);
      region.emplace("blackholed", rt.nodes_blackholed);
    }
    obs::EventFields line = obs::journal_fields(out);
    line.emplace_back("regions", std::move(regions));
    obs::journal_event("transient_window", line);
  }
  return out;
}

}  // namespace ranycast::converge
