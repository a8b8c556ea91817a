#include "ranycast/chaos/engine.hpp"

#include <cmath>

#include "ranycast/analysis/stats.hpp"
#include "ranycast/core/crc32.hpp"
#include "ranycast/core/rng.hpp"
#include "ranycast/exec/pool.hpp"
#include "ranycast/guard/codec.hpp"
#include "ranycast/io/config.hpp"
#include "ranycast/obs/journal.hpp"
#include "ranycast/obs/span.hpp"
#include "step_plane.hpp"

namespace ranycast::chaos {

namespace {

obs::MetricsRegistry& metrics() { return obs::MetricsRegistry::global(); }

/// Binds a checkpoint to (config, seed, deployment, plan): resuming after
/// changing any of them is a different experiment and must be refused.
std::uint64_t run_fingerprint(const lab::Lab& laboratory, const cdn::Deployment& dep,
                              const FaultPlan& plan) {
  std::uint64_t h = io::config_fingerprint(laboratory.config());
  h = hash_combine(h, core::crc32(dep.name().data(), dep.name().size()));
  h = hash_combine(h, core::crc32(plan.name.data(), plan.name.size()));
  for (const FaultEvent& e : plan.events) {
    const std::string d = describe(e);
    h = hash_combine(h, core::crc32(d.data(), d.size()));
  }
  return h;
}

/// One journal line per *measured* step. Resumed runs replay already-measured
/// events without re-measuring, so replayed steps are never re-emitted — a
/// journal's chaos_step events after dedup by index are exactly the report's
/// steps (a mid-step kill can leave one duplicate index before the resume
/// marker; consumers keep the last occurrence).
void journal_step(const StepReport& s, std::uint64_t dur_ns,
                  const std::optional<bgp::DeltaStats>& delta) {
  if (obs::journal() == nullptr) return;
  obs::EventFields line = obs::journal_fields(s);
  line.emplace_back("dur_ns", dur_ns);
  // Delta-locality accounting, present only on steps re-solved through the
  // incremental path (the report format itself is delta-independent).
  if (delta) {
    line.emplace_back("delta_affected_ases", delta->affected_ases);
    line.emplace_back("delta_fallback_full", delta->full_regions);
    line.emplace_back("delta_regions", delta->delta_regions);
  }
  obs::journal_event("chaos_step", line);
}

}  // namespace

Engine::Engine(lab::Lab& laboratory, const lab::DeploymentHandle& handle)
    : lab_(laboratory), handle_(laboratory.handle_mut(handle)) {}

Engine::Engine(Engine&&) noexcept = default;
Engine::~Engine() = default;

void Engine::enable_transient(const converge::Config& cfg) {
  planes_[0] = make_transient_plane(cfg);
}

void Engine::enable_traffic(const traffic::TrafficConfig& cfg) {
  planes_[1] = make_traffic_plane(cfg);
}

void Engine::enable_delta(const bgp::DeltaConfig& cfg) {
  lab_.set_delta_config(cfg);
  last_step_delta_.reset();
}

void Engine::snapshot(std::vector<ProbeView>& out) const {
  const auto retained = lab_.census().retained();
  out.clear();
  out.resize(retained.size());
  // Each probe's view is pure in (probe, deployment state), so the fan-out
  // writes disjoint slots and the snapshot is identical for any worker count.
  exec::ThreadPool::global().parallel_for(retained.size(), [&](std::size_t i) {
    const atlas::Probe* p = retained[i];
    ProbeView view;
    view.probe = p;
    view.answer = lab_.dns_lookup(*p, *handle_, dns::QueryMode::Ldns);
    const bgp::Route* route = handle_->route_for(p->asn, view.answer.region);
    if (route != nullptr) {
      view.routed = true;
      view.site = route->origin_site;
      view.rtt = lab_.ping(*p, view.answer.address);
    }
    out[i] = std::move(view);
  });
}

std::string Engine::apply(const FaultEvent& e) {
  cdn::Deployment& dep = handle_->deployment;
  const auto sites = handle_->deployment.sites().size();
  const auto regions = handle_->deployment.regions().size();
  bool reroute = true;  // most faults change routing; geo-DB/measurement don't
  last_step_delta_.reset();
  // Incremental path: describe the mutation to the solver instead of only
  // performing it. Origin sets are captured around the switch (works for
  // every fault kind uniformly); link-state faults also record the toggled
  // adjacencies.
  const bool delta_on = lab_.delta_config().enabled;
  bgp::SolveDelta delta;
  std::vector<std::vector<bgp::OriginAttachment>> origins_before;
  if (delta_on) origins_before = converge::origins_by_region(dep);
  switch (e.kind) {
    case FaultKind::SiteWithdraw: {
      if (value(e.site) >= sites) return "unknown site " + std::to_string(value(e.site));
      if (withdrawn_sites_.count(value(e.site)) != 0) {
        return "site " + std::to_string(value(e.site)) + " is already withdrawn";
      }
      withdrawn_sites_[value(e.site)] = dep.withdraw_site(e.site);
      break;
    }
    case FaultKind::SiteRestore: {
      const auto it = withdrawn_sites_.find(value(e.site));
      if (it == withdrawn_sites_.end()) {
        return "site " + std::to_string(value(e.site)) + " was not withdrawn";
      }
      dep.restore_site(e.site, std::move(it->second));
      withdrawn_sites_.erase(it);
      break;
    }
    case FaultKind::SiteLinkDown:
    case FaultKind::SiteLinkUp: {
      if (value(e.site) >= sites) return "unknown site " + std::to_string(value(e.site));
      if (!dep.set_attachment_state(e.site, e.attachment, e.kind == FaultKind::SiteLinkUp)) {
        return "site " + std::to_string(value(e.site)) + " has no attachment " +
               std::to_string(e.attachment);
      }
      break;
    }
    case FaultKind::LinkDown:
    case FaultKind::LinkUp: {
      const bool up = e.kind == FaultKind::LinkUp;
      if (!lab_.graph_mut().set_link_state(e.a, e.b, up)) {
        return "no adjacency between AS" + std::to_string(value(e.a)) + " and AS" +
               std::to_string(value(e.b));
      }
      if (delta_on) delta.links.push_back(bgp::LinkDelta{e.a, e.b, up});
      break;
    }
    case FaultKind::RouteServerDown:
    case FaultKind::RouteServerUp: {
      if (e.ixp >= lab_.world().graph.ixps().size()) {
        return "unknown IXP " + std::to_string(e.ixp);
      }
      const bool up = e.kind == FaultKind::RouteServerUp;
      lab_.graph_mut().set_route_server_state(e.ixp, up);
      if (delta_on) {
        for (const auto& [a, b] : lab_.world().graph.route_server_peerings(e.ixp)) {
          delta.links.push_back(bgp::LinkDelta{a, b, up});
        }
      }
      break;
    }
    case FaultKind::RegionWithdraw: {
      if (e.region >= regions) return "unknown region " + std::to_string(e.region);
      if (withdrawn_regions_.count(e.region) != 0) {
        return "region " + std::to_string(e.region) + " is already withdrawn";
      }
      withdrawn_regions_[e.region] = dep.withdraw_region(e.region);
      break;
    }
    case FaultKind::RegionRestore: {
      const auto it = withdrawn_regions_.find(e.region);
      if (it == withdrawn_regions_.end()) {
        return "region " + std::to_string(e.region) + " was not withdrawn";
      }
      dep.restore_region(e.region, it->second);
      withdrawn_regions_.erase(it);
      break;
    }
    case FaultKind::GeoDbStale: {
      if (e.db >= 3) return "unknown geolocation database " + std::to_string(e.db);
      if (e.magnitude < 0.0 || e.magnitude > 1.0) {
        return "geodb_stale magnitude must be a probability in [0,1]";
      }
      auto fault = lab_.db_mut(e.db).fault();
      fault.extra_wrong_country_prob = e.magnitude;
      lab_.db_mut(e.db).set_fault(fault);
      reroute = false;
      break;
    }
    case FaultKind::GeoDbOutage: {
      if (e.db >= 3) return "unknown geolocation database " + std::to_string(e.db);
      auto fault = lab_.db_mut(e.db).fault();
      fault.outage = true;
      lab_.db_mut(e.db).set_fault(fault);
      reroute = false;
      break;
    }
    case FaultKind::GeoDbRestore: {
      if (e.db >= 3) return "unknown geolocation database " + std::to_string(e.db);
      lab_.db_mut(e.db).clear_fault();
      reroute = false;
      break;
    }
    case FaultKind::MeasurementDegrade: {
      const auto& f = e.faults;
      if (f.ping_loss_prob < 0.0 || f.ping_loss_prob > 1.0 || f.dns_timeout_prob < 0.0 ||
          f.dns_timeout_prob > 1.0) {
        return "measurement fault probabilities must be in [0,1]";
      }
      if (f.max_retries < 0) return "max_retries must be non-negative";
      lab_.set_measurement_faults(f);
      reroute = false;
      break;
    }
    case FaultKind::MeasurementRestore:
      lab_.set_measurement_faults(std::nullopt);
      reroute = false;
      break;
    case FaultKind::TrafficSurge:
      // Appliable with or without the traffic plane (so resume fast-forward
      // replays it unconditionally); without the plane it is a routing no-op.
      if (!std::isfinite(e.magnitude) || e.magnitude <= 0.0) {
        return "traffic_surge scale must be positive and finite";
      }
      surge_scale_ = e.magnitude;
      reroute = false;
      break;
    case FaultKind::TrafficRestore:
      surge_scale_ = 1.0;
      reroute = false;
      break;
  }
  if (reroute) {
    if (delta_on) {
      const auto origins_after = converge::origins_by_region(dep);
      delta.origins.resize(origins_after.size());
      for (std::size_t r = 0; r < origins_after.size(); ++r) {
        delta.origins[r] = bgp::diff_origin_changes(origins_before[r], origins_after[r]);
      }
      const bgp::DeltaStats stats = lab_.resolve_delta(*handle_, delta);
      last_step_delta_ = stats;
      if (obs::enabled()) {
        auto& reg = metrics();
        reg.counter("chaos.delta.steps").add(1);
        reg.counter("chaos.delta.affected_ases").add(stats.affected_ases);
        reg.counter("chaos.delta.fallback_full").add(stats.full_regions);
        reg.histogram("chaos.delta.affected_ases")
            .record(static_cast<double>(stats.affected_ases));
      }
    } else {
      lab_.resolve(*handle_);
    }
  }
  return "";
}

std::string Engine::execute_step(const FaultPlan& plan, std::size_t index,
                                 std::vector<ProbeView>& before,
                                 std::vector<ProbeView>& after, ChaosReport& report) {
  static obs::Counter& steps_counter = metrics().counter("chaos.steps");
  static obs::Histogram& step_us = metrics().histogram("chaos.step.total_us");
  const FaultEvent& event = plan.events[index];
  obs::Span span("chaos.step");
  obs::ScopedTimer timer(step_us);
  steps_counter.add();
  const std::uint64_t step_start_ns = obs::trace_now_ns();

  const auto& gaz = geo::Gazetteer::world();
  const auto& dep = handle_->deployment;
  const std::string described = describe(event);

  snapshot(before);
  after.clear();
  const StepContext context{lab_, *handle_, index, described, surge_scale_, before, after};
  for (const auto& plane : planes_) {
    if (plane) plane->before_fault(context);
  }
  if (const std::string err = apply(event); !err.empty()) {
    return "step " + std::to_string(index) + " (" + described + "): " + err;
  }
  snapshot(after);

  StepReport step;
  step.index = index;
  step.event = described;
  step.probes = before.size();

  std::vector<double> before_ms, after_ms;
  for (std::size_t p = 0; p < before.size(); ++p) {
    const ProbeView& b = before[p];
    const ProbeView& a = after[p];
    if (b.routed) ++step.routes_before;
    if (a.routed) ++step.routes_after;
    if (a.answer.degraded) ++step.degraded_dns_answers;
    if (a.routed && !a.rtt) ++step.lost_pings;
    const bool moved = b.routed && a.routed && b.site != a.site;
    const bool lost = b.routed && !a.routed;
    if (moved) ++step.moved;
    if (lost) ++step.lost;
    if (!b.routed && a.routed) ++step.gained;

    // The affected subset: the failed element's own clients for the
    // withdrawal kinds (resilience::fail_site semantics), otherwise any
    // probe whose catchment changed.
    bool affected = false;
    switch (event.kind) {
      case FaultKind::SiteWithdraw:
        affected = b.routed && b.site == event.site;
        break;
      case FaultKind::RegionWithdraw:
        affected = b.routed && b.answer.region == event.region;
        break;
      default:
        affected = moved || lost;
        break;
    }
    if (!affected) continue;
    ++step.affected_probes;
    if (b.rtt) before_ms.push_back(b.rtt->ms);

    if (!a.routed) {
      // The answered region is unreachable. The service survives if some
      // other region's prefix — globally announced — still has a route
      // (§4.5); the client lands cross-region on the nearest one.
      std::optional<Rtt> best;
      for (std::size_t r2 = 0; r2 < dep.regions().size(); ++r2) {
        if (r2 == a.answer.region) continue;
        if (handle_->route_for(b.probe->asn, r2) == nullptr) continue;
        const auto rtt = lab_.ping(*b.probe, dep.regions()[r2].service_ip);
        if (rtt && (!best || *rtt < *best)) best = rtt;
      }
      if (!best) continue;  // truly unreachable
      ++step.still_served;
      ++step.cross_region;
      after_ms.push_back(best->ms);
      continue;
    }
    ++step.still_served;
    if (a.rtt) after_ms.push_back(a.rtt->ms);
    const cdn::Site& landed = dep.site(a.site);
    if (landed.announces(a.answer.region) && b.site != kInvalidSite) {
      if (gaz.area_of_city(landed.city) == gaz.area_of_city(dep.site(b.site).city)) {
        ++step.failover_in_region;
      }
    }
  }
  step.before_p50_ms = analysis::percentile(before_ms, 50);
  step.before_p90_ms = analysis::percentile(before_ms, 90);
  step.after_p50_ms = analysis::percentile(after_ms, 50);
  step.after_p90_ms = analysis::percentile(after_ms, 90);

  for (const auto& plane : planes_) {
    if (plane) plane->after_fault(context);
  }
  journal_step(step, obs::trace_now_ns() - step_start_ns, last_step_delta_);
  report.steps.push_back(std::move(step));
  for (const auto& plane : planes_) {
    if (plane) plane->commit(report);
  }
  return "";
}

core::Expected<ChaosReport, std::string> Engine::run(const FaultPlan& plan) {
  guard::Supervisor supervisor;  // no limits: no watchdog thread, never stops
  auto outcome = run_guarded(plan, supervisor, guard::CheckpointPolicy{});
  if (!outcome) return core::unexpected(std::move(outcome).error());
  return std::move(outcome->report);
}

core::Expected<GuardedChaosRun, std::string> Engine::run_guarded(
    const FaultPlan& plan, guard::Supervisor& supervisor,
    const guard::CheckpointPolicy& policy) {
  if (handle_ == nullptr) {
    return core::unexpected(std::string("deployment handle is not registered in this lab"));
  }
  obs::Span run_span("chaos.run");
  static obs::Counter& plans = metrics().counter("chaos.plans");
  plans.add();

  GuardedChaosRun out;
  ChaosReport& report = out.report;
  report.plan = plan.name;
  report.deployment = handle_->deployment.name();
  report.seed = lab_.config().seed;
  report.probes = lab_.census().retained().size();
  report.planned_steps = plan.events.size();

  // A plane's run is a different experiment from a run without it (or with
  // other settings), so its checkpoints never resume into one another.
  std::uint64_t fingerprint = run_fingerprint(lab_, handle_->deployment, plan);
  for (const auto& plane : planes_) {
    if (plane) fingerprint = hash_combine(fingerprint, plane->fingerprint());
  }

  std::vector<ProbeView> before, after;
  guard::SweepHooks hooks;
  hooks.process = [&](std::size_t i) {
    if (std::string err = execute_step(plan, i, before, after, report); !err.empty()) {
      throw StepFailure(std::move(err));
    }
  };
  // Payload: the step list, then each plane's list in plane order, each a
  // count plus records (guard/codec.hpp).
  hooks.save = [&](guard::ByteWriter& w) {
    guard::encode(w, report.steps);
    for (const auto& plane : planes_) {
      if (plane) plane->encode(w, report);
    }
  };
  // Returning false rejects this generation (the chain quarantines it and
  // offers the next older one). A rejected payload may leave partial lists
  // behind: the next call decodes every list afresh, and a run whose every
  // generation is rejected fails, so none of them reaches a report.
  hooks.load = [&](guard::ByteReader& r) {
    if (!guard::decode(r, report.steps) || report.steps.size() > plan.events.size()) {
      return false;
    }
    for (const auto& plane : planes_) {
      if (plane && !plane->decode(r, report.steps.size(), report, policy.path)) return false;
    }
    if (!r.at_end()) return false;
    // Fast-forward: re-apply the already-measured events so the lab reaches
    // the exact state the checkpoint was taken in. No re-measurement — the
    // measurement passes read lab state but never change it, so mutations
    // alone (with the original tie-break salts inside resolve()) are enough.
    // That includes the surge scale: traffic_surge events are appliable
    // mutations like any other fault. An event that fails here fails the
    // run: the lab is already mutated, so falling back to an older
    // generation is no longer sound.
    for (std::size_t i = 0; i < report.steps.size(); ++i) {
      std::string err = apply(plan.events[i]);
      if (!err.empty()) throw StepFailure(std::move(err));
    }
    for (const auto& plane : planes_) {
      if (plane) plane->reset();
    }
    return true;
  };

  try {
    auto swept = guard::run_sweep(plan.events.size(), fingerprint, supervisor, policy, hooks);
    if (!swept) return core::unexpected(swept.error().to_string());
    out.sweep = *swept;
  } catch (const StepFailure& failure) {
    return core::unexpected(std::string(failure.what()));
  }
  // The checkpoint's cursor and step list must agree: completed = cursor +
  // newly-measured steps, so a payload whose step count diverged from its
  // cursor shows up as a size mismatch here.
  if (report.steps.size() != out.sweep.completed) {
    return core::unexpected(policy.path +
                            ": checkpoint cursor disagrees with its step list");
  }
  for (const auto& plane : planes_) {
    if (plane && plane->records(report) != report.steps.size()) {
      return core::unexpected(policy.path + ": " + plane->name() +
                              " records disagree with the step list");
    }
  }
  report.completed_steps = out.sweep.completed;
  report.truncated = !out.sweep.complete();
  return out;
}

}  // namespace ranycast::chaos
