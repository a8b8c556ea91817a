// Optional step planes of the chaos engine (internal to ranycast_chaos).
//
// A step plane rides along every measured step of a chaos run and records
// one extra per-step list into the ChaosReport: transient BGP convergence
// (ChaosReport::transient) or flow-level load (ChaosReport::traffic). The
// engine owns its planes in a fixed order — transient, then traffic — and
// drives each concern as one loop over them:
//
//   fingerprint    folded into the checkpoint fingerprint
//   before_fault   after the "before" measurement pass, before the fault
//   after_fault    after the "after" pass: build this step's record
//   commit         append the record to the report and journal it
//   encode/decode  this plane's checkpoint section, after the step list
//   reset          after a resume's fast-forward replay
//
// Delta re-solve is not a plane: it changes how a fault is re-solved, not
// what a step records, so it stays a solver option (Lab::set_delta_config).
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "ranycast/chaos/engine.hpp"
#include "ranycast/guard/checkpoint.hpp"

namespace ranycast::chaos {

/// What one probe saw during a measurement pass. Routes are captured by
/// value (origin site), never by pointer: a re-solve frees the routes of
/// the previous pass.
struct ProbeView {
  const atlas::Probe* probe{nullptr};
  lab::Lab::DnsAnswer answer{};
  bool routed{false};
  SiteId site{kInvalidSite};
  std::optional<Rtt> rtt{};
};

/// Thrown out of the sweep's hooks on an unappliable event or a history that
/// cannot be resumed; caught in Engine::run_guarded and converted back into
/// the Expected error channel.
struct StepFailure : std::runtime_error {
  using std::runtime_error::runtime_error;
};

/// One step as the planes see it. `after` is empty in before_fault.
struct StepContext {
  lab::Lab& lab;
  lab::DeploymentHandle& handle;
  std::size_t index;
  const std::string& event;  ///< describe() of the step's fault
  /// Arrival-rate multiplier set by traffic_surge/_restore: engine fault
  /// state, so the step's own fault may move it between the two hooks.
  const double& surge_scale;
  const std::vector<ProbeView>& before;
  const std::vector<ProbeView>& after;
};

class StepPlane {
 public:
  StepPlane() = default;
  StepPlane(const StepPlane&) = delete;
  StepPlane& operator=(const StepPlane&) = delete;
  virtual ~StepPlane() = default;

  /// Names the plane in error messages ("transient", "traffic").
  virtual const char* name() const = 0;
  /// The plane's config hash: a run with the plane on is a different
  /// experiment from one without it, or with other settings.
  virtual std::uint64_t fingerprint() const = 0;

  /// The fault hooks may be cancelled mid-step (exec::CancelledError), so
  /// after_fault only builds the step's record and commit, which cannot be
  /// cancelled, appends it: a stopped step leaves no plane's list longer
  /// than the step list.
  virtual void before_fault(const StepContext& step) = 0;
  virtual void after_fault(const StepContext& step) = 0;
  /// Appends the record after_fault built to `report` and journals it,
  /// after the step's chaos_step line.
  virtual void commit(ChaosReport& report) = 0;

  /// This plane's record count in `report`, one per completed step.
  virtual std::size_t records(const ChaosReport& report) const = 0;
  virtual void encode(guard::ByteWriter& w, const ChaosReport& report) const = 0;
  /// Decodes this plane's section into `report`. False (a damaged
  /// generation) unless it holds exactly `steps` records. May throw
  /// StepFailure for a sound generation that cannot be resumed from;
  /// `checkpoint` names it in that message.
  virtual bool decode(guard::ByteReader& r, std::size_t steps, ChaosReport& report,
                      const std::string& checkpoint) const = 0;
  /// Drops state derived from the lab, after a resume's fast-forward replay
  /// moved the lab to the checkpoint's state.
  virtual void reset() = 0;
};

std::unique_ptr<StepPlane> make_transient_plane(const converge::Config& cfg);
std::unique_ptr<StepPlane> make_traffic_plane(const traffic::TrafficConfig& cfg);

}  // namespace ranycast::chaos
