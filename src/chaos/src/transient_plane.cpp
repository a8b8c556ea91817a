// The transient step plane: every step's fault also runs through the
// event-driven convergence plane (converge::Plane), filling
// ChaosReport::transient.
#include "step_plane.hpp"

#include "ranycast/guard/codec.hpp"

namespace ranycast::chaos {

namespace {

class TransientPlane final : public StepPlane {
 public:
  explicit TransientPlane(const converge::Config& cfg) : cfg_(cfg) {}

  const char* name() const override { return "transient"; }
  std::uint64_t fingerprint() const override { return converge::fingerprint(cfg_); }

  void before_fault(const StepContext& step) override {
    if (plane_ == nullptr) {
      // Cold-start on whatever the lab looks like right now — before the
      // first step of a fresh run, or after a resume's fast-forward replay.
      // Either way the plane quiesces onto the unique stable state of the
      // current topology, so the transients of the remaining steps are
      // byte-identical to an uninterrupted run's.
      plane_ = std::make_unique<converge::Plane>(step.lab, step.handle, cfg_);
      plane_->rebuild();
    }
    origins_before_ = converge::origins_by_region(step.handle.deployment);
  }

  void after_fault(const StepContext& step) override {
    const auto deltas = converge::diff_origins(
        origins_before_, converge::origins_by_region(step.handle.deployment));
    // Probes enter the transient rollup from the pre-fault view: the AS they
    // measure from and the regional prefix they were being served from when
    // the fault hit — that prefix's convergence is their outage.
    std::vector<converge::ProbeRef> refs;
    refs.reserve(step.before.size());
    for (const ProbeView& b : step.before) {
      refs.push_back(converge::ProbeRef{b.probe->asn, b.answer.region});
    }
    // Plane::step journals the step's transient_window line itself.
    record_ = plane_->step(step.index, step.event, deltas, refs);
  }

  void commit(ChaosReport& report) override { report.transient.push_back(std::move(record_)); }

  std::size_t records(const ChaosReport& report) const override {
    return report.transient.size();
  }

  void encode(guard::ByteWriter& w, const ChaosReport& report) const override {
    guard::encode(w, report.transient);
  }

  bool decode(guard::ByteReader& r, std::size_t steps, ChaosReport& report,
              const std::string& checkpoint) const override {
    if (!guard::decode(r, report.transient) || report.transient.size() != steps) return false;
    // An oscillation-truncated step leaves the convergence plane in a
    // mid-flight state that the *next* step repairs with an in-step
    // re-flood. A resumed plane cold-starts onto the stable state instead
    // and would not replay those repair events, so a history containing an
    // oscillation cannot be resumed byte-identically. The generation itself
    // is sound, so this fails the run instead of quarantining it.
    for (const converge::StepTransient& t : report.transient) {
      if (t.oscillating) {
        throw StepFailure(checkpoint + ": checkpoint history holds an oscillation-"
                          "truncated step, which cannot be resumed byte-identically");
      }
    }
    return true;
  }

  // The plane must cold-start after the replay, on the checkpoint's
  // topology, not before it.
  void reset() override { plane_.reset(); }

 private:
  converge::Config cfg_;
  std::unique_ptr<converge::Plane> plane_;
  std::vector<std::vector<bgp::OriginAttachment>> origins_before_;
  converge::StepTransient record_;
};

}  // namespace

std::unique_ptr<StepPlane> make_transient_plane(const converge::Config& cfg) {
  return std::make_unique<TransientPlane>(cfg);
}

}  // namespace ranycast::chaos
