// Ablation — guard-runtime overhead on a chaos timeline.
//
// Every chaos run goes through the supervised step loop (Engine::run is
// run_guarded without limits or a checkpoint); a checkpoint policy adds
// payload serialization + atomic file writes per step. This bench times the
// same cascade both ways and prints the per-step cost of checkpointing, so
// "crash safety is cheap" stays a measured claim rather than an assumption.
// The two reports must be identical: checkpointing may cost time, never
// bytes.
#include "harness.hpp"

#include <cstdio>
#include <filesystem>

#include "ranycast/chaos/engine.hpp"
#include "ranycast/chaos/scenario.hpp"
#include "ranycast/guard/runtime.hpp"

using namespace ranycast;

namespace {

chaos::FaultPlan cascade() {
  chaos::FaultPlan plan;
  plan.name = "guard-overhead-cascade";
  chaos::FaultEvent e;
  e.kind = chaos::FaultKind::SiteWithdraw;
  e.site = SiteId{0};
  plan.events.push_back(e);
  e = chaos::FaultEvent{};
  e.kind = chaos::FaultKind::GeoDbStale;
  e.db = 0;
  e.magnitude = 0.3;
  plan.events.push_back(e);
  e = chaos::FaultEvent{};
  e.kind = chaos::FaultKind::MeasurementDegrade;
  e.faults.ping_loss_prob = 0.1;
  e.faults.dns_timeout_prob = 0.05;
  plan.events.push_back(e);
  e = chaos::FaultEvent{};
  e.kind = chaos::FaultKind::MeasurementRestore;
  plan.events.push_back(e);
  e = chaos::FaultEvent{};
  e.kind = chaos::FaultKind::SiteRestore;
  e.site = SiteId{0};
  plan.events.push_back(e);
  return plan;
}

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
      .count();
}

}  // namespace

int main() {
  bench::ObsSession obs_session("ablation_guard");
  bench::print_header("Ablation - guard runtime overhead",
                      "checkpointed vs supervised chaos timeline (docs/reliability.md)");
  const chaos::FaultPlan plan = cascade();
  const auto ck_path =
      (std::filesystem::temp_directory_path() / "bench_guard_overhead.ck").string();

  constexpr int kRounds = 5;
  // Fresh labs per run: the engine mutates routing state in place and
  // restores it, but identical starting conditions keep this honest.
  const auto timed = [&](const std::string& path, double& seconds, std::string& dump) {
    auto laboratory = bench::small_lab();
    const auto& im6 = laboratory.add_deployment(cdn::catalog::imperva6());
    chaos::Engine engine(laboratory, im6);
    guard::Supervisor supervisor;
    guard::CheckpointPolicy policy;
    policy.path = path;  // when set: serialize + fsync + rename every step
    const auto start = std::chrono::steady_clock::now();
    auto report = engine.run_guarded(plan, supervisor, policy);
    seconds += seconds_since(start);
    if (!report) {
      std::fprintf(stderr, "chaos error: %s\n", report.error().c_str());
      return false;
    }
    dump = chaos::report_to_json(report->report).dump();
    return true;
  };
  double supervised_s = 0.0, checkpointed_s = 0.0;
  std::string supervised_dump, checkpointed_dump;
  for (int round = 0; round < kRounds; ++round) {
    if (!timed("", supervised_s, supervised_dump) ||
        !timed(ck_path, checkpointed_s, checkpointed_dump)) {
      return 1;
    }
  }
  std::filesystem::remove(ck_path);

  if (checkpointed_dump != supervised_dump) {
    std::fprintf(stderr, "FAIL: the checkpointed report diverged from the supervised run\n");
    return 1;
  }

  const double steps = static_cast<double>(plan.events.size()) * kRounds;
  analysis::TextTable table({"variant", "total ms", "ms/step", "overhead"});
  table.add_row({"supervised, no checkpoint", analysis::fmt_ms(supervised_s * 1e3),
                 analysis::fmt_ms(supervised_s * 1e3 / steps), "-"});
  table.add_row({"supervised + per-step checkpoint",
                 analysis::fmt_ms(checkpointed_s * 1e3),
                 analysis::fmt_ms(checkpointed_s * 1e3 / steps),
                 analysis::fmt_pct(supervised_s > 0.0
                                       ? (checkpointed_s - supervised_s) / supervised_s
                                       : 0.0)});
  std::printf("%s\n", table.render().c_str());
  std::printf("reports identical with and without checkpoints: yes\n");
  return 0;
}
