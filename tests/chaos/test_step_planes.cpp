// Both step planes at once: transient convergence and traffic ride the same
// step loop in a fixed order (transient, then traffic), whatever order they
// were enabled in. With both on, a run killed after any step must resume to
// a report byte-identical to an uninterrupted one; a stop inside a step
// must leave every plane's list as long as the step list; the enable order
// must not change the report or a single checkpoint byte; and enabling a
// plane again replaces its config rather than stacking a second plane.
#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
#include <string>
#include <thread>

#include "ranycast/cdn/catalog.hpp"
#include "ranycast/chaos/engine.hpp"
#include "ranycast/chaos/scenario.hpp"
#include "ranycast/io/config.hpp"
#include "ranycast/obs/metrics.hpp"
#include "support/scratch_dir.hpp"

namespace ranycast::chaos {
namespace {

namespace fs = std::filesystem;

lab::LabConfig tiny_config() {
  lab::LabConfig config;
  config.world.stub_count = 400;
  config.census.total_probes = 1200;
  config.seed = 2023;
  return config;
}

/// configs/chaos_overload.json: a surge, two withdrawals under it, their
/// restores and the surge's end — traffic and transient work on every step.
struct Overload {
  FaultPlan plan;
  traffic::TrafficConfig traffic;
};

Overload overload() {
  const std::string path = std::string(RANYCAST_CONFIGS_DIR) + "/chaos_overload.json";
  auto json = io::load_json(path);
  EXPECT_TRUE(json.has_value());
  Overload out;
  if (!json) return out;
  auto plan = plan_from_json(*json, path);
  auto traffic = traffic_from_scenario(*json, path);
  EXPECT_TRUE(plan.has_value() && traffic.has_value() && traffic->has_value());
  if (plan) out.plan = std::move(*plan);
  if (traffic && *traffic) out.traffic = **traffic;
  return out;
}

enum class Order { TransientFirst, TrafficFirst };

void enable_both(Engine& engine, const Overload& scenario, Order order) {
  if (order == Order::TrafficFirst) engine.enable_traffic(scenario.traffic);
  engine.enable_transient(converge::Config{});
  if (order == Order::TransientFirst) engine.enable_traffic(scenario.traffic);
}

/// One run on a fresh lab. With `ck` set it checkpoints every step there
/// (keeping every generation), stops after `stop_after` steps (0: never)
/// and resumes from an existing chain when `resume`.
std::string run(const Overload& scenario, Order order, const std::string& ck = {},
                std::size_t stop_after = 0, bool resume = false) {
  auto laboratory = lab::Lab::create(tiny_config());
  const auto& im6 = laboratory.add_deployment(cdn::catalog::imperva6());
  Engine engine(laboratory, im6);
  enable_both(engine, scenario, order);
  guard::Supervisor supervisor;
  guard::CheckpointPolicy policy;
  policy.path = ck;
  policy.keep = scenario.plan.events.size();
  policy.resume = resume;
  policy.after_step = [&](std::size_t done, std::size_t) {
    if (done == stop_after) supervisor.cancel();
  };
  auto outcome = engine.run_guarded(scenario.plan, supervisor, policy);
  EXPECT_TRUE(outcome.has_value()) << outcome.error();
  if (!outcome) return {};
  EXPECT_EQ(outcome->report.truncated, stop_after != 0);
  EXPECT_EQ(outcome->sweep.resumed, resume);
  return report_to_json(outcome->report).dump(2);
}

/// Every file of a checkpoint directory (manifest and generations) by name.
std::map<std::string, std::string> files_in(const fs::path& dir) {
  std::map<std::string, std::string> out;
  for (const auto& entry : fs::directory_iterator(dir)) {
    std::ifstream in(entry.path(), std::ios::binary);
    out[entry.path().filename().string()] = {std::istreambuf_iterator<char>(in), {}};
  }
  return out;
}

TEST(StepPlanes, BothPlanesResumeByteIdenticalAtEveryAbortPoint) {
  const Overload scenario = overload();
  const std::string expected = run(scenario, Order::TransientFirst);
  ASSERT_NE(expected.find("\"transient\""), std::string::npos);
  ASSERT_NE(expected.find("\"traffic\""), std::string::npos);
  const std::size_t n = scenario.plan.events.size();
  for (std::size_t abort_at = 1; abort_at < n; ++abort_at) {
    const test_support::ScratchDir scratch("ranycast_step_planes.abort_" +
                                           std::to_string(abort_at));
    const std::string ck = scratch.file("run.ck");
    run(scenario, Order::TransientFirst, ck, abort_at);
    EXPECT_EQ(run(scenario, Order::TransientFirst, ck, 0, /*resume=*/true), expected)
        << "aborted after step " << abort_at;
  }
}

TEST(StepPlanes, StopInsideAStepLeavesNoPlaneAhead) {
  const Overload scenario = overload();
  auto laboratory = lab::Lab::create(tiny_config());
  const auto& im6 = laboratory.add_deployment(cdn::catalog::imperva6());
  Engine engine(laboratory, im6);
  enable_both(engine, scenario, Order::TransientFirst);
  const bool obs_was_enabled = obs::enabled();
  obs::set_enabled(true);
  const obs::Counter& windows = obs::MetricsRegistry::global().counter("converge.steps");
  const std::uint64_t windows_before = windows.value();
  guard::Supervisor supervisor;
  std::atomic<bool> done{false};
  // Cancel as soon as the first step's transient record exists, so the stop
  // lands in the traffic plane's post-fault solve, next in the same step.
  std::thread canceller([&] {
    while (!done.load() && windows.value() == windows_before) std::this_thread::yield();
    supervisor.cancel();
  });
  auto outcome = engine.run_guarded(scenario.plan, supervisor, guard::CheckpointPolicy{});
  done.store(true);
  canceller.join();
  obs::set_enabled(obs_was_enabled);
  ASSERT_TRUE(outcome.has_value()) << outcome.error();
  const ChaosReport& report = outcome->report;
  EXPECT_TRUE(report.truncated);
  EXPECT_EQ(report.completed_steps, report.steps.size());
  EXPECT_EQ(report.transient.size(), report.steps.size());
  EXPECT_EQ(report.traffic.size(), report.steps.size());
}

TEST(StepPlanes, EnableOrderChangesNeitherReportNorCheckpointBytes) {
  const Overload scenario = overload();
  const test_support::ScratchDir transient_first("ranycast_step_planes.transient_first");
  const test_support::ScratchDir traffic_first("ranycast_step_planes.traffic_first");
  const std::string a =
      run(scenario, Order::TransientFirst, transient_first.file("run.ck"));
  const std::string b = run(scenario, Order::TrafficFirst, traffic_first.file("run.ck"));
  ASSERT_FALSE(a.empty());
  EXPECT_EQ(a, b);
  const auto generations = files_in(transient_first.path());
  EXPECT_EQ(generations.size(), scenario.plan.events.size() + 1);  // + manifest
  EXPECT_EQ(generations, files_in(traffic_first.path()));
}

TEST(StepPlanes, EnablingAgainReplacesTheConfig) {
  const Overload scenario = overload();
  const std::string expected = run(scenario, Order::TransientFirst);
  converge::Config slow;
  slow.timers.mrai_us = 1'000'000;
  traffic::TrafficConfig tight = scenario.traffic;
  tight.default_site_capacity_mbps = 100.0;
  // The stale configs give a different report, so a plane that kept its
  // first config would show.
  for (const bool enable_again : {false, true}) {
    auto laboratory = lab::Lab::create(tiny_config());
    const auto& im6 = laboratory.add_deployment(cdn::catalog::imperva6());
    Engine engine(laboratory, im6);
    engine.enable_transient(slow);
    engine.enable_traffic(tight);
    if (enable_again) enable_both(engine, scenario, Order::TransientFirst);
    auto report = engine.run(scenario.plan);
    ASSERT_TRUE(report.has_value()) << report.error();
    EXPECT_EQ(report->transient.size(), report->steps.size());
    EXPECT_EQ(report->traffic.size(), report->steps.size());
    EXPECT_EQ(report_to_json(*report).dump(2) == expected, enable_again);
  }
}

}  // namespace
}  // namespace ranycast::chaos
