// Kill/resume determinism with transient recording enabled: a chaos run
// killed at any step must resume to a report — steady AND transient
// sections — byte-identical to an uninterrupted run, at worker counts
// {1, 2, hardware}. A transient checkpoint also must not resume into a
// steady-only run (or vice versa): the convergence config is part of the
// checkpoint fingerprint. A history holding an oscillation-truncated step
// fails the resume and leaves the chain as it is.
#include <gtest/gtest.h>

#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "ranycast/cdn/catalog.hpp"
#include "ranycast/chaos/engine.hpp"
#include "ranycast/chaos/scenario.hpp"
#include "ranycast/exec/pool.hpp"
#include "support/scratch_dir.hpp"

namespace ranycast::converge {
namespace {

namespace fs = std::filesystem;

lab::LabConfig tiny_config() {
  lab::LabConfig config;
  config.world.stub_count = 400;
  config.census.total_probes = 1200;
  config.seed = 2023;
  return config;
}

Config fast_transient() {
  Config cfg;
  cfg.timers.mrai_us = 500'000;
  return cfg;
}

/// Routing-heavy timeline: withdraw/restore pairs at site, link and region
/// granularity, so the resume replay has to reconstruct both the engine's
/// undo state and the convergence plane's topology baseline.
chaos::FaultPlan failover_plan() {
  chaos::FaultPlan plan;
  plan.name = "transient-resume";
  chaos::FaultEvent e;

  e.kind = chaos::FaultKind::SiteWithdraw;
  e.site = SiteId{0};
  plan.events.push_back(e);

  e = chaos::FaultEvent{};
  e.kind = chaos::FaultKind::SiteRestore;
  e.site = SiteId{0};
  plan.events.push_back(e);

  e = chaos::FaultEvent{};
  e.kind = chaos::FaultKind::RegionWithdraw;
  e.region = 1;
  plan.events.push_back(e);

  e = chaos::FaultEvent{};
  e.kind = chaos::FaultKind::RegionRestore;
  e.region = 1;
  plan.events.push_back(e);

  e = chaos::FaultEvent{};
  e.kind = chaos::FaultKind::SiteWithdraw;
  e.site = SiteId{1};
  plan.events.push_back(e);

  e = chaos::FaultEvent{};
  e.kind = chaos::FaultKind::SiteRestore;
  e.site = SiteId{1};
  plan.events.push_back(e);

  return plan;
}

std::string baseline_json() {
  auto laboratory = lab::Lab::create(tiny_config());
  const auto& im6 = laboratory.add_deployment(cdn::catalog::imperva6());
  chaos::Engine engine(laboratory, im6);
  engine.enable_transient(fast_transient());
  guard::Supervisor supervisor;
  guard::CheckpointPolicy policy;
  auto outcome = engine.run_guarded(failover_plan(), supervisor, policy);
  EXPECT_TRUE(outcome.has_value()) << outcome.error();
  if (!outcome) return {};
  EXPECT_EQ(outcome->report.transient.size(), outcome->report.steps.size());
  return chaos::report_to_json(outcome->report).dump(2);
}

std::string abort_and_resume_json(std::size_t abort_at, const std::string& tag) {
  const test_support::ScratchDir scratch("ranycast_converge_resume." + tag);
  const std::string ck = scratch.file("run.ck");
  {
    auto laboratory = lab::Lab::create(tiny_config());
    const auto& im6 = laboratory.add_deployment(cdn::catalog::imperva6());
    chaos::Engine engine(laboratory, im6);
    engine.enable_transient(fast_transient());
    guard::Supervisor supervisor;
    guard::CheckpointPolicy policy;
    policy.path = ck;
    policy.after_step = [&](std::size_t done, std::size_t) {
      if (done == abort_at) supervisor.cancel();
    };
    auto first = engine.run_guarded(failover_plan(), supervisor, policy);
    EXPECT_TRUE(first.has_value()) << first.error();
    if (!first) return {};
    EXPECT_TRUE(first->report.truncated);
    EXPECT_EQ(first->report.steps.size(), abort_at);
    EXPECT_EQ(first->report.transient.size(), abort_at);
    // One generation per step from generation 1: nothing stale was adopted.
    EXPECT_TRUE(fs::exists(ck + ".g" + std::to_string(abort_at)));
    EXPECT_FALSE(fs::exists(ck + ".g" + std::to_string(abort_at + 1)));
  }
  auto laboratory = lab::Lab::create(tiny_config());
  const auto& im6 = laboratory.add_deployment(cdn::catalog::imperva6());
  chaos::Engine engine(laboratory, im6);
  engine.enable_transient(fast_transient());
  guard::Supervisor supervisor;
  guard::CheckpointPolicy policy;
  policy.path = ck;
  policy.resume = true;
  auto second = engine.run_guarded(failover_plan(), supervisor, policy);
  EXPECT_TRUE(second.has_value()) << second.error();
  if (!second) return {};
  EXPECT_TRUE(second->sweep.resumed);
  EXPECT_EQ(second->sweep.resumed_from, abort_at);
  EXPECT_FALSE(second->report.truncated);
  return chaos::report_to_json(second->report).dump(2);
}

TEST(ConvergeResume, TransientReportByteIdenticalAtEveryAbortPoint) {
  const std::string expected = baseline_json();
  ASSERT_FALSE(expected.empty());
  EXPECT_NE(expected.find("\"transient\""), std::string::npos);
  const std::size_t n = failover_plan().events.size();
  for (const std::size_t abort_at : {std::size_t{1}, n / 2, n - 1}) {
    EXPECT_EQ(abort_and_resume_json(abort_at, "abort_" + std::to_string(abort_at)),
              expected)
        << "aborted after step " << abort_at;
  }
}

TEST(ConvergeResume, TransientReportByteIdenticalAcrossWorkerCounts) {
  auto& pool = exec::ThreadPool::global();
  const unsigned original = pool.worker_count();

  pool.resize(1);
  const std::string expected = baseline_json();
  const std::size_t n = failover_plan().events.size();

  std::vector<unsigned> sweep{1, 2};
  const unsigned hardware = std::max(1u, std::thread::hardware_concurrency());
  if (hardware != 2 && hardware != 1) sweep.push_back(hardware);
  for (const unsigned workers : sweep) {
    pool.resize(workers);
    EXPECT_EQ(baseline_json(), expected) << workers << " workers, uninterrupted";
    EXPECT_EQ(abort_and_resume_json(n / 2, "threads_" + std::to_string(workers)),
              expected)
        << workers << " workers, abort at " << n / 2;
  }
  pool.resize(original);
}

TEST(ConvergeResume, SteadyCheckpointDoesNotResumeIntoTransientRun) {
  const test_support::ScratchDir scratch("ranycast_converge_resume.steady_to_transient");
  const std::string ck = scratch.file("run.ck");
  {
    auto laboratory = lab::Lab::create(tiny_config());
    const auto& im6 = laboratory.add_deployment(cdn::catalog::imperva6());
    chaos::Engine engine(laboratory, im6);  // steady-only checkpoint
    guard::Supervisor supervisor;
    guard::CheckpointPolicy policy;
    policy.path = ck;
    policy.after_step = [&](std::size_t done, std::size_t) {
      if (done == 2) supervisor.cancel();
    };
    ASSERT_TRUE(engine.run_guarded(failover_plan(), supervisor, policy).has_value());
  }
  auto laboratory = lab::Lab::create(tiny_config());
  const auto& im6 = laboratory.add_deployment(cdn::catalog::imperva6());
  chaos::Engine engine(laboratory, im6);
  engine.enable_transient(fast_transient());  // fingerprint now differs
  guard::Supervisor supervisor;
  guard::CheckpointPolicy policy;
  policy.path = ck;
  policy.resume = true;
  auto outcome = engine.run_guarded(failover_plan(), supervisor, policy);
  ASSERT_FALSE(outcome.has_value());
  EXPECT_NE(outcome.error().find("fingerprint"), std::string::npos) << outcome.error();
}

TEST(ConvergeResume, DifferentTimerConfigDoesNotResume) {
  const test_support::ScratchDir scratch("ranycast_converge_resume.other_timers");
  const std::string ck = scratch.file("run.ck");
  {
    auto laboratory = lab::Lab::create(tiny_config());
    const auto& im6 = laboratory.add_deployment(cdn::catalog::imperva6());
    chaos::Engine engine(laboratory, im6);
    engine.enable_transient(fast_transient());
    guard::Supervisor supervisor;
    guard::CheckpointPolicy policy;
    policy.path = ck;
    policy.after_step = [&](std::size_t done, std::size_t) {
      if (done == 2) supervisor.cancel();
    };
    ASSERT_TRUE(engine.run_guarded(failover_plan(), supervisor, policy).has_value());
  }
  auto laboratory = lab::Lab::create(tiny_config());
  const auto& im6 = laboratory.add_deployment(cdn::catalog::imperva6());
  chaos::Engine engine(laboratory, im6);
  Config other = fast_transient();
  other.timers.mrai_us = 1'000'000;  // different transient physics
  engine.enable_transient(other);
  guard::Supervisor supervisor;
  guard::CheckpointPolicy policy;
  policy.path = ck;
  policy.resume = true;
  auto outcome = engine.run_guarded(failover_plan(), supervisor, policy);
  ASSERT_FALSE(outcome.has_value());
  EXPECT_NE(outcome.error().find("fingerprint"), std::string::npos) << outcome.error();
}

TEST(ConvergeResume, OscillatingHistoryFailsWithoutQuarantine) {
  const fs::path dir = fs::temp_directory_path() / "ranycast_converge_oscillating";
  fs::remove_all(dir);
  fs::create_directories(dir);
  const std::string ck = (dir / "run.ck").string();
  Config budget = fast_transient();
  budget.max_events = 50;  // every region runs out of events mid-flood
  {
    auto laboratory = lab::Lab::create(tiny_config());
    const auto& im6 = laboratory.add_deployment(cdn::catalog::imperva6());
    chaos::Engine engine(laboratory, im6);
    engine.enable_transient(budget);
    guard::Supervisor supervisor;
    guard::CheckpointPolicy policy;
    policy.path = ck;
    policy.after_step = [&](std::size_t done, std::size_t) {
      if (done == 2) supervisor.cancel();
    };
    auto first = engine.run_guarded(failover_plan(), supervisor, policy);
    ASSERT_TRUE(first.has_value()) << first.error();
    ASSERT_TRUE(first->report.transient.at(0).oscillating);
  }
  auto laboratory = lab::Lab::create(tiny_config());
  const auto& im6 = laboratory.add_deployment(cdn::catalog::imperva6());
  chaos::Engine engine(laboratory, im6);
  engine.enable_transient(budget);
  guard::Supervisor supervisor;
  guard::CheckpointPolicy policy;
  policy.path = ck;
  policy.resume = true;
  auto outcome = engine.run_guarded(failover_plan(), supervisor, policy);
  ASSERT_FALSE(outcome.has_value());
  EXPECT_NE(outcome.error().find("oscillation"), std::string::npos) << outcome.error();
  EXPECT_TRUE(fs::exists(ck + ".g2"));
  EXPECT_FALSE(fs::exists(ck + ".g2.quarantined"));
  fs::remove_all(dir);
}

}  // namespace
}  // namespace ranycast::converge
