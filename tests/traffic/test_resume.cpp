// Kill/resume determinism with traffic recording enabled: a chaos run
// killed at any step must resume to a report — steady AND traffic sections,
// including the surge scale a traffic_surge event installed before the kill
// — byte-identical to an uninterrupted run, at worker counts {1, 2,
// hardware}. A traffic checkpoint also must not resume into a traffic-less
// run (or vice versa): the traffic config is part of the fingerprint. A
// CRC-valid generation whose payload carries a forged count is quarantined
// like a damaged one.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "ranycast/cdn/catalog.hpp"
#include "ranycast/chaos/engine.hpp"
#include "ranycast/chaos/scenario.hpp"
#include "ranycast/exec/pool.hpp"
#include "ranycast/guard/codec.hpp"
#include "ranycast/traffic/model.hpp"
#include "support/scratch_dir.hpp"

namespace ranycast::traffic {
namespace {

namespace fs = std::filesystem;

lab::LabConfig tiny_config() {
  lab::LabConfig config;
  config.world.stub_count = 400;
  config.census.total_probes = 1200;
  config.seed = 2023;
  return config;
}

TrafficConfig tight_traffic() {
  TrafficConfig cfg;
  // Small enough that withdrawals under surge actually shed/drop, so the
  // resume has non-trivial traffic bytes to reproduce.
  cfg.default_site_capacity_mbps = 450.0;
  cfg.policy = OverloadPolicy::Shed;
  return cfg;
}

/// Surge, withdraw the load-bearing sites, restore: the resume replay has
/// to reconstruct both the engine's undo state and the installed surge
/// scale, or the regenerated flows diverge.
chaos::FaultPlan overload_plan() {
  chaos::FaultPlan plan;
  plan.name = "traffic-resume";
  chaos::FaultEvent e;

  e.kind = chaos::FaultKind::TrafficSurge;
  e.magnitude = 1.4;
  plan.events.push_back(e);

  e = chaos::FaultEvent{};
  e.kind = chaos::FaultKind::SiteWithdraw;
  e.site = SiteId{16};
  plan.events.push_back(e);

  e = chaos::FaultEvent{};
  e.kind = chaos::FaultKind::SiteRestore;
  e.site = SiteId{16};
  plan.events.push_back(e);

  e = chaos::FaultEvent{};
  e.kind = chaos::FaultKind::TrafficRestore;
  plan.events.push_back(e);

  e = chaos::FaultEvent{};
  e.kind = chaos::FaultKind::SiteWithdraw;
  e.site = SiteId{22};
  plan.events.push_back(e);

  e = chaos::FaultEvent{};
  e.kind = chaos::FaultKind::SiteRestore;
  e.site = SiteId{22};
  plan.events.push_back(e);

  return plan;
}

std::string baseline_json() {
  auto laboratory = lab::Lab::create(tiny_config());
  const auto& im6 = laboratory.add_deployment(cdn::catalog::imperva6());
  chaos::Engine engine(laboratory, im6);
  engine.enable_traffic(tight_traffic());
  guard::Supervisor supervisor;
  guard::CheckpointPolicy policy;
  auto outcome = engine.run_guarded(overload_plan(), supervisor, policy);
  EXPECT_TRUE(outcome.has_value()) << outcome.error();
  if (!outcome) return {};
  EXPECT_EQ(outcome->report.traffic.size(), outcome->report.steps.size());
  return chaos::report_to_json(outcome->report).dump(2);
}

std::string abort_and_resume_json(std::size_t abort_at, const std::string& tag) {
  const test_support::ScratchDir scratch("ranycast_traffic_resume." + tag);
  const std::string ck = scratch.file("run.ck");
  {
    auto laboratory = lab::Lab::create(tiny_config());
    const auto& im6 = laboratory.add_deployment(cdn::catalog::imperva6());
    chaos::Engine engine(laboratory, im6);
    engine.enable_traffic(tight_traffic());
    guard::Supervisor supervisor;
    guard::CheckpointPolicy policy;
    policy.path = ck;
    policy.after_step = [&](std::size_t done, std::size_t) {
      if (done == abort_at) supervisor.cancel();
    };
    auto first = engine.run_guarded(overload_plan(), supervisor, policy);
    EXPECT_TRUE(first.has_value()) << first.error();
    if (!first) return {};
    EXPECT_TRUE(first->report.truncated);
    EXPECT_EQ(first->report.steps.size(), abort_at);
    // One generation per step from generation 1: nothing stale was adopted.
    EXPECT_TRUE(fs::exists(ck + ".g" + std::to_string(abort_at)));
    EXPECT_FALSE(fs::exists(ck + ".g" + std::to_string(abort_at + 1)));
    EXPECT_EQ(first->report.traffic.size(), abort_at);
  }
  auto laboratory = lab::Lab::create(tiny_config());
  const auto& im6 = laboratory.add_deployment(cdn::catalog::imperva6());
  chaos::Engine engine(laboratory, im6);
  engine.enable_traffic(tight_traffic());
  guard::Supervisor supervisor;
  guard::CheckpointPolicy policy;
  policy.path = ck;
  policy.resume = true;
  auto second = engine.run_guarded(overload_plan(), supervisor, policy);
  EXPECT_TRUE(second.has_value()) << second.error();
  if (!second) return {};
  EXPECT_TRUE(second->sweep.resumed);
  EXPECT_EQ(second->sweep.resumed_from, abort_at);
  EXPECT_FALSE(second->report.truncated);
  return chaos::report_to_json(second->report).dump(2);
}

TEST(TrafficResume, TrafficReportByteIdenticalAtEveryAbortPoint) {
  const std::string expected = baseline_json();
  ASSERT_FALSE(expected.empty());
  EXPECT_NE(expected.find("\"traffic\""), std::string::npos);
  const std::size_t n = overload_plan().events.size();
  // abort_at == 1 kills mid-surge: the resumed run must re-install the
  // 1.4x scale from the checkpoint, not regenerate baseline demand.
  for (const std::size_t abort_at : {std::size_t{1}, n / 2, n - 1}) {
    EXPECT_EQ(abort_and_resume_json(abort_at, "abort_" + std::to_string(abort_at)),
              expected)
        << "aborted after step " << abort_at;
  }
}

TEST(TrafficResume, TrafficReportByteIdenticalAcrossWorkerCounts) {
  auto& pool = exec::ThreadPool::global();
  const unsigned original = pool.worker_count();

  pool.resize(1);
  const std::string expected = baseline_json();
  const std::size_t n = overload_plan().events.size();

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

TEST(TrafficResume, SteadyCheckpointDoesNotResumeIntoTrafficRun) {
  const test_support::ScratchDir scratch("ranycast_traffic_resume.steady_to_traffic");
  const std::string ck = scratch.file("run.ck");
  {
    auto laboratory = lab::Lab::create(tiny_config());
    const auto& im6 = laboratory.add_deployment(cdn::catalog::imperva6());
    chaos::Engine engine(laboratory, im6);  // traffic-less checkpoint
    guard::Supervisor supervisor;
    guard::CheckpointPolicy policy;
    policy.path = ck;
    policy.after_step = [&](std::size_t done, std::size_t) {
      if (done == 2) supervisor.cancel();
    };
    ASSERT_TRUE(engine.run_guarded(overload_plan(), supervisor, policy).has_value());
  }
  auto laboratory = lab::Lab::create(tiny_config());
  const auto& im6 = laboratory.add_deployment(cdn::catalog::imperva6());
  chaos::Engine engine(laboratory, im6);
  engine.enable_traffic(tight_traffic());  // fingerprint now differs
  guard::Supervisor supervisor;
  guard::CheckpointPolicy policy;
  policy.path = ck;
  policy.resume = true;
  auto outcome = engine.run_guarded(overload_plan(), supervisor, policy);
  ASSERT_FALSE(outcome.has_value());
  EXPECT_NE(outcome.error().find("fingerprint"), std::string::npos) << outcome.error();
}

TEST(TrafficResume, DifferentCapacityModelDoesNotResume) {
  const test_support::ScratchDir scratch("ranycast_traffic_resume.other_capacity");
  const std::string ck = scratch.file("run.ck");
  {
    auto laboratory = lab::Lab::create(tiny_config());
    const auto& im6 = laboratory.add_deployment(cdn::catalog::imperva6());
    chaos::Engine engine(laboratory, im6);
    engine.enable_traffic(tight_traffic());
    guard::Supervisor supervisor;
    guard::CheckpointPolicy policy;
    policy.path = ck;
    policy.after_step = [&](std::size_t done, std::size_t) {
      if (done == 2) supervisor.cancel();
    };
    ASSERT_TRUE(engine.run_guarded(overload_plan(), supervisor, policy).has_value());
  }
  auto laboratory = lab::Lab::create(tiny_config());
  const auto& im6 = laboratory.add_deployment(cdn::catalog::imperva6());
  chaos::Engine engine(laboratory, im6);
  TrafficConfig other = tight_traffic();
  other.default_site_capacity_mbps = 900.0;  // different capacity model
  engine.enable_traffic(other);
  guard::Supervisor supervisor;
  guard::CheckpointPolicy policy;
  policy.path = ck;
  policy.resume = true;
  auto outcome = engine.run_guarded(overload_plan(), supervisor, policy);
  ASSERT_FALSE(outcome.has_value());
  EXPECT_NE(outcome.error().find("fingerprint"), std::string::npos) << outcome.error();
}

TEST(TrafficResume, ForgedSiteCountQuarantinesNewestGeneration) {
  const fs::path dir = fs::temp_directory_path() / "ranycast_traffic_forged_count";
  fs::remove_all(dir);
  fs::create_directories(dir);
  const std::string ck = (dir / "run.ck").string();
  {
    auto laboratory = lab::Lab::create(tiny_config());
    const auto& im6 = laboratory.add_deployment(cdn::catalog::imperva6());
    chaos::Engine engine(laboratory, im6);
    engine.enable_traffic(tight_traffic());
    guard::Supervisor supervisor;
    guard::CheckpointPolicy policy;
    policy.path = ck;
    policy.after_step = [&](std::size_t done, std::size_t) {
      if (done == 2) supervisor.cancel();
    };
    ASSERT_TRUE(engine.run_guarded(overload_plan(), supervisor, policy).has_value());
  }

  // Rewrite the newest generation (cursor 2) with the first traffic record's
  // site count set to 2^40. The envelope is re-encoded, so its CRC is valid
  // and only the payload decoder can catch the forgery.
  const std::string newest = ck + ".g2";
  auto inspected = guard::read_checkpoint_unchecked(newest);
  ASSERT_TRUE(inspected.has_value()) << inspected.error().to_string();
  guard::ByteReader r(inspected->payload);
  const std::uint64_t cursor = r.u64();
  std::vector<chaos::StepReport> steps;
  std::vector<StepTraffic> traffic;
  ASSERT_TRUE(guard::decode(r, steps) && guard::decode(r, traffic) && r.at_end());
  ASSERT_EQ(cursor, 2u);
  ASSERT_FALSE(traffic.empty());

  guard::ByteWriter tail;
  guard::encode(tail, traffic);
  std::vector<std::uint8_t> forged_traffic = tail.take();
  // traffic count u64 | index u64 | event (u32 length + bytes) | sites count
  const std::size_t at = 8 + 8 + 4 + traffic[0].event.size();
  const std::uint64_t huge = std::uint64_t{1} << 40;
  for (std::size_t i = 0; i < 8; ++i) {
    forged_traffic[at + i] = static_cast<std::uint8_t>(huge >> (8 * i));
  }
  guard::ByteWriter payload;
  payload.u64(cursor);
  guard::encode(payload, steps);
  payload.bytes(forged_traffic);
  const auto file = guard::encode_checkpoint(inspected->info.kind,
                                             inspected->info.fingerprint, payload.data());
  std::ofstream(newest, std::ios::binary | std::ios::trunc)
      .write(reinterpret_cast<const char*>(file.data()),
             static_cast<std::streamsize>(file.size()));

  auto laboratory = lab::Lab::create(tiny_config());
  const auto& im6 = laboratory.add_deployment(cdn::catalog::imperva6());
  chaos::Engine engine(laboratory, im6);
  engine.enable_traffic(tight_traffic());
  guard::Supervisor supervisor;
  guard::CheckpointPolicy policy;
  policy.path = ck;
  policy.resume = true;
  auto outcome = engine.run_guarded(overload_plan(), supervisor, policy);
  ASSERT_TRUE(outcome.has_value()) << outcome.error();
  EXPECT_TRUE(fs::exists(newest + ".quarantined"));
  EXPECT_TRUE(outcome->sweep.resumed);
  EXPECT_EQ(outcome->sweep.resumed_from, 1u) << "must fall back to the older generation";
  EXPECT_EQ(chaos::report_to_json(outcome->report).dump(2), baseline_json());
  fs::remove_all(dir);
}

}  // namespace
}  // namespace ranycast::traffic
