// Chaos engine under adversarial storage: seeded I/O fault storms battering
// the checkpoint chain while a chaos timeline is killed and resumed, at
// worker counts {1, 2, hardware}. The invariant mirrors the torture soak's:
// a faulted run either fails with a structured error or leaves a resumable
// chain, and once the storm lifts the resumed report is byte-identical to
// the uninterrupted baseline — including after the newest generation is
// corrupted behind the runtime's back.
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "ranycast/cdn/catalog.hpp"
#include "ranycast/chaos/engine.hpp"
#include "ranycast/chaos/scenario.hpp"
#include "ranycast/exec/pool.hpp"
#include "ranycast/guard/chain.hpp"
#include "ranycast/vfs/fault.hpp"
#include "support/scratch_dir.hpp"

namespace ranycast::chaos {
namespace {

namespace fs = std::filesystem;

// Keep the soak scratch space recognizably named: the fault plans below use
// it as their path_filter, so only checkpoint-chain I/O is ever faulted.
const char kScratchTag[] = "ranycast_fault_soak";

lab::LabConfig soak_config() {
  lab::LabConfig config;
  config.world.stub_count = 400;
  config.census.total_probes = 1200;
  config.seed = 2023;
  return config;
}

FaultPlan soak_plan() {
  FaultPlan plan;
  plan.name = "fault-soak";
  FaultEvent e;
  e.kind = FaultKind::SiteWithdraw;
  e.site = SiteId{0};
  plan.events.push_back(e);
  e = FaultEvent{};
  e.kind = FaultKind::MeasurementDegrade;
  e.faults.ping_loss_prob = 0.2;
  plan.events.push_back(e);
  e = FaultEvent{};
  e.kind = FaultKind::SiteRestore;
  e.site = SiteId{0};
  plan.events.push_back(e);
  e = FaultEvent{};
  e.kind = FaultKind::MeasurementRestore;
  plan.events.push_back(e);
  return plan;
}

std::string chain_path(const std::string& tag) {
  static const test_support::ScratchDir dir(kScratchTag);
  return dir.file(tag + ".ck");
}

void remove_chain_files(const std::string& ck) {
  const fs::path manifest(ck);
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(manifest.parent_path(), ec)) {
    const std::string name = entry.path().filename().string();
    if (name.rfind(manifest.filename().string(), 0) == 0) fs::remove(entry.path());
  }
}

std::string newest_generation(const std::string& ck) {
  std::string best;
  std::uint64_t best_gen = 0;
  const std::string prefix = fs::path(ck).filename().string() + ".g";
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(fs::path(ck).parent_path(), ec)) {
    const std::string name = entry.path().filename().string();
    if (name.rfind(prefix, 0) != 0) continue;
    const std::string digits = name.substr(prefix.size());
    if (digits.empty() ||
        digits.find_first_not_of("0123456789") != std::string::npos) {
      continue;
    }
    const auto gen = std::stoull(digits);
    if (gen >= best_gen) {
      best_gen = gen;
      best = entry.path().string();
    }
  }
  return best;
}

/// One guarded chaos run. `abort_after` > 0 cancels at that step;
/// `resume` reads whatever chain is on disk. Returns the outcome verbatim.
core::Expected<GuardedChaosRun, std::string> run_soak(const std::string& ck,
                                                      bool resume,
                                                      std::size_t abort_after) {
  auto laboratory = lab::Lab::create(soak_config());
  const auto& im6 = laboratory.add_deployment(cdn::catalog::imperva6());
  Engine engine(laboratory, im6);
  guard::Supervisor supervisor;
  guard::CheckpointPolicy policy;
  policy.path = ck;
  policy.resume = resume;
  policy.retry.max_attempts = 4;
  policy.retry.initial_backoff_ms = 0.01;
  policy.retry.max_backoff_ms = 0.05;
  if (abort_after > 0) {
    policy.after_step = [&](std::size_t done, std::size_t) {
      if (done == abort_after) supervisor.cancel();
    };
  }
  return engine.run_guarded(soak_plan(), supervisor, policy);
}

std::string baseline_json() {
  auto laboratory = lab::Lab::create(soak_config());
  const auto& im6 = laboratory.add_deployment(cdn::catalog::imperva6());
  Engine engine(laboratory, im6);
  guard::Supervisor supervisor;
  guard::CheckpointPolicy policy;
  auto outcome = engine.run_guarded(soak_plan(), supervisor, policy);
  EXPECT_TRUE(outcome.has_value()) << outcome.error();
  return outcome ? report_to_json(outcome->report).dump(2) : std::string();
}

/// Resume and demand byte-identity with `expected`. Total loss (the storm
/// silently tore EVERY generation before any write reported success) is the
/// one licensed failure, and it must be explicit: wipe and redo from zero.
void resume_and_compare(const std::string& ck, const std::string& expected,
                        const std::string& context) {
  auto resumed = run_soak(ck, /*resume=*/true, 0);
  if (!resumed.has_value()) {
    EXPECT_NE(resumed.error().find("damaged"), std::string::npos)
        << context << ": unstructured resume failure: " << resumed.error();
    remove_chain_files(ck);
    resumed = run_soak(ck, /*resume=*/true, 0);
  }
  ASSERT_TRUE(resumed.has_value()) << context << ": " << resumed.error();
  EXPECT_FALSE(resumed->report.truncated) << context;
  EXPECT_EQ(report_to_json(resumed->report).dump(2), expected) << context;
}

TEST(FaultSoak, StormKillResumeIsByteIdenticalAcrossWorkerCounts) {
  auto& pool = exec::ThreadPool::global();
  const unsigned original = pool.worker_count();

  pool.resize(1);
  const std::string expected = baseline_json();
  ASSERT_FALSE(expected.empty());

  std::vector<unsigned> sweep{1, 2};
  const unsigned hardware = std::max(1u, std::thread::hardware_concurrency());
  if (hardware != 2 && hardware != 1) sweep.push_back(hardware);

  for (const unsigned workers : sweep) {
    pool.resize(workers);
    for (const std::uint64_t seed : {1ull, 2ull}) {
      const std::string tag =
          "storm_w" + std::to_string(workers) + "_s" + std::to_string(seed);
      const std::string ck = chain_path(tag);
      remove_chain_files(ck);

      // Storm phase: checkpoint I/O is battered while the run is killed
      // mid-timeline. Any outcome is legal except a crash — and whatever
      // hits disk must be either resumable or explicitly corrupt.
      std::uint64_t injected = 0;
      {
        // Far hotter than FaultPlan::storm: a killed chaos run only makes a
        // handful of checkpoint writes, so per-class probabilities must be
        // high for the storm to reliably bite within those few operations.
        vfs::FaultPlan plan;
        plan.seed = seed;
        plan.p_eintr = 0.4;
        plan.p_short_write = 0.4;
        plan.p_write_fail = 0.15;
        plan.p_fsync_fail = 0.15;
        plan.p_rename_fail = 0.10;
        plan.p_torn_rename = 0.15;
        plan.p_read_fail = 0.10;
        plan.p_bitflip_read = 0.20;
        plan.p_close_fail = 0.05;
        plan.path_filter = kScratchTag;
        vfs::ScopedFaultPlan faults(plan);
        auto stormy = run_soak(ck, /*resume=*/false, /*abort_after=*/2);
        injected = faults.stats().injected();
        if (!stormy.has_value()) {
          EXPECT_FALSE(stormy.error().empty()) << tag;
        }
      }
      EXPECT_GT(injected, 0u) << tag << ": the storm never actually bit";

      // Calm phase: self-healing resume must reconstruct the exact
      // uninterrupted bytes regardless of what the storm left behind.
      resume_and_compare(ck, expected, tag);
      remove_chain_files(ck);
    }
  }
  pool.resize(original);
}

TEST(FaultSoak, CorruptNewestGenerationFallsBackAcrossWorkerCounts) {
  auto& pool = exec::ThreadPool::global();
  const unsigned original = pool.worker_count();

  pool.resize(1);
  const std::string expected = baseline_json();
  ASSERT_FALSE(expected.empty());

  std::vector<unsigned> sweep{1, 2};
  const unsigned hardware = std::max(1u, std::thread::hardware_concurrency());
  if (hardware != 2 && hardware != 1) sweep.push_back(hardware);

  for (const unsigned workers : sweep) {
    pool.resize(workers);
    const std::string tag = "corrupt_w" + std::to_string(workers);
    const std::string ck = chain_path(tag);
    remove_chain_files(ck);

    auto killed = run_soak(ck, /*resume=*/false, /*abort_after=*/2);
    ASSERT_TRUE(killed.has_value()) << tag << ": " << killed.error();
    ASSERT_TRUE(killed->report.truncated) << tag;

    // Corrupt the newest generation behind the runtime's back (the CI
    // script does the same through the CLI): resume must quarantine it,
    // fall back a generation, and still match the baseline exactly.
    const std::string newest = newest_generation(ck);
    ASSERT_FALSE(newest.empty()) << tag;
    {
      std::fstream f(newest, std::ios::binary | std::ios::in | std::ios::out);
      ASSERT_TRUE(f.good()) << newest;
      char byte{};
      f.seekg(40);
      f.read(&byte, 1);
      byte = static_cast<char>(byte ^ 0x40);
      f.seekp(40);
      f.write(&byte, 1);
    }

    auto resumed = run_soak(ck, /*resume=*/true, 0);
    ASSERT_TRUE(resumed.has_value()) << tag << ": " << resumed.error();
    EXPECT_EQ(report_to_json(resumed->report).dump(2), expected) << tag;
    EXPECT_TRUE(fs::exists(newest + ".quarantined")) << tag;
    remove_chain_files(ck);
  }
  pool.resize(original);
}

}  // namespace
}  // namespace ranycast::chaos
