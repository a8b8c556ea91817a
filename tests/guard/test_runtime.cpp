// Supervisor and sweep semantics: deadlines stop runs at step boundaries,
// the watchdog turns silence into a Stalled failure, cancellation carries
// its reason, and checkpointed sweeps resume without re-processing items.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <thread>
#include <vector>

#include "ranycast/guard/runtime.hpp"
#include "ranycast/guard/sweep.hpp"
#include "support/scratch_dir.hpp"

namespace ranycast::guard {
namespace {

namespace fs = std::filesystem;
using namespace std::chrono_literals;

std::string temp_path(const std::string& name) {
  static const test_support::ScratchDir dir("ranycast_guard_runtime");
  return dir.file(name);
}

TEST(Supervisor, NoLimitsNeverStops) {
  Supervisor supervisor;
  EXPECT_FALSE(supervisor.should_stop());
  EXPECT_EQ(supervisor.stop_reason(), StopReason::None);
}

TEST(Supervisor, CancelStopsWithReason) {
  Supervisor supervisor;
  supervisor.cancel();
  EXPECT_TRUE(supervisor.should_stop());
  EXPECT_EQ(supervisor.stop_reason(), StopReason::Cancelled);
  EXPECT_EQ(supervisor.stop_error().kind, GuardErrorKind::Cancelled);
}

TEST(Supervisor, DeadlineIsEnforcedInline) {
  RunLimits limits;
  limits.deadline_s = 0.01;
  Supervisor supervisor(limits);
  // Spin on should_stop() like a step loop would; the deadline must trip it
  // even if the watchdog thread never got scheduled.
  const auto give_up = std::chrono::steady_clock::now() + 5s;
  while (!supervisor.should_stop() && std::chrono::steady_clock::now() < give_up) {
    std::this_thread::sleep_for(1ms);
  }
  EXPECT_TRUE(supervisor.should_stop());
  EXPECT_EQ(supervisor.stop_reason(), StopReason::DeadlineExpired);
  EXPECT_EQ(supervisor.stop_error().kind, GuardErrorKind::DeadlineExpired);
}

TEST(Supervisor, DeadlineCancelsMidStepViaWatchdog) {
  RunLimits limits;
  limits.deadline_s = 0.02;
  limits.poll_interval_s = 0.002;
  Supervisor supervisor(limits);
  // A "step" that never checks should_stop(): only the watchdog can reach
  // it, through the process-wide cancel flag installed by the supervisor.
  const auto give_up = std::chrono::steady_clock::now() + 5s;
  while (!supervisor.token().stop_requested() &&
         std::chrono::steady_clock::now() < give_up) {
    std::this_thread::sleep_for(1ms);
  }
  EXPECT_TRUE(supervisor.token().stop_requested());
  EXPECT_EQ(supervisor.stop_reason(), StopReason::DeadlineExpired);
}

TEST(Supervisor, SilenceTripsTheStallWatchdog) {
  RunLimits limits;
  limits.stall_timeout_s = 0.05;
  limits.poll_interval_s = 0.005;
  Supervisor supervisor(limits);
  // Heartbeat a few times to prove progress resets the stall clock …
  for (int i = 0; i < 3; ++i) {
    supervisor.heartbeat();
    std::this_thread::sleep_for(20ms);
    EXPECT_FALSE(supervisor.should_stop()) << "heartbeats kept arriving";
  }
  // … then go silent and expect the watchdog to pull the flag.
  const auto give_up = std::chrono::steady_clock::now() + 5s;
  while (!supervisor.token().stop_requested() &&
         std::chrono::steady_clock::now() < give_up) {
    std::this_thread::sleep_for(1ms);
  }
  EXPECT_TRUE(supervisor.should_stop());
  EXPECT_EQ(supervisor.stop_reason(), StopReason::Stalled);
  EXPECT_EQ(supervisor.stop_error().kind, GuardErrorKind::Stalled);
}

TEST(Sweep, ProcessesEveryItemInOrder) {
  Supervisor supervisor;
  CheckpointPolicy policy;  // no checkpointing
  std::vector<std::size_t> seen;
  SweepHooks hooks;
  hooks.process = [&](std::size_t i) { seen.push_back(i); };
  auto result = run_sweep(5, 1, supervisor, policy, hooks);
  ASSERT_TRUE(result.has_value());
  EXPECT_TRUE(result->complete());
  EXPECT_EQ(result->completed, 5u);
  EXPECT_EQ(seen, (std::vector<std::size_t>{0, 1, 2, 3, 4}));
}

TEST(Sweep, CancelMidSweepRecordsPartialProgress) {
  Supervisor supervisor;
  CheckpointPolicy policy;
  SweepHooks hooks;
  std::size_t processed = 0;
  hooks.process = [&](std::size_t) { ++processed; };
  policy.after_step = [&](std::size_t done, std::size_t) {
    if (done == 3) supervisor.cancel();
  };
  auto result = run_sweep(10, 1, supervisor, policy, hooks);
  ASSERT_TRUE(result.has_value());
  EXPECT_FALSE(result->complete());
  EXPECT_EQ(result->completed, 3u);
  EXPECT_EQ(processed, 3u);
  EXPECT_EQ(result->stopped, StopReason::Cancelled);
}

TEST(Sweep, ResumeSkipsProcessedItems) {
  const std::string ck = temp_path("sweep_resume.bin");
  fs::remove(ck);
  constexpr std::uint64_t kFp = 0xC0FFEE;

  // First run: accumulate squares, abort (cleanly) after 4 of 10 items.
  std::vector<std::uint64_t> acc;
  SweepHooks hooks;
  hooks.process = [&](std::size_t i) { acc.push_back(i * i); };
  hooks.save = [&](ByteWriter& w) {
    w.u64(acc.size());
    for (auto v : acc) w.u64(v);
  };
  hooks.load = [&](ByteReader& r) {
    acc.assign(r.u64(), 0);
    for (auto& v : acc) v = r.u64();
    return r.ok() && r.at_end();
  };
  {
    Supervisor supervisor;
    CheckpointPolicy policy;
    policy.path = ck;
    policy.after_step = [&](std::size_t done, std::size_t) {
      if (done == 4) supervisor.cancel();
    };
    auto first = run_sweep(10, kFp, supervisor, policy, hooks);
    ASSERT_TRUE(first.has_value());
    EXPECT_EQ(first->completed, 4u);
  }

  // Second run: must load the 4 accumulated squares and process only 5..9.
  acc.clear();
  std::vector<std::size_t> processed;
  hooks.process = [&](std::size_t i) {
    processed.push_back(i);
    acc.push_back(i * i);
  };
  Supervisor supervisor;
  CheckpointPolicy policy;
  policy.path = ck;
  policy.resume = true;
  auto second = run_sweep(10, kFp, supervisor, policy, hooks);
  ASSERT_TRUE(second.has_value()) << second.error().to_string();
  EXPECT_TRUE(second->resumed);
  EXPECT_EQ(second->resumed_from, 4u);
  EXPECT_TRUE(second->complete());
  EXPECT_EQ(processed, (std::vector<std::size_t>{4, 5, 6, 7, 8, 9}));
  std::vector<std::uint64_t> expected;
  for (std::uint64_t i = 0; i < 10; ++i) expected.push_back(i * i);
  EXPECT_EQ(acc, expected);
  fs::remove(ck);
}

TEST(Sweep, ResumeWithWrongFingerprintFails) {
  const std::string ck = temp_path("sweep_fp.bin");
  fs::remove(ck);
  SweepHooks hooks;
  hooks.process = [](std::size_t) {};
  hooks.save = [](ByteWriter&) {};
  hooks.load = [](ByteReader&) { return true; };
  {
    Supervisor supervisor;
    CheckpointPolicy policy;
    policy.path = ck;
    auto first = run_sweep(3, 1111, supervisor, policy, hooks);
    ASSERT_TRUE(first.has_value());
  }
  Supervisor supervisor;
  CheckpointPolicy policy;
  policy.path = ck;
  policy.resume = true;
  auto second = run_sweep(3, 2222, supervisor, policy, hooks);
  ASSERT_FALSE(second.has_value());
  EXPECT_EQ(second.error().kind, GuardErrorKind::FingerprintMismatch);
  fs::remove(ck);
}

TEST(Sweep, ResumeWithRejectedPayloadIsCorrupt) {
  const std::string ck = temp_path("sweep_reject.bin");
  fs::remove(ck);
  SweepHooks hooks;
  hooks.process = [](std::size_t) {};
  hooks.save = [](ByteWriter& w) { w.u64(7); };
  {
    Supervisor supervisor;
    CheckpointPolicy policy;
    policy.path = ck;
    ASSERT_TRUE(run_sweep(3, 1, supervisor, policy, hooks).has_value());
  }
  hooks.load = [](ByteReader&) { return false; };  // caller rejects the payload
  Supervisor supervisor;
  CheckpointPolicy policy;
  policy.path = ck;
  policy.resume = true;
  auto result = run_sweep(3, 1, supervisor, policy, hooks);
  ASSERT_FALSE(result.has_value());
  EXPECT_EQ(result.error().kind, GuardErrorKind::Corrupt);
  fs::remove(ck);
}

TEST(Sweep, CheckpointCadenceSkipsIntermediateSteps) {
  const std::string ck = temp_path("sweep_cadence.bin");
  fs::remove(ck);
  std::size_t saves = 0;
  SweepHooks hooks;
  hooks.process = [](std::size_t) {};
  hooks.save = [&](ByteWriter&) { ++saves; };
  Supervisor supervisor;
  CheckpointPolicy policy;
  policy.path = ck;
  policy.every = 4;
  auto result = run_sweep(10, 1, supervisor, policy, hooks);
  ASSERT_TRUE(result.has_value());
  // Steps 4, 8 hit the cadence; step 10 is the final step, always persisted.
  EXPECT_EQ(saves, 3u);
  fs::remove(ck);
}

TEST(Sweep, ResumeOfFinishedSweepProcessesNothing) {
  const std::string ck = temp_path("sweep_done.bin");
  fs::remove(ck);
  SweepHooks hooks;
  std::size_t processed = 0;
  hooks.process = [&](std::size_t) { ++processed; };
  hooks.save = [](ByteWriter&) {};
  hooks.load = [](ByteReader&) { return true; };
  {
    Supervisor supervisor;
    CheckpointPolicy policy;
    policy.path = ck;
    ASSERT_TRUE(run_sweep(4, 9, supervisor, policy, hooks).has_value());
  }
  EXPECT_EQ(processed, 4u);
  Supervisor supervisor;
  CheckpointPolicy policy;
  policy.path = ck;
  policy.resume = true;
  auto again = run_sweep(4, 9, supervisor, policy, hooks);
  ASSERT_TRUE(again.has_value());
  EXPECT_TRUE(again->complete());
  EXPECT_TRUE(again->resumed);
  EXPECT_EQ(processed, 4u) << "no item may run twice";
  fs::remove(ck);
}

}  // namespace
}  // namespace ranycast::guard
