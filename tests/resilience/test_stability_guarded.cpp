// Guarded stability campaigns: trial-by-trial supervision must not change
// the science — a complete guarded run equals the plain parallel one, a
// killed-and-resumed campaign equals an uninterrupted campaign, and partial
// campaigns report exactly how many trials they measured.
#include <gtest/gtest.h>

#include <filesystem>
#include <string>

#include "ranycast/cdn/catalog.hpp"
#include "ranycast/resilience/stability.hpp"
#include "support/scratch_dir.hpp"

namespace ranycast::resilience {
namespace {

namespace fs = std::filesystem;

lab::LabConfig tiny_config(std::uint64_t seed = 2023) {
  lab::LabConfig config;
  config.world.stub_count = 400;
  config.census.total_probes = 1200;
  config.seed = seed;
  return config;
}

std::string checkpoint_path(const std::string& tag) {
  static const test_support::ScratchDir dir("ranycast_stability_resume");
  return dir.file(tag + ".ck");
}

bool reports_equal(const StabilityReport& a, const StabilityReport& b) {
  return a.trials == b.trials && a.ases_observed == b.ases_observed &&
         a.ases_stable == b.ases_stable &&
         a.mean_pairwise_agreement == b.mean_pairwise_agreement;
}

TEST(StabilityGuarded, CompleteRunMatchesPlainParallelRun) {
  constexpr int kTrials = 6;
  auto laboratory = lab::Lab::create(tiny_config());
  const auto& im6 = laboratory.add_deployment(cdn::catalog::imperva6());
  const StabilityReport plain =
      catchment_stability(laboratory, im6.deployment, 0, kTrials);

  auto guarded_lab = lab::Lab::create(tiny_config());
  const auto& handle = guarded_lab.add_deployment(cdn::catalog::imperva6());
  guard::Supervisor supervisor;
  guard::CheckpointPolicy policy;
  auto guarded = catchment_stability_guarded(guarded_lab, handle.deployment, 0, kTrials,
                                             supervisor, policy);
  ASSERT_TRUE(guarded.has_value()) << guarded.error().to_string();
  EXPECT_TRUE(guarded->sweep.complete());
  EXPECT_TRUE(reports_equal(guarded->report, plain));
}

TEST(StabilityGuarded, ResumeMatchesUninterruptedAtEveryAbortPoint) {
  constexpr int kTrials = 6;
  auto baseline_lab = lab::Lab::create(tiny_config());
  const auto& baseline_handle = baseline_lab.add_deployment(cdn::catalog::imperva6());
  const StabilityReport expected =
      catchment_stability(baseline_lab, baseline_handle.deployment, 0, kTrials);

  for (const std::size_t abort_at :
       {std::size_t{1}, std::size_t{kTrials / 2}, std::size_t{kTrials - 1}}) {
    const std::string ck = checkpoint_path("abort_" + std::to_string(abort_at));
    fs::remove(ck);
    {
      auto laboratory = lab::Lab::create(tiny_config());
      const auto& handle = laboratory.add_deployment(cdn::catalog::imperva6());
      guard::Supervisor supervisor;
      guard::CheckpointPolicy policy;
      policy.path = ck;
      policy.after_step = [&](std::size_t done, std::size_t) {
        if (done == abort_at) supervisor.cancel();
      };
      auto first = catchment_stability_guarded(laboratory, handle.deployment, 0, kTrials,
                                               supervisor, policy);
      ASSERT_TRUE(first.has_value()) << first.error().to_string();
      EXPECT_EQ(first->sweep.completed, abort_at);
      EXPECT_EQ(first->report.trials, abort_at) << "partial report covers what ran";
    }
    auto laboratory = lab::Lab::create(tiny_config());
    const auto& handle = laboratory.add_deployment(cdn::catalog::imperva6());
    guard::Supervisor supervisor;
    guard::CheckpointPolicy policy;
    policy.path = ck;
    policy.resume = true;
    auto second = catchment_stability_guarded(laboratory, handle.deployment, 0, kTrials,
                                              supervisor, policy);
    ASSERT_TRUE(second.has_value()) << second.error().to_string();
    EXPECT_TRUE(second->sweep.resumed);
    EXPECT_EQ(second->sweep.resumed_from, abort_at);
    EXPECT_TRUE(reports_equal(second->report, expected))
        << "aborted after trial " << abort_at;
    fs::remove(ck);
  }
}

TEST(StabilityGuarded, CheckpointBindsRegionAndTrialCount) {
  constexpr int kTrials = 4;
  const std::string ck = checkpoint_path("binding");
  fs::remove(ck);
  {
    auto laboratory = lab::Lab::create(tiny_config());
    const auto& handle = laboratory.add_deployment(cdn::catalog::imperva6());
    guard::Supervisor supervisor;
    guard::CheckpointPolicy policy;
    policy.path = ck;
    policy.after_step = [&](std::size_t done, std::size_t) {
      if (done == 2) supervisor.cancel();
    };
    ASSERT_TRUE(catchment_stability_guarded(laboratory, handle.deployment, 0, kTrials,
                                            supervisor, policy)
                    .has_value());
  }
  // Same config, different trial count: a different campaign.
  auto laboratory = lab::Lab::create(tiny_config());
  const auto& handle = laboratory.add_deployment(cdn::catalog::imperva6());
  guard::Supervisor supervisor;
  guard::CheckpointPolicy policy;
  policy.path = ck;
  policy.resume = true;
  auto outcome = catchment_stability_guarded(laboratory, handle.deployment, 0,
                                             kTrials + 1, supervisor, policy);
  ASSERT_FALSE(outcome.has_value());
  EXPECT_EQ(outcome.error().kind, guard::GuardErrorKind::FingerprintMismatch);
  fs::remove(ck);
}

}  // namespace
}  // namespace ranycast::resilience
