// ISSUE acceptance gate, journal edition: a guarded chaos run with a journal
// installed writes one chaos_step line per *measured* step, so the journal —
// after last-wins dedup by index — matches the final ChaosReport step for
// step, including across an abort + --resume append (which must carry
// exactly one "resumed" marker). Every line must be independently valid JSON.
#include <gtest/gtest.h>

#include <cmath>
#include <filesystem>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "ranycast/cdn/catalog.hpp"
#include "ranycast/chaos/engine.hpp"
#include "ranycast/chaos/scenario.hpp"
#include "ranycast/io/json.hpp"
#include "ranycast/obs/journal.hpp"
#include "support/scratch_dir.hpp"

namespace ranycast::chaos {
namespace {

namespace fs = std::filesystem;

lab::LabConfig tiny_config(std::uint64_t seed = 2023) {
  lab::LabConfig config;
  config.world.stub_count = 400;
  config.census.total_probes = 1200;
  config.seed = seed;
  return config;
}

FaultPlan cascade_plan() {
  FaultPlan plan;
  plan.name = "journal-cascade";
  FaultEvent e;
  e.kind = FaultKind::SiteWithdraw;
  e.site = SiteId{0};
  plan.events.push_back(e);
  e = FaultEvent{};
  e.kind = FaultKind::GeoDbStale;
  e.db = 0;
  e.magnitude = 0.4;
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

std::string work_path(const std::string& tag, const std::string& ext) {
  static const test_support::ScratchDir dir("ranycast_journal_resume");
  return dir.file(tag + ext);
}

/// Uninstalls the global journal even when an assertion bails out early.
struct JournalScope {
  explicit JournalScope(obs::Journal& journal) { obs::set_journal(&journal); }
  ~JournalScope() { obs::set_journal(nullptr); }
};

std::vector<io::Json> parse_journal_lines(const std::string& path) {
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << path;
  std::vector<io::Json> lines;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    lines.push_back(io::parse_json_or_throw(line));  // throws -> test failure
  }
  return lines;
}

/// chaos_step lines deduped by index, last occurrence wins.
std::map<std::uint64_t, io::Json> journal_steps(const std::vector<io::Json>& lines) {
  std::map<std::uint64_t, io::Json> steps;
  for (const auto& line : lines) {
    if (line.find("type")->as_string() != "chaos_step") continue;
    steps[static_cast<std::uint64_t>(line.find("index")->as_number())] = line;
  }
  return steps;
}

std::size_t count_type(const std::vector<io::Json>& lines, const std::string& type) {
  std::size_t n = 0;
  for (const auto& line : lines) {
    if (line.find("type")->as_string() == type) ++n;
  }
  return n;
}

void expect_line_matches_step(const io::Json& line, const StepReport& step) {
  EXPECT_EQ(line.find("event")->as_string(), step.event);
  EXPECT_DOUBLE_EQ(line.find("probes")->as_number(), static_cast<double>(step.probes));
  EXPECT_DOUBLE_EQ(line.find("moved")->as_number(), static_cast<double>(step.moved));
  EXPECT_DOUBLE_EQ(line.find("lost")->as_number(), static_cast<double>(step.lost));
  EXPECT_DOUBLE_EQ(line.find("gained")->as_number(), static_cast<double>(step.gained));
  EXPECT_DOUBLE_EQ(line.find("affected_probes")->as_number(),
                   static_cast<double>(step.affected_probes));
  EXPECT_DOUBLE_EQ(line.find("still_served")->as_number(),
                   static_cast<double>(step.still_served));
  EXPECT_DOUBLE_EQ(line.find("routes_after")->as_number(),
                   static_cast<double>(step.routes_after));
  // Doubles print with 17 significant digits and parse back exactly.
  EXPECT_EQ(line.find("after_p50_ms")->as_number(), step.after_p50_ms);
  EXPECT_TRUE(line.find("dur_ns")->is_number());
}

TEST(JournalResume, UninterruptedRunJournalsEveryStepExactly) {
  const std::string jpath = work_path("baseline", ".ndjson");
  fs::remove(jpath);

  auto laboratory = lab::Lab::create(tiny_config());
  const auto& im6 = laboratory.add_deployment(cdn::catalog::imperva6());
  Engine engine(laboratory, im6);
  obs::Journal journal;
  ASSERT_TRUE(journal.open(jpath, /*append=*/false)) << journal.error();
  ChaosReport report;
  {
    JournalScope scope(journal);
    guard::Supervisor supervisor;
    guard::CheckpointPolicy policy;
    auto outcome = engine.run_guarded(cascade_plan(), supervisor, policy);
    ASSERT_TRUE(outcome.has_value()) << outcome.error();
    report = outcome->report;
  }
  journal.close();

  const auto lines = parse_journal_lines(jpath);
  const auto steps = journal_steps(lines);
  ASSERT_EQ(steps.size(), report.steps.size());
  EXPECT_EQ(count_type(lines, "chaos_step"), report.steps.size());  // no duplicates
  EXPECT_EQ(count_type(lines, "resumed"), 0u);
  for (const StepReport& step : report.steps) {
    const auto it = steps.find(step.index);
    ASSERT_NE(it, steps.end()) << "step " << step.index << " missing from journal";
    expect_line_matches_step(it->second, step);
  }
  fs::remove(jpath);
}

TEST(JournalResume, StepDoublesEqualTheReportJsonBitForBit) {
  const std::string jpath = work_path("doubles", ".ndjson");
  auto laboratory = lab::Lab::create(tiny_config());
  const auto& im6 = laboratory.add_deployment(cdn::catalog::imperva6());
  Engine engine(laboratory, im6);
  obs::Journal journal;
  ASSERT_TRUE(journal.open(jpath, /*append=*/false)) << journal.error();
  ChaosReport report;
  {
    JournalScope scope(journal);
    auto outcome = engine.run(cascade_plan());
    ASSERT_TRUE(outcome.has_value()) << outcome.error();
    report = *outcome;
  }
  journal.close();

  const auto steps = journal_steps(parse_journal_lines(jpath));
  const io::Json json = report_to_json(report);
  std::size_t fractional = 0;
  for (const io::Json& expected : json.find("steps")->as_array()) {
    const auto index = static_cast<std::uint64_t>(expected.find("index")->as_number());
    ASSERT_EQ(steps.count(index), 1u) << "step " << index;
    const io::Json& line = steps.at(index);
    for (const auto& [key, value] : expected.as_object()) {
      const io::Json* got = line.find(key);
      if (got == nullptr || !value.is_number()) continue;  // churn, survival_rate
      EXPECT_EQ(got->as_number(), value.as_number()) << "step " << index << " " << key;
      if (value.as_number() != std::floor(value.as_number())) ++fractional;
    }
  }
  EXPECT_GT(fractional, 0u);  // the plan's latencies are not round numbers
}

TEST(JournalResume, AbortedThenResumedJournalCarriesOneResumeMarker) {
  const std::string jpath = work_path("resume", ".ndjson");
  const std::string ckpath = work_path("resume", ".ck");
  fs::remove(jpath);
  fs::remove(ckpath);
  const std::size_t abort_at = cascade_plan().events.size() / 2;

  {
    auto laboratory = lab::Lab::create(tiny_config());
    const auto& im6 = laboratory.add_deployment(cdn::catalog::imperva6());
    Engine engine(laboratory, im6);
    obs::Journal journal;
    ASSERT_TRUE(journal.open(jpath, /*append=*/false)) << journal.error();
    JournalScope scope(journal);
    guard::Supervisor supervisor;
    guard::CheckpointPolicy policy;
    policy.path = ckpath;
    policy.after_step = [&](std::size_t done, std::size_t) {
      if (done == abort_at) supervisor.cancel();
    };
    auto first = engine.run_guarded(cascade_plan(), supervisor, policy);
    ASSERT_TRUE(first.has_value()) << first.error();
    ASSERT_EQ(first->sweep.completed, abort_at);
  }
  {
    const auto lines = parse_journal_lines(jpath);
    EXPECT_EQ(count_type(lines, "resumed"), 0u);
    EXPECT_EQ(count_type(lines, "stopped"), 1u);  // reason: cancelled, durable
    EXPECT_EQ(journal_steps(lines).size(), abort_at);
    EXPECT_GE(count_type(lines, "checkpoint"), 1u);
  }

  ChaosReport report;
  {
    auto laboratory = lab::Lab::create(tiny_config());
    const auto& im6 = laboratory.add_deployment(cdn::catalog::imperva6());
    Engine engine(laboratory, im6);
    obs::Journal journal;
    // The CLI opens with append=true under --resume: history is preserved.
    ASSERT_TRUE(journal.open(jpath, /*append=*/true)) << journal.error();
    JournalScope scope(journal);
    guard::Supervisor supervisor;
    guard::CheckpointPolicy policy;
    policy.path = ckpath;
    policy.resume = true;
    auto second = engine.run_guarded(cascade_plan(), supervisor, policy);
    ASSERT_TRUE(second.has_value()) << second.error();
    ASSERT_TRUE(second->sweep.resumed);
    ASSERT_FALSE(second->report.truncated);
    report = second->report;
  }

  const auto lines = parse_journal_lines(jpath);
  EXPECT_EQ(count_type(lines, "resumed"), 1u);
  // Replayed steps are fast-forwarded, never re-measured, never re-emitted:
  // journal steps dedup to exactly the report's steps.
  EXPECT_EQ(count_type(lines, "chaos_step"), report.steps.size());
  const auto steps = journal_steps(lines);
  ASSERT_EQ(steps.size(), report.steps.size());
  for (const StepReport& step : report.steps) {
    const auto it = steps.find(step.index);
    ASSERT_NE(it, steps.end()) << "step " << step.index << " missing from journal";
    expect_line_matches_step(it->second, step);
  }
  // The resume marker lands before the steps the resumed run measured.
  std::size_t resume_pos = lines.size(), first_new_step = lines.size();
  for (std::size_t i = 0; i < lines.size(); ++i) {
    const std::string type = lines[i].find("type")->as_string();
    if (type == "resumed") resume_pos = i;
    if (type == "chaos_step" &&
        static_cast<std::size_t>(lines[i].find("index")->as_number()) >= abort_at &&
        i < first_new_step) {
      first_new_step = i;
    }
  }
  ASSERT_LT(resume_pos, lines.size());
  EXPECT_LT(resume_pos, first_new_step);
  fs::remove(jpath);
  fs::remove(ckpath);
}

TEST(JournalResume, TransientRunsJournalConvergenceWindows) {
  const std::string jpath = work_path("transient", ".ndjson");
  fs::remove(jpath);

  auto laboratory = lab::Lab::create(tiny_config());
  const auto& im6 = laboratory.add_deployment(cdn::catalog::imperva6());
  Engine engine(laboratory, im6);
  converge::Config ccfg;
  ccfg.timers.mrai_us = 500'000;
  engine.enable_transient(ccfg);
  obs::Journal journal;
  ASSERT_TRUE(journal.open(jpath, /*append=*/false)) << journal.error();
  std::size_t transients = 0;
  {
    JournalScope scope(journal);
    auto outcome = engine.run(cascade_plan());
    ASSERT_TRUE(outcome.has_value()) << outcome.error();
    transients = outcome->transient.size();
  }
  journal.close();

  const auto lines = parse_journal_lines(jpath);
  EXPECT_EQ(count_type(lines, "transient_window"), transients);
  ASSERT_GT(transients, 0u);
  for (const auto& line : lines) {
    if (line.find("type")->as_string() != "transient_window") continue;
    EXPECT_TRUE(line.find("index")->is_number());
    EXPECT_TRUE(line.find("probes")->is_number());
    const io::Json* regions = line.find("regions");
    ASSERT_NE(regions, nullptr);
    ASSERT_TRUE(regions->is_array());
    for (const auto& region : regions->as_array()) {
      EXPECT_TRUE(region.find("region")->is_number());
      EXPECT_TRUE(region.find("converged_us")->is_number());
      EXPECT_TRUE(region.find("max_blackhole_us")->is_number());
    }
  }
  fs::remove(jpath);
}

}  // namespace
}  // namespace ranycast::chaos
