// The run journal: every event is one valid JSON line, truncate-vs-append
// semantics follow the fresh-run/--resume split, and the process-global
// install point degrades to a no-op when no journal is open.
#include "ranycast/obs/journal.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "ranycast/io/json.hpp"
#include "ranycast/obs/span.hpp"
#include "support/scratch_dir.hpp"

namespace ranycast::obs {
namespace {

namespace fs = std::filesystem;

std::string journal_path(const std::string& tag) {
  // ctest registers each case individually, so cases from this binary can run
  // as concurrent processes — keep their scratch files apart by pid.
  static const test_support::ScratchDir dir("ranycast_journal_test");
  return dir.file(tag + ".ndjson");
}

std::vector<io::Json> read_lines(const std::string& path) {
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << path;
  std::vector<io::Json> lines;
  std::string line;
  while (std::getline(in, line)) {
    if (!line.empty()) lines.push_back(io::parse_json_or_throw(line));
  }
  return lines;
}

TEST(Journal, EventLinesAreValidNdjsonWithTypedFields) {
  const std::string path = journal_path("typed");
  fs::remove(path);
  Journal journal;
  ASSERT_TRUE(journal.open(path, /*append=*/false)) << journal.error();
  EXPECT_TRUE(journal.event("run_manifest",
                            {{"tool", "test \"quoted\"\n"},
                             {"steps", 7},
                             {"offset", -3},
                             {"ratio", 0.25},
                             {"resume", true},
                             {"regions", io::parse_json_or_throw(R"([{"region":0}])")}}));
  EXPECT_TRUE(journal.event("stopped", {{"reason", "none"}}, /*durable=*/true));
  EXPECT_EQ(journal.events_written(), 2u);
  journal.close();

  const auto lines = read_lines(path);
  ASSERT_EQ(lines.size(), 2u);
  const io::Json& manifest = lines[0];
  ASSERT_TRUE(manifest.is_object());
  EXPECT_EQ(manifest.find("type")->as_string(), "run_manifest");
  // The first event may pin the trace epoch itself and read ts_ns == 0;
  // only monotonicity across lines is guaranteed.
  EXPECT_LE(manifest.find("ts_ns")->as_number(),
            lines[1].find("ts_ns")->as_number());
  EXPECT_EQ(manifest.find("tool")->as_string(), "test \"quoted\"\n");
  EXPECT_DOUBLE_EQ(manifest.find("steps")->as_number(), 7.0);
  EXPECT_DOUBLE_EQ(manifest.find("offset")->as_number(), -3.0);
  EXPECT_DOUBLE_EQ(manifest.find("ratio")->as_number(), 0.25);
  EXPECT_TRUE(manifest.find("resume")->as_bool());
  const io::Json* regions = manifest.find("regions");
  ASSERT_NE(regions, nullptr);
  ASSERT_TRUE(regions->is_array());
  EXPECT_DOUBLE_EQ(regions->as_array()[0].find("region")->as_number(), 0.0);
  EXPECT_EQ(lines[1].find("type")->as_string(), "stopped");
  // Timestamps share the flight-recorder clock, so journal and spans align.
  EXPECT_LE(static_cast<std::uint64_t>(lines[1].find("ts_ns")->as_number()),
            trace_now_ns());
  fs::remove(path);
}

TEST(Journal, FreshOpenTruncatesAndResumeOpenAppends) {
  const std::string path = journal_path("append");
  fs::remove(path);
  {
    Journal journal;
    ASSERT_TRUE(journal.open(path, /*append=*/false));
    EXPECT_TRUE(journal.event("phase_begin", {{"phase", "first"}}));
  }
  {
    Journal journal;
    ASSERT_TRUE(journal.open(path, /*append=*/true));
    EXPECT_TRUE(journal.event("resumed", {{"cursor", 3}}, /*durable=*/true));
  }
  auto lines = read_lines(path);
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_EQ(lines[0].find("type")->as_string(), "phase_begin");
  EXPECT_EQ(lines[1].find("type")->as_string(), "resumed");

  {
    Journal journal;
    ASSERT_TRUE(journal.open(path, /*append=*/false));  // fresh run: truncate
    EXPECT_TRUE(journal.event("phase_begin", {{"phase", "second"}}));
  }
  lines = read_lines(path);
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_EQ(lines[0].find("phase")->as_string(), "second");
  fs::remove(path);
}

TEST(Journal, GlobalInstallPointDegradesToNoOp) {
  ASSERT_EQ(journal(), nullptr);
  // No journal installed: not an error, nothing written anywhere.
  EXPECT_TRUE(journal_event("chaos_step", {{"index", 0}}));

  const std::string path = journal_path("global");
  fs::remove(path);
  {
    Journal owned;
    ASSERT_TRUE(owned.open(path, /*append=*/false));
    set_journal(&owned);
    EXPECT_EQ(journal(), &owned);
    EXPECT_TRUE(journal_event("chaos_step", {{"index", 1}}, /*durable=*/true));
    set_journal(nullptr);
    EXPECT_TRUE(journal_event("chaos_step", {{"index", 2}}));
  }
  const auto lines = read_lines(path);
  ASSERT_EQ(lines.size(), 1u);  // only the event sent while installed
  EXPECT_DOUBLE_EQ(lines[0].find("index")->as_number(), 1.0);
  fs::remove(path);
}

TEST(Journal, OpenFailureIsReportedNotFatal) {
  Journal journal;
  EXPECT_FALSE(journal.open("/nonexistent-dir/nested/journal.ndjson", false));
  EXPECT_FALSE(journal.is_open());
  EXPECT_FALSE(journal.error().empty());
  // Writing to a never-opened journal fails cleanly.
  EXPECT_FALSE(journal.event("phase_begin", {}));
}

TEST(Journal, MoveTransfersOwnershipOfTheFd) {
  const std::string path = journal_path("move");
  fs::remove(path);
  Journal first;
  ASSERT_TRUE(first.open(path, /*append=*/false));
  Journal second = std::move(first);
  EXPECT_FALSE(first.is_open());
  EXPECT_TRUE(second.is_open());
  EXPECT_TRUE(second.event("checkpoint", {{"cursor", 5}}));
  second.close();
  EXPECT_EQ(read_lines(path).size(), 1u);
  fs::remove(path);
}

}  // namespace
}  // namespace ranycast::obs
