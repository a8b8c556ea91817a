// ranycast::flight round trip: journals written by obs::Journal (including
// ones cut mid-line by a kill) load back, and the Chrome-trace export is
// schema-complete — every event carries ph/ts/pid/tid and async begin/end
// pairs balance, the same contract tools/check_trace.py enforces in CI.
#include "ranycast/flight/flight.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <map>
#include <string>
#include <utility>

#include "ranycast/core/crc32.hpp"
#include "ranycast/io/json.hpp"
#include "ranycast/obs/flight.hpp"
#include "ranycast/obs/journal.hpp"
#include "ranycast/obs/span.hpp"
#include "support/scratch_dir.hpp"

namespace ranycast::flight {
namespace {

namespace fs = std::filesystem;

std::string temp_path(const std::string& tag) {
  // ctest registers each case individually, so cases from this binary can run
  // as concurrent processes — keep their scratch files apart by pid.
  static const test_support::ScratchDir dir("ranycast_flight_test");
  return dir.file(tag);
}

/// A journal shaped like a killed-and-resumed chaos run: manifest, phases,
/// steps (step 2 duplicated pre/post kill), a transient window, a resume
/// marker, and a final line cut mid-write.
std::string write_sample_journal() {
  const std::string path = temp_path("sample.ndjson");
  fs::remove(path);
  {
    obs::Journal journal;
    EXPECT_TRUE(journal.open(path, /*append=*/false));
    journal.event("run_manifest", {{"tool", "test"}, {"planned_steps", 3}});
    journal.event("phase_begin", {{"phase", "chaos.run"}});
    journal.event("chaos_step",
                  {{"index", 0}, {"kind", "site_withdraw"}, {"dur_ns", 1'000'000}});
    journal.event("chaos_step",
                  {{"index", 1}, {"kind", "geo_db_stale"}, {"dur_ns", 2'000'000}});
    // Step 2 completed but the process died before the checkpoint: after
    // resume the same index is journaled again — consumers keep the last.
    journal.event("chaos_step",
                  {{"index", 2}, {"kind", "region_withdraw"}, {"dur_ns", 3'000'000}});
  }
  {
    obs::Journal journal;
    EXPECT_TRUE(journal.open(path, /*append=*/true));
    journal.event("resumed", {{"cursor", 2}, {"total", 3}}, true);
    journal.event("chaos_step",
                  {{"index", 2}, {"kind", "region_withdraw"}, {"dur_ns", 2'500'000}});
    journal.event(
        "transient_window",
        {{"index", 2},
         {"probes", 100},
         {"regions",
          io::parse_json_or_throw(
              R"([{"region":0,"converged_us":120,"max_blackhole_us":80,"blackholed":4},)"
              R"( {"region":1,"converged_us":60,"max_blackhole_us":0,"blackholed":0}])")}});
    journal.event("stopped", {{"reason", "none"}, {"completed", 3}}, true);
  }
  // SIGKILL mid-write: an O_APPEND line can be cut, never interleaved.
  std::ofstream cut(path, std::ios::binary | std::ios::app);
  cut << "{\"type\":\"chaos_step\",\"ts_ns\":99,\"ind";
  return path;
}

TEST(JournalReader, KilledJournalLoadsUpToTheCutLine) {
  const auto loaded = load_journal(write_sample_journal());
  ASSERT_TRUE(loaded.has_value()) << loaded.error();
  EXPECT_EQ(loaded->events.size(), 9u);
  EXPECT_EQ(loaded->malformed_lines, 1u);  // the cut tail, counted not fatal
  EXPECT_EQ(loaded->resume_markers, 1u);
  EXPECT_EQ(loaded->events.front().type, "run_manifest");
  EXPECT_EQ(loaded->events.back().type, "stopped");
  // ts_ns is relative to the process trace epoch, which the journal's first
  // event may itself pin — the front event can legitimately read 0, so only
  // monotonicity is guaranteed.
  for (std::size_t i = 1; i < loaded->events.size(); ++i) {
    EXPECT_GE(loaded->events[i].ts_ns, loaded->events[i - 1].ts_ns) << i;
  }
}

TEST(JournalReader, RenderedEventKeepsLargeIntegersExact) {
  // A serve_epoch line: snapshot fingerprints use all 64 bits.
  std::string line =
      R"({"type":"serve_epoch","ts_ns":5,"epoch":3,"fingerprint":8694433198636178480)";
  char tag[obs::kJournalCrcTagSize + 1];
  std::snprintf(tag, sizeof tag, ",\"crc\":\"%08x\"}", core::crc32(line.data(), line.size()));
  line += tag;
  JournalEvent event;
  ASSERT_EQ(parse_journal_line(line, event), LineStatus::Event);
  const std::string rendered = render_event(event);
  EXPECT_NE(rendered.find("\"fingerprint\":8694433198636178480"), std::string::npos)
      << rendered;
}

TEST(JournalReader, MissingFileIsAnError) {
  EXPECT_FALSE(load_journal(temp_path("does_not_exist.ndjson")).has_value());
}

TEST(JournalReader, FlightDumpRoundTripsThreadIdentity) {
  const bool was_enabled = obs::enabled();
  obs::set_enabled(true);
  obs::clear_trace();
  obs::set_thread_name("export.main");
  {
    obs::Span outer("export.outer");
    obs::Span inner("export.inner");
  }
  const std::string path = temp_path("flight.ndjson");
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << obs::flight_ndjson();
  }
  obs::clear_trace();
  obs::set_enabled(was_enabled);

  const auto threads = load_flight_dump(path);
  ASSERT_TRUE(threads.has_value()) << threads.error();
  ASSERT_EQ(threads->size(), 1u);
  EXPECT_EQ((*threads)[0].name, "export.main");
  EXPECT_NE((*threads)[0].os_tid, 0u);
  ASSERT_EQ((*threads)[0].events.size(), 2u);
  EXPECT_EQ((*threads)[0].events[0].name, "export.inner");  // completion order
  EXPECT_EQ((*threads)[0].events[1].name, "export.outer");
  fs::remove(path);
}

TEST(ChromeTrace, EveryEventHasPhTsPidTidAndAsyncPairsBalance) {
  const auto journal = load_journal(write_sample_journal());
  ASSERT_TRUE(journal.has_value());

  obs::FlightThreadSnapshot thread;
  thread.slot = 0;
  thread.os_tid = 4242;
  thread.name = "main";
  obs::TraceEvent span;
  span.name = "lab.create";
  span.parent = "";
  span.depth = 0;
  span.start_ns = 1'000;
  span.dur_ns = 5'000;
  span.seq = 0;
  span.tid = 4242;
  thread.events.push_back(span);
  thread.recorded = 1;

  TraceOptions options;
  options.pid = 7;
  const std::string text = chrome_trace(*journal, {thread}, options);
  const auto doc = io::parse_json_or_throw(text);
  const io::Json* events = doc.find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_TRUE(events->is_array());
  ASSERT_FALSE(events->as_array().empty());

  std::map<std::pair<std::string, double>, int> open_async;
  bool saw_span = false, saw_step_counter = false, saw_blackhole = false;
  for (const auto& e : events->as_array()) {
    ASSERT_TRUE(e.is_object());
    // The check_trace.py contract, enforced here as well.
    ASSERT_NE(e.find("ph"), nullptr);
    ASSERT_NE(e.find("ts"), nullptr);
    ASSERT_NE(e.find("pid"), nullptr);
    ASSERT_NE(e.find("tid"), nullptr);
    EXPECT_DOUBLE_EQ(e.find("pid")->as_number(), 7.0);
    const std::string ph = e.find("ph")->as_string();
    if (ph == "X") {
      EXPECT_GE(e.find("dur")->as_number(), 0.0);
      if (e.find("name")->as_string() == "lab.create") {
        saw_span = true;
        EXPECT_DOUBLE_EQ(e.find("tid")->as_number(), 4242.0);
        EXPECT_DOUBLE_EQ(e.find("dur")->as_number(), 5.0);  // ns -> us
      }
    } else if (ph == "b" || ph == "e") {
      const auto key = std::make_pair(e.find("cat")->as_string(),
                                      e.find("id")->as_number());
      if (ph == "b") {
        ++open_async[key];
        if (key.first == "blackhole") saw_blackhole = true;
      } else {
        ASSERT_GT(open_async[key], 0) << "async 'e' before its 'b'";
        --open_async[key];
      }
    } else if (ph == "C" && e.find("name")->as_string() == "chaos.step_ms") {
      saw_step_counter = true;
    }
  }
  for (const auto& [key, open] : open_async) {
    EXPECT_EQ(open, 0) << "unbalanced async track " << key.first;
  }
  EXPECT_TRUE(saw_span);
  EXPECT_TRUE(saw_step_counter);
  EXPECT_TRUE(saw_blackhole);  // region 0 had max_blackhole_us > 0
}

TEST(ChromeTrace, EmptyInputsStillProduceAValidDocument) {
  const std::string text = chrome_trace(JournalFile{}, {});
  const auto doc = io::parse_json_or_throw(text);
  ASSERT_NE(doc.find("traceEvents"), nullptr);
  EXPECT_TRUE(doc.find("traceEvents")->is_array());
}

TEST(Summarize, RollsUpTypesStepsAndResumeMarkers) {
  const auto journal = load_journal(write_sample_journal());
  ASSERT_TRUE(journal.has_value());
  const std::string text = summarize(*journal);
  EXPECT_NE(text.find("chaos_step"), std::string::npos);
  // 4 chaos_step lines but 3 distinct indexes after last-wins dedup.
  EXPECT_NE(text.find("3"), std::string::npos);
  EXPECT_NE(text.find("resume"), std::string::npos);
}

TEST(Tail, ReturnsTheLastNEvents) {
  const auto journal = load_journal(write_sample_journal());
  ASSERT_TRUE(journal.has_value());
  const std::string two = tail(*journal, 2);
  EXPECT_NE(two.find("stopped"), std::string::npos);
  EXPECT_NE(two.find("transient_window"), std::string::npos);
  EXPECT_EQ(two.find("run_manifest"), std::string::npos);
}

}  // namespace
}  // namespace ranycast::flight
