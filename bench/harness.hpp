// Shared experiment-harness helpers for the per-table/per-figure benches.
//
// Every bench builds one of the named scale presets below so results are
// comparable across binaries, then prints the paper's rows/series next to
// the simulated values. When observability is on (RANYCAST_OBS=1), the
// ObsSession each bench opens in main() also writes a machine-readable
// BENCH_<name>.json telemetry report next to the text output; see
// docs/observability.md for the schema.
#pragma once

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <optional>
#include <string>
#include <vector>

#include "ranycast/analysis/stats.hpp"
#include "ranycast/analysis/table.hpp"
#include "ranycast/atlas/grouping.hpp"
#include "ranycast/cdn/catalog.hpp"
#include "ranycast/exec/pool.hpp"
#include "ranycast/lab/lab.hpp"
#include "ranycast/obs/flight.hpp"
#include "ranycast/obs/journal.hpp"
#include "ranycast/obs/report.hpp"
#include "ranycast/obs/span.hpp"

namespace ranycast::bench {

/// The laboratory scale presets benches run at. Paper is the full study
/// scale (~2750 ASes, ~11k probes); Sweep is for benches that re-run many
/// configurations; Tiny is for telemetry exercises and smoke checks.
enum class Preset { Paper, Sweep, Tiny };

inline const char* to_string(Preset p) {
  switch (p) {
    case Preset::Paper: return "paper";
    case Preset::Sweep: return "sweep";
    case Preset::Tiny: return "tiny";
  }
  return "?";
}

inline lab::LabConfig preset_config(Preset p) {
  lab::LabConfig config;
  switch (p) {
    case Preset::Paper:
      break;
    case Preset::Sweep:
      config.world.stub_count = 1200;
      config.census.total_probes = 5000;
      break;
    case Preset::Tiny:
      config.world.stub_count = 400;
      config.census.total_probes = 1500;
      break;
  }
  return config;
}

/// Build a lab at a named preset and record which one ran in the telemetry.
inline lab::Lab make_lab(Preset p) {
  obs::MetricsRegistry::global().set_label("bench.preset", to_string(p));
  return lab::Lab::create(preset_config(p));
}

inline lab::Lab default_lab() { return make_lab(Preset::Paper); }

/// Smaller world for benches that sweep many configurations.
inline lab::Lab small_lab() { return make_lab(Preset::Sweep); }

/// Per-bench telemetry session: construct one at the top of main(). On
/// destruction, when observability is enabled, writes BENCH_<name>.json
/// (stage timings, counters, span rollups, total wall time) into the
/// current directory. A no-op under RANYCAST_OBS=0.
class ObsSession {
 public:
  explicit ObsSession(const char* name)
      : name_(name), start_(std::chrono::steady_clock::now()) {
    obs::set_thread_name("main");
    // RANYCAST_JOURNAL routes a bench_sample event stream to an NDJSON run
    // journal (appending, so a suite of benches shares one journal).
    if (obs::enabled()) {
      if (const char* path = std::getenv("RANYCAST_JOURNAL");
          path != nullptr && *path != '\0') {
        const auto parent = std::filesystem::path(path).parent_path();
        if (!parent.empty()) {
          std::error_code ec;
          std::filesystem::create_directories(parent, ec);
        }
        if (journal_.open(path, /*append=*/true)) {
          obs::set_journal(&journal_);
        } else {
          std::fprintf(stderr, "[obs] RANYCAST_JOURNAL: %s\n", journal_.error().c_str());
        }
      }
    }
  }

  ~ObsSession() {
    if (journal_.is_open()) obs::set_journal(nullptr);
    if (!obs::enabled()) return;
    const double wall_ms =
        std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - start_)
            .count();
    // Fold end-of-run process telemetry into the report: pool utilization
    // and the RSS high-water mark.
    exec::ThreadPool::global().publish_stats();
    const std::uint64_t rss_kb = obs::rss_high_water_kb();
    if (journal_.is_open()) {
      journal_.event("bench_sample",
                     {{"bench", name_},
                      {"wall_ms", wall_ms},
                      {"rss_hwm_kb", rss_kb},
                      {"dropped_events", obs::dropped_events()}},
                     /*durable=*/true);
    }
    if (obs::write_bench_report(name_, wall_ms)) {
      std::printf("\n[obs] wrote BENCH_%s.json\n", name_);
    }
  }

  ObsSession(const ObsSession&) = delete;
  ObsSession& operator=(const ObsSession&) = delete;

 private:
  const char* name_;
  std::chrono::steady_clock::time_point start_;
  obs::Journal journal_;
};

/// For micro-benches that never build a Lab of their own (hand-crafted
/// graphs): when observability is on, run a miniature lab + measurement
/// pass so their telemetry report still carries lab-construction phase
/// timings and dns/ping counters. A no-op — zero extra work — otherwise.
inline void obs_pipeline_exercise() {
  if (!obs::enabled()) return;
  auto laboratory = lab::Lab::create(preset_config(Preset::Tiny));
  const auto& handle = laboratory.add_deployment(cdn::catalog::imperva6());
  const auto retained = laboratory.census().retained();
  const std::size_t n = std::min<std::size_t>(retained.size(), 200);
  for (std::size_t i = 0; i < n; ++i) {
    const atlas::Probe* probe = retained[i];
    const auto answer = laboratory.dns_lookup(*probe, handle, dns::QueryMode::Ldns);
    laboratory.ping(*probe, answer.address);
    if (i % 50 == 0) laboratory.traceroute(*probe, answer.address);
  }
}

// geo::to_string returns views of string literals, so .data() is NUL-safe.
inline const char* area_name(std::size_t a) {
  return geo::to_string(static_cast<geo::Area>(a)).data();
}

/// Group-median values per area for an arbitrary probe measurement.
template <typename F>
std::array<std::vector<double>, geo::kAreaCount> per_area_group_medians(
    const lab::Lab& laboratory, F&& measure) {
  std::array<std::vector<double>, geo::kAreaCount> out;
  const auto retained = laboratory.census().retained();
  for (const auto& group : atlas::group_probes(retained)) {
    const auto median = atlas::group_median(group, measure);
    if (median) out[static_cast<int>(group.area)].push_back(*median);
  }
  return out;
}

/// Print an empirical CDF as a fixed set of (x, F(x)) points, one series per
/// line, in the gnuplot-friendly style the paper's figures use.
inline void print_cdf_series(const char* label, const std::vector<double>& samples, double lo,
                             double hi, int points = 11) {
  const analysis::Cdf cdf{std::vector<double>(samples)};
  std::printf("%-22s n=%-5zu", label, cdf.size());
  for (const auto& [x, f] : cdf.series(lo, hi, points)) {
    std::printf("  %6.0f:%.2f", x, f);
  }
  std::printf("\n");
}

inline void print_header(const char* title, const char* paper_ref) {
  std::printf("==============================================================\n");
  std::printf("%s\n", title);
  std::printf("reproduces: %s\n", paper_ref);
  std::printf("==============================================================\n\n");
}

}  // namespace ranycast::bench
