#include "tool_cli.hpp"

#include <charconv>
#include <climits>
#include <cstdio>
#include <fstream>

#include "ranycast/cdn/catalog.hpp"
#include "ranycast/exec/pool.hpp"
#include "ranycast/flight/flight.hpp"
#include "ranycast/io/config.hpp"
#include "ranycast/obs/flight.hpp"
#include "ranycast/tangled/testbed.hpp"
#include "ranycast/traffic/config.hpp"

namespace ranycast::tool {

int fail(const std::string& message) {
  std::fprintf(stderr, "%s\n", message.c_str());
  return 2;
}

void note_sweep(const guard::SweepResult& sweep, const std::string& checkpoint,
                const std::string& unit) {
  if (sweep.resumed) {
    std::fprintf(stderr, "[guard] resumed from %s at %s %zu/%zu\n", checkpoint.c_str(),
                 unit.c_str(), sweep.resumed_from, sweep.total);
  }
  if (!sweep.complete()) {
    std::fprintf(stderr, "[guard] stopped (%s): completed %zu of %zu %ss\n",
                 std::string(guard::to_string(sweep.stopped)).c_str(), sweep.completed,
                 sweep.total, unit.c_str());
  }
}

std::optional<cdn::DeploymentSpec> spec_by_name(const std::string& name) {
  if (name == "imperva6") return cdn::catalog::imperva6();
  if (name == "imperva-ns") return cdn::catalog::imperva_ns();
  if (name == "edgio3") return cdn::catalog::edgio3();
  if (name == "edgio4") return cdn::catalog::edgio4();
  if (name == "tangled") return tangled::global_spec();
  return std::nullopt;
}

core::Expected<std::optional<std::uint64_t>, std::string> uint_flag(
    const flags::Parser& args, const std::string& name, std::uint64_t max) {
  const auto text = args.get(name);
  if (!text) return std::optional<std::uint64_t>{};
  std::uint64_t value = 0;
  const char* end = text->data() + text->size();
  const auto [ptr, ec] = std::from_chars(text->data(), end, value);
  if (ec != std::errc{} || ptr != end || value > max) {
    return core::unexpected("--" + name + " '" + *text + "' is not an integer in [0, " +
                            std::to_string(max) + "]");
  }
  return std::optional<std::uint64_t>{value};
}

core::Expected<lab::LabConfig, std::string> bind_lab_flags(const flags::Parser& args,
                                                           lab::LabConfig config) {
  if (const auto path = args.get("config")) {
    auto loaded = io::load_config(*path);
    if (!loaded) return core::unexpected("config error: " + loaded.error().to_string());
    config = std::move(*loaded);
  }
  for (auto [name, knob] : {std::pair{"stubs", &config.world.stub_count},
                            std::pair{"probes", &config.census.total_probes}}) {
    auto count = uint_flag(args, name, INT_MAX);
    if (!count) return core::unexpected(std::move(count).error());
    if (*count) *knob = static_cast<int>(**count);
  }
  auto seed = uint_flag(args, "seed", UINT64_MAX);
  if (!seed) return core::unexpected(std::move(seed).error());
  if (*seed) config.seed = **seed;
  if (auto err = io::validate_lab_config(config)) {
    return core::unexpected("config error: " + err->to_string());
  }
  return config;
}

std::optional<std::string> bind_traffic_flags(const flags::Parser& args,
                                              traffic::TrafficConfig& cfg, std::string_view file) {
  if (const auto policy = args.get("traffic-policy")) {
    if (*policy == "spill") {
      cfg.policy = traffic::OverloadPolicy::Spill;
    } else if (*policy == "shed") {
      cfg.policy = traffic::OverloadPolicy::Shed;
    } else {
      return "unknown traffic policy '" + *policy + "' (spill|shed)";
    }
  }
  cfg.default_site_capacity_mbps =
      args.get_or("traffic-capacity-mbps", cfg.default_site_capacity_mbps);
  cfg.demand_scale = args.get_or("traffic-scale", cfg.demand_scale);
  if (auto err = traffic::validate(cfg, file)) return "traffic config error: " + err->to_string();
  return std::nullopt;
}

std::optional<std::string> RunJournal::open(const flags::Parser& args) {
  trace_out_ = args.get("trace-out");
  path_ = args.get_or("journal", std::string());
  if (path_.empty() && trace_out_) path_ = *trace_out_ + ".journal.ndjson";
  if (args.has("obs") || !path_.empty()) obs::set_enabled(true);
  obs::set_thread_name("main");
  if (path_.empty()) return std::nullopt;
  // A fresh run starts a fresh journal; --resume appends to the previous
  // attempt's (run_sweep writes the explicit resume marker).
  if (!journal_.open(path_, /*append=*/args.has("resume"))) return journal_.error();
  obs::set_journal(&journal_);
  return std::nullopt;
}

std::optional<std::string> RunJournal::close() {
  if (obs::enabled()) {
    exec::ThreadPool::global().publish_stats();
    obs::rss_high_water_kb();
  }
  if (journal_.is_open()) {
    obs::set_journal(nullptr);
    journal_.close();
  }
  if (!trace_out_) return std::nullopt;
  auto loaded = flight::load_journal(path_);
  if (!loaded) return "trace export: " + loaded.error();
  std::ofstream out(*trace_out_, std::ios::binary | std::ios::trunc);
  if (!(out << flight::chrome_trace(*loaded, obs::flight_snapshot()))) {
    return "cannot write " + *trace_out_;
  }
  std::fprintf(stderr, "[obs] wrote %s\n", trace_out_->c_str());
  return std::nullopt;
}

}  // namespace ranycast::tool
