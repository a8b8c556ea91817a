#include "ranycast/obs/report.hpp"

#include <cstdio>
#include <cstdlib>
#include <filesystem>

#include "ranycast/io/json.hpp"
#include "ranycast/obs/flight.hpp"
#include "ranycast/obs/span.hpp"
#include "ranycast/vfs/vfs.hpp"

namespace ranycast::obs {

namespace {

using CounterMap = std::map<std::string, std::uint64_t>;
using HistogramMap = std::map<std::string, Histogram::Snapshot>;

std::uint64_t counter_or_zero(const CounterMap& counters, const std::string& name) {
  const auto it = counters.find(name);
  return it == counters.end() ? 0 : it->second;
}

io::Json histogram_or_empty(const HistogramMap& histograms, const std::string& name) {
  const auto it = histograms.find(name);
  return io::to_json(it == histograms.end() ? Histogram::Snapshot{} : it->second);
}

/// A name -> value map as a JSON object.
template <class Map>
io::Json object_of(const Map& map) {
  io::JsonObject out;
  for (const auto& [name, value] : map) out.emplace(name, io::to_json(value));
  return io::Json(std::move(out));
}

io::Json report_json() {
  const auto& registry = MetricsRegistry::global();
  return io::Json(io::JsonObject{
      {"labels", object_of(registry.labels())},
      {"counters", object_of(registry.counters())},
      {"gauges", object_of(registry.gauges())},
      {"histograms", object_of(registry.histograms())},
      {"spans", object_of(span_aggregates())},
  });
}

}  // namespace

std::string json_report() { return report_json().dump(); }

std::string trace_ndjson() {
  std::string out;
  for (const TraceEvent& e : trace_events()) {
    out += io::to_json(e).dump();
    out += '\n';
  }
  return out;
}

std::string flight_ndjson() {
  std::string out;
  for (const FlightThreadSnapshot& t : flight_snapshot()) {
    for (const TraceEvent& e : t.events) {
      io::Json line = io::to_json(e);
      line.as_object().emplace("thread", t.name);
      out += line.dump();
      out += '\n';
    }
  }
  return out;
}

void reset_all() {
  MetricsRegistry::global().reset();
  clear_trace();
}

bool write_bench_report(std::string_view bench_name, double wall_ms) {
  if (!enabled()) return false;
  const auto& registry = MetricsRegistry::global();
  const CounterMap counters = registry.counters();
  const HistogramMap histograms = registry.histograms();
  const auto labels = registry.labels();

  // Fixed schema: every known key is present (zeroed when the bench never
  // exercised that subsystem) so trajectory tooling can diff runs blindly.
  const auto counter = [&counters](const std::string& name) {
    return io::Json(counter_or_zero(counters, name));
  };
  io::JsonObject solver{
      {"calls", counter("bgp.solve.calls")},
      {"nodes", counter("bgp.solve.nodes")},
      {"tiebreaks", io::Json(io::JsonObject{
                        {"hot_potato", counter("bgp.solve.select.hot_potato")},
                        {"hash", counter("bgp.solve.select.tiebreak_hash")},
                    })},
  };
  for (const char* stage : {"stage_customer_us", "stage_peer_us", "stage_provider_us",
                            "total_us"}) {
    solver.emplace(stage, histogram_or_empty(histograms, std::string("bgp.solve.") + stage));
  }
  io::JsonObject lab{
      {"create_calls", counter("lab.create.calls")},
      {"deployments", counter("lab.deployments")},
      {"regions_solved", counter("lab.regions_solved")},
  };
  for (const char* phase : {"topology_us", "census_us", "geodb_us", "total_us"}) {
    lab.emplace(phase, histogram_or_empty(histograms, std::string("lab.create.") + phase));
  }
  const auto preset = labels.find("bench.preset");
  const io::Json report(io::JsonObject{
      {"schema", "ranycast-bench-telemetry/1"},
      {"bench", std::string(bench_name)},
      {"preset", preset == labels.end() ? std::string("none") : preset->second},
      {"wall_ms", wall_ms},
      {"solver", io::Json(std::move(solver))},
      {"lab", io::Json(std::move(lab))},
      {"measurement", io::Json(io::JsonObject{
                          {"dns_lookup_calls", counter("lab.dns_lookup.calls")},
                          {"ping_calls", counter("lab.ping.calls")},
                          {"ping_unreachable", counter("lab.ping.unreachable")},
                          {"traceroute_calls", counter("lab.traceroute.calls")},
                          {"geodb_lookups", counter("dns.geodb.lookups")},
                          {"ping_rtt_ms", histogram_or_empty(histograms, "lab.ping.rtt_ms")},
                      })},
      {"metrics", report_json()},
  });
  const std::string out = report.dump() + "\n";

  // Telemetry routes to RANYCAST_OBS_DIR when set (created if missing), so
  // CI and bench runs can collect reports without cd'ing around.
  std::string path = "BENCH_" + std::string(bench_name) + ".json";
  if (const char* dir = std::getenv("RANYCAST_OBS_DIR"); dir != nullptr && *dir != '\0') {
    std::error_code ec;
    std::filesystem::create_directories(dir, ec);
    if (ec || !std::filesystem::is_directory(dir)) {
      std::fprintf(stderr, "[obs] RANYCAST_OBS_DIR='%s' cannot be created: %s\n", dir,
                   ec ? ec.message().c_str() : "not a directory");
      return false;
    }
    path = (std::filesystem::path(dir) / path).string();
  }
  // Atomic replace (tmp + fsync + rename + parent-dir fsync): a report file
  // is either the complete previous run or the complete new one, and a
  // crash never leaves a torn JSON for the collector to choke on.
  auto written = vfs::write_file_atomic(path, std::string_view(out));
  if (!written) {
    std::fprintf(stderr, "[obs] bench report write failed: %s\n",
                 written.error().to_string().c_str());
    return false;
  }
  return true;
}

}  // namespace ranycast::obs
