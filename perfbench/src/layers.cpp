// The per-layer metrics every traced workload derives the same way, and the
// zero fill for layers a workload does not reach.
#include "bench.hpp"
#include "ranycast/io/config.hpp"
#include "trace.hpp"

namespace perfbench {

void fill_declared_layers(const std::string& root, Report& report) {
  const auto bench = io::load_json(root + "/BENCHMARK.json");
  const io::Json* layers = bench ? bench->find("per_layer") : nullptr;
  if (layers == nullptr || !layers->is_array()) {
    report.check(false, "cannot read per_layer from " + root + "/BENCHMARK.json");
    return;
  }
  for (const io::Json& m : layers->as_array()) {
    report.layer_if_absent(m.string_or("name", ""), m.string_or("unit", ""));
  }
}

void emit_trace_layers(Report& report, const TraceAnalysis& a, double overhead_share) {
  report.check(a.dropped == 0, "the flight recorder dropped " + std::to_string(a.dropped) +
                                  " events, so the per-layer figures are incomplete");
  auto self_ms = [&](const char* span) {
    const auto it = a.by_name.find(span);
    return it == a.by_name.end() ? 0.0 : it->second.self_ns * 1e-6;
  };
  auto count = [&](const char* span) {
    const auto it = a.by_name.find(span);
    return it == a.by_name.end() ? 0.0 : static_cast<double>(it->second.count);
  };
  report.layer("bgp.solve.customer_ms", self_ms("bgp.solve.customer"), "ms");
  report.layer("bgp.solve.peer_ms", self_ms("bgp.solve.peer"), "ms");
  report.layer("bgp.solve.provider_ms", self_ms("bgp.solve.provider"), "ms");
  report.layer("bgp.solve.customer_count", count("bgp.solve.customer"), "count");
  report.layer("bgp.solve.peer_count", count("bgp.solve.peer"), "count");
  report.layer("bgp.solve.provider_count", count("bgp.solve.provider"), "count");
  report.layer("bgp.solve.delta_ms", self_ms("bgp.solve.delta"), "ms");

  for (const char* counter : {"bgp.solve.calls", "bgp.solve.nodes", "bgp.delta.affected_ases",
                              "chaos.delta.fallback_full"}) {
    report.layer(counter, obs_counter(counter), "count");
  }
  for (const char* layer : {"lab", "tangled", "bgp", "chaos", "serve"}) {
    report.layer(std::string(layer) + ".self_ms", a.layer_self_ms(layer), "ms");
  }
  report.layer("trace.unattributed_share",
               a.driving_ns > 0 ? a.unattributed_ns / a.driving_ns : 0.0, "ratio");
  report.layer("trace.overhead_share", overhead_share, "ratio");
  report.layer("trace.dropped_events", static_cast<double>(a.dropped), "count");
  report.layer("trace.spans", static_cast<double>(span_log_size()), "count");
}

}  // namespace perfbench
