// ranycast-chaos — run a fault-injection scenario against a deployment.
//
//   ranycast-chaos --scenario FILE [--config FILE] [--cdn NAME] [--stubs N]
//                  [--probes N] [--seed N] [--format table|json] [--out FILE]
//                  [--describe] [--obs] [--journal FILE] [--trace-out FILE]
//                  [--transient] [--mrai-ms N] [--proc-ms N] [--damping]
//                  [--dns-ttl-ms N] [--max-events N]
//                  [--traffic] [--traffic-policy spill|shed]
//                  [--traffic-capacity-mbps N] [--traffic-scale X]
//                  [--delta] [--delta-verify N] [--delta-threshold X]
//                  [--deadline SECONDS] [--stall-timeout SECONDS]
//                  [--checkpoint FILE] [--checkpoint-every K] [--checkpoint-keep K] [--resume]
//                  [--abort-after N]
//
// Loads a JSON fault plan (schema in docs/resilience.md), builds a
// laboratory, deploys the chosen CDN and applies the plan step by step,
// printing one impact row (or JSON object) per fault event. All failure
// modes — unreadable scenario, syntax error, bad field, unappliable event —
// print an actionable message to stderr and exit 2.
//
// The run is fully deterministic: the same --seed and scenario produce a
// byte-identical JSON report. --obs additionally writes BENCH_chaos.json
// telemetry (timings live there, never in the report).
//
// --transient additionally runs every step through the event-driven BGP
// convergence plane (docs/convergence.md): the report gains per-step
// blackhole windows, transient loops, interim catchment flips and the time
// to reconverge, and the table output a second "transient convergence"
// section. --mrai-ms / --proc-ms / --damping / --dns-ttl-ms / --max-events
// tune the plane's timers.
//
// --traffic runs every step through the flow-level load plane
// (docs/traffic.md): the report gains per-site utilization, shed/dropped
// flow and cascade-depth accounting, and the table output a "traffic"
// section plus the final per-site serving state. The scenario file may
// declare a "traffic" block with the full model; the flags enable it with
// defaults and override its policy / default capacity / demand scale.
//
// --delta re-solves each step through the incremental delta solver
// (docs/performance.md, "Incremental re-solve"): only the ASes the fault
// can affect re-decide, with identical reports, checkpoints and resume
// fingerprints — an optimization knob, never a semantic one.
// --delta-verify N additionally re-solves from scratch every Nth region
// resolve and compares; --delta-threshold X sets the fallback-to-full
// frontier fraction (default 0.25). Either flag implies --delta.
//
// Every run goes through the supervised step loop (docs/reliability.md), so
// SIGTERM/SIGINT stop it at the next step boundary with a truncated report
// and exit 3. Guard flags configure the supervisor: --deadline time-boxes
// the run (a truncated report is still emitted, with
// completed-vs-planned accounting, and the tool exits 3), --checkpoint
// persists progress every K steps so a killed run can be continued with
// --resume — the resumed report is byte-identical to an uninterrupted one.
// --abort-after N hard-kills the process (as SIGKILL would) after N
// completed steps; it exists for crash-recovery tests and CI.
//
// --journal FILE appends the structured NDJSON run journal (run_manifest,
// phase markers, one chaos_step per measured step, transient_window under
// --transient, traffic_step under --traffic, checkpoint/resumed/stopped
// from guard), fsync'd at step
// granularity — readable up to the last completed step after SIGKILL.
// --trace-out FILE additionally converts journal + flight recorder into
// Chrome traceEvents JSON for ui.perfetto.dev (docs/observability.md);
// both flags imply --obs.
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>

#include "ranycast/analysis/table.hpp"
#include "ranycast/chaos/engine.hpp"
#include "ranycast/chaos/scenario.hpp"
#include "ranycast/core/flags.hpp"
#include "ranycast/guard/cli.hpp"
#include "ranycast/io/config.hpp"
#include "ranycast/obs/journal.hpp"
#include "ranycast/obs/metrics.hpp"
#include "ranycast/obs/report.hpp"
#include "ranycast/traffic/config.hpp"
#include "tool_cli.hpp"

using namespace ranycast;

namespace {

std::string render_transient_table(const chaos::ChaosReport& report) {
  analysis::TextTable table({"#", "event", "blackholed", "looped", "flipped", "reconv p50",
                             "reconv p90", "dark p50", "dark max", "steady", "oscill"});
  for (const converge::StepTransient& t : report.transient) {
    table.add_row({std::to_string(t.index), t.event,
                   analysis::fmt_count(t.probes_blackholed),
                   analysis::fmt_count(t.probes_looped),
                   analysis::fmt_count(t.probes_flipped),
                   analysis::fmt_ms(t.reconverge_p50_ms),
                   analysis::fmt_ms(t.reconverge_p90_ms),
                   analysis::fmt_ms(t.blackhole_p50_ms),
                   analysis::fmt_ms(t.blackhole_max_ms),
                   t.matches_steady ? "yes" : "NO",
                   t.oscillating ? "YES" : "no"});
  }
  return table.render();
}

std::string render_traffic_table(const chaos::ChaosReport& report) {
  analysis::TextTable table({"#", "event", "offered", "served", "shed", "dropped",
                             "util max", "hot", "tipped", "cascade", "q p90",
                             "p50+q"});
  for (const traffic::StepTraffic& t : report.traffic) {
    table.add_row({std::to_string(t.index), t.event,
                   analysis::fmt_ms(t.solve.offered_mbps, 0),
                   analysis::fmt_ms(t.solve.served_mbps, 0),
                   analysis::fmt_count(t.solve.flows_shed),
                   analysis::fmt_count(t.solve.flows_dropped),
                   analysis::fmt_pct(t.solve.max_utilization),
                   analysis::fmt_count(t.solve.overloaded_sites),
                   analysis::fmt_count(t.tipped_sites),
                   analysis::fmt_count(t.cascade_depth),
                   analysis::fmt_ms(t.solve.queue_delay_p90_ms, 2),
                   analysis::fmt_ms(t.inflated_p50_ms)});
  }
  return table.render();
}

/// Final serving state, one row per site. Utilization and queueing delay of
/// a zero-capacity site are undefined, not zero — rendered as `n/a`.
std::string render_site_table(const traffic::TrafficSolve& solve) {
  analysis::TextTable table({"site", "cap mbps", "offered", "served", "shed out",
                             "dropped", "util", "q delay", "hot"});
  for (std::size_t i = 0; i < solve.sites.size(); ++i) {
    const traffic::SiteLoad& s = solve.sites[i];
    const bool has_capacity = s.capacity_mbps > 0.0;
    table.add_row({std::to_string(i), analysis::fmt_ms(s.capacity_mbps, 0),
                   analysis::fmt_ms(s.offered_mbps, 0), analysis::fmt_ms(s.served_mbps, 0),
                   analysis::fmt_count(s.flows_shed_out),
                   analysis::fmt_count(s.flows_dropped),
                   has_capacity ? analysis::fmt_pct(s.utilization) : "n/a",
                   has_capacity ? analysis::fmt_ms(s.queue_delay_ms, 2) : "n/a",
                   s.overloaded ? "YES" : "no"});
  }
  return table.render();
}

std::string render_table(const chaos::ChaosReport& report) {
  analysis::TextTable table({"#", "event", "affected", "survive", "churn", "p50 before",
                             "p50 after", "in-area", "x-region", "dns-degraded",
                             "lost-pings"});
  for (const chaos::StepReport& s : report.steps) {
    table.add_row({std::to_string(s.index), s.event,
                   analysis::fmt_count(s.affected_probes),
                   analysis::fmt_pct(s.survival_rate()), analysis::fmt_pct(s.churn()),
                   analysis::fmt_ms(s.before_p50_ms), analysis::fmt_ms(s.after_p50_ms),
                   analysis::fmt_count(s.failover_in_region),
                   analysis::fmt_count(s.cross_region),
                   analysis::fmt_count(s.degraded_dns_answers),
                   analysis::fmt_count(s.lost_pings)});
  }
  return table.render();
}

}  // namespace

int main(int argc, char** argv) {
  const auto start = std::chrono::steady_clock::now();
  const flags::Parser args(argc, argv);
  for (const auto& bad : args.unknown(guard::with_guard_flags(
           {"scenario", "config", "cdn", "stubs", "probes", "seed", "format", "out",
            "describe", "obs", "journal", "trace-out", "transient", "mrai-ms", "proc-ms",
            "damping", "dns-ttl-ms", "max-events", "traffic", "traffic-policy",
            "traffic-capacity-mbps", "traffic-scale", "delta", "delta-verify",
            "delta-threshold"}))) {
    return tool::fail("unknown flag --" + bad);
  }
  const std::string format = args.get_or("format", std::string("table"));
  if (format != "table" && format != "json") {
    return tool::fail("unknown format '" + format + "' (table|json)");
  }
  const auto scenario_path = args.get("scenario");
  if (!scenario_path) return tool::fail("--scenario FILE is required");
  auto scenario_json = io::load_json(*scenario_path);
  if (!scenario_json) return tool::fail("scenario error: " + scenario_json.error().to_string());
  auto plan = chaos::plan_from_json(*scenario_json, *scenario_path);
  if (!plan) return tool::fail("scenario error: " + plan.error().to_string());
  auto scenario_traffic = chaos::traffic_from_scenario(*scenario_json, *scenario_path);
  if (!scenario_traffic) {
    return tool::fail("scenario error: " + scenario_traffic.error().to_string());
  }
  std::optional<traffic::TrafficConfig> traffic_cfg = std::move(*scenario_traffic);
  const bool traffic_flags = args.has("traffic") || args.has("traffic-policy") ||
                             args.has("traffic-capacity-mbps") ||
                             args.has("traffic-scale");
  if (traffic_flags && !traffic_cfg) traffic_cfg.emplace();
  if (traffic_cfg) {
    if (const auto err = tool::bind_traffic_flags(args, *traffic_cfg, *scenario_path)) {
      return tool::fail(*err);
    }
  }
  if (args.has("describe")) {
    std::printf("plan '%s' (%zu events)\n", plan->name.c_str(), plan->events.size());
    for (std::size_t i = 0; i < plan->events.size(); ++i) {
      std::printf("  %2zu  %s\n", i, chaos::describe(plan->events[i]).c_str());
    }
    return 0;
  }

  const std::string cdn_name = args.get_or("cdn", std::string("imperva6"));
  const auto spec = tool::spec_by_name(cdn_name);
  if (!spec) return tool::fail("unknown CDN '" + cdn_name + "'");
  const auto config = tool::bind_lab_flags(args);
  if (!config) return tool::fail(config.error());

  tool::RunJournal journal;
  if (const auto err = journal.open(args)) return tool::fail(*err);
  obs::MetricsRegistry::global().set_label("tool", "ranycast-chaos");
  obs::MetricsRegistry::global().set_label("chaos.plan", plan->name);

  obs::journal_event(
      "run_manifest",
      {{"tool", "ranycast-chaos"},
       {"scenario", *scenario_path},
       {"plan", plan->name},
       {"cdn", cdn_name},
       {"stubs", static_cast<std::uint64_t>(config->world.stub_count)},
       {"probes", static_cast<std::uint64_t>(config->census.total_probes)},
       {"seed", config->seed},
       {"planned_steps", plan->events.size()},
       {"transient", args.has("transient")},
       {"traffic", traffic_cfg.has_value()},
       {"delta", args.has("delta") || args.has("delta-verify") || args.has("delta-threshold")},
       {"resume", args.has("resume")}},
      /*durable=*/true);

  obs::journal_event("phase_begin", {{"phase", "lab.build"}});
  auto laboratory = lab::Lab::create(*config);
  const auto& handle = laboratory.add_deployment(*spec);
  chaos::Engine engine(laboratory, handle);
  obs::journal_event("phase_end", {{"phase", "lab.build"}}, /*durable=*/true);

  if (args.has("transient")) {
    converge::Config ccfg;
    ccfg.timers.mrai_us =
        static_cast<std::uint64_t>(args.get_or("mrai-ms", std::int64_t{5000})) * 1000;
    ccfg.timers.proc_delay_us =
        static_cast<std::uint64_t>(args.get_or("proc-ms", std::int64_t{10})) * 1000;
    ccfg.damping.enabled = args.has("damping");
    ccfg.dns_failover_us =
        static_cast<std::uint64_t>(args.get_or("dns-ttl-ms", std::int64_t{30000})) * 1000;
    ccfg.max_events = static_cast<std::uint64_t>(args.get_or("max-events", std::int64_t{0}));
    engine.enable_transient(ccfg);
  }
  if (traffic_cfg) engine.enable_traffic(*traffic_cfg);
  // --delta switches the step re-solves to the incremental solver; purely
  // an optimization, so reports/checkpoints are byte-identical either way
  // (which is exactly what tests/chaos/test_delta_soak.cpp asserts).
  if (args.has("delta") || args.has("delta-verify") || args.has("delta-threshold")) {
    bgp::DeltaConfig dcfg;
    dcfg.enabled = true;
    dcfg.verify_every =
        static_cast<std::uint32_t>(args.get_or("delta-verify", std::int64_t{0}));
    dcfg.fallback_frac = args.get_or("delta-threshold", dcfg.fallback_frac);
    engine.enable_delta(dcfg);
  }

  const auto guarded = guard::bind_guard_flags(args);
  if (!guarded) return tool::fail(guarded.error());
  obs::journal_event("phase_begin", {{"phase", "chaos.run"}});
  const guard::CheckpointPolicy& policy = guarded->policy;
  guard::Supervisor supervisor(guarded->limits);
  // SIGTERM/SIGINT stop the timeline cooperatively at the next step
  // boundary: the sweep flushes a final checkpoint (under --checkpoint) plus
  // the `stopped` journal line and the tool exits 3 with a truncated report.
  const guard::ScopedSignalCancel signal_cancel(supervisor);
  auto outcome = engine.run_guarded(*plan, supervisor, policy);
  if (!outcome) return tool::fail("chaos error: " + outcome.error());
  tool::note_sweep(outcome->sweep, policy.path, "step");
  const chaos::ChaosReport& report = outcome->report;
  const bool truncated = report.truncated;
  obs::journal_event("phase_end",
                     {{"phase", "chaos.run"},
                      {"completed_steps", report.completed_steps},
                      {"truncated", truncated}},
                     /*durable=*/true);

  std::string rendered = format == "json" ? chaos::report_to_json(report).dump(2) + "\n"
                                          : render_table(report);
  if (format == "table" && !report.transient.empty()) {
    rendered += "\ntransient convergence\n" + render_transient_table(report);
  }
  if (format == "table" && !report.traffic.empty()) {
    rendered += "\ntraffic (" + std::string(traffic::to_string(traffic_cfg->policy)) +
                ")\n" + render_traffic_table(report);
    rendered += "\nfinal serving state\n" + render_site_table(report.traffic.back().solve);
  }
  if (const auto out_path = args.get("out")) {
    std::ofstream out(*out_path, std::ios::binary);
    if (!out) return tool::fail("cannot write " + *out_path);
    out << rendered;
  } else {
    std::fputs(rendered.c_str(), stdout);
  }

  if (const auto err = journal.close()) return tool::fail(*err);

  if (obs::enabled() && args.has("obs")) {
    const double wall_ms =
        std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - start)
            .count();
    if (obs::write_bench_report("chaos", wall_ms)) {
      std::fprintf(stderr, "[obs] wrote BENCH_chaos.json\n");
    }
  }
  return truncated ? 3 : 0;
}
