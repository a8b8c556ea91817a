// Workload `chaos72k`: paper-scale chaos. One Lab at 72,000 stub ASes with
// Imperva-6 deployed (set-up), then two committed scenarios through
// chaos::Engine::run with the delta re-solver on:
//   configs/chaos_cascade.json;
//   configs/chaos_overload.json on a fresh engine, with its traffic block
//   and the transient convergence plane (default converge::Config).
// This is where the solver's provider stage, the delta frontier, the
// converge plane's cold start and the traffic solve do their work. Each
// iteration rebuilds the same world from the seed; both reports must digest
// identically on every iteration.
//
// The gated wall_s is the time of both runs, less the CPU time the host took
// away, scaled by a memory probe that walks main memory (see probe.hpp); the
// raw times are the chaos.cascade_s and chaos.overload_s figures.
#include <thread>

#include "bench.hpp"
#include "probe.hpp"
#include "ranycast/cdn/catalog.hpp"
#include "ranycast/chaos/engine.hpp"
#include "ranycast/chaos/scenario.hpp"
#include "ranycast/exec/pool.hpp"
#include "trace.hpp"

namespace perfbench {

using namespace ranycast;

namespace {

// The memory probe here walks 2^25 entries (128 MB), out of the shared
// cache: an iteration's 550 MB live mostly in main memory. The probe walks
// before set-up, between the two plans and after them, and the fastest of
// the three scales the iteration: interference only ever slows a walk, so
// the fastest is the truest reading of the memory system's speed. Over 27
// iterations, log run time against log fastest walk had slope 0.89 and
// correlation 0.74 (0.59 with the mean of the walks). The walk takes about
// kDramWalkRefS on a quiet 4-core VM.
constexpr std::uint32_t kDramWalkEntries = std::uint32_t{1} << 25;
constexpr double kDramWalkRefS = 0.08;

struct Scenarios {
  chaos::FaultPlan cascade;
  chaos::FaultPlan overload;
  traffic::TrafficConfig traffic;
};

std::optional<Scenarios> load_scenarios(const Options& opt, Report& report) {
  const std::string dir = opt.root + "/configs/";
  auto cascade = chaos::load_plan(dir + "chaos_cascade.json");
  auto overload_json = io::load_json(dir + "chaos_overload.json");
  if (!cascade || !overload_json) {
    report.check(false, "cannot load the chaos scenarios: " +
                            (!cascade ? cascade.error().to_string()
                                      : overload_json.error().to_string()));
    return std::nullopt;
  }
  auto overload = chaos::plan_from_json(*overload_json, dir + "chaos_overload.json");
  auto traffic = chaos::traffic_from_scenario(*overload_json, dir + "chaos_overload.json");
  if (!overload || !traffic || !*traffic) {
    report.check(false, "configs/chaos_overload.json: plan or traffic block missing");
    return std::nullopt;
  }
  return Scenarios{std::move(*cascade), std::move(*overload), **traffic};
}

/// One Engine::run of one plan.
struct PlanRun {
  double seconds{0.0};
  double stolen_s{0.0};              ///< host_stolen_s() over the run
  double busy_share{0.0};            ///< pool busy time / (workers x wall)
  std::uint64_t from{0}, to{0};      ///< obs::trace_now_ns window of the run
};

struct Iteration {
  double setup_s{0.0};
  double walk_s{0.0};  ///< the fastest of the iteration's memory-probe walks
  PlanRun cascade, overload;
  std::uint64_t digest{0};
  std::size_t planned{0};
  std::size_t completed{0};
  std::string error;
  std::size_t ases{0};
};

/// One iteration; `probe`, when given, walks before set-up, between the two
/// plans and after them.
Iteration run_iteration(const Options& opt, const Scenarios& sc, std::size_t index,
                        MemoryProbe* probe) {
  Iteration it;
  std::vector<double> walks;
  auto walk = [&] {
    if (probe != nullptr) walks.push_back(probe->walk_s());
  };
  walk();
  RequestScope request(index + 1);
  Span root("bench.iteration");
  lab::LabConfig cfg;
  cfg.world.stub_count = opt.quick ? 600 : 72000;
  if (opt.quick) cfg.census.total_probes = 1500;
  cfg.seed = mix(opt.seed, 0);
  cfg.world.seed = mix(cfg.seed, 1);
  cfg.census.seed = mix(cfg.seed, 2);

  const std::uint64_t setup_start = now_ns();
  auto laboratory = [&] {
    Span span("api.lab.create");
    return lab::Lab::create(cfg);
  }();
  const lab::DeploymentHandle& handle = [&]() -> const lab::DeploymentHandle& {
    Span span("api.lab.add_deployment");
    return laboratory.add_deployment(cdn::catalog::imperva6());
  }();
  it.setup_s = seconds_between(setup_start, now_ns());
  it.ases = laboratory.world().graph.nodes().size();

  bgp::DeltaConfig delta;
  delta.enabled = true;
  Digest digest;
  auto run = [&](chaos::Engine& engine, const chaos::FaultPlan& plan, const char* span_name,
                 PlanRun& out) {
    out.from = obs::trace_now_ns();
    const PoolMark start = PoolMark::now();
    const double stolen_start = host_stolen_s();
    core::Expected<chaos::ChaosReport, std::string> report = [&] {
      Span span(span_name);
      return engine.run(plan);
    }();
    const PoolMark end = PoolMark::now();
    out.to = obs::trace_now_ns();
    out.seconds = seconds_between(start.at_ns, end.at_ns);
    out.stolen_s = host_stolen_s() - stolen_start;
    out.busy_share = start.share_until(end);
    it.planned += plan.events.size();
    if (!report) {
      it.error = report.error();
      return;
    }
    it.completed += report->truncated ? 0 : report->completed_steps;
    digest.str(chaos::report_to_json(*report).dump());
  };

  {
    chaos::Engine engine(laboratory, handle);
    engine.enable_delta(delta);
    run(engine, sc.cascade, "api.chaos.run_cascade", it.cascade);
  }
  walk();
  {
    chaos::Engine engine(laboratory, handle);
    engine.enable_delta(delta);
    engine.enable_traffic(sc.traffic);
    engine.enable_transient(converge::Config{});
    run(engine, sc.overload, "api.chaos.run_overload", it.overload);
  }
  walk();
  it.digest = digest.value();
  if (!walks.empty()) it.walk_s = *std::min_element(walks.begin(), walks.end());
  return it;
}

/// Durations (ms) of the chaos.step spans recorded during one plan run.
std::vector<double> step_ms(const std::vector<obs::TraceEvent>& events, const PlanRun& run) {
  std::vector<double> out;
  for (const obs::TraceEvent& e : events) {
    if (e.name == "chaos.step" && e.start_ns >= run.from && e.start_ns + e.dur_ns <= run.to) {
      out.push_back(static_cast<double>(e.dur_ns) * 1e-6);
    }
  }
  return out;
}

}  // namespace

void run_chaos72k(const Options& opt, Report& report) {
  const unsigned nproc = std::max(1u, std::thread::hardware_concurrency());
  MemoryProbe probe(kDramWalkEntries);  // forked before the pool's threads start
  exec::ThreadPool::global().resize(nproc);
  report.threads_used(nproc);
  const auto sc = load_scenarios(opt, report);
  if (!sc) return;

  // A traced run traces iteration 1 only: iteration 0 pays the process's
  // cold start, and the untraced ones around it give the overhead figure.
  constexpr std::size_t kTraced = 1;
  const std::size_t min_runs = opt.trace ? 3 : 2;
  const std::uint64_t deadline = now_ns() + static_cast<std::uint64_t>(opt.seconds * 1e9);
  std::vector<Iteration> runs;
  for (std::size_t i = 0;; ++i) {
    const bool traced = opt.trace && i == kTraced;
    set_tracing(traced);
    runs.push_back(run_iteration(opt, *sc, i, traced ? nullptr : &probe));
    set_tracing(false);
    if (!runs.back().error.empty()) break;
    if (runs.size() >= min_runs && now_ns() >= deadline) break;
  }

  std::vector<double> setup, wall, scaled, walks, cascade, overload;
  std::size_t planned = 0, completed = 0;
  for (std::size_t i = 0; i < runs.size(); ++i) {
    const Iteration& r = runs[i];
    report.check(r.error.empty(), "chaos run failed: " + r.error);
    report.check(r.completed == r.planned,
                 "chaos completed " + std::to_string(r.completed) + " of " +
                     std::to_string(r.planned) + " planned steps");
    report.check(r.digest == runs[0].digest, "chaos report digest differs between repeats");
    planned += r.planned;
    completed += r.completed;
    if (opt.trace && i == kTraced) continue;
    setup.push_back(r.setup_s);
    wall.push_back(r.cascade.seconds + r.overload.seconds);
    const double stolen = (r.cascade.stolen_s + r.overload.stolen_s) / nproc;
    scaled.push_back((wall.back() - stolen) * kDramWalkRefS / r.walk_s);
    walks.push_back(r.walk_s);
    cascade.push_back(r.cascade.seconds);
    overload.push_back(r.overload.seconds);
  }
  report.attempted(planned);
  report.failed(planned - completed);
  report.digest("chaos72k.reports", runs[0].digest ^ (opt.inject == "flip-digest" ? 1 : 0));
  report.stamp("stubs", opt.quick ? 600 : 72000);
  report.stamp("iterations", static_cast<int>(runs.size()));

  const bool walked = std::all_of(walks.begin(), walks.end(), [](double w) { return w > 0.0; });
  report.check(walked, "the memory probe's child process failed");
  report.e2e("setup_s", median(setup), "s");
  report.e2e("wall_s", walked ? median(scaled) : median(wall), "s");
  report.e2e("peak_rss_mb", peak_rss_mb(), "MB");
  report.figure("chaos.cascade_s", median(cascade), "s");
  report.figure("chaos.overload_s", median(overload), "s");
  report.figure("chaos.memory_walk_s", median(walks), "s");
  report.figure("fail_share",
                planned == 0 ? 0.0 : static_cast<double>(planned - completed) / planned,
                "ratio");

  if (!opt.trace || runs.size() <= kTraced) return;  // no traced iteration ran
  const Iteration& t = runs[kTraced];
  const TraceAnalysis a = analyze_trace(0.0);
  emit_trace_layers(report, a, (t.cascade.seconds + t.overload.seconds) / median(wall) - 1.0);
  report.layer("lab.create_ms", a.median_ms("api.lab.create"), "ms");
  report.layer("lab.add_deployment_ms", a.median_ms("api.lab.add_deployment"), "ms");
  report.layer("lab.add_deployment_count", 1, "count");
  const std::vector<obs::TraceEvent> events = obs::trace_events();
  const auto cascade_steps = step_ms(events, t.cascade);
  const auto overload_steps = step_ms(events, t.overload);
  report.layer("chaos.step_p50_ms.cascade", median(cascade_steps), "ms");
  report.layer("chaos.step_max_ms.cascade", quantile(cascade_steps, 1.0), "ms");
  report.layer("chaos.step_p50_ms.overload", median(overload_steps), "ms");
  report.layer("chaos.step_max_ms.overload", quantile(overload_steps, 1.0), "ms");
  report.layer("chaos.cascade_s", t.cascade.seconds, "s");
  report.layer("chaos.overload_s", t.overload.seconds, "s");
  report.layer("exec.pool_busy_share.cascade", t.cascade.busy_share, "ratio");
  report.layer("exec.pool_busy_share.overload", t.overload.busy_share, "ratio");
  report.layer("exec.pool_busy_share",
               (t.cascade.busy_share * t.cascade.seconds +
                t.overload.busy_share * t.overload.seconds) /
                   (t.cascade.seconds + t.overload.seconds),
               "ratio");
  const double resolves = obs_counter("bgp.delta.resolves");
  report.layer("bgp.delta.affected_share",
               resolves == 0 ? 0.0
                             : obs_counter("bgp.delta.affected_ases") /
                                   (static_cast<double>(t.ases) * resolves),
               "ratio");
}

}  // namespace perfbench
