// perfbench — the end-to-end benchmark executable.
//
//   perfbench --workload paper|chaos72k|serve --seed N --seconds S
//             [--trace 0|1] [--quick] [--out-dir DIR] [--root DIR]
//             [--inject flip-digest|forge-serve]
//
// Runs one workload, prints a human-readable summary on stdout and writes
// <out-dir>/result.json (metrics, named figures, digests, environment stamp,
// failed checks). Exit code 0 when every check passed, 1 when one failed, 2
// on bad usage or an unoptimised build. perfbench/run.py wraps this binary:
// it builds it, compares digests with the recorded ones and prints the
// one-line result. See perfbench/README.md.
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>

#include "bench.hpp"
#include "ranycast/exec/pool.hpp"
#include "ranycast/obs/flight.hpp"
#include "trace.hpp"

namespace perfbench {

void Report::digest(const std::string& name, std::uint64_t value) {
  digests_[name] = hex64(value);
}

io::Json Report::to_json() const {
  auto metrics = [](const std::map<std::string, Metric>& m) {
    io::JsonObject o;
    for (const auto& [name, metric] : m) {
      o[name] = io::Json(io::JsonObject{{"value", metric.value}, {"unit", metric.unit}});
    }
    return io::Json(std::move(o));
  };
  io::JsonObject digests;
  for (const auto& [name, value] : digests_) digests[name] = value;
  io::JsonArray failures;
  for (const std::string& f : failures_) failures.emplace_back(f);
  return io::Json(io::JsonObject{
      {"end_to_end", metrics(e2e_)},
      {"per_layer", metrics(layer_)},
      {"figures", metrics(figures_)},
      {"digests", io::Json(std::move(digests))},
      {"stamp", io::Json(stamp_)},
      {"failures", io::Json(std::move(failures))},
      {"attempted", static_cast<double>(attempted_)},
      {"failed", static_cast<double>(failed_)},
  });
}

std::string Report::render() const {
  std::string out;
  char line[256];
  auto section = [&](const char* title, const std::map<std::string, Metric>& m) {
    if (m.empty()) return;
    out += title;
    out += '\n';
    for (const auto& [name, metric] : m) {
      std::snprintf(line, sizeof line, "  %-36s %16.6g %s\n", name.c_str(), metric.value,
                    metric.unit.c_str());
      out += line;
    }
  };
  section("end-to-end:", e2e_);
  section("figures:", figures_);
  section("per-layer:", layer_);
  for (const std::string& f : failures_) out += "CHECK FAILED: " + f + "\n";
  return out;
}

std::string hex64(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

bool write_text(const std::string& path, std::string_view text) {
  std::ofstream f(path, std::ios::binary | std::ios::trunc);
  f.write(text.data(), static_cast<std::streamsize>(text.size()));
  f.close();
  return static_cast<bool>(f);
}

PoolMark PoolMark::now() {
  PoolMark m;
  for (const auto& w : ranycast::exec::ThreadPool::global().worker_stats()) m.busy_ns += w.busy_ns;
  m.at_ns = now_ns();
  return m;
}

double PoolMark::share_until(const PoolMark& end) const {
  const double workers = ranycast::exec::ThreadPool::global().worker_count();
  const double wall = static_cast<double>(end.at_ns - at_ns);
  return wall <= 0.0 ? 0.0 : static_cast<double>(end.busy_ns - busy_ns) / (workers * wall);
}

double peak_rss_mb() { return static_cast<double>(obs::rss_high_water_kb()) / 1024.0; }

}  // namespace perfbench

namespace {

int usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\n"
               "usage: perfbench --workload paper|chaos72k|serve --seed N --seconds S\n"
               "                 [--trace 0|1] [--quick] [--out-dir DIR] [--root DIR]\n"
               "                 [--inject flip-digest|forge-serve]\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace perfbench;
#ifndef __OPTIMIZE__
  std::fprintf(stderr, "perfbench: refusing to measure an unoptimised build (%s)\n",
               PERFBENCH_BUILD_TYPE);
  return 2;
#endif
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) return {};
      return argv[++i];
    };
    if (arg == "--workload") {
      opt.workload = value();
    } else if (arg == "--seed") {
      opt.seed = std::strtoull(value().c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      opt.seconds = std::strtod(value().c_str(), nullptr);
    } else if (arg == "--trace") {
      opt.trace = value() == "1";
    } else if (arg == "--quick") {
      opt.quick = true;
    } else if (arg == "--out-dir") {
      opt.out_dir = value();
    } else if (arg == "--root") {
      opt.root = value();
    } else if (arg == "--inject") {
      opt.inject = value();
    } else {
      return usage(("unknown argument " + arg).c_str());
    }
  }
  if (!(opt.seconds > 0.0)) return usage("--seconds must be positive");
  if (!opt.inject.empty() && opt.inject != "flip-digest" && opt.inject != "forge-serve") {
    return usage("--inject takes flip-digest or forge-serve");
  }
  std::error_code ec;
  std::filesystem::create_directories(opt.out_dir, ec);

  void (*run)(const Options&, Report&) = nullptr;
  if (opt.workload == "paper") run = run_paper;
  if (opt.workload == "chaos72k") run = run_chaos72k;
  if (opt.workload == "serve") run = run_serve;
  if (run == nullptr) return usage("--workload must be paper, chaos72k or serve");

  const unsigned nproc = std::max(1u, std::thread::hardware_concurrency());
  Report report;
  report.stamp("workload", opt.workload);
  report.stamp("seed", static_cast<double>(opt.seed));
  report.stamp("seconds", opt.seconds);
  report.stamp("trace", opt.trace);
  report.stamp("quick", opt.quick);
  report.stamp("nproc", static_cast<int>(nproc));
  report.stamp("build_type", PERFBENCH_BUILD_TYPE);
  report.stamp("compiler", PERFBENCH_COMPILER);

  obs::set_thread_name("bench.main");
  set_tracing(false);
  if (opt.trace) obs::set_flight_capacity(std::size_t{1} << 18);
  run(opt, report);
  if (opt.trace) fill_declared_layers(opt.root, report);

  const unsigned threads_used = report.threads_used();
  report.check(threads_used >= 1 && threads_used <= nproc,
               "busy threads " + std::to_string(threads_used) + " exceed nproc " +
                   std::to_string(nproc));
  report.stamp("pool_workers",
               static_cast<int>(ranycast::exec::ThreadPool::global().worker_count()));
  if (opt.trace) {
    // Spans are held in memory during the run and written once, here.
    const std::string spans = opt.out_dir + "/spans.ndjson";
    const std::string trace = opt.out_dir + "/trace.json";
    report.check(write_span_log(spans) >= 0, "cannot write " + spans);
    report.check(write_chrome_trace(trace), "cannot write " + trace);
    report.stamp("span_log", spans);
    report.stamp("chrome_trace", trace);
  }

  std::printf("%s", report.render().c_str());
  const std::string path = opt.out_dir + "/result.json";
  if (!write_text(path, report.to_json().dump(1) + "\n")) {
    std::fprintf(stderr, "perfbench: cannot write %s\n", path.c_str());
    return 1;
  }
  return report.has_failures() ? 1 : 0;
}
