// Shared pieces of the end-to-end benchmark: options, the result record each
// workload fills, output digests and small statistics helpers.
//
// A workload drives the ranycast libraries through their public headers
// only. It reports three kinds of numbers into a Report:
//   - end-to-end metrics (the ones BENCHMARK.json gates, untraced runs);
//   - per-layer metrics (traced runs);
//   - named figures ("paper.wall_s", "serve.p99_us", ...) printed for people
//     and kept in the result file, whichever mode ran.
// Failed checks are recorded with a message; any failure makes the run exit
// non-zero.
#pragma once

#include <algorithm>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "ranycast/io/json.hpp"

namespace perfbench {

namespace io = ranycast::io;

struct Options {
  std::string workload;
  std::uint64_t seed{1};
  double seconds{10.0};
  bool trace{false};
  /// Tiny worlds and short phases: exercises every code path and metric in a
  /// few seconds (the benchmark's own tests use it).
  bool quick{false};
  /// Directory for the result file, span log and trace export.
  std::string out_dir{"."};
  /// Repository root (scenario files are read from <root>/configs).
  std::string root{"."};
  /// Test hook: "flip-digest" or "forge-serve" corrupts one output after it
  /// was produced, so the benchmark's tests can prove the checks can fail.
  std::string inject;
};

struct Metric {
  double value{0.0};
  std::string unit;
};

class Report {
 public:
  void e2e(const std::string& name, double value, const std::string& unit) {
    e2e_[name] = {value, unit};
  }
  void layer(const std::string& name, double value, const std::string& unit) {
    layer_[name] = {value, unit};
  }
  void layer_if_absent(const std::string& name, const std::string& unit) {
    layer_.try_emplace(name, Metric{0.0, unit});
  }
  void figure(const std::string& name, double value, const std::string& unit) {
    figures_[name] = {value, unit};
  }
  void stamp(const std::string& key, io::Json value) { stamp_[key] = std::move(value); }
  void digest(const std::string& name, std::uint64_t value);
  void check(bool ok, const std::string& message) {
    if (!ok) failures_.push_back(message);
  }
  /// Busy threads the workload ran at most (asserted <= nproc).
  void threads_used(unsigned n) {
    threads_used_ = n;
    stamp("threads_used", static_cast<int>(n));
  }
  unsigned threads_used() const { return threads_used_; }
  void attempted(std::uint64_t n = 1) { attempted_ += n; }
  void failed(std::uint64_t n = 1) { failed_ += n; }

  bool has_failures() const { return !failures_.empty() || failed_ != 0; }

  io::Json to_json() const;
  /// Human-readable summary (stderr-friendly, one figure per line).
  std::string render() const;

 private:
  std::map<std::string, Metric> e2e_, layer_, figures_;
  std::map<std::string, std::string> digests_;
  io::JsonObject stamp_;
  std::vector<std::string> failures_;
  std::uint64_t attempted_{0};
  std::uint64_t failed_{0};
  unsigned threads_used_{0};
};

// ---- time ----

using Clock = std::chrono::steady_clock;

inline std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now().time_since_epoch())
          .count());
}

inline double seconds_between(std::uint64_t start_ns, std::uint64_t end_ns) {
  return static_cast<double>(end_ns - start_ns) * 1e-9;
}

// ---- statistics ----

/// Linear-interpolated quantile (q in [0,1]) of a sorted sample; 0 when
/// empty.
inline double sorted_quantile(const std::vector<double>& v, double q) {
  if (v.empty()) return 0.0;
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

/// The same of an unsorted sample.
inline double quantile(std::vector<double> v, double q) {
  std::sort(v.begin(), v.end());
  return sorted_quantile(v, q);
}

inline double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

// ---- digests ----

/// splitmix64 finalizer: derives independent seeds from (seed, index).
inline std::uint64_t mix(std::uint64_t a, std::uint64_t b) {
  std::uint64_t z = a + 0x9E3779B97F4A7C15ULL * (b + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

/// Order-sensitive hash over the exact bits of every answer fed to it
/// (doubles by their IEEE-754 representation, so one flipped RTT bit changes
/// the digest). One multiply per word: cheap enough to run inside the timed
/// loops.
class Digest {
 public:
  void u64(std::uint64_t v) {
    h_ = (h_ ^ v) * 0x9E3779B97F4A7C15ULL;
    h_ ^= h_ >> 29;
  }
  void f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }
  void str(std::string_view s) {
    for (const char c : s) u64(static_cast<unsigned char>(c));
    u64(s.size());
  }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_{0xCBF29CE484222325ULL};
};

std::string hex64(std::uint64_t v);

/// Write a whole file; false on any I/O error.
bool write_text(const std::string& path, std::string_view text);

/// The global pool's accumulated busy time at one instant (busy time only
/// accumulates while obs is on, i.e. in traced phases).
struct PoolMark {
  std::uint64_t busy_ns{0};
  std::uint64_t at_ns{0};
  static PoolMark now();
  /// Busy time between the two marks / (workers x wall time).
  double share_until(const PoolMark& end) const;
};

/// Peak resident set of the process (VmHWM) in MB.
double peak_rss_mb();

// ---- workloads ----

void run_paper(const Options& opt, Report& report);
void run_chaos72k(const Options& opt, Report& report);
void run_serve(const Options& opt, Report& report);

}  // namespace perfbench
