// The benchmark's tracing: spans around every call into a layer, recorded
// from the benchmark's own files on top of the obs span API.
//
// perfbench::Span opens an obs::Span (so the flight recorder, the Perfetto
// export and the spans the program records itself — bgp.solve.*, lab.*,
// chaos.step — nest under it) and also appends {id, parent, request, name,
// start, end, thread} to an in-memory log that is written out when the run
// ends. Naming: "api.<layer>.<call>" wraps one public call into <layer>;
// "bench.<...>" groups the benchmark's own work (its self time is what the
// trace cannot attribute to a layer).
//
// Calls too hot to span one by one (scalar dns_lookup/ping, serve
// query/pin) are timed into a LogHistogram instead, and the workload
// attributes their time to their layer.
//
// Everything here is a no-op (no clock read) while tracing is off, which is
// how the end-to-end runs go.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "ranycast/obs/span.hpp"

namespace perfbench {

namespace obs = ranycast::obs;

class Report;

bool tracing() noexcept;
/// Switches the benchmark's spans and the program's obs layer together.
void set_tracing(bool on);

/// Request id carried by spans opened on this thread while the scope lives
/// (one paper world, one chaos iteration, one serve client).
class RequestScope {
 public:
  explicit RequestScope(std::uint64_t request) noexcept;
  ~RequestScope();
  RequestScope(const RequestScope&) = delete;
  RequestScope& operator=(const RequestScope&) = delete;

 private:
  std::uint64_t previous_;
};

class Span {
 public:
  /// `name` must be a string literal.
  explicit Span(const char* name) noexcept;
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  obs::Span obs_;
  const char* name_{nullptr};  // nullptr: tracing was off at open
  std::uint64_t id_{0};
  std::uint64_t parent_{0};
  std::uint64_t request_{0};
  std::uint64_t start_ns_{0};
};

/// Write the span log as NDJSON: one {"id","parent","request","name",
/// "start_ns","end_ns","thread"} object per span, in completion order.
/// Returns the number of spans written, or -1 on an I/O error.
long write_span_log(const std::string& path);
std::size_t span_log_size();

/// Log-bucketed histogram of nanosecond samples (64 sub-buckets per power
/// of two, ~1.1% resolution; quantiles interpolate inside a bucket).
class LogHistogram {
 public:
  void add(std::uint64_t ns);
  void merge(const LogHistogram& other);
  std::uint64_t count() const { return count_; }
  double total_ns() const { return static_cast<double>(total_ns_); }
  double mean_ns() const { return count_ == 0 ? 0.0 : total_ns() / static_cast<double>(count_); }
  double quantile_ns(double q) const;

 private:
  static constexpr int kSub = 64;
  std::vector<std::uint64_t> buckets_ = std::vector<std::uint64_t>(64 * kSub, 0);
  std::uint64_t count_{0};
  std::uint64_t total_ns_{0};
};

/// Per-name self time and durations, from the obs flight recorder.
struct SpanStat {
  std::uint64_t count{0};
  double total_ns{0.0};
  double self_ns{0.0};
  std::vector<double> dur_ns;
};

struct TraceAnalysis {
  std::map<std::string, SpanStat> by_name;
  /// Self time per layer: "api.<layer>.*" and program spans "<layer>.*".
  std::map<std::string, double> layer_self_ns;
  /// Self time of "bench.*" spans plus time outside every span, on the
  /// benchmark's driving threads (thread names starting "bench").
  double unattributed_ns{0.0};
  /// Wall time of the driving threads' root spans.
  double driving_ns{0.0};
  std::uint64_t dropped{0};

  /// Median duration of the spans named `span`, in ms (0 if none ran).
  double median_ms(const std::string& span) const;
  /// Self time of `layer` in ms (0 if it recorded nothing).
  double layer_self_ms(const std::string& layer) const;
};

/// Current value of an obs counter (0 if never created).
double obs_counter(const std::string& name);

/// Analyses every span retained by the flight recorder. `tallied_ns` is the
/// time of the timed (not spanned) calls made on driving threads; it is
/// subtracted from the unattributed time (those calls belong to a layer).
TraceAnalysis analyze_trace(double tallied_ns);

/// Emit the per-layer metrics every workload derives the same way (solver
/// stage self times and counts, delta counters, self time per layer, the
/// trace's own shares); a dropped flight-recorder event fails the run.
/// Workloads set their specific metrics afterwards.
void emit_trace_layers(Report& report, const TraceAnalysis& analysis, double overhead_share);

/// Reports 0 for every per-layer metric <root>/BENCHMARK.json declares that
/// the workload did not reach.
void fill_declared_layers(const std::string& root, Report& report);

/// Export the flight recorder as a Chrome traceEvents document (the
/// `ranycast-flight export` format). Returns false on an I/O error.
bool write_chrome_trace(const std::string& path);

}  // namespace perfbench
