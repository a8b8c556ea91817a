#include "trace.hpp"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstdio>
#include <memory>
#include <mutex>

#include "bench.hpp"
#include "ranycast/flight/flight.hpp"
#include "ranycast/obs/flight.hpp"
#include "ranycast/obs/metrics.hpp"

namespace perfbench {

namespace {

std::atomic<bool> g_tracing{false};
std::atomic<std::uint64_t> g_next_id{1};

struct SpanRecord {
  std::uint64_t id, parent, request;
  const char* name;
  std::uint64_t start_ns, end_ns;
  std::uint32_t thread;
};

/// One thread's span log; owned by the registry so it outlives the thread.
struct ThreadLog {
  std::uint32_t thread{0};
  std::vector<SpanRecord> spans;
};

std::mutex g_logs_mutex;
std::vector<std::unique_ptr<ThreadLog>> g_logs;

ThreadLog& thread_log() {
  thread_local ThreadLog* log = [] {
    const std::lock_guard<std::mutex> lock(g_logs_mutex);
    g_logs.push_back(std::make_unique<ThreadLog>());
    g_logs.back()->thread = static_cast<std::uint32_t>(g_logs.size() - 1);
    return g_logs.back().get();
  }();
  return *log;
}

thread_local std::uint64_t t_current_span = 0;
thread_local std::uint64_t t_request = 0;

/// Layer a span name belongs to ("api.lab.ping_all" -> "lab",
/// "bgp.solve.peer" -> "bgp", "bench.world" -> "bench").
std::string layer_of(const std::string& name) {
  std::string_view s = name;
  if (s.starts_with("api.")) s.remove_prefix(4);
  return std::string(s.substr(0, s.find('.')));
}

}  // namespace

bool tracing() noexcept { return g_tracing.load(std::memory_order_relaxed); }

void set_tracing(bool on) {
  g_tracing.store(on, std::memory_order_relaxed);
  obs::set_enabled(on);
}

RequestScope::RequestScope(std::uint64_t request) noexcept : previous_(t_request) {
  t_request = request;
}

RequestScope::~RequestScope() { t_request = previous_; }

Span::Span(const char* name) noexcept : obs_(name) {
  if (!tracing()) return;
  name_ = name;
  id_ = g_next_id.fetch_add(1, std::memory_order_relaxed);
  parent_ = t_current_span;
  request_ = t_request;
  t_current_span = id_;
  start_ns_ = obs::trace_now_ns();
}

Span::~Span() {
  if (name_ == nullptr) return;
  const std::uint64_t end = obs::trace_now_ns();
  t_current_span = parent_;
  ThreadLog& log = thread_log();
  log.spans.push_back({id_, parent_, request_, name_, start_ns_, end, log.thread});
}

std::size_t span_log_size() {
  const std::lock_guard<std::mutex> lock(g_logs_mutex);
  std::size_t n = 0;
  for (const auto& log : g_logs) n += log->spans.size();
  return n;
}

long write_span_log(const std::string& path) {
  std::vector<SpanRecord> all;
  {
    const std::lock_guard<std::mutex> lock(g_logs_mutex);
    for (const auto& log : g_logs) all.insert(all.end(), log->spans.begin(), log->spans.end());
  }
  std::sort(all.begin(), all.end(), [](const SpanRecord& a, const SpanRecord& b) {
    return a.end_ns != b.end_ns ? a.end_ns < b.end_ns : a.id < b.id;
  });
  std::string out;
  out.reserve(all.size() * 128);
  char line[512];
  for (const SpanRecord& s : all) {
    std::snprintf(line, sizeof line,
                  "{\"id\":%llu,\"parent\":%llu,\"request\":%llu,\"name\":\"%s\","
                  "\"start_ns\":%llu,\"end_ns\":%llu,\"thread\":%u}\n",
                  static_cast<unsigned long long>(s.id),
                  static_cast<unsigned long long>(s.parent),
                  static_cast<unsigned long long>(s.request), s.name,
                  static_cast<unsigned long long>(s.start_ns),
                  static_cast<unsigned long long>(s.end_ns), s.thread);
    out += line;
  }
  if (!write_text(path, out)) return -1;
  return static_cast<long>(all.size());
}

// ---- LogHistogram ----

void LogHistogram::add(std::uint64_t ns) {
  const std::uint64_t v = std::max<std::uint64_t>(ns, 1);
  const int exp = 63 - std::countl_zero(v);
  // The kSub sub-buckets split [2^exp, 2^(exp+1)) evenly; below 2^6 the
  // top bits are the value itself.
  const int sub = exp >= 6 ? static_cast<int>((v >> (exp - 6)) & (kSub - 1))
                           : static_cast<int>((v << (6 - exp)) & (kSub - 1));
  ++buckets_[static_cast<std::size_t>(exp * kSub + sub)];
  ++count_;
  total_ns_ += ns;
}

void LogHistogram::merge(const LogHistogram& other) {
  for (std::size_t i = 0; i < buckets_.size(); ++i) buckets_[i] += other.buckets_[i];
  count_ += other.count_;
  total_ns_ += other.total_ns_;
}

double LogHistogram::quantile_ns(double q) const {
  if (count_ == 0) return 0.0;
  const double target = std::clamp(q, 0.0, 1.0) * static_cast<double>(count_ - 1);
  std::uint64_t seen = 0;
  for (std::size_t i = 0; i < buckets_.size(); ++i) {
    const std::uint64_t n = buckets_[i];
    if (n == 0) continue;
    if (static_cast<double>(seen + n) > target) {
      const int exp = static_cast<int>(i) / kSub;
      const int sub = static_cast<int>(i) % kSub;
      const double lo = std::ldexp(1.0 + sub / static_cast<double>(kSub), exp);
      const double hi = std::ldexp(1.0 + (sub + 1) / static_cast<double>(kSub), exp);
      const double frac = (target - static_cast<double>(seen) + 0.5) / static_cast<double>(n);
      return lo + (hi - lo) * std::clamp(frac, 0.0, 1.0);
    }
    seen += n;
  }
  return 0.0;
}

// ---- analysis ----

TraceAnalysis analyze_trace(double tallied_ns) {
  TraceAnalysis out;
  out.dropped = obs::dropped_events();
  for (const obs::FlightThreadSnapshot& thread : obs::flight_snapshot()) {
    const bool driving = thread.name.starts_with("bench");
    std::vector<const obs::TraceEvent*> events;
    events.reserve(thread.events.size());
    for (const obs::TraceEvent& e : thread.events) events.push_back(&e);
    // Spans of one thread nest properly: sort by start (outer first on
    // ties) and keep a stack of the open ancestors.
    std::sort(events.begin(), events.end(), [](const obs::TraceEvent* a, const obs::TraceEvent* b) {
      return a->start_ns != b->start_ns ? a->start_ns < b->start_ns : a->dur_ns > b->dur_ns;
    });
    std::vector<std::pair<const obs::TraceEvent*, double>> stack;  // event, child time
    auto close = [&](std::pair<const obs::TraceEvent*, double> top) {
      const obs::TraceEvent& e = *top.first;
      const double self = std::max(0.0, static_cast<double>(e.dur_ns) - top.second);
      SpanStat& stat = out.by_name[e.name];
      ++stat.count;
      stat.total_ns += static_cast<double>(e.dur_ns);
      stat.self_ns += self;
      stat.dur_ns.push_back(static_cast<double>(e.dur_ns));
      const std::string layer = layer_of(e.name);
      out.layer_self_ns[layer] += self;
      if (driving && layer == "bench") out.unattributed_ns += self;
    };
    for (const obs::TraceEvent* e : events) {
      while (!stack.empty() &&
             stack.back().first->start_ns + stack.back().first->dur_ns <= e->start_ns) {
        close(stack.back());
        stack.pop_back();
      }
      if (!stack.empty()) {
        stack.back().second += static_cast<double>(e->dur_ns);
      } else if (driving) {
        out.driving_ns += static_cast<double>(e->dur_ns);
      }
      stack.emplace_back(e, 0.0);
    }
    while (!stack.empty()) {
      close(stack.back());
      stack.pop_back();
    }
  }
  out.unattributed_ns = std::max(0.0, out.unattributed_ns - tallied_ns);
  return out;
}

double TraceAnalysis::median_ms(const std::string& span) const {
  const auto it = by_name.find(span);
  return it == by_name.end() ? 0.0 : median(it->second.dur_ns) * 1e-6;
}

double TraceAnalysis::layer_self_ms(const std::string& layer) const {
  const auto it = layer_self_ns.find(layer);
  return it == layer_self_ns.end() ? 0.0 : it->second * 1e-6;
}

double obs_counter(const std::string& name) {
  const auto counters = obs::MetricsRegistry::global().counters();
  const auto it = counters.find(name);
  return it == counters.end() ? 0.0 : static_cast<double>(it->second);
}

bool write_chrome_trace(const std::string& path) {
  ranycast::flight::TraceOptions options;
  options.pid = 1;
  const std::string doc = ranycast::flight::chrome_trace(ranycast::flight::JournalFile{},
                                                         obs::flight_snapshot(), options);
  return write_text(path, doc);
}

}  // namespace perfbench
