// RAII tracing spans and scoped wall-time timers, recorded into a per-thread
// flight recorder.
//
// A Span records one completed trace event (name, parent, depth, start,
// duration, thread) into the recording thread's bounded ring buffer (see
// flight.hpp); nesting is tracked per thread, so a span opened while another
// is live on the same thread becomes its child. A worker thread executing
// chunks on behalf of a parallel_for additionally inherits the *logical*
// parent — the span that was open on the enqueuing thread — via
// InheritedSpanScope, so cross-thread flame graphs nest correctly.
//
// Events are exportable as NDJSON (one JSON object per line) via
// obs::trace_ndjson() / obs::flight_ndjson() and aggregated per name for the
// JSON report.
//
// A ScopedTimer is the cheaper cousin: no trace event, it just records the
// scope's wall time in microseconds into a Histogram on destruction.
//
// Both are no-ops (no clock read, no allocation) when obs::enabled() is
// false at construction.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "ranycast/core/record.hpp"
#include "ranycast/obs/metrics.hpp"

namespace ranycast::obs {

/// A completed span, in completion order.
struct TraceEvent {
  std::string name;
  std::string parent;      ///< enclosing span (same thread or inherited); "" if none
  std::uint64_t start_ns;  ///< relative to the process trace epoch
  std::uint64_t dur_ns;
  std::uint32_t depth;     ///< nesting depth at open time (0 = top level)
  std::uint64_t seq;       ///< process-wide completion sequence number
  std::uint64_t tid;       ///< OS thread id of the recording thread
};

template <class V, core::RecordOf<TraceEvent> T>
void fields(V& v, T& e) {
  v("name", e.name);
  v("parent", e.parent);
  v("depth", e.depth);
  v("start_ns", e.start_ns);
  v("dur_ns", e.dur_ns);
  v("seq", e.seq);
  v("tid", e.tid);
}

/// The innermost open span of the current thread (name nullptr when none),
/// including the inherited base depth. Passed across threads by the exec
/// pool so worker-side spans keep their logical parent.
struct SpanContext {
  const char* name{nullptr};
  std::uint32_t depth{0};
};

SpanContext current_span_context() noexcept;

/// Installs `ctx` as the logical parent of every top-level span opened on
/// this thread while the scope is alive (used by exec::ThreadPool workers
/// around each parallel_for job). Scopes restore the previous context on
/// destruction and may nest.
class InheritedSpanScope {
 public:
  explicit InheritedSpanScope(SpanContext ctx) noexcept;
  ~InheritedSpanScope();

  InheritedSpanScope(const InheritedSpanScope&) = delete;
  InheritedSpanScope& operator=(const InheritedSpanScope&) = delete;

 private:
  SpanContext previous_;
};

class Span {
 public:
  /// `name` must be a string with static storage duration (a literal).
  explicit Span(const char* name) noexcept;
  ~Span();

  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  const char* name_{nullptr};  // nullptr => observability was off at open
  const char* parent_{nullptr};
  std::uint64_t start_ns_{0};
  std::uint32_t depth_{0};
};

class ScopedTimer {
 public:
  explicit ScopedTimer(Histogram& histogram) noexcept;
  /// Registry lookup by name (prefer the Histogram& overload plus a cached
  /// reference in hot paths).
  explicit ScopedTimer(const char* histogram_name);
  ~ScopedTimer();

  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

 private:
  Histogram* histogram_{nullptr};  // nullptr => observability was off at open
  std::uint64_t start_ns_{0};
};

/// Nanoseconds since the process trace epoch (the first enabled span/timer
/// pins the epoch). Journal events carry this so they align with spans.
std::uint64_t trace_now_ns() noexcept;

/// Snapshot of the retained trace events across every thread's ring,
/// ordered by completion sequence. Events that were overwritten in a ring
/// are not included — see obs::dropped_events().
std::vector<TraceEvent> trace_events();
void clear_trace();

/// Per-name rollup of the retained spans.
struct SpanAggregate {
  std::uint64_t count{0};
  double total_us{0.0};
  double min_us{0.0};
  double max_us{0.0};
};
std::map<std::string, SpanAggregate> span_aggregates();

template <class V, core::RecordOf<SpanAggregate> T>
void fields(V& v, T& a) {
  v("count", a.count);
  v("total_us", a.total_us);
  v("min_us", a.min_us);
  v("max_us", a.max_us);
}

}  // namespace ranycast::obs
