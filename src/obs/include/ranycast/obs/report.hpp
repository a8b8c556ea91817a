// Machine-readable exports of the observability state.
//
// json_report() dumps the whole registry (counters, gauges, histogram
// summaries, span rollups, labels) as one JSON object; trace_ndjson() dumps
// the raw span events one JSON object per line. write_bench_report() is the
// bench-harness hook: it wraps the report in the fixed BENCH_<name>.json
// schema (see docs/observability.md) and writes it to the current directory
// — only when observability is enabled, so RANYCAST_OBS=0 runs leave no
// files behind.
//
// Every export is built as io::Json and dumped by the one JSON writer
// (ranycast::json, a leaf library below obs): object keys come out sorted,
// integers exact, doubles with the report JSON's digits.
#pragma once

#include <string>
#include <string_view>

namespace ranycast::obs {

/// The full registry + span rollup as a JSON object.
std::string json_report();

/// Completed trace events as NDJSON (one object per line, possibly empty).
std::string trace_ndjson();

/// Zero all metric values and drop all trace events (registered entries and
/// cached references survive).
void reset_all();

/// Write BENCH_<bench_name>.json into the current directory. `wall_ms` is
/// the bench's total wall time as measured by the caller. Returns true if a
/// file was written; always false (and no I/O) when observability is off.
bool write_bench_report(std::string_view bench_name, double wall_ms);

}  // namespace ranycast::obs
