// The structured run journal: a typed, append-only NDJSON event stream.
//
// Each event is one JSON object on one line: {"type":"<kind>","ts_ns":N,...}.
// Lines are composed in memory and written with a single O_APPEND write, so
// concurrent writers (and a resumed run appending to an earlier journal)
// interleave at line granularity, never mid-line. Events marked durable are
// fsync'd before the call returns — guard uses this at step granularity, so
// the journal of a SIGKILL'd run is readable up to the last completed step.
//
// Event kinds emitted by the codebase (see docs/observability.md for the
// full field tables):
//   run_manifest, phase_begin, phase_end, chaos_step, transient_window,
//   checkpoint, resumed, stopped, bench_sample
//
// Every line ends with a self-checking tag `,"crc":"xxxxxxxx"}` — a CRC-32
// (as 8 lowercase hex digits) over all preceding bytes of the line. Readers
// (ranycast::flight) recompute it to tell failure modes apart: a line whose
// tag does not match its bytes, or that parses but carries no tag, is
// corrupt (skipped and counted); a kill-cut final line (no tag,
// unparseable) is a truncated tail.
//
// Values are io::Json, dumped by the one JSON writer (ranycast::json): the
// top-level keys keep their call order, nested objects are key-sorted,
// integers print exactly and doubles exactly as the report JSON prints
// them, so both parse back to the same bits. Reading journals back is
// ranycast::flight's job. All writes go through ranycast::vfs so fault plans
// can torture the journal path too.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <tuple>
#include <type_traits>
#include <utility>
#include <vector>

#include "ranycast/core/record.hpp"
#include "ranycast/io/json.hpp"
#include "ranycast/vfs/vfs.hpp"

namespace ranycast::obs {

/// Byte length of the per-line CRC tag: `,"crc":"` + 8 hex + `"}`.
inline constexpr std::size_t kJournalCrcTagSize = 18;

/// A journal event's fields after `type` and `ts_ns`, in line order.
using EventFields = std::vector<std::pair<std::string, io::Json>>;

/// Append-only NDJSON writer over a POSIX fd. Not copyable; movable.
class Journal {
 public:
  Journal() = default;
  ~Journal();

  Journal(const Journal&) = delete;
  Journal& operator=(const Journal&) = delete;
  Journal(Journal&& other) noexcept;
  Journal& operator=(Journal&& other) noexcept;

  /// Opens (creating if needed) `path` for appending. Truncates first unless
  /// `append` — a fresh run starts a fresh journal, `--resume` appends.
  /// Returns false (and records error()) on failure.
  bool open(const std::string& path, bool append);
  void close();
  bool is_open() const noexcept { return file_.is_open(); }
  const std::string& path() const noexcept { return path_; }
  const std::string& error() const noexcept { return error_; }

  /// Appends one event line. `ts_ns` is stamped automatically from
  /// obs::trace_now_ns() so journal events align with flight-recorder spans.
  /// When `durable`, the line is fsync'd before returning.
  bool event(std::string_view type, const EventFields& fields, bool durable = false);

  /// fsync the underlying fd (used at phase boundaries).
  bool sync();

  std::uint64_t events_written() const noexcept { return events_written_; }

 private:
  vfs::File file_;
  std::string path_;
  std::string error_;
  std::uint64_t events_written_{0};
};

/// Process-global journal used by library emitters (chaos::Engine,
/// converge::Plane, guard, the bench harness). Null when no journal is
/// installed; emitters must treat that as "journal off". The caller that
/// opens the journal owns it and must uninstall (set_journal(nullptr))
/// before destroying it.
void set_journal(Journal* journal) noexcept;
Journal* journal() noexcept;

/// A record's scalar fields (core/record.hpp) as journal fields, in list
/// order. Nested records and lists are left out; a line that needs them
/// appends its own summary.
template <class T>
EventFields journal_fields(const T& record) {
  EventFields out;
  const auto visit = [&out](std::string_view key, const auto& field) {
    using F = std::remove_cvref_t<decltype(field)>;
    if constexpr (std::is_arithmetic_v<F> || std::is_same_v<F, std::string>) {
      // Built in place: moving a temporary io::Json trips GCC 12's
      // -Wmaybe-uninitialized false positive in std::variant (PR105593).
      out.emplace_back(std::piecewise_construct, std::forward_as_tuple(key),
                       std::forward_as_tuple(field));
    }
  };
  fields(visit, record);
  return out;
}

/// Convenience: appends an event to the installed journal, if any.
/// Returns false only on a write error (not when no journal is installed).
bool journal_event(std::string_view type, const EventFields& fields,
                   bool durable = false);

}  // namespace ranycast::obs
