#include "ranycast/obs/journal.hpp"

#include <atomic>
#include <cstdio>
#include <utility>

#include "ranycast/core/crc32.hpp"
#include "ranycast/obs/span.hpp"

namespace ranycast::obs {

namespace {

std::atomic<Journal*> g_journal{nullptr};

}  // namespace

Journal::~Journal() { close(); }

Journal::Journal(Journal&& other) noexcept
    : file_(std::move(other.file_)),
      path_(std::move(other.path_)),
      error_(std::move(other.error_)),
      events_written_(other.events_written_) {
  other.events_written_ = 0;
}

Journal& Journal::operator=(Journal&& other) noexcept {
  if (this != &other) {
    close();
    file_ = std::move(other.file_);
    path_ = std::move(other.path_);
    error_ = std::move(other.error_);
    events_written_ = other.events_written_;
    other.events_written_ = 0;
  }
  return *this;
}

bool Journal::open(const std::string& path, bool append) {
  close();
  auto file = vfs::File::open_append(path, /*truncate=*/!append);
  if (!file) {
    error_ = "cannot open journal '" + path + "': " + file.error().to_string();
    return false;
  }
  file_ = std::move(*file);
  path_ = path;
  error_.clear();
  events_written_ = 0;
  return true;
}

void Journal::close() {
  if (file_.is_open()) {
    (void)file_.sync();
    (void)file_.close();
  }
}

bool Journal::event(std::string_view type, const EventFields& fields, bool durable) {
  if (!file_.is_open()) return false;
  // Top-level keys keep their order (type, ts_ns, fields, crc), so the line
  // is composed here from dumped keys and values rather than as one object.
  std::string line = "{\"type\":" + io::Json(std::string(type)).dump() +
                     ",\"ts_ns\":" + io::Json(trace_now_ns()).dump();
  for (const auto& [key, value] : fields) {
    line += ',';
    line += io::Json(key).dump();
    line += ':';
    line += value.dump();
  }
  // Self-checking tail: CRC-32 over everything composed so far, emitted as
  // the line's final field. Readers recompute it to detect mid-file rot.
  {
    const std::uint32_t crc = core::crc32(line.data(), line.size());
    char tag[kJournalCrcTagSize + 1];
    std::snprintf(tag, sizeof tag, ",\"crc\":\"%08x\"}", crc);
    line += tag;
  }
  line += '\n';

  // One write per line: with O_APPEND, lines from concurrent writers (or a
  // resumed process) never interleave mid-line for writes of this size. The
  // vfs loop absorbs EINTR and short writes.
  if (auto written = file_.write_all(line); !written) {
    error_ = "journal write failed: " + written.error().to_string();
    return false;
  }
  ++events_written_;
  if (durable) return sync();
  return true;
}

bool Journal::sync() {
  if (!file_.is_open()) return false;
  if (auto synced = file_.sync(); !synced) {
    error_ = "journal fsync failed: " + synced.error().to_string();
    return false;
  }
  return true;
}

void set_journal(Journal* journal) noexcept {
  g_journal.store(journal, std::memory_order_release);
}

Journal* journal() noexcept { return g_journal.load(std::memory_order_acquire); }

bool journal_event(std::string_view type, const EventFields& fields, bool durable) {
  Journal* j = journal();
  if (j == nullptr) return true;
  return j->event(type, fields, durable);
}

}  // namespace ranycast::obs
