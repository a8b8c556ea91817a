// Yardsticks for the host the workloads share with other tenants: the
// memory probe, and the CPU time the host took away.
#pragma once

#include <sys/wait.h>
#include <unistd.h>

#include <cstdint>
#include <fstream>
#include <string>
#include <vector>

#include "bench.hpp"

namespace perfbench {

// A walk is kWalkSteps dependent loads over a buffer of 2^22 entries
// (16 MB). Its time on a quiet 4-core VM is about kWalkRefS.
constexpr std::uint32_t kWalkEntries = std::uint32_t{1} << 22;
constexpr int kWalkSteps = 400'000;
constexpr double kWalkRefS = 0.07;

/// Times dependent walks over a buffer, jumping megabytes per step so no
/// prefetcher helps. The host's last-level cache and memory are shared with
/// other tenants; how hard they use them sets how fast a workload runs, and
/// its times drift by up to +-30% over minutes with the program unchanged.
/// The walk drifts with them, so workload time x kWalkRefS / walk time is
/// steadier than the workload time alone. The buffer lives in a child
/// process, so it stays out of this process's peak resident set; the child
/// walks only while the caller waits for it.
class MemoryProbe {
 public:
  explicit MemoryProbe(std::uint32_t entries = kWalkEntries) {
    int request[2], reply[2];
    if (pipe(request) != 0) return;
    if (pipe(reply) != 0) {
      close(request[0]);
      close(request[1]);
      return;
    }
    pid_ = fork();
    if (pid_ == 0) {
      close(request[1]);
      close(reply[0]);
      serve_walks(entries, request[0], reply[1]);
      _exit(0);
    }
    close(request[0]);
    close(reply[1]);
    to_child_ = request[1];
    from_child_ = reply[0];
    if (pid_ < 0) stop();
  }
  ~MemoryProbe() { stop(); }
  MemoryProbe(const MemoryProbe&) = delete;
  MemoryProbe& operator=(const MemoryProbe&) = delete;

  /// One walk's time in seconds; 0 if the child is gone.
  double walk_s() {
    const char go = 1;
    double seconds = 0.0;
    if (pid_ <= 0 || write(to_child_, &go, 1) != 1 ||
        read(from_child_, &seconds, sizeof seconds) != sizeof seconds) {
      return 0.0;
    }
    return seconds;
  }

 private:
  static void serve_walks(std::uint32_t entries, int requests, int replies) {
    const std::uint32_t stride = (2'654'435'761u % entries) | 1u;  // odd: one cycle
    std::vector<std::uint32_t> next(entries);
    for (std::uint32_t i = 0; i < entries; ++i) next[i] = (i + stride) % entries;
    std::uint32_t p = 0;
    char go;
    while (read(requests, &go, 1) == 1) {
      const std::uint64_t start = now_ns();
      for (int k = 0; k < kWalkSteps; ++k) p = next[p];
      const double seconds = seconds_between(start, now_ns());
      volatile std::uint32_t sink = p;  // keeps the walk
      (void)sink;
      if (write(replies, &seconds, sizeof seconds) != sizeof seconds) return;
    }
  }

  void stop() {
    if (to_child_ >= 0) close(to_child_);  // the child sees end of file and exits
    if (from_child_ >= 0) close(from_child_);
    to_child_ = from_child_ = -1;
    if (pid_ > 0) waitpid(pid_, nullptr, 0);
    pid_ = -1;
  }

  pid_t pid_{-1};
  int to_child_{-1};
  int from_child_{-1};
};

/// CPU time the host gave to other tenants while this machine's CPUs had
/// work (steal, summed over the CPUs, from /proc/stat), in seconds since
/// boot; 0 where it is not reported. Over an interval, the difference / the
/// CPU count is the share of each CPU the host took: time no change to the
/// program can win back, so the scaled workload times leave it out.
inline double host_stolen_s() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  std::uint64_t field[8] = {};
  in >> cpu;
  for (std::uint64_t& f : field) in >> f;
  return in && cpu == "cpu" ? static_cast<double>(field[7]) / sysconf(_SC_CLK_TCK) : 0.0;
}

}  // namespace perfbench
