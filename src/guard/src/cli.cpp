#include "ranycast/guard/cli.hpp"

#include <cstdlib>

namespace ranycast::guard {

std::vector<std::string> with_guard_flags(std::vector<std::string> known) {
  for (const char* name : {"deadline", "stall-timeout", "checkpoint", "checkpoint-every",
                           "checkpoint-keep", "resume", "abort-after"}) {
    known.emplace_back(name);
  }
  return known;
}

core::Expected<CliGuard, std::string> bind_guard_flags(const flags::Parser& args) {
  CliGuard out;
  out.requested = args.has("deadline") || args.has("stall-timeout") ||
                  args.has("checkpoint") || args.has("resume");
  out.limits.deadline_s = args.get_or("deadline", 0.0);
  out.limits.stall_timeout_s = args.get_or("stall-timeout", 0.0);
  CheckpointPolicy& policy = out.policy;
  policy.path = args.get_or("checkpoint", std::string());
  policy.every = static_cast<std::size_t>(args.get_or("checkpoint-every", std::int64_t{1}));
  policy.keep = static_cast<std::size_t>(args.get_or("checkpoint-keep", std::int64_t{3}));
  policy.resume = args.has("resume");
  if (policy.resume && policy.path.empty()) {
    return core::unexpected(std::string("--resume requires --checkpoint FILE"));
  }
  if (args.has("abort-after")) {
    // Simulate a crash: no cleanup, no stream flush — the checkpoint fsynced
    // after step N is all a resume may rely on.
    const auto fatal_step =
        static_cast<std::size_t>(args.get_or("abort-after", std::int64_t{0}));
    policy.after_step = [fatal_step](std::size_t done, std::size_t) {
      if (done == fatal_step) std::_Exit(137);
    };
  }
  return out;
}

}  // namespace ranycast::guard
