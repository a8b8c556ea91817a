// The guard flags every supervised CLI shares, bound in one place:
//
//   --deadline S        wall-clock budget (RunLimits::deadline_s)
//   --stall-timeout S   watchdog stall threshold (RunLimits::stall_timeout_s)
//   --checkpoint FILE   chain manifest path (CheckpointPolicy::path)
//   --checkpoint-every K, --checkpoint-keep K, --resume
//   --abort-after N     hard-kill (exit 137, as SIGKILL would) once N steps
//                       are done — the crash used by recovery tests
#pragma once

#include <string>
#include <vector>

#include "ranycast/core/expected.hpp"
#include "ranycast/core/flags.hpp"
#include "ranycast/guard/runtime.hpp"

namespace ranycast::guard {

struct CliGuard {
  RunLimits limits;
  CheckpointPolicy policy;
  /// Any of --deadline/--stall-timeout/--checkpoint/--resume was given.
  bool requested{false};
};

/// `known` plus the guard flag names, for flags::Parser::unknown().
std::vector<std::string> with_guard_flags(std::vector<std::string> known);

/// Bind the guard flags. The only error is "--resume requires --checkpoint
/// FILE".
core::Expected<CliGuard, std::string> bind_guard_flags(const flags::Parser& args);

}  // namespace ranycast::guard
