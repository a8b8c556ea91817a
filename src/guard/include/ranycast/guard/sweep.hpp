// Checkpointed index-ordered sweeps: the guard primitive for long batch
// measurement campaigns (ping/DNS sweeps over thousands of probes).
//
// A sweep processes items 0..total-1 strictly in order, heartbeating per
// item and persisting a cursor plus a caller-serialized accumulator on the
// checkpoint cadence. Because items are processed in index order and the
// accumulator round-trips exactly (ByteWriter stores raw IEEE-754 bits), a
// killed-and-resumed sweep reduces to the same bytes as an uninterrupted
// one.
#pragma once

#include <cstddef>
#include <functional>
#include <string>

#include "ranycast/core/expected.hpp"
#include "ranycast/guard/checkpoint.hpp"
#include "ranycast/guard/runtime.hpp"

namespace ranycast::guard {

struct SweepResult {
  std::size_t total{0};
  std::size_t completed{0};  ///< items processed across all runs (cursor)
  StopReason stopped{StopReason::None};  ///< None when the sweep finished
  bool resumed{false};
  std::size_t resumed_from{0};

  bool complete() const noexcept { return completed == total; }
};

struct SweepHooks {
  /// Process item i (required). Runs exactly once per item across every
  /// run/resume of the same sweep.
  std::function<void(std::size_t)> process;
  /// Serialize the accumulator into a checkpoint payload (required when
  /// checkpointing is enabled).
  std::function<void(ByteWriter&)> save;
  /// Restore the accumulator from a checkpoint payload. Return false to
  /// reject the payload as corrupt: the chain quarantines that generation
  /// and calls load again with the next older one, so a rejected payload
  /// must leave nothing behind that the next call does not overwrite.
  /// Required when resume is requested.
  std::function<bool(ByteReader&)> load;
};

/// Run (or resume) a sweep under a supervisor. Returns the sweep outcome;
/// a deadline/cancel/stall stop is NOT an error — the result records how
/// far the sweep got so callers can report partial progress explicitly.
/// Errors are reserved for unusable checkpoints and I/O failures.
core::Expected<SweepResult, GuardError> run_sweep(std::size_t total,
                                                  std::uint64_t fingerprint,
                                                  Supervisor& supervisor,
                                                  const CheckpointPolicy& policy,
                                                  const SweepHooks& hooks);

}  // namespace ranycast::guard
