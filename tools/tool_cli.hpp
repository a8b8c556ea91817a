// The command-line front end the ranycast-* tools share: deployment names,
// the laboratory flags and the run journal.
//
//   --cdn NAME             imperva6 | imperva-ns | edgio3 | edgio4 | tangled
//   --config FILE          laboratory configuration (docs: io/config.hpp)
//   --stubs N, --probes N  world and census size, overriding the config
//   --seed N               master seed, a whole unsigned 64-bit decimal
//   --journal FILE         NDJSON run journal (--resume appends)
//   --trace-out FILE       Chrome trace of the run; journals to
//                          FILE.journal.ndjson unless --journal is given
//   --traffic-policy spill|shed, --traffic-capacity-mbps X, --traffic-scale X
//                          overrides of a traffic model
//
// Every error is returned as the one-line message the tool prints before
// exiting 2.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

#include "ranycast/cdn/builder.hpp"
#include "ranycast/core/expected.hpp"
#include "ranycast/core/flags.hpp"
#include "ranycast/guard/sweep.hpp"
#include "ranycast/lab/lab.hpp"
#include "ranycast/obs/journal.hpp"
#include "ranycast/traffic/model.hpp"

namespace ranycast::tool {

/// Prints `message` as the tool's one-line error; returns exit code 2.
int fail(const std::string& message);

/// Notes on stderr that a guarded run resumed from `checkpoint` and, if it
/// stopped early, why and how far it got, counting `unit`s ("step").
void note_sweep(const guard::SweepResult& sweep, const std::string& checkpoint,
                const std::string& unit);

/// The deployment --cdn names, or nullopt for an unknown name.
std::optional<cdn::DeploymentSpec> spec_by_name(const std::string& name);

/// `--name N` as a whole-string decimal in [0, max]; nullopt when the flag
/// is absent.
core::Expected<std::optional<std::uint64_t>, std::string> uint_flag(
    const flags::Parser& args, const std::string& name, std::uint64_t max);

/// Binds whichever of --config, --stubs, --probes and --seed are given onto
/// `config` (--config replaces it, the others override single knobs) and
/// validates the result.
core::Expected<lab::LabConfig, std::string> bind_lab_flags(const flags::Parser& args,
                                                           lab::LabConfig config = {});

/// Applies whichever traffic flags are given to `cfg` and validates it;
/// `file` names the model's source in the error.
std::optional<std::string> bind_traffic_flags(const flags::Parser& args,
                                              traffic::TrafficConfig& cfg, std::string_view file);

/// The journal behind --journal/--trace-out. Either flag, like --obs, turns
/// observability on.
class RunJournal {
 public:
  RunJournal() = default;
  RunJournal(const RunJournal&) = delete;
  RunJournal& operator=(const RunJournal&) = delete;
  /// An early exit leaves no dangling journal installed.
  ~RunJournal() {
    if (obs::journal() == &journal_) obs::set_journal(nullptr);
  }

  /// Opens and installs the journal (appending under --resume), if one was
  /// asked for.
  std::optional<std::string> open(const flags::Parser& args);

  /// Publishes the pool and RSS telemetry, uninstalls and closes the
  /// journal, then writes the --trace-out trace from it.
  std::optional<std::string> close();

 private:
  obs::Journal journal_;
  std::string path_;
  std::optional<std::string> trace_out_;
};

}  // namespace ranycast::tool
