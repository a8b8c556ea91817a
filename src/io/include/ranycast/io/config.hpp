// JSON bindings for the laboratory configuration: load experiment setups
// from files (tools/ranycast-experiment, tools/ranycast-chaos) and persist
// the configuration actually used next to results for reproducibility.
//
// The loading surface is exception-free: every failure is reported as a
// core::Expected error carrying the file, the byte offset (for syntax
// errors) and the offending field (for validation errors), so CLIs print an
// actionable message and exit nonzero instead of aborting.
#pragma once

#include <optional>
#include <string>
#include <string_view>

#include "ranycast/core/expected.hpp"
#include "ranycast/io/json.hpp"
#include "ranycast/lab/lab.hpp"

namespace ranycast::io {

/// A configuration-loading failure with enough context to act on.
struct ConfigError {
  std::string file;       ///< path, or "<inline>" for in-memory documents
  std::size_t offset{0};  ///< byte offset of a syntax error; 0 when n/a
  std::string field;      ///< dotted path of the offending field; "" when n/a
  std::string message;

  /// "config.json: field 'census.total_probes': must be positive (got 0)"
  std::string to_string() const;
};

/// Parse a LabConfig from a JSON object. Every field is optional and
/// defaults to the library default; unknown keys are ignored (configs stay
/// forward-compatible). Schema:
///   {
///     "seed": 2023,
///     "world":   {"seed", "stub_count", "tier1_count", "tier1_city_coverage",
///                 "international_transits", "ixp_count", ...},
///     "census":  {"total_probes", "stable_prob", "resolver_local_prob", ...},
///     "latency": {"per_hop_ms", "jitter_max_ms", "access_base_ms"},
///     "geo_dbs": [{"name", "wrong_country_prob", "intl_home_bias_prob",
///                  "wrong_city_prob", "seed"}, ...]   // up to 3 entries
///   }
lab::LabConfig lab_config_from_json(const Json& json);

/// Serialize a LabConfig (the exact inverse of the reader for covered keys).
Json lab_config_to_json(const lab::LabConfig& config);

/// A seed as the configuration and report JSON print it: through a double
/// (via int64), so seeds at or above 2^53 round. io::config_fingerprint and
/// the report bytes hash this form, so it stays while checkpoints and
/// recorded report digests depend on it; every other integer is exact.
inline Json seed_json(std::uint64_t seed) {
  return Json(static_cast<double>(static_cast<std::int64_t>(seed)));
}

/// Stable 64-bit fingerprint of a configuration: a hash of its canonical
/// JSON serialization mixed with the seed. Two configs fingerprint equal
/// iff every covered knob matches — the binding guard checkpoints use to
/// refuse resuming one experiment's progress into another.
std::uint64_t config_fingerprint(const lab::LabConfig& config);

/// Range-check a LabConfig (probabilities in [0,1], positive counts,
/// non-negative latencies, non-negative geo-DB error rates). Returns the
/// first violation, with `field` naming the offending key.
std::optional<ConfigError> validate_lab_config(const lab::LabConfig& config,
                                               std::string_view file = {});

/// Read a file into a string.
core::Expected<std::string, ConfigError> read_file(const std::string& path);

/// Read + parse a JSON document; syntax errors carry the byte offset.
core::Expected<Json, ConfigError> load_json(const std::string& path);

/// Read + parse + bind + validate a laboratory configuration.
core::Expected<lab::LabConfig, ConfigError> load_config(const std::string& path);

}  // namespace ranycast::io
