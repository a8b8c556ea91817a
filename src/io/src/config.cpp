#include "ranycast/io/config.hpp"

#include <cmath>
#include <fstream>
#include <limits>
#include <sstream>

#include "ranycast/core/crc32.hpp"
#include "ranycast/core/rng.hpp"

namespace ranycast::io {

std::string ConfigError::to_string() const {
  std::string out = file.empty() ? std::string("<config>") : file;
  if (offset != 0) {
    out += ":byte ";
    out += std::to_string(offset);
  }
  if (!field.empty()) {
    out += ": field '";
    out += field;
    out += "'";
  }
  out += ": ";
  out += message;
  return out;
}

lab::LabConfig lab_config_from_json(const Json& json) {
  lab::LabConfig config;
  config.seed = static_cast<std::uint64_t>(json.int_or("seed", static_cast<std::int64_t>(config.seed)));
  // Tri-state: absent or null leaves the RANYCAST_OBS environment default.
  if (const Json* o = json.find("observability"); o != nullptr && o->is_bool()) {
    config.observability = o->as_bool();
  }

  if (const Json* world = json.find("world")) {
    auto& w = config.world;
    w.seed = static_cast<std::uint64_t>(world->int_or("seed", static_cast<std::int64_t>(w.seed)));
    w.tier1_count = static_cast<int>(world->int_or("tier1_count", w.tier1_count));
    w.tier1_city_coverage = world->number_or("tier1_city_coverage", w.tier1_city_coverage);
    w.international_transits =
        static_cast<int>(world->int_or("international_transits", w.international_transits));
    w.max_national_transits_per_country = static_cast<int>(
        world->int_or("max_national_transits_per_country", w.max_national_transits_per_country));
    w.stub_count = static_cast<int>(world->int_or("stub_count", w.stub_count));
    w.stub_second_provider_prob =
        world->number_or("stub_second_provider_prob", w.stub_second_provider_prob);
    w.stub_foreign_registration_prob =
        world->number_or("stub_foreign_registration_prob", w.stub_foreign_registration_prob);
    w.stub_ixp_join_prob = world->number_or("stub_ixp_join_prob", w.stub_ixp_join_prob);
    w.ixp_count = static_cast<int>(world->int_or("ixp_count", w.ixp_count));
    w.ixp_mesh_prob = world->number_or("ixp_mesh_prob", w.ixp_mesh_prob);
    w.ixp_bilateral_prob = world->number_or("ixp_bilateral_prob", w.ixp_bilateral_prob);
    w.intl_transit_customer_prob =
        world->number_or("intl_transit_customer_prob", w.intl_transit_customer_prob);
  }
  if (const Json* census = json.find("census")) {
    auto& c = config.census;
    c.total_probes = static_cast<int>(census->int_or("total_probes", c.total_probes));
    c.stable_prob = census->number_or("stable_prob", c.stable_prob);
    c.reliable_geocode_prob =
        census->number_or("reliable_geocode_prob", c.reliable_geocode_prob);
    c.resolver_local_prob = census->number_or("resolver_local_prob", c.resolver_local_prob);
    c.resolver_public_ecs_prob =
        census->number_or("resolver_public_ecs_prob", c.resolver_public_ecs_prob);
    c.access_extra_mean_ms = census->number_or("access_extra_mean_ms", c.access_extra_mean_ms);
    c.access_extra_cap_ms = census->number_or("access_extra_cap_ms", c.access_extra_cap_ms);
    c.seed = static_cast<std::uint64_t>(census->int_or("seed", static_cast<std::int64_t>(c.seed)));
  }
  if (const Json* latency = json.find("latency")) {
    auto& l = config.latency;
    l.ms_per_km = latency->number_or("ms_per_km", l.ms_per_km);
    l.per_hop_ms = latency->number_or("per_hop_ms", l.per_hop_ms);
    l.jitter_max_ms = latency->number_or("jitter_max_ms", l.jitter_max_ms);
    l.access_base_ms = latency->number_or("access_base_ms", l.access_base_ms);
  }
  if (const Json* dbs = json.find("geo_dbs"); dbs != nullptr && dbs->is_array()) {
    const auto& arr = dbs->as_array();
    for (std::size_t i = 0; i < arr.size() && i < config.geo_dbs.size(); ++i) {
      auto& db = config.geo_dbs[i];
      db.name = arr[i].string_or("name", db.name);
      db.wrong_country_prob = arr[i].number_or("wrong_country_prob", db.wrong_country_prob);
      db.intl_home_bias_prob = arr[i].number_or("intl_home_bias_prob", db.intl_home_bias_prob);
      db.wrong_city_prob = arr[i].number_or("wrong_city_prob", db.wrong_city_prob);
      db.seed = static_cast<std::uint64_t>(
          arr[i].int_or("seed", static_cast<std::int64_t>(db.seed)));
    }
  }
  return config;
}

Json lab_config_to_json(const lab::LabConfig& config) {
  JsonObject world{
      {"seed", seed_json(config.world.seed)},
      {"tier1_count", Json(config.world.tier1_count)},
      {"tier1_city_coverage", Json(config.world.tier1_city_coverage)},
      {"international_transits", Json(config.world.international_transits)},
      {"max_national_transits_per_country",
       Json(config.world.max_national_transits_per_country)},
      {"stub_count", Json(config.world.stub_count)},
      {"stub_second_provider_prob", Json(config.world.stub_second_provider_prob)},
      {"stub_foreign_registration_prob", Json(config.world.stub_foreign_registration_prob)},
      {"stub_ixp_join_prob", Json(config.world.stub_ixp_join_prob)},
      {"ixp_count", Json(config.world.ixp_count)},
      {"ixp_mesh_prob", Json(config.world.ixp_mesh_prob)},
      {"ixp_bilateral_prob", Json(config.world.ixp_bilateral_prob)},
      {"intl_transit_customer_prob", Json(config.world.intl_transit_customer_prob)},
  };
  JsonObject census{
      {"total_probes", Json(config.census.total_probes)},
      {"stable_prob", Json(config.census.stable_prob)},
      {"reliable_geocode_prob", Json(config.census.reliable_geocode_prob)},
      {"resolver_local_prob", Json(config.census.resolver_local_prob)},
      {"resolver_public_ecs_prob", Json(config.census.resolver_public_ecs_prob)},
      {"access_extra_mean_ms", Json(config.census.access_extra_mean_ms)},
      {"access_extra_cap_ms", Json(config.census.access_extra_cap_ms)},
      {"seed", seed_json(config.census.seed)},
  };
  JsonObject latency{
      {"ms_per_km", Json(config.latency.ms_per_km)},
      {"per_hop_ms", Json(config.latency.per_hop_ms)},
      {"jitter_max_ms", Json(config.latency.jitter_max_ms)},
      {"access_base_ms", Json(config.latency.access_base_ms)},
  };
  JsonArray dbs;
  for (const auto& db : config.geo_dbs) {
    dbs.push_back(Json(JsonObject{
        {"name", Json(db.name)},
        {"wrong_country_prob", Json(db.wrong_country_prob)},
        {"intl_home_bias_prob", Json(db.intl_home_bias_prob)},
        {"wrong_city_prob", Json(db.wrong_city_prob)},
        {"seed", seed_json(db.seed)},
    }));
  }
  return Json(JsonObject{
      {"seed", seed_json(config.seed)},
      {"observability",
       config.observability ? Json(*config.observability) : Json(nullptr)},
      {"world", Json(std::move(world))},
      {"census", Json(std::move(census))},
      {"latency", Json(std::move(latency))},
      {"geo_dbs", Json(std::move(dbs))},
  });
}

std::uint64_t config_fingerprint(const lab::LabConfig& config) {
  // Canonical form: compact dump of the sorted-key JSON serialization.
  // Observability is a reporting switch, not an experiment input, so it is
  // excluded — toggling --obs must not invalidate a checkpoint.
  Json json = lab_config_to_json(config);
  json.as_object().erase("observability");
  const std::string canonical = json.dump();
  const std::uint32_t crc = core::crc32(canonical.data(), canonical.size());
  return hash_combine(hash_combine(config.seed, canonical.size()), crc);
}

namespace {

/// One range rule: [lo, hi] bounds (NaN bound = unbounded on that side).
std::optional<ConfigError> check(std::string_view file, std::string_view field, double v,
                                 double lo, double hi, std::string_view what) {
  if (!(std::isnan(lo) || v >= lo) || !(std::isnan(hi) || v <= hi) || std::isnan(v)) {
    ConfigError err;
    err.file = std::string(file);
    err.field = std::string(field);
    err.message = std::string(what) + " (got " + std::to_string(v) + ")";
    return err;
  }
  return std::nullopt;
}

constexpr double kNoBound = std::numeric_limits<double>::quiet_NaN();

}  // namespace

std::optional<ConfigError> validate_lab_config(const lab::LabConfig& config,
                                               std::string_view file) {
  const auto& w = config.world;
  const auto& c = config.census;
  const auto& l = config.latency;
  struct Rule {
    std::string_view field;
    double value;
    double lo, hi;
    std::string_view what;
  };
  const Rule rules[] = {
      {"world.tier1_count", static_cast<double>(w.tier1_count), 1, kNoBound,
       "must be at least 1 (the tier-1 clique cannot be empty)"},
      {"world.tier1_city_coverage", w.tier1_city_coverage, 0, 1, "must be a probability in [0,1]"},
      {"world.international_transits", static_cast<double>(w.international_transits), 0,
       kNoBound, "must be non-negative"},
      {"world.max_national_transits_per_country",
       static_cast<double>(w.max_national_transits_per_country), 0, kNoBound,
       "must be non-negative"},
      {"world.stub_count", static_cast<double>(w.stub_count), 1, kNoBound,
       "must be positive (probes need stub networks to live in)"},
      {"world.stub_second_provider_prob", w.stub_second_provider_prob, 0, 1,
       "must be a probability in [0,1]"},
      {"world.stub_foreign_registration_prob", w.stub_foreign_registration_prob, 0, 1,
       "must be a probability in [0,1]"},
      {"world.stub_ixp_join_prob", w.stub_ixp_join_prob, 0, 1, "must be a probability in [0,1]"},
      {"world.ixp_count", static_cast<double>(w.ixp_count), 0, kNoBound, "must be non-negative"},
      {"world.ixp_mesh_prob", w.ixp_mesh_prob, 0, 1, "must be a probability in [0,1]"},
      {"world.ixp_bilateral_prob", w.ixp_bilateral_prob, 0, 1, "must be a probability in [0,1]"},
      {"world.intl_transit_customer_prob", w.intl_transit_customer_prob, 0, 1,
       "must be a probability in [0,1]"},
      {"census.total_probes", static_cast<double>(c.total_probes), 1, kNoBound,
       "must be positive (a census of zero probes measures nothing)"},
      {"census.stable_prob", c.stable_prob, 0, 1, "must be a probability in [0,1]"},
      {"census.reliable_geocode_prob", c.reliable_geocode_prob, 0, 1,
       "must be a probability in [0,1]"},
      {"census.resolver_local_prob", c.resolver_local_prob, 0, 1,
       "must be a probability in [0,1]"},
      {"census.resolver_public_ecs_prob", c.resolver_public_ecs_prob, 0, 1,
       "must be a probability in [0,1]"},
      {"census.access_extra_mean_ms", c.access_extra_mean_ms, 0, kNoBound,
       "must be non-negative"},
      {"census.access_extra_cap_ms", c.access_extra_cap_ms, 0, kNoBound, "must be non-negative"},
      {"latency.ms_per_km", l.ms_per_km, 0, kNoBound, "must be non-negative"},
      {"latency.per_hop_ms", l.per_hop_ms, 0, kNoBound, "must be non-negative"},
      {"latency.jitter_max_ms", l.jitter_max_ms, 0, kNoBound, "must be non-negative"},
      {"latency.access_base_ms", l.access_base_ms, 0, kNoBound, "must be non-negative"},
  };
  for (const Rule& r : rules) {
    if (auto err = check(file, r.field, r.value, r.lo, r.hi, r.what)) return err;
  }
  if (config.census.resolver_local_prob + config.census.resolver_public_ecs_prob > 1.0) {
    ConfigError err;
    err.file = std::string(file);
    err.field = "census.resolver_local_prob";
    err.message = "resolver_local_prob + resolver_public_ecs_prob must not exceed 1";
    return err;
  }
  for (std::size_t i = 0; i < config.geo_dbs.size(); ++i) {
    const auto& db = config.geo_dbs[i];
    const std::string base = "geo_dbs[" + std::to_string(i) + "].";
    const Rule db_rules[] = {
        {"wrong_country_prob", db.wrong_country_prob, 0, 1,
         "geo-DB error rates must be probabilities in [0,1]"},
        {"intl_home_bias_prob", db.intl_home_bias_prob, 0, 1,
         "geo-DB error rates must be probabilities in [0,1]"},
        {"wrong_city_prob", db.wrong_city_prob, 0, 1,
         "geo-DB error rates must be probabilities in [0,1]"},
    };
    for (const Rule& r : db_rules) {
      if (auto err = check(file, base + std::string(r.field), r.value, r.lo, r.hi, r.what)) {
        return err;
      }
    }
  }
  return std::nullopt;
}

core::Expected<std::string, ConfigError> read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return core::unexpected(ConfigError{path, 0, "", "cannot open file"});
  }
  std::ostringstream out;
  out << in.rdbuf();
  if (in.bad()) {
    return core::unexpected(ConfigError{path, 0, "", "read error"});
  }
  return out.str();
}

core::Expected<Json, ConfigError> load_json(const std::string& path) {
  auto text = read_file(path);
  if (!text) return core::unexpected(std::move(text).error());
  auto parsed = parse_json(*text);
  if (const auto* err = std::get_if<JsonParseError>(&parsed)) {
    return core::unexpected(ConfigError{path, err->position, "", err->message});
  }
  return std::get<Json>(std::move(parsed));
}

core::Expected<lab::LabConfig, ConfigError> load_config(const std::string& path) {
  auto json = load_json(path);
  if (!json) return core::unexpected(std::move(json).error());
  if (!json->is_object()) {
    return core::unexpected(
        ConfigError{path, 0, "", "top-level value must be a JSON object"});
  }
  lab::LabConfig config = lab_config_from_json(*json);
  if (auto err = validate_lab_config(config, path)) {
    return core::unexpected(std::move(*err));
  }
  return config;
}

}  // namespace ranycast::io
