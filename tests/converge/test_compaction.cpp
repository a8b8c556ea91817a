// Path-arena compaction: every step ends by moving the live routes' paths
// into a fresh arena, each live node once. Over many withdraw/restore
// cycles the arena must stay within the live RIB's hops (shared prefixes
// staying shared), and compaction must never perturb a route: each step
// quiesces onto what a fresh cold start on the same state selects.
#include <gtest/gtest.h>

#include <memory>
#include <tuple>
#include <vector>

#include "ranycast/cdn/catalog.hpp"
#include "ranycast/converge/sim.hpp"
#include "ranycast/core/rng.hpp"
#include "ranycast/lab/lab.hpp"

namespace ranycast::converge {
namespace {

void expect_same_routes(const PrefixSim& sim, const PrefixSim& cold, int cycle) {
  ASSERT_EQ(sim.node_count(), cold.node_count());
  for (std::size_t i = 0; i < sim.node_count(); ++i) {
    const auto a = sim.route_view(i);
    const auto b = cold.route_view(i);
    ASSERT_EQ(std::tie(a.valid, a.site, a.cls, a.len, a.ingress_km, a.tiebreak),
              std::tie(b.valid, b.site, b.cls, b.len, b.ingress_km, b.tiebreak))
        << "cycle " << cycle << " node " << i;
    ASSERT_EQ(sim.catchment(i), cold.catchment(i)) << "cycle " << cycle << " node " << i;
  }
}

TEST(ConvergeCompaction, ArenaStaysWithinLiveRibOverWithdrawRestoreCycles) {
  lab::LabConfig config;
  config.world.stub_count = 400;
  config.census.total_probes = 1200;
  auto laboratory = lab::Lab::create(config);
  const auto& im6 = laboratory.add_deployment(cdn::catalog::imperva6());
  const topo::Graph& g = laboratory.world().graph;
  const auto index = std::make_shared<const SessionIndex>(g);
  Config cfg;
  cfg.timers.mrai_us = 500'000;
  const std::uint64_t seed = hash_combine(laboratory.config().seed, 0);
  const Asn cdn = im6.deployment.asn();
  const auto origins = im6.deployment.origins_for_region(0);
  ASSERT_GE(origins.size(), 2u);

  PrefixSim sim(g, index, cdn, seed, cfg);
  PrefixSim cold(g, index, cdn, seed, cfg);
  sim.cold_start(origins);
  ASSERT_FALSE(sim.run_step({}).oscillating);
  ASSERT_GT(sim.path_nodes(), 0u);
  ASSERT_LE(sim.path_nodes(), sim.rib_hops());
  const std::size_t quiesced_nodes = sim.path_nodes();

  for (int cycle = 0; cycle < 200; ++cycle) {
    const std::size_t k = static_cast<std::size_t>(cycle) % origins.size();
    const OriginDelta withdraw{false, origins[k]};
    const OriginDelta restore{true, origins[k]};

    ASSERT_FALSE(sim.run_step({&withdraw, 1}).oscillating) << cycle;
    ASSERT_LE(sim.path_nodes(), sim.rib_hops()) << "cycle " << cycle;
    std::vector<bgp::OriginAttachment> rest;
    for (std::size_t o = 0; o < origins.size(); ++o) {
      if (o != k) rest.push_back(origins[o]);
    }
    cold.cold_start(rest);
    expect_same_routes(sim, cold, cycle);

    ASSERT_FALSE(sim.run_step({&restore, 1}).oscillating) << cycle;
    ASSERT_LE(sim.path_nodes(), sim.rib_hops()) << "cycle " << cycle;
    rest.push_back(origins[k]);
    cold.cold_start(rest);
    expect_same_routes(sim, cold, cycle);
  }
  // Prefixes shared between routes stay shared: the arena holds strictly
  // fewer nodes than the routes have hops, and the cycles leave it no
  // larger than after the first, quiet step.
  EXPECT_LT(sim.path_nodes(), sim.rib_hops());
  EXPECT_LE(sim.path_nodes(), quiesced_nodes);
}

}  // namespace
}  // namespace ranycast::converge
