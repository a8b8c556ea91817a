// SessionIndex: the shared reverse-edge table every region's PrefixSim
// reads. It must equal a brute-force scan of the neighbour's edge list on a
// generated world, ignore link up/down state, refuse graphs whose edges
// lack a reverse, and a sim over a shared index must behave exactly like
// one that built its own.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <stdexcept>
#include <tuple>
#include <vector>

#include "ranycast/cdn/catalog.hpp"
#include "ranycast/converge/sim.hpp"
#include "ranycast/core/rng.hpp"
#include "ranycast/geo/gazetteer.hpp"
#include "ranycast/io/json.hpp"
#include "ranycast/lab/lab.hpp"
#include "ranycast/topo/generator.hpp"

namespace ranycast::converge {
namespace {

/// The reverse-edge lookup the index replaces: scan the neighbour's whole
/// edge list for the first edge back.
void expect_matches_brute_force(const topo::Graph& g, const SessionIndex& index) {
  const auto nodes = g.nodes();
  ASSERT_EQ(index.node_count(), nodes.size());
  std::size_t sessions = 0;
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    ASSERT_EQ(index.degree(i), nodes[i].edges.size()) << "node " << i;
    ASSERT_EQ(index.offset(i), sessions) << "node " << i;
    sessions += nodes[i].edges.size();
    for (std::size_t j = 0; j < nodes[i].edges.size(); ++j) {
      const auto peer = g.index_of(nodes[i].edges[j].neighbor);
      ASSERT_TRUE(peer.has_value());
      const auto& back = nodes[*peer].edges;
      std::size_t reverse = back.size();
      for (std::size_t k = 0; k < back.size(); ++k) {
        if (back[k].neighbor == nodes[i].asn) {
          reverse = k;
          break;
        }
      }
      ASSERT_LT(reverse, back.size()) << "node " << i << " edge " << j;
      EXPECT_EQ(index.at(i, j).peer, *peer) << "node " << i << " edge " << j;
      EXPECT_EQ(index.at(i, j).reverse, reverse) << "node " << i << " edge " << j;
    }
  }
  EXPECT_EQ(index.session_count(), sessions);
}

TEST(SessionIndex, MatchesBruteForceOnDefaultWorld) {
  const topo::World world = topo::generate_world(topo::GeneratorParams{});
  expect_matches_brute_force(world.graph, SessionIndex(world.graph));
}

TEST(SessionIndex, CoversStructureNotLinkState) {
  topo::World world = topo::generate_world(topo::GeneratorParams{});
  topo::Graph& g = world.graph;
  const SessionIndex before(g);

  // Down every fifth adjacency of the ten busiest ASes, each pair once.
  std::vector<std::size_t> order(g.nodes().size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::partial_sort(order.begin(), order.begin() + 10, order.end(),
                    [&](std::size_t a, std::size_t b) {
                      return g.nodes()[a].edges.size() > g.nodes()[b].edges.size();
                    });
  std::size_t downed = 0;
  for (std::size_t k = 0; k < 10; ++k) {
    const topo::AsNode& hub = g.nodes()[order[k]];
    std::vector<Asn> peers;
    for (std::size_t j = 0; j < hub.edges.size(); j += 5) {
      if (hub.edges[j].up) peers.push_back(hub.edges[j].neighbor);
    }
    const Asn asn = hub.asn;
    for (const Asn peer : peers) {
      ASSERT_TRUE(g.set_link_state(asn, peer, false));
      ++downed;
    }
  }
  ASSERT_GT(downed, 100u);

  const SessionIndex after(g);
  expect_matches_brute_force(g, after);
  ASSERT_EQ(after.session_count(), before.session_count());
  for (std::size_t i = 0; i < g.nodes().size(); ++i) {
    for (std::size_t j = 0; j < after.degree(i); ++j) {
      EXPECT_EQ(after.at(i, j).peer, before.at(i, j).peer);
      EXPECT_EQ(after.at(i, j).reverse, before.at(i, j).reverse);
    }
  }
}

TEST(SessionIndex, MissingReverseEdgeThrows) {
  topo::Graph g;
  const CityId ams = *geo::Gazetteer::world().find_by_iata("AMS");
  const Asn a = g.add_as(topo::AsKind::Transit, ams, {ams});
  const Asn b = g.add_as(topo::AsKind::Transit, ams, {ams});
  const Asn c = g.add_as(topo::AsKind::Stub, ams, {ams});
  ASSERT_TRUE(g.add_transit(c, a, {ams}));
  EXPECT_NO_THROW(SessionIndex{g});

  // Half an adjacency: a lists b, b does not list a. Updates a sends on it
  // would have no session at b to land on.
  g.find(a)->edges.push_back(topo::Edge{b, topo::Rel::PeerPublic, true, {ams}});
  EXPECT_THROW(SessionIndex{g}, std::logic_error);
  EXPECT_THROW(PrefixSim(g, make_asn(65000), 1, Config{}), std::logic_error);
}

TEST(SessionIndex, UnknownNeighbourThrows) {
  topo::Graph g;
  const CityId ams = *geo::Gazetteer::world().find_by_iata("AMS");
  const Asn a = g.add_as(topo::AsKind::Transit, ams, {ams});
  g.find(a)->edges.push_back(topo::Edge{make_asn(999), topo::Rel::Customer, true, {ams}});
  EXPECT_THROW(SessionIndex{g}, std::logic_error);
}

TEST(SessionIndex, IndexOfAnotherGraphIsRejected) {
  const topo::World world = topo::generate_world(topo::GeneratorParams{});
  topo::Graph small;
  const CityId ams = *geo::Gazetteer::world().find_by_iata("AMS");
  small.add_as(topo::AsKind::Stub, ams, {ams});
  const auto index = std::make_shared<const SessionIndex>(world.graph);
  EXPECT_THROW(PrefixSim(small, index, make_asn(65000), 1, Config{}), std::invalid_argument);
}

auto timeline_fields(const NodeTimeline& t) {
  return std::make_tuple(t.changed, t.first_change_us, t.last_change_us, t.rib_changes,
                         t.site_flips, t.blackhole_us, t.routed_initially, t.routed_finally,
                         t.dark_at_end, t.looped);
}

TEST(SessionIndex, SharedIndexSimMatchesPrivateIndexSim) {
  lab::LabConfig config;
  config.world.stub_count = 400;
  config.census.total_probes = 1200;
  auto laboratory = lab::Lab::create(config);
  const auto& im6 = laboratory.add_deployment(cdn::catalog::imperva6());
  // The lab is const from here on; link flaps go through a private copy of
  // its graph, which both sims read.
  topo::Graph g = laboratory.world().graph;
  Config cfg;
  cfg.timers.mrai_us = 500'000;
  const std::uint64_t seed = hash_combine(laboratory.config().seed, 0);
  const auto origins = im6.deployment.origins_for_region(0);
  ASSERT_GE(origins.size(), 1u);

  const auto shared = std::make_shared<const SessionIndex>(g);
  PrefixSim with_shared(g, shared, im6.deployment.asn(), seed, cfg);
  PrefixSim with_own(g, im6.deployment.asn(), seed, cfg);

  // A busy adjacency of the first origin's neighbour to flap.
  const topo::AsNode& holder = *g.find(origins[0].neighbor);
  ASSERT_FALSE(holder.edges.empty());
  const Asn flap_a = holder.asn;
  const Asn flap_b = holder.edges.front().neighbor;

  const auto expect_same = [&](const RegionTransient& x, const RegionTransient& y,
                               const char* what) {
    EXPECT_EQ(io::to_json(x).dump(), io::to_json(y).dump()) << what;
    const auto tx = with_shared.timelines();
    const auto ty = with_own.timelines();
    ASSERT_EQ(tx.size(), ty.size());
    for (std::size_t i = 0; i < tx.size(); ++i) {
      ASSERT_EQ(timeline_fields(tx[i]), timeline_fields(ty[i])) << what << " node " << i;
      const auto vx = with_shared.route_view(i);
      const auto vy = with_own.route_view(i);
      ASSERT_EQ(std::tie(vx.valid, vx.site, vx.cls, vx.len, vx.ingress_km, vx.tiebreak),
                std::tie(vy.valid, vy.site, vy.cls, vy.len, vy.ingress_km, vy.tiebreak))
          << what << " node " << i;
    }
  };

  expect_same(with_shared.cold_start(origins), with_own.cold_start(origins), "cold start");
  const OriginDelta withdraw{false, origins[0]};
  const OriginDelta restore{true, origins[0]};
  const auto w = with_shared.run_step({&withdraw, 1});
  expect_same(w, with_own.run_step({&withdraw, 1}), "withdraw");
  EXPECT_GT(w.nodes_changed, 0u);
  expect_same(with_shared.run_step({&restore, 1}), with_own.run_step({&restore, 1}),
              "restore");
  ASSERT_TRUE(g.set_link_state(flap_a, flap_b, false));
  expect_same(with_shared.run_step({}), with_own.run_step({}), "link down");
  ASSERT_TRUE(g.set_link_state(flap_a, flap_b, true));
  expect_same(with_shared.run_step({}), with_own.run_step({}), "link up");
  const TimedLinkFlip flaps[] = {{200'000, flap_a, flap_b, false},
                                 {900'000, flap_a, flap_b, true}};
  expect_same(with_shared.run_step({}, flaps), with_own.run_step({}, flaps), "timed flap");
}

}  // namespace
}  // namespace ranycast::converge
