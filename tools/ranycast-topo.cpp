// ranycast-topo — generate a synthetic Internet and inspect it.
//
//   ranycast-topo [--seed N] [--stubs N] [--format summary|dot|csv]
//
//   summary  population and connectivity statistics (default)
//   dot      Graphviz digraph of the transit hierarchy (stubs omitted)
//   csv      one row per AS: asn,kind,home,country,international,degree
#include <climits>
#include <cstdio>
#include <iostream>

#include "ranycast/analysis/export.hpp"
#include "ranycast/core/flags.hpp"
#include "ranycast/topo/generator.hpp"
#include "tool_cli.hpp"

using namespace ranycast;

namespace {

void print_summary(const topo::World& world) {
  const auto& g = world.graph;
  std::size_t tier1 = 0, transit = 0, stub = 0, intl = 0;
  std::size_t transit_edges = 0, public_peerings = 0, rs_peerings = 0;
  for (const topo::AsNode& n : g.nodes()) {
    switch (n.kind) {
      case topo::AsKind::Tier1:
        ++tier1;
        break;
      case topo::AsKind::Transit:
        ++transit;
        break;
      case topo::AsKind::Stub:
        ++stub;
        break;
    }
    if (n.international) ++intl;
    for (const topo::Edge& e : n.edges) {
      // Count each undirected link once, from the lower ASN's side.
      if (value(n.asn) > value(e.neighbor)) continue;
      switch (e.rel) {
        case topo::Rel::Customer:
        case topo::Rel::Provider:
          ++transit_edges;
          break;
        case topo::Rel::PeerPublic:
          ++public_peerings;
          break;
        case topo::Rel::PeerRouteServer:
          ++rs_peerings;
          break;
      }
    }
  }
  std::printf("ASes: %zu (tier-1 %zu, transit %zu, stub %zu; international %zu)\n",
              g.nodes().size(), tier1, transit, stub, intl);
  std::printf("links: %zu (transit %zu, public peering %zu, route-server %zu)\n",
              g.edge_count(), transit_edges, public_peerings, rs_peerings);
  std::printf("IXPs: %zu\n", g.ixps().size());
  for (const topo::Ixp& ixp : g.ixps()) {
    std::printf("  %-8s %-16s %3zu members\n", ixp.name.c_str(),
                std::string(geo::Gazetteer::world().city(ixp.city).name).c_str(),
                ixp.members.size());
  }
}

void print_dot(const topo::World& world) {
  const auto& gaz = geo::Gazetteer::world();
  std::printf("digraph internet {\n  rankdir=BT;\n");
  for (const topo::AsNode& n : world.graph.nodes()) {
    if (n.kind == topo::AsKind::Stub) continue;
    std::printf("  as%u [label=\"AS%u\\n%s\" shape=%s];\n", value(n.asn), value(n.asn),
                std::string(gaz.city(n.home_city).iata).c_str(),
                n.kind == topo::AsKind::Tier1 ? "doubleoctagon" : "box");
  }
  for (const topo::AsNode& n : world.graph.nodes()) {
    if (n.kind == topo::AsKind::Stub) continue;
    for (const topo::Edge& e : n.edges) {
      const topo::AsNode* peer = world.graph.find(e.neighbor);
      if (peer == nullptr || peer->kind == topo::AsKind::Stub) continue;
      if (e.rel == topo::Rel::Provider) {
        std::printf("  as%u -> as%u;\n", value(n.asn), value(e.neighbor));
      } else if (topo::is_peer(e.rel) && value(n.asn) < value(e.neighbor)) {
        std::printf("  as%u -> as%u [dir=none style=%s];\n", value(n.asn), value(e.neighbor),
                    e.rel == topo::Rel::PeerRouteServer ? "dotted" : "dashed");
      }
    }
  }
  std::printf("}\n");
}

void print_csv(const topo::World& world) {
  const auto& gaz = geo::Gazetteer::world();
  analysis::CsvWriter csv({"asn", "kind", "home", "country", "international", "degree"});
  for (const topo::AsNode& n : world.graph.nodes()) {
    csv.add_row({std::to_string(value(n.asn)), std::string(topo::to_string(n.kind)),
                 std::string(gaz.city(n.home_city).iata),
                 std::string(gaz.country_code(n.home_city)),
                 n.international ? "1" : "0", std::to_string(n.edges.size())});
  }
  csv.write(std::cout);
}

}  // namespace

int main(int argc, char** argv) {
  const flags::Parser args(argc, argv);
  for (const auto& bad : args.unknown({"seed", "stubs", "format"})) {
    return tool::fail("unknown flag --" + bad);
  }
  topo::GeneratorParams params;
  const auto seed = tool::uint_flag(args, "seed", UINT64_MAX);
  const auto stubs = tool::uint_flag(args, "stubs", INT_MAX);
  if (!seed || !stubs) return tool::fail((!seed ? seed : stubs).error());
  params.seed = seed->value_or(params.seed);
  params.stub_count = static_cast<int>(stubs->value_or(params.stub_count));
  const topo::World world = topo::generate_world(params);

  const std::string format = args.get_or("format", std::string("summary"));
  if (format == "dot") {
    print_dot(world);
  } else if (format == "csv") {
    print_csv(world);
  } else {
    print_summary(world);
  }
  return 0;
}
