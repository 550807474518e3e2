/// \file dqos_topo.cpp
/// Topology inspector: builds any topology the library supports and prints
/// its structure, a Graphviz DOT rendering, and route diagnostics — handy
/// when designing a deployment or debugging path balance.
///
///   dqos_topo --topology=clos --leaves=16 --hosts-per-leaf=8 --spines=8
///   dqos_topo --topology=mesh --mesh-width=4 --mesh-height=4 --dot=net.dot
///   dqos_topo --topology=kary --kary-k=4 --kary-n=2 --routes=0,15
#include <cstdio>
#include <string>

#include "core/config_io.hpp"
#include "topo/kary_ntree.hpp"
#include "topo/mesh2d.hpp"
#include "topo/single_switch.hpp"
#include "topo/two_level_clos.hpp"
#include "util/table.hpp"

using namespace dqos;

namespace {

std::unique_ptr<Topology> build(const SimConfig& cfg) {
  switch (cfg.topology) {
    case TopologyKind::kFoldedClos:
      return make_two_level_clos(cfg.num_leaves, cfg.hosts_per_leaf,
                                 cfg.num_spines);
    case TopologyKind::kKaryNTree:
      return make_kary_ntree(cfg.kary_k, cfg.kary_n);
    case TopologyKind::kSingleSwitch:
      return make_single_switch(cfg.single_switch_hosts);
    case TopologyKind::kMesh2D:
      return make_mesh2d(cfg.mesh_width, cfg.mesh_height, cfg.mesh_concentration);
  }
  return nullptr;
}

bool dump_dot(const Topology& topo, const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) return false;
  std::fputs("graph dqos {\n  overlap=false;\n", f);
  for (NodeId h = 0; h < topo.num_hosts(); ++h) {
    std::fprintf(f, "  h%u [shape=circle,label=\"h%u\"];\n", h, h);
  }
  for (std::uint32_t s = 0; s < topo.num_switches(); ++s) {
    std::fprintf(f, "  s%u [shape=box,style=filled,label=\"sw%u\"];\n",
                 topo.switch_id(s), topo.switch_index(topo.switch_id(s)));
  }
  // Each undirected link once: emit only from the lower node id.
  for (NodeId n = 0; n < topo.num_nodes(); ++n) {
    for (PortId p = 0; p < topo.num_ports(n); ++p) {
      const Endpoint e = topo.peer(n, p);
      if (!e.valid() || e.node < n) continue;
      std::fprintf(f, "  %c%u -- %c%u;\n", topo.is_host(n) ? 'h' : 's', n,
                   topo.is_host(e.node) ? 'h' : 's', e.node);
    }
  }
  std::fputs("}\n", f);
  std::fclose(f);
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  ArgParser args(argc, argv);
  const SimConfig cfg = config_from_args(args);
  const auto topo = build(cfg);
  topo->validate();

  std::printf("topology: %s\n", topo->name().c_str());
  std::printf("hosts: %u, switches: %u\n", topo->num_hosts(), topo->num_switches());

  // Port-count summary per switch.
  std::size_t wired = 0, total_ports = 0;
  for (std::uint32_t s = 0; s < topo->num_switches(); ++s) {
    const NodeId id = topo->switch_id(s);
    total_ports += topo->num_ports(id);
    for (PortId p = 0; p < topo->num_ports(id); ++p) {
      if (topo->peer(id, p).valid()) ++wired;
    }
  }
  std::printf("switch ports: %zu (%zu wired)\n", total_ports, wired);

  // Route diversity / length statistics over all pairs.
  StreamingStats lengths, diversity;
  for (NodeId s = 0; s < topo->num_hosts(); ++s) {
    for (NodeId d = 0; d < topo->num_hosts(); ++d) {
      if (s == d) continue;
      diversity.add(static_cast<double>(topo->route_count(s, d)));
      lengths.add(static_cast<double>(topo->build_route(s, d, 0).length()));
    }
  }
  std::printf("route length: mean %.2f switch hops (max %.0f)\n", lengths.mean(),
              lengths.max());
  std::printf("path diversity: mean %.2f minimal paths/pair (max %.0f)\n",
              diversity.mean(), diversity.max());

  if (const auto pair = args.get("routes")) {
    const auto comma = pair->find(',');
    if (comma != std::string::npos) {
      const auto src = static_cast<NodeId>(std::stoul(pair->substr(0, comma)));
      const auto dst = static_cast<NodeId>(std::stoul(pair->substr(comma + 1)));
      std::printf("\nminimal routes %u -> %u:\n", src, dst);
      for (std::size_t c = 0; c < topo->route_count(src, dst); ++c) {
        std::printf("  [%zu] ", c);
        for (const auto& e : topo->route_links(src, dst, c)) {
          std::printf("(%s%u:p%u) ", topo->is_host(e.node) ? "h" : "s", e.node,
                      e.port);
        }
        std::printf("\n");
      }
    }
  }

  if (const auto dot = args.get("dot")) {
    if (dump_dot(*topo, *dot)) {
      std::printf("\nwrote Graphviz DOT to %s\n", dot->c_str());
    } else {
      std::fprintf(stderr, "cannot write %s\n", dot->c_str());
      return 1;
    }
  }
  return 0;
}
