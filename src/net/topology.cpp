#include "net/topology.hpp"

#include <stdexcept>

namespace hydra::net {

int Topology::node_checked(int id) const {
  if (id < 0 || id >= node_count()) {
    throw std::out_of_range("node id " + std::to_string(id));
  }
  return id;
}

int Topology::add_switch(const std::string& name) {
  NodeSpec n;
  n.kind = NodeKind::kSwitch;
  n.name = name;
  nodes_.push_back(std::move(n));
  port_begin_.push_back(port_begin_.back());
  return node_count() - 1;
}

int Topology::add_host(const std::string& name, std::uint32_t ip) {
  NodeSpec n;
  n.kind = NodeKind::kHost;
  n.name = name;
  n.ip = ip;
  n.mac = 0x020000000000ULL + static_cast<std::uint64_t>(nodes_.size());
  nodes_.push_back(std::move(n));
  port_begin_.push_back(port_begin_.back());
  return node_count() - 1;
}

int Topology::add_link(PortRef a, PortRef b, double latency_s, double gbps,
                       double buffer_bytes) {
  node_checked(a.node);
  node_checked(b.node);
  constexpr int kMaxPort = 0xffff;
  if (a.port < 0 || b.port < 0 || a.port > kMaxPort || b.port > kMaxPort) {
    throw std::invalid_argument("link ports must be in [0, 65535]");
  }
  if (link_index(a) != -1 || link_index(b) != -1) {
    throw std::invalid_argument("port already connected");
  }
  if (buffer_bytes <= 0.0) {
    throw std::invalid_argument("link buffer_bytes must be positive");
  }
  const int index = static_cast<int>(links_.size());
  links_.push_back({a, b, latency_s, gbps, buffer_bytes});
  for (const PortRef end : {a, b}) {
    const auto n = static_cast<std::size_t>(end.node);
    const int grow = end.port + 1 - (port_begin_[n + 1] - port_begin_[n]);
    if (grow > 0) {
      port_links_.insert(port_links_.begin() + port_begin_[n + 1], grow, -1);
      for (std::size_t m = n + 1; m < port_begin_.size(); ++m) {
        port_begin_[m] += grow;
      }
    }
    port_links_[static_cast<std::size_t>(port_begin_[n] + end.port)] = index;
  }
  return index;
}

std::optional<PortRef> Topology::peer(PortRef p) const {
  const int i = link_index(p);
  if (i < 0) return std::nullopt;
  const LinkSpec& l = links_[static_cast<std::size_t>(i)];
  return l.a == p ? l.b : l.a;
}

int Topology::link_index(PortRef p) const {
  if (p.node < 0 || p.node >= node_count() || p.port < 0) return -1;
  const auto n = static_cast<std::size_t>(p.node);
  const int slot = port_begin_[n] + p.port;
  return slot < port_begin_[n + 1]
             ? port_links_[static_cast<std::size_t>(slot)]
             : -1;
}

bool Topology::host_facing(PortRef p) const {
  const auto other = peer(p);
  return other && node(other->node).kind == NodeKind::kHost;
}

int Topology::find_node(const std::string& name) const {
  for (int i = 0; i < node_count(); ++i) {
    if (nodes_[static_cast<std::size_t>(i)].name == name) return i;
  }
  return -1;
}

int Topology::max_port(int node) const {
  int mx = -1;
  for (const auto& l : links_) {
    if (l.a.node == node) mx = std::max(mx, l.a.port);
    if (l.b.node == node) mx = std::max(mx, l.b.port);
  }
  return mx;
}

int FatTree::tier(int node) const {
  for (const auto& pod : edges) {
    for (int e : pod) {
      if (e == node) return 0;
    }
  }
  for (const auto& pod : aggs) {
    for (int a : pod) {
      if (a == node) return 1;
    }
  }
  for (int c : cores) {
    if (c == node) return 2;
  }
  return -1;
}

FatTree make_fat_tree(int k, double host_link_gbps, double fabric_link_gbps,
                      double latency_s) {
  if (k < 2 || k % 2 != 0) {
    throw std::invalid_argument("fat tree requires an even k >= 2");
  }
  FatTree ft;
  ft.k = k;
  const int half = k / 2;

  for (int c = 0; c < half * half; ++c) {
    ft.cores.push_back(ft.topo.add_switch("core" + std::to_string(c + 1)));
  }
  ft.aggs.resize(static_cast<std::size_t>(k));
  ft.edges.resize(static_cast<std::size_t>(k));
  ft.hosts.resize(static_cast<std::size_t>(k));
  for (int p = 0; p < k; ++p) {
    for (int a = 0; a < half; ++a) {
      ft.aggs[static_cast<std::size_t>(p)].push_back(ft.topo.add_switch(
          "agg" + std::to_string(p + 1) + "_" + std::to_string(a + 1)));
    }
    ft.hosts[static_cast<std::size_t>(p)].resize(
        static_cast<std::size_t>(half));
    for (int e = 0; e < half; ++e) {
      const int edge = ft.topo.add_switch(
          "edge" + std::to_string(p + 1) + "_" + std::to_string(e + 1));
      ft.edges[static_cast<std::size_t>(p)].push_back(edge);
      for (int h = 0; h < half; ++h) {
        const std::uint32_t ip =
            ft.edge_prefix(p, e) | static_cast<std::uint32_t>(h + 2);
        const int host = ft.topo.add_host(
            "h" + std::to_string(p + 1) + "_" + std::to_string(e + 1) + "_" +
                std::to_string(h + 1),
            ip);
        ft.hosts[static_cast<std::size_t>(p)][static_cast<std::size_t>(e)]
            .push_back(host);
        ft.topo.add_link({host, 0}, {edge, ft.edge_host_port(h)}, latency_s,
                         host_link_gbps);
      }
      // Edge up-links to every agg in the pod.
      for (int a = 0; a < half; ++a) {
        ft.topo.add_link(
            {edge, ft.edge_up_port(a)},
            {ft.aggs[static_cast<std::size_t>(p)][static_cast<std::size_t>(a)],
             ft.agg_down_port(e)},
            latency_s, fabric_link_gbps);
      }
    }
    // Agg up-links to its core group.
    for (int a = 0; a < half; ++a) {
      for (int j = 0; j < half; ++j) {
        const int core = ft.cores[static_cast<std::size_t>(a * half + j)];
        ft.topo.add_link(
            {ft.aggs[static_cast<std::size_t>(p)][static_cast<std::size_t>(a)],
             ft.agg_up_port(j)},
            {core, ft.core_pod_port(p)}, latency_s, fabric_link_gbps);
      }
    }
  }
  return ft;
}

LeafSpine make_leaf_spine(int num_leaves, int num_spines, int hosts_per_leaf,
                          double host_link_gbps, double fabric_link_gbps,
                          double latency_s) {
  if (num_leaves < 1 || num_spines < 1 || hosts_per_leaf < 1) {
    throw std::invalid_argument("leaf_spine: all dimensions must be >= 1");
  }
  LeafSpine ls;
  ls.hosts_per_leaf = hosts_per_leaf;
  for (int i = 0; i < num_leaves; ++i) {
    ls.leaves.push_back(ls.topo.add_switch("leaf" + std::to_string(i + 1)));
  }
  for (int j = 0; j < num_spines; ++j) {
    ls.spines.push_back(ls.topo.add_switch("spine" + std::to_string(j + 1)));
  }
  ls.hosts.resize(static_cast<std::size_t>(num_leaves));
  int host_counter = 0;
  for (int i = 0; i < num_leaves; ++i) {
    for (int h = 0; h < hosts_per_leaf; ++h) {
      ++host_counter;
      const std::uint32_t ip =
          (10u << 24) | (0u << 16) |
          (static_cast<std::uint32_t>(i + 1) << 8) |
          static_cast<std::uint32_t>(host_counter);
      const int host =
          ls.topo.add_host("h" + std::to_string(host_counter), ip);
      ls.hosts[static_cast<std::size_t>(i)].push_back(host);
      ls.topo.add_link({host, 0}, {ls.leaves[static_cast<std::size_t>(i)],
                                   ls.leaf_host_port(h)},
                       latency_s, host_link_gbps);
    }
  }
  for (int i = 0; i < num_leaves; ++i) {
    for (int j = 0; j < num_spines; ++j) {
      ls.topo.add_link({ls.leaves[static_cast<std::size_t>(i)],
                        ls.leaf_uplink_port(j)},
                       {ls.spines[static_cast<std::size_t>(j)],
                        ls.spine_down_port(i)},
                       latency_s, fabric_link_gbps);
    }
  }
  return ls;
}

}  // namespace hydra::net
