#include "net/switch_node.hpp"

#include <stdexcept>
#include <string_view>
#include <unordered_map>

namespace hydra::net {

namespace {

struct Binding {
  const char* annotation;
  HeaderKind kind;
};

// Every annotation the data plane understands, each listed once.
constexpr Binding kBindings[] = {
    {"std.last_hop", HeaderKind::kLastHop},
    {"std.first_hop", HeaderKind::kFirstHop},
    {"std.packet_length", HeaderKind::kPacketLength},
    {"in_port", HeaderKind::kInPort},
    {"ig_port", HeaderKind::kInPort},
    {"standard_metadata.ingress_port", HeaderKind::kInPort},
    {"eg_port", HeaderKind::kEgPort},
    {"egress_port", HeaderKind::kEgPort},
    {"standard_metadata.egress_port", HeaderKind::kEgPort},
    {"switch_id", HeaderKind::kSwitchId},
    {"to_be_dropped", HeaderKind::kToBeDropped},
    {"eth_src", HeaderKind::kEthSrc},
    {"hdr.ethernet.src_addr", HeaderKind::kEthSrc},
    {"eth_dst", HeaderKind::kEthDst},
    {"hdr.ethernet.dst_addr", HeaderKind::kEthDst},
    {"eth_type", HeaderKind::kEthType},
    {"hdr.ethernet.ether_type", HeaderKind::kEthType},
    {"vlan_is_valid", HeaderKind::kVlanValid},
    {"vlan_id", HeaderKind::kVlanId},
    {"hdr.vlan.vid", HeaderKind::kVlanId},
    {"ipv4_is_valid", HeaderKind::kIpv4Valid},
    {"ipv4_src", HeaderKind::kIpv4Src},
    {"outer_ipv4_src", HeaderKind::kIpv4Src},
    {"hdr.ipv4.src_addr", HeaderKind::kIpv4Src},
    {"ipv4_dst", HeaderKind::kIpv4Dst},
    {"outer_ipv4_dst", HeaderKind::kIpv4Dst},
    {"hdr.ipv4.dst_addr", HeaderKind::kIpv4Dst},
    {"ipv4_proto", HeaderKind::kIpv4Proto},
    {"outer_ipv4_proto", HeaderKind::kIpv4Proto},
    {"hdr.ipv4.protocol", HeaderKind::kIpv4Proto},
    {"ipv4_ttl", HeaderKind::kIpv4Ttl},
    {"ipv4_dscp", HeaderKind::kIpv4Dscp},
    {"tcp_is_valid", HeaderKind::kTcpValid},
    {"udp_is_valid", HeaderKind::kUdpValid},
    {"tcp_sport", HeaderKind::kTcpSport},
    {"outer_tcp_sport", HeaderKind::kTcpSport},
    {"tcp_dport", HeaderKind::kTcpDport},
    {"outer_tcp_dport", HeaderKind::kTcpDport},
    {"udp_sport", HeaderKind::kUdpSport},
    {"outer_udp_sport", HeaderKind::kUdpSport},
    {"udp_dport", HeaderKind::kUdpDport},
    {"outer_udp_dport", HeaderKind::kUdpDport},
    {"l4_sport", HeaderKind::kL4Sport},
    {"l4_dport", HeaderKind::kL4Dport},
    {"gtpu_is_valid", HeaderKind::kGtpuValid},
    {"gtpu_teid", HeaderKind::kGtpuTeid},
    {"inner_ipv4_is_valid", HeaderKind::kInnerIpv4Valid},
    {"inner_ipv4_src", HeaderKind::kInnerIpv4Src},
    {"inner_ipv4_dst", HeaderKind::kInnerIpv4Dst},
    {"inner_ipv4_proto", HeaderKind::kInnerIpv4Proto},
    {"inner_tcp_is_valid", HeaderKind::kInnerTcpValid},
    {"inner_udp_is_valid", HeaderKind::kInnerUdpValid},
    {"inner_tcp_sport", HeaderKind::kInnerTcpSport},
    {"inner_tcp_dport", HeaderKind::kInnerTcpDport},
    {"inner_udp_sport", HeaderKind::kInnerUdpSport},
    {"inner_udp_dport", HeaderKind::kInnerUdpDport},
    {"sr_is_valid", HeaderKind::kSrValid},
    {"sr_depth", HeaderKind::kSrDepth},
};

constexpr char kSrPortPrefix[] = "sr_port_";

bool is_flag(HeaderKind k) {
  switch (k) {
    case HeaderKind::kLastHop:
    case HeaderKind::kFirstHop:
    case HeaderKind::kToBeDropped:
    case HeaderKind::kVlanValid:
    case HeaderKind::kIpv4Valid:
    case HeaderKind::kTcpValid:
    case HeaderKind::kUdpValid:
    case HeaderKind::kGtpuValid:
    case HeaderKind::kInnerIpv4Valid:
    case HeaderKind::kInnerTcpValid:
    case HeaderKind::kInnerUdpValid:
    case HeaderKind::kSrValid:
      return true;
    default:
      return false;
  }
}

// TCP/UDP validity follows the IPv4 protocol of the same header level.
bool l4_is(const std::optional<p4rt::Ipv4H>& ip,
           const std::optional<p4rt::L4H>& l4, std::uint8_t proto) {
  return ip && l4 && ip->proto == proto;
}

}  // namespace

std::optional<HeaderField> bind_header(const std::string& annotation) {
  static const std::unordered_map<std::string_view, HeaderKind> by_name = [] {
    std::unordered_map<std::string_view, HeaderKind> m;
    for (const Binding& b : kBindings) m.emplace(b.annotation, b.kind);
    return m;
  }();
  const auto it = by_name.find(annotation);
  if (it != by_name.end()) return HeaderField{it->second, 0};
  // sr_port_<i>: the i-th remaining hop in travel order.
  const std::size_t prefix = sizeof(kSrPortPrefix) - 1;
  if (annotation.size() > prefix && annotation.size() <= prefix + 5 &&
      annotation.compare(0, prefix, kSrPortPrefix) == 0) {
    std::uint32_t i = 0;
    for (std::size_t c = prefix; c < annotation.size(); ++c) {
      if (annotation[c] < '0' || annotation[c] > '9') return std::nullopt;
      i = i * 10 + static_cast<std::uint32_t>(annotation[c] - '0');
    }
    if (i <= 0xffff) {
      return HeaderField{HeaderKind::kSrPort, static_cast<std::uint16_t>(i)};
    }
  }
  return std::nullopt;
}

std::uint64_t read_header(HeaderField field, const p4rt::Packet& pkt,
                          const HopContext& ctx) {
  using K = HeaderKind;
  using p4rt::kProtoTcp;
  using p4rt::kProtoUdp;
  const auto& ip = pkt.ipv4;
  const auto& l4 = pkt.l4;
  const auto& iip = pkt.inner_ipv4;
  const auto& il4 = pkt.inner_l4;
  switch (field.kind) {
    case K::kLastHop: return ctx.last_hop;
    case K::kFirstHop: return ctx.first_hop;
    case K::kPacketLength:
      return static_cast<std::uint32_t>(ctx.wire_bytes);
    case K::kInPort:
      return static_cast<std::uint64_t>(ctx.in_port < 0 ? 0xff : ctx.in_port);
    case K::kEgPort:
      return static_cast<std::uint64_t>(ctx.eg_port < 0 ? 0xff : ctx.eg_port);
    case K::kSwitchId: return ctx.switch_tag;
    case K::kToBeDropped: return ctx.fwd_drop;
    case K::kEthSrc: return pkt.eth.src;
    case K::kEthDst: return pkt.eth.dst;
    case K::kEthType: return pkt.eth.ethertype;
    case K::kVlanValid: return pkt.vlan.has_value();
    case K::kVlanId: return pkt.vlan ? pkt.vlan->vid : 0;
    case K::kIpv4Valid: return ip.has_value();
    case K::kIpv4Src: return ip ? ip->src : 0;
    case K::kIpv4Dst: return ip ? ip->dst : 0;
    case K::kIpv4Proto: return ip ? ip->proto : 0;
    case K::kIpv4Ttl: return ip ? ip->ttl : 0;
    case K::kIpv4Dscp: return ip ? ip->dscp : 0;
    case K::kTcpValid: return l4_is(ip, l4, kProtoTcp);
    case K::kUdpValid: return l4_is(ip, l4, kProtoUdp);
    case K::kTcpSport: return l4_is(ip, l4, kProtoTcp) ? l4->sport : 0;
    case K::kTcpDport: return l4_is(ip, l4, kProtoTcp) ? l4->dport : 0;
    case K::kUdpSport: return l4_is(ip, l4, kProtoUdp) ? l4->sport : 0;
    case K::kUdpDport: return l4_is(ip, l4, kProtoUdp) ? l4->dport : 0;
    case K::kL4Sport: return l4 ? l4->sport : 0;
    case K::kL4Dport: return l4 ? l4->dport : 0;
    case K::kGtpuValid: return pkt.gtpu.has_value();
    case K::kGtpuTeid: return pkt.gtpu ? pkt.gtpu->teid : 0;
    case K::kInnerIpv4Valid: return iip.has_value();
    case K::kInnerIpv4Src: return iip ? iip->src : 0;
    case K::kInnerIpv4Dst: return iip ? iip->dst : 0;
    case K::kInnerIpv4Proto: return iip ? iip->proto : 0;
    case K::kInnerTcpValid: return l4_is(iip, il4, kProtoTcp);
    case K::kInnerUdpValid: return l4_is(iip, il4, kProtoUdp);
    case K::kInnerTcpSport:
      return l4_is(iip, il4, kProtoTcp) ? il4->sport : 0;
    case K::kInnerTcpDport:
      return l4_is(iip, il4, kProtoTcp) ? il4->dport : 0;
    case K::kInnerUdpSport:
      return l4_is(iip, il4, kProtoUdp) ? il4->sport : 0;
    case K::kInnerUdpDport:
      return l4_is(iip, il4, kProtoUdp) ? il4->dport : 0;
    case K::kSrValid: return pkt.has_sr;
    case K::kSrDepth: return pkt.sr_stack.size();
    case K::kSrPort:
      // The stack is popped from the back; at the first hop, before any
      // pop, index 0 is the sender's declared first hop.
      return field.sr_index < pkt.sr_stack.size()
                 ? pkt.sr_stack[pkt.sr_stack.size() - 1 - field.sr_index]
                 : 0;
  }
  return 0;
}

BitVec resolve_header(const p4rt::Packet& pkt, const HopContext& ctx,
                      const std::string& annotation, int width) {
  const std::optional<HeaderField> field = bind_header(annotation);
  if (!field) {
    throw std::invalid_argument("unknown header annotation '" + annotation +
                                "'");
  }
  const int w = is_flag(field->kind)                        ? 1
                : field->kind == HeaderKind::kPacketLength ? 32
                                                            : width;
  return BitVec(w, read_header(*field, pkt, ctx));
}

}  // namespace hydra::net
