// Unit tests for the header-variable resolver — the "foreign function
// interface" between Indus checkers and the data plane (§3.3) — and for
// the P4 emitter's dialect support.
#include <gtest/gtest.h>

#include "compiler/compile.hpp"
#include "checkers/library.hpp"
#include "net/network.hpp"
#include "net/switch_node.hpp"
#include "net/topology.hpp"

namespace hydra::net {
namespace {

struct Ctx {
  p4rt::Packet pkt;
  HopContext hop;

  BitVec get(const std::string& ann, int width = 32) const {
    return resolve_header(pkt, hop, ann, width);
  }
};

TEST(Resolver, Intrinsics) {
  Ctx c;
  c.hop.first_hop = true;
  c.hop.last_hop = false;
  c.hop.wire_bytes = 123;
  EXPECT_TRUE(c.get("std.first_hop", 1).as_bool());
  EXPECT_FALSE(c.get("std.last_hop", 1).as_bool());
  EXPECT_EQ(c.get("std.packet_length").value(), 123u);
}

TEST(Resolver, Ports) {
  Ctx c;
  c.hop.in_port = 3;
  c.hop.eg_port = 7;
  EXPECT_EQ(c.get("in_port", 8).value(), 3u);
  EXPECT_EQ(c.get("eg_port", 8).value(), 7u);
  // Unset egress port reads as 0xff (invalid sentinel).
  c.hop.eg_port = -1;
  EXPECT_EQ(c.get("eg_port", 8).value(), 0xffu);
}

TEST(Resolver, SwitchIdentityAndDropFlag) {
  Ctx c;
  c.hop.switch_tag = 42;
  c.hop.fwd_drop = true;
  EXPECT_EQ(c.get("switch_id").value(), 42u);
  EXPECT_TRUE(c.get("to_be_dropped", 1).as_bool());
}

TEST(Resolver, Ipv4FieldsAndValidity) {
  Ctx c;
  EXPECT_FALSE(c.get("ipv4_is_valid", 1).as_bool());
  EXPECT_EQ(c.get("ipv4_src").value(), 0u);
  c.pkt = p4rt::make_udp(0x0a000001, 0x0a000002, 10, 20, 64);
  c.pkt.ipv4->dscp = 46;
  EXPECT_TRUE(c.get("ipv4_is_valid", 1).as_bool());
  EXPECT_EQ(c.get("ipv4_src").value(), 0x0a000001u);
  EXPECT_EQ(c.get("ipv4_dst").value(), 0x0a000002u);
  EXPECT_EQ(c.get("ipv4_proto", 8).value(), 17u);
  EXPECT_EQ(c.get("ipv4_dscp", 8).value(), 46u);
}

TEST(Resolver, L4ValidityTracksProto) {
  Ctx udp;
  udp.pkt = p4rt::make_udp(1, 2, 10, 20, 0);
  EXPECT_TRUE(udp.get("udp_is_valid", 1).as_bool());
  EXPECT_FALSE(udp.get("tcp_is_valid", 1).as_bool());
  EXPECT_EQ(udp.get("udp_dport", 16).value(), 20u);
  EXPECT_EQ(udp.get("tcp_dport", 16).value(), 0u);  // invalid -> 0

  Ctx tcp;
  tcp.pkt = p4rt::make_tcp(1, 2, 10, 20, 0);
  EXPECT_TRUE(tcp.get("tcp_is_valid", 1).as_bool());
  EXPECT_FALSE(tcp.get("udp_is_valid", 1).as_bool());
  EXPECT_EQ(tcp.get("tcp_sport", 16).value(), 10u);
  EXPECT_EQ(tcp.get("l4_dport", 16).value(), 20u);
}

TEST(Resolver, GtpuAndInnerHeaders) {
  Ctx c;
  const p4rt::Packet inner = p4rt::make_udp(0x0a640001, 0x0a000203, 999, 81, 64);
  c.pkt = p4rt::gtpu_encap(inner, 0xc0a80001, 0xc0a80002, 777);
  EXPECT_TRUE(c.get("gtpu_is_valid", 1).as_bool());
  EXPECT_EQ(c.get("gtpu_teid").value(), 777u);
  EXPECT_TRUE(c.get("inner_ipv4_is_valid", 1).as_bool());
  EXPECT_EQ(c.get("inner_ipv4_src").value(), 0x0a640001u);
  EXPECT_EQ(c.get("inner_ipv4_dst").value(), 0x0a000203u);
  EXPECT_TRUE(c.get("inner_udp_is_valid", 1).as_bool());
  EXPECT_FALSE(c.get("inner_tcp_is_valid", 1).as_bool());
  EXPECT_EQ(c.get("inner_udp_dport", 16).value(), 81u);
  // Outer view.
  EXPECT_EQ(c.get("outer_ipv4_dst").value(), 0xc0a80002u);
  EXPECT_EQ(c.get("outer_udp_dport", 16).value(),
            static_cast<std::uint64_t>(p4rt::kGtpuPort));
}

TEST(Resolver, VlanFields) {
  Ctx c;
  EXPECT_FALSE(c.get("vlan_is_valid", 1).as_bool());
  c.pkt.vlan = p4rt::VlanH{123};
  EXPECT_TRUE(c.get("vlan_is_valid", 1).as_bool());
  EXPECT_EQ(c.get("vlan_id", 16).value(), 123u);
}

TEST(Resolver, SourceRouteStackInTravelOrder) {
  Ctx c;
  c.pkt.sr_stack = {5, 3, 7};  // back is next hop
  c.pkt.has_sr = true;
  EXPECT_TRUE(c.get("sr_is_valid", 1).as_bool());
  EXPECT_EQ(c.get("sr_depth", 8).value(), 3u);
  EXPECT_EQ(c.get("sr_port_0", 8).value(), 7u);
  EXPECT_EQ(c.get("sr_port_1", 8).value(), 3u);
  EXPECT_EQ(c.get("sr_port_2", 8).value(), 5u);
  EXPECT_EQ(c.get("sr_port_3", 8).value(), 0u);  // past the end
}

TEST(Resolver, EthernetFields) {
  Ctx c;
  c.pkt.eth.src = 0xaabbccddeeffULL;
  c.pkt.eth.dst = 0x112233445566ULL;
  EXPECT_EQ(c.get("eth_src", 48).value(), 0xaabbccddeeffULL);
  EXPECT_EQ(c.get("hdr.ethernet.dst_addr", 48).value(), 0x112233445566ULL);
}

TEST(Resolver, UnknownAnnotationThrows) {
  Ctx c;
  EXPECT_THROW(c.get("no_such_field"), std::invalid_argument);
}

TEST(Resolver, ValueTruncatedToRequestedWidth) {
  Ctx c;
  c.hop.switch_tag = 0x1234;
  EXPECT_EQ(c.get("switch_id", 8).value(), 0x34u);
}

// ---------------------------------------------------------------------------
// Deploy-time header binding
// ---------------------------------------------------------------------------

TEST(HeaderBinding, AliasesBindToOneField) {
  EXPECT_EQ(bind_header("in_port"), bind_header("ig_port"));
  EXPECT_EQ(bind_header("in_port"),
            bind_header("standard_metadata.ingress_port"));
  EXPECT_EQ(bind_header("ipv4_src"), bind_header("hdr.ipv4.src_addr"));
  EXPECT_NE(bind_header("ipv4_src"), bind_header("ipv4_dst"));
  const auto sr = bind_header("sr_port_12");
  ASSERT_TRUE(sr.has_value());
  EXPECT_EQ(sr->kind, HeaderKind::kSrPort);
  EXPECT_EQ(sr->sr_index, 12u);
  EXPECT_NE(bind_header("sr_port_1"), bind_header("sr_port_2"));
}

TEST(HeaderBinding, UnknownAnnotationsDoNotBind) {
  for (const char* ann :
       {"bogus", "", "sr_port_", "sr_port_x", "sr_port_3a", "sr_port_-1",
        "sr_port_+1", "sr_port_65536", "sr_port_99999999999", "IN_PORT"}) {
    EXPECT_FALSE(bind_header(ann).has_value()) << ann;
    Ctx c;
    EXPECT_THROW(c.get(ann), std::invalid_argument) << ann;
  }
  EXPECT_TRUE(bind_header("sr_port_65535").has_value());
}

TEST(HeaderBinding, ResolveHeaderReadsTheBoundField) {
  Ctx c;
  c.pkt = p4rt::make_tcp(0x0a000001, 0x0a000002, 1234, 80, 100);
  c.pkt.sr_stack = {9, 4};
  c.pkt.has_sr = true;
  c.hop.in_port = 2;
  c.hop.eg_port = -1;
  c.hop.switch_tag = 0xabcd;
  c.hop.last_hop = true;
  c.hop.wire_bytes = 1500;
  for (const char* ann :
       {"in_port", "eg_port", "switch_id", "std.last_hop", "std.packet_length",
        "ipv4_src", "tcp_is_valid", "tcp_sport", "udp_sport", "l4_dport",
        "sr_depth", "sr_port_0", "sr_port_1", "sr_port_5"}) {
    const auto field = bind_header(ann);
    ASSERT_TRUE(field.has_value()) << ann;
    const std::uint64_t raw = read_header(*field, c.pkt, c.hop);
    EXPECT_EQ(c.get(ann, 64).value(), raw) << ann;
    // Flags are one bit and std.packet_length 32 bits at any width asked.
    const std::uint64_t narrow =
        std::string(ann) == "std.packet_length" ? raw : raw & 0xff;
    EXPECT_EQ(c.get(ann, 8).value(), narrow) << ann;
  }
  EXPECT_EQ(read_header(*bind_header("eg_port"), c.pkt, c.hop), 0xffu);
  EXPECT_EQ(read_header(*bind_header("sr_port_1"), c.pkt, c.hop), 9u);
}

// A checker whose annotation the data plane lacks fails at deploy, naming
// the checker and the annotation, and takes no slot or generation.
TEST(HeaderBinding, DeployRejectsUnknownAnnotation) {
  const std::string good = "header bit<8> p @\"in_port\";\n"
                           "tele bit<8> t;\n{ t = p; } { } { }";
  for (const char* ann : {"bogus", "sr_port_x", "sr_port_99999999999"}) {
    const std::string bad = "header bit<8> p @\"" + std::string(ann) +
                            "\";\ntele bit<8> t;\n{ t = p; } { } { }";
    auto fabric = make_leaf_spine(2, 2, 1);
    Network net(fabric.topo);
    const auto checker = std::make_shared<const compiler::CompiledChecker>(
        compiler::compile_checker(bad, "bad_checker"));
    for (const bool rolling : {false, true}) {
      try {
        if (rolling) {
          net.deploy_rolling(checker);
        } else {
          net.deploy(checker);
        }
        FAIL() << ann << " accepted";
      } catch (const std::invalid_argument& e) {
        const std::string msg = e.what();
        EXPECT_NE(msg.find("bad_checker"), std::string::npos) << msg;
        EXPECT_NE(msg.find(ann), std::string::npos) << msg;
      }
      EXPECT_EQ(net.deployment_count(), 0);
      EXPECT_TRUE(net.events().empty());
    }
    const int slot =
        net.deploy(std::make_shared<const compiler::CompiledChecker>(
            compiler::compile_checker(good, "good_checker")));
    EXPECT_EQ(slot, 0);
    EXPECT_EQ(net.deployment_generation(slot), 0u);
  }
}

// ---------------------------------------------------------------------------
// Emitter dialects
// ---------------------------------------------------------------------------

TEST(Dialects, TnaUsesTofinoConstructs) {
  compiler::CompileOptions opts;
  opts.dialect = compiler::P4Dialect::kTna;
  const auto c = compiler::compile_checker(
      checkers::checker_by_name("dc_uplink_load_balance").source, "lb",
      opts);
  EXPECT_NE(c.p4_code.find("#include <tna.p4>"), std::string::npos);
  EXPECT_NE(c.p4_code.find("RegisterAction<"), std::string::npos);
  EXPECT_EQ(c.p4_code.find("v1model"), std::string::npos);
}

TEST(Dialects, V1ModelUsesBmv2Constructs) {
  compiler::CompileOptions opts;
  opts.dialect = compiler::P4Dialect::kV1Model;
  const auto c = compiler::compile_checker(
      checkers::checker_by_name("dc_uplink_load_balance").source, "lb",
      opts);
  EXPECT_NE(c.p4_code.find("#include <v1model.p4>"), std::string::npos);
  EXPECT_NE(c.p4_code.find("register<bit<32>>(1)"), std::string::npos);
  EXPECT_NE(c.p4_code.find("_reg.read("), std::string::npos);
  EXPECT_NE(c.p4_code.find("standard_metadata.packet_length"),
            std::string::npos);
  EXPECT_EQ(c.p4_code.find("tna.p4"), std::string::npos);
}

TEST(Dialects, V1ModelDropAndDigest) {
  compiler::CompileOptions opts;
  opts.dialect = compiler::P4Dialect::kV1Model;
  const auto c = compiler::compile_checker(
      checkers::checker_by_name("stateful_firewall").source, "fw", opts);
  EXPECT_NE(c.p4_code.find("mark_to_drop(standard_metadata)"),
            std::string::npos);
  EXPECT_NE(c.p4_code.find("digest(HYDRA_REPORT_RECEIVER"),
            std::string::npos);
}

TEST(Dialects, BothDialectsCompileEveryLibraryChecker) {
  for (const auto& spec : checkers::all_checkers()) {
    for (auto dialect :
         {compiler::P4Dialect::kTna, compiler::P4Dialect::kV1Model}) {
      compiler::CompileOptions opts;
      opts.dialect = dialect;
      EXPECT_NO_THROW({
        const auto c =
            compiler::compile_checker(spec.source, spec.name, opts);
        EXPECT_GT(c.p4_loc, 0);
      }) << spec.name;
    }
  }
}

}  // namespace
}  // namespace hydra::net
