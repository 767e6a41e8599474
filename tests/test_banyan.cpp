// Tests of the multistage networks behind the unified construction path:
// exact wiring/routing of the kBanyan / kOmega / kClos topology kinds, and
// flit-level wormhole fabrics built through fabric::Fabric::build.

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "fabric/fabric.hpp"
#include "net/topology.hpp"

namespace pmsb::net {
namespace {

// ---------------------------------------------------------------------------
// Topology kind exactness
// ---------------------------------------------------------------------------

TEST(MultistageTopology, BanyanGeometry) {
  const Topology t{TopologyKind::kBanyan, 16, 1};
  EXPECT_TRUE(t.multistage());
  EXPECT_EQ(t.endpoints(), 16u);
  EXPECT_EQ(t.stages(), 4u);            // log2(16)
  EXPECT_EQ(t.elements_per_stage(), 8u);  // N/2
  EXPECT_EQ(t.nodes(), 32u);
  EXPECT_EQ(t.required_ports(), 2u);
  EXPECT_EQ(t.hops(0, 15), t.stages() - 1);
  EXPECT_EQ(t.hops(3, 3), t.stages() - 1);  // no local bypass
  EXPECT_EQ(t.describe(), "banyan 16");
}

TEST(MultistageTopology, OmegaGeometry) {
  const Topology t{TopologyKind::kOmega, 8, 1};
  EXPECT_EQ(t.stages(), 3u);
  EXPECT_EQ(t.elements_per_stage(), 4u);
  EXPECT_EQ(t.nodes(), 12u);
  EXPECT_EQ(t.describe(), "omega 8");
}

TEST(MultistageTopology, ClosGeometry) {
  const Topology t{TopologyKind::kClos, 16, 1, /*radix=*/4};
  EXPECT_EQ(t.stages(), 3u);
  EXPECT_EQ(t.elements_per_stage(), 4u);  // k
  EXPECT_EQ(t.nodes(), 12u);
  EXPECT_EQ(t.required_ports(), 4u);
  EXPECT_EQ(t.describe(), "clos 16 (radix 4)");
}

/// Banyan / omega per-stage routing is the classic single-bit test: stage s
/// of a log2(N)-stage network corrects bit n-1-s of the destination,
/// independent of where the flit currently is.
TEST(MultistageTopology, BanyanAndOmegaRouteOnDestinationBits) {
  for (const TopologyKind kind : {TopologyKind::kBanyan, TopologyKind::kOmega}) {
    const Topology t{kind, 16, 1};
    const unsigned n = 4;  // log2(16)
    for (unsigned node = 0; node < t.nodes(); ++node) {
      const unsigned s = t.stage_of(node);
      for (unsigned in = 0; in < 2; ++in)
        for (unsigned dest = 0; dest < 16; ++dest)
          EXPECT_EQ(t.route_stage(node, in, dest), (dest >> (n - 1 - s)) & 1u);
    }
  }
}

/// The Clos wiring from the header: ingress j's output p reaches middle p's
/// input j; middle m's output q reaches egress q's input m.
TEST(MultistageTopology, ClosWiringExact) {
  const Topology t{TopologyKind::kClos, 16, 1, /*radix=*/4};
  const unsigned k = 4;
  for (unsigned j = 0; j < k; ++j) {
    for (unsigned p = 0; p < k; ++p) {
      const unsigned ingress = t.node_id(0, j);
      ASSERT_EQ(static_cast<unsigned>(t.neighbor(ingress, p)), t.node_id(1, p));
      EXPECT_EQ(t.peer_in_port(ingress, p), j);
      const unsigned middle = t.node_id(1, j);
      ASSERT_EQ(static_cast<unsigned>(t.neighbor(middle, p)), t.node_id(2, p));
      EXPECT_EQ(t.peer_in_port(middle, p), j);
    }
  }
}

/// Strongest exactness check, implementation-independent: walk every
/// (source, destination) pair from its ingress port through route_stage /
/// neighbor / peer_in_port and require arrival at exactly `dest` after
/// exactly stages() - 1 inter-element links.
void walk_every_pair(const Topology& t) {
  const unsigned n = t.endpoints();
  for (unsigned src = 0; src < n; ++src) {
    for (unsigned dest = 0; dest < n; ++dest) {
      auto [node, in_port] = t.ingress_of(src);
      unsigned links = 0;
      while (t.stage_of(node) + 1 < t.stages()) {
        const unsigned out = t.route_stage(node, in_port, dest);
        const int next = t.neighbor(node, out);
        ASSERT_GE(next, 0);
        in_port = t.peer_in_port(node, out);
        node = static_cast<unsigned>(next);
        ++links;
      }
      const unsigned out = t.route_stage(node, in_port, dest);
      EXPECT_EQ(t.egress_endpoint(node, out), dest)
          << t.describe() << ": " << src << " -> " << dest;
      EXPECT_EQ(links, t.stages() - 1);
    }
  }
}

TEST(MultistageTopology, BanyanEveryPairReachesItsEgress) {
  walk_every_pair(Topology{TopologyKind::kBanyan, 16, 1});
  walk_every_pair(Topology{TopologyKind::kBanyan, 32, 1});
}

TEST(MultistageTopology, OmegaEveryPairReachesItsEgress) {
  walk_every_pair(Topology{TopologyKind::kOmega, 16, 1});
  walk_every_pair(Topology{TopologyKind::kOmega, 32, 1});
}

TEST(MultistageTopology, ClosEveryPairReachesItsEgress) {
  walk_every_pair(Topology{TopologyKind::kClos, 16, 1, 4});
  walk_every_pair(Topology{TopologyKind::kClos, 9, 1, 3});
}

// ---------------------------------------------------------------------------
// Wormhole fabrics through the one public construction path
// ---------------------------------------------------------------------------

/// All fabrics go through the one public construction path,
/// fabric::Fabric::build(topology, config).
std::unique_ptr<fabric::Fabric> make_worm(const Topology& topo, const char* traffic,
                                          unsigned lanes) {
  fabric::FabricConfig cfg;
  cfg.topo = topo;
  cfg.link_pipe_stages = 1;
  cfg.seed = 7;
  cfg.lanes = lanes;
  cfg.buffer_flits = 16;
  cfg.message_flits = 4;
  cfg.traffic = traffic;
  return fabric::Fabric::build(topo, cfg);
}

/// Lossless flit transport: every kind delivers, verifies payloads end to
/// end, and conserves messages (injected = delivered + backlog + in flight).
TEST(WormFabric, AllKindsDeliverLosslessly) {
  const std::vector<Topology> kinds = {
      Topology{TopologyKind::kBanyan, 16, 1},
      Topology{TopologyKind::kOmega, 16, 1},
      Topology{TopologyKind::kClos, 16, 1, 4},
      Topology{TopologyKind::kMesh2D, 4, 4},
  };
  for (const Topology& topo : kinds) {
    const auto fab = make_worm(topo, "uniform:0.4", 2);
    fab->run(4000);
    const fabric::FabricStats st = fab->stats();
    EXPECT_GT(st.delivered, 0u) << topo.describe();
    EXPECT_EQ(st.payload_errors, 0u) << topo.describe();
    EXPECT_EQ(st.injected, st.delivered + st.backlog + st.in_network)
        << topo.describe();
  }
}

/// Permutation traffic is contention-light; the same seed must reproduce
/// the same delivery digest on rebuilt fabrics (construction determinism).
TEST(WormFabric, RebuildReproducesDigest) {
  const Topology topo{TopologyKind::kBanyan, 16, 1};
  const auto a = make_worm(topo, "permutation:0.5", 2);
  const auto b = make_worm(topo, "permutation:0.5", 2);
  a->run(3000);
  b->run(3000);
  EXPECT_GT(a->stats().delivered, 0u);
  EXPECT_EQ(a->stats().uid_digest, b->stats().uid_digest);
  EXPECT_EQ(a->stats().delivered, b->stats().delivered);
}


// ---------------------------------------------------------------------------
// Worm router golden results
// ---------------------------------------------------------------------------

constexpr fabric::WormAlloc kRR = fabric::WormAlloc::kRoundRobin;
constexpr fabric::WormAlloc kLow = fabric::WormAlloc::kLowestIndex;

/// One recorded run: topology (index into golden_topologies()), lanes, VC
/// allocation policy, flits per message, traffic (0 = uniform:0.7,
/// 1 = hotsenders:0.25,0.95), and the delivered-message count and delivery
/// digest after kGoldenCycles cycles.
struct GoldenRun {
  unsigned topo;
  unsigned lanes;
  fabric::WormAlloc alloc;
  unsigned message_flits;
  unsigned traffic;
  std::uint64_t delivered;
  std::uint64_t digest;
};

constexpr Cycle kGoldenCycles = 500;

std::vector<Topology> golden_topologies() {
  return {
      Topology{TopologyKind::kBanyan, 16, 1},
      Topology{TopologyKind::kOmega, 32, 1},
      Topology{TopologyKind::kClos, 9, 1, /*radix=*/3},
      Topology{TopologyKind::kMesh2D, 4, 4},
  };
}

// clang-format off
constexpr GoldenRun kGoldenRuns[] = {
    {0,  1, kRR, 1, 0,   5195, 0xd24563a11fffe634ULL},
    {0,  1, kRR, 1, 1,   4265, 0xfc9b045839a48a5eULL},
    {0,  1, kRR, 8, 0,    542, 0x99b958e70b09d882ULL},
    {0,  1, kRR, 8, 1,    470, 0x3b703ea82d84100fULL},
    {0,  1, kLow, 1, 0,   4914, 0x01bd5d077819ca66ULL},
    {0,  1, kLow, 1, 1,   4129, 0xd7cc17677231f191ULL},
    {0,  1, kLow, 8, 0,    517, 0xab327cc3aab8d2d3ULL},
    {0,  1, kLow, 8, 1,    453, 0xd630250f6a90536dULL},
    {0,  2, kRR, 1, 0,   5530, 0xafb8731855ad1991ULL},
    {0,  2, kRR, 1, 1,   5119, 0x6958fdc2c0af608dULL},
    {0,  2, kRR, 8, 0,    605, 0xc98212d4b0ce7582ULL},
    {0,  2, kRR, 8, 1,    539, 0xd751519b239a9353ULL},
    {0,  2, kLow, 1, 0,   5343, 0x48e07a98731d4b2aULL},
    {0,  2, kLow, 1, 1,   4697, 0xccb741fdf707abe5ULL},
    {0,  2, kLow, 8, 0,    588, 0x968fe5a2503c2138ULL},
    {0,  2, kLow, 8, 1,    513, 0xda3f23591b214fe2ULL},
    {0,  4, kRR, 1, 0,   5549, 0xa7aa852c77d6b9b5ULL},
    {0,  4, kRR, 1, 1,   5463, 0x73f596a9fe5f5588ULL},
    {0,  4, kRR, 8, 0,    623, 0x64e51de30f8b9d60ULL},
    {0,  4, kRR, 8, 1,    592, 0x1074905d519743e7ULL},
    {0,  4, kLow, 1, 0,   5447, 0x6dd76237b7e5fae0ULL},
    {0,  4, kLow, 1, 1,   5035, 0x2ea887e336e2c48dULL},
    {0,  4, kLow, 8, 0,    607, 0x8c16ad7e8798b670ULL},
    {0,  4, kLow, 8, 1,    568, 0x882b149cb9794e42ULL},
    {0,  8, kRR, 1, 0,   5551, 0xb01fc393832ec50bULL},
    {0,  8, kRR, 1, 1,   5640, 0xf3c5281a85e40ce9ULL},
    {0,  8, kRR, 8, 0,    609, 0x2c507f3ff5bc7706ULL},
    {0,  8, kRR, 8, 1,    593, 0xa2aa54253a1b59d7ULL},
    {0,  8, kLow, 1, 0,   5463, 0x52d33931edd29d54ULL},
    {0,  8, kLow, 1, 1,   5343, 0xb985df09fb678a08ULL},
    {0,  8, kLow, 8, 0,    621, 0xdb26d79e7f3a3df5ULL},
    {0,  8, kLow, 8, 1,    589, 0x4793e3c592a6f36cULL},
    {0, 32, kRR, 1, 0,   5551, 0xe607acf62b6c722aULL},
    {0, 32, kRR, 1, 1,   5770, 0x83610c1575502dffULL},
    {0, 32, kRR, 8, 0,    600, 0xc56e371ef02b732fULL},
    {0, 32, kRR, 8, 1,    529, 0x875af560833f4f1aULL},
    {0, 32, kLow, 1, 0,   5444, 0xf62da2a30bcb64c3ULL},
    {0, 32, kLow, 1, 1,   5483, 0xf4f846756e7c49d9ULL},
    {0, 32, kLow, 8, 0,    615, 0xfa30f922117a9dc1ULL},
    {0, 32, kLow, 8, 1,    601, 0xd4b1591e7418bd6aULL},
    {1,  1, kRR, 1, 0,  10231, 0x2aee93d5aa645713ULL},
    {1,  1, kRR, 1, 1,   8217, 0xb2f84cb8b40fe213ULL},
    {1,  1, kRR, 8, 0,   1042, 0x94c7e902e9057dc8ULL},
    {1,  1, kRR, 8, 1,    899, 0x4f9f93fc475b647eULL},
    {1,  1, kLow, 1, 0,   9742, 0x0b156988a968528eULL},
    {1,  1, kLow, 1, 1,   7750, 0x7812ac301f24d0e7ULL},
    {1,  1, kLow, 8, 0,   1050, 0x14bebaebf515dc66ULL},
    {1,  1, kLow, 8, 1,    841, 0xa4e9db5a1ef10a50ULL},
    {1,  2, kRR, 1, 0,  11103, 0x70e47f2f9fc26883ULL},
    {1,  2, kRR, 1, 1,   9802, 0x03457295f6678087ULL},
    {1,  2, kRR, 8, 0,   1215, 0xa92073ceea73cee9ULL},
    {1,  2, kRR, 8, 1,   1029, 0x7ee171a635ead6a0ULL},
    {1,  2, kLow, 1, 0,  10696, 0x6d14d06b392e9a56ULL},
    {1,  2, kLow, 1, 1,   8936, 0xe6fea45f9612518cULL},
    {1,  2, kLow, 8, 0,   1102, 0xa5b778d676f6e99aULL},
    {1,  2, kLow, 8, 1,    984, 0xac176a32c9dcaa95ULL},
    {1,  4, kRR, 1, 0,  11136, 0x7cec6899b82a270dULL},
    {1,  4, kRR, 1, 1,  10629, 0x10c10ef9195f5392ULL},
    {1,  4, kRR, 8, 0,   1257, 0xfa3fbd613eaab1d7ULL},
    {1,  4, kRR, 8, 1,   1101, 0x9670adef8e485b1bULL},
    {1,  4, kLow, 1, 0,  10836, 0xb46f00974f3a5ba9ULL},
    {1,  4, kLow, 1, 1,   9640, 0xc22a4dd41dd2132cULL},
    {1,  4, kLow, 8, 0,   1214, 0xd1a2be9ea9a4fdb3ULL},
    {1,  4, kLow, 8, 1,   1055, 0x95a061ca91b4982bULL},
    {1,  8, kRR, 1, 0,  11139, 0xfd4374bd14cdf025ULL},
    {1,  8, kRR, 1, 1,  10932, 0x8395bef084ef69adULL},
    {1,  8, kRR, 8, 0,   1244, 0xb05015e9455b8c42ULL},
    {1,  8, kRR, 8, 1,   1141, 0xc2e0cec650e6af53ULL},
    {1,  8, kLow, 1, 0,  10921, 0x822a8dc807398d1fULL},
    {1,  8, kLow, 1, 1,  10208, 0x8855b0b0418aee6cULL},
    {1,  8, kLow, 8, 0,   1227, 0x8672887aee0dc577ULL},
    {1,  8, kLow, 8, 1,   1114, 0x012e8dca3cfc959eULL},
    {1, 32, kRR, 1, 0,  11148, 0x71212fa4f3b04016ULL},
    {1, 32, kRR, 1, 1,  11150, 0x18de7280e4c5dbd2ULL},
    {1, 32, kRR, 8, 0,   1222, 0x83457d4e302448b8ULL},
    {1, 32, kRR, 8, 1,   1023, 0x5d50a52bdefb30f7ULL},
    {1, 32, kLow, 1, 0,  10808, 0x09db1822ebaad35aULL},
    {1, 32, kLow, 1, 1,  10373, 0xa7cf75b5a4b49896ULL},
    {1, 32, kLow, 8, 0,   1241, 0x164174ca0176d9adULL},
    {1, 32, kLow, 8, 1,   1155, 0x03f2ed73a123d568ULL},
    {2,  1, kRR, 1, 0,   2625, 0x0fb28ddecf74bcecULL},
    {2,  1, kRR, 1, 1,   2462, 0x57263ea5b84e65ccULL},
    {2,  1, kRR, 8, 0,    263, 0xf3c440b8e087875dULL},
    {2,  1, kRR, 8, 1,    291, 0x29ecc79be1939e8dULL},
    {2,  1, kLow, 1, 0,   2413, 0x983c4d7b52beed05ULL},
    {2,  1, kLow, 1, 1,   1143, 0xd65d18fc8915341fULL},
    {2,  1, kLow, 8, 0,    264, 0xd1e641540dc1085dULL},
    {2,  1, kLow, 8, 1,    189, 0xe727801cbc242643ULL},
    {2,  2, kRR, 1, 0,   3094, 0x9bcd7a3065abcc68ULL},
    {2,  2, kRR, 1, 1,   3130, 0x53b9277768a63729ULL},
    {2,  2, kRR, 8, 0,    336, 0x0c0f215ee6dcace5ULL},
    {2,  2, kRR, 8, 1,    336, 0x07dbaacf748d065aULL},
    {2,  2, kLow, 1, 0,   2877, 0x6055e8dc4b9f8208ULL},
    {2,  2, kLow, 1, 1,   1692, 0x71cc8176a150abf9ULL},
    {2,  2, kLow, 8, 0,    326, 0x7a3c73d0d4eed643ULL},
    {2,  2, kLow, 8, 1,    246, 0x7efb90ec8134481eULL},
    {2,  4, kRR, 1, 0,   3103, 0x477d216fe32834c2ULL},
    {2,  4, kRR, 1, 1,   3341, 0xfbb146b617d52b11ULL},
    {2,  4, kRR, 8, 0,    350, 0xffb2ee7c082106b9ULL},
    {2,  4, kRR, 8, 1,    359, 0x8171929911539ff6ULL},
    {2,  4, kLow, 1, 0,   3039, 0x77c02c8961e208e8ULL},
    {2,  4, kLow, 1, 1,   1962, 0xc6c436cbc8a1192fULL},
    {2,  4, kLow, 8, 0,    344, 0x72813f4951bd2b53ULL},
    {2,  4, kLow, 8, 1,    281, 0x8c7bc582313185c5ULL},
    {2,  8, kRR, 1, 0,   3105, 0x050b91426a7c7a2cULL},
    {2,  8, kRR, 1, 1,   3395, 0xe69d4c23706e882bULL},
    {2,  8, kRR, 8, 0,    348, 0x84bd225e4864c588ULL},
    {2,  8, kRR, 8, 1,    365, 0xb7dfe0c27c154b6aULL},
    {2,  8, kLow, 1, 0,   3075, 0xbeb7a012c21bda18ULL},
    {2,  8, kLow, 1, 1,   2288, 0xe215ec7a5a3bc6baULL},
    {2,  8, kLow, 8, 0,    351, 0xd6b8c8969701b4edULL},
    {2,  8, kLow, 8, 1,    316, 0xf5242260363aa125ULL},
    {2, 32, kRR, 1, 0,   3105, 0xb57bde5407271269ULL},
    {2, 32, kRR, 1, 1,   3452, 0x47a53dbea37ddf54ULL},
    {2, 32, kRR, 8, 0,    336, 0xc7b6f7f43f6e850aULL},
    {2, 32, kRR, 8, 1,    334, 0x89153161ad53b0e7ULL},
    {2, 32, kLow, 1, 0,   3063, 0x516fd1f11563c20dULL},
    {2, 32, kLow, 1, 1,   2478, 0x69dbb193c8cd0701ULL},
    {2, 32, kLow, 8, 0,    349, 0x65c00e01102333eaULL},
    {2, 32, kLow, 8, 1,    369, 0x5d296d470fd24c38ULL},
    {3,  1, kRR, 1, 0,   5328, 0xe618dc91d3b2dcb3ULL},
    {3,  1, kRR, 1, 1,   3860, 0x8c82560e124fba70ULL},
    {3,  1, kRR, 8, 0,    583, 0x9fd03e31b4606904ULL},
    {3,  1, kRR, 8, 1,    428, 0x4e47efe5dd975cfeULL},
    {3,  1, kLow, 1, 0,   4939, 0xcadcc3b342b6cac4ULL},
    {3,  1, kLow, 1, 1,   1639, 0x28ae75fd2de50ab6ULL},
    {3,  1, kLow, 8, 0,    562, 0xcdbee361d5742f55ULL},
    {3,  1, kLow, 8, 1,    233, 0x134d925663c30062ULL},
    {3,  2, kRR, 1, 0,   5568, 0x31c249ec32f414dcULL},
    {3,  2, kRR, 1, 1,   4389, 0x0af2311ea89e7602ULL},
    {3,  2, kRR, 8, 0,    632, 0x70cbb58b451e6c6bULL},
    {3,  2, kRR, 8, 1,    464, 0xd246d0415ab78fa1ULL},
    {3,  2, kLow, 1, 0,   5427, 0x7407829e160962eeULL},
    {3,  2, kLow, 1, 1,   1846, 0x97768a6487dd33edULL},
    {3,  2, kLow, 8, 0,    615, 0x0c8feaaffb914be6ULL},
    {3,  2, kLow, 8, 1,    323, 0xf4cfb281b2a554f6ULL},
    {3,  4, kRR, 1, 0,   5571, 0x426e3c427419fcbaULL},
    {3,  4, kRR, 1, 1,   4639, 0x0804c85abca41afeULL},
    {3,  4, kRR, 8, 0,    632, 0x42da1b06acfb1f87ULL},
    {3,  4, kRR, 8, 1,    532, 0xe1f7579507ecbea4ULL},
    {3,  4, kLow, 1, 0,   5502, 0x72d8a19e811306eeULL},
    {3,  4, kLow, 1, 1,   2095, 0xa85b3e5eb3e60fd3ULL},
    {3,  4, kLow, 8, 0,    625, 0x73d77ae9b74cfb3eULL},
    {3,  4, kLow, 8, 1,    386, 0xd3bd12b366e8cac9ULL},
    {3,  8, kRR, 1, 0,   5571, 0x12ebacdeaab6edc7ULL},
    {3,  8, kRR, 1, 1,   4820, 0x13787cbce392b48cULL},
    {3,  8, kRR, 8, 0,    622, 0xa6df794c33c3b638ULL},
    {3,  8, kRR, 8, 1,    585, 0xa06a15e3a2e04b92ULL},
    {3,  8, kLow, 1, 0,   5523, 0x8a12de73c7714531ULL},
    {3,  8, kLow, 1, 1,   2303, 0x5f7795fd56ecd169ULL},
    {3,  8, kLow, 8, 0,    634, 0xb9872e44d9a2c87dULL},
    {3,  8, kLow, 8, 1,    505, 0xdeb298ccc81f5ef5ULL},
    {3, 32, kRR, 1, 0,   5572, 0xb772d11cfb55c10cULL},
    {3, 32, kRR, 1, 1,   5011, 0x8beeb6c1e3a1f351ULL},
    {3, 32, kRR, 8, 0,    614, 0x937065e4520b2f78ULL},
    {3, 32, kRR, 8, 1,    605, 0x998c87fefdd44367ULL},
    {3, 32, kLow, 1, 0,   5498, 0xdefae026cf0d9535ULL},
    {3, 32, kLow, 1, 1,   3228, 0x0f121d4e37c48b02ULL},
    {3, 32, kLow, 8, 0,    620, 0xdf0bab27163abf6bULL},
    {3, 32, kLow, 8, 1,    615, 0xc43a7d7c8ac52412ULL},
};
// clang-format on

/// The router's delivery order pinned to recorded values across topologies,
/// lanes {1, 2, 4, 8, 32} (lane_depth 16 / lanes, 1 at 32 lanes), both
/// allocation policies, single- and multi-flit messages, and uniform and
/// hot-sender traffic. WormDeterminism compares runs with each other; this
/// compares them with what the router produced when the values were
/// recorded, so any change to allocation or arbitration order shows here.
TEST(WormRouterGolden, DigestsMatchRecordedValues) {
  const std::vector<Topology> topos = golden_topologies();
  const char* const traffics[] = {"uniform:0.7", "hotsenders:0.25,0.95"};
  for (const GoldenRun& g : kGoldenRuns) {
    fabric::FabricConfig cfg;
    cfg.topo = topos[g.topo];
    cfg.link_pipe_stages = 1;
    cfg.seed = 11;
    cfg.threads = 1;
    cfg.lanes = g.lanes;
    cfg.buffer_flits = g.lanes == 32 ? 32 : 16;
    cfg.message_flits = g.message_flits;
    cfg.alloc = g.alloc;
    cfg.traffic = traffics[g.traffic];
    const auto fab = fabric::Fabric::build(cfg.topo, cfg);
    fab->run(kGoldenCycles);
    const fabric::FabricStats st = fab->stats();
    const std::string what = cfg.topo.describe() + " lanes=" + std::to_string(g.lanes) +
                             (g.alloc == kRR ? " rr" : " lowest") +
                             " flits=" + std::to_string(g.message_flits) + " " + cfg.traffic;
    EXPECT_EQ(st.delivered, g.delivered) << what;
    EXPECT_EQ(st.uid_digest, g.digest) << what;
    EXPECT_EQ(st.payload_errors, 0u) << what;
  }
}

}  // namespace
}  // namespace pmsb::net
