// Tests of the direct-network substrate: topology arithmetic, the wormhole
// router on a mesh (lane ownership, credits, virtual channels), and the
// qualitative saturation behaviour the paper cites from [Dally90] on mesh
// fabrics built through fabric::Fabric::build.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <optional>

#include "fabric/fabric.hpp"
#include "fabric/worm.hpp"
#include "net/topology.hpp"

namespace pmsb::net {
namespace {

TEST(Topology, MeshNeighbors) {
  Topology t{TopologyKind::kMesh2D, 4, 4};
  EXPECT_EQ(t.neighbor(5, kEast), 6);
  EXPECT_EQ(t.neighbor(5, kWest), 4);
  EXPECT_EQ(t.neighbor(5, kNorth), 1);
  EXPECT_EQ(t.neighbor(5, kSouth), 9);
  EXPECT_EQ(t.neighbor(3, kEast), -1);   // Edge.
  EXPECT_EQ(t.neighbor(0, kNorth), -1);  // Edge.
}

TEST(Topology, TorusWraps) {
  Topology t{TopologyKind::kTorus2D, 4, 4};
  EXPECT_EQ(t.neighbor(3, kEast), 0);
  EXPECT_EQ(t.neighbor(0, kWest), 3);
  EXPECT_EQ(t.neighbor(0, kNorth), 12);
  EXPECT_EQ(t.neighbor(12, kSouth), 0);
}

TEST(Topology, XyRoutingGoesXFirst) {
  Topology t{TopologyKind::kMesh2D, 4, 4};
  EXPECT_EQ(t.route_xy(0, 6), kEast);   // (0,0) -> (2,1): X first.
  EXPECT_EQ(t.route_xy(2, 6), kSouth);  // Same column: then Y.
  EXPECT_EQ(t.route_xy(6, 6), kLocal);
  EXPECT_EQ(t.route_xy(7, 4), kWest);
}

TEST(Topology, TorusRoutesShortestWay) {
  Topology t{TopologyKind::kTorus2D, 8, 1};
  EXPECT_EQ(t.route_xy(0, 1), kEast);
  EXPECT_EQ(t.route_xy(0, 7), kWest);  // One hop west beats 7 east.
}

TEST(Topology, TorusTieBreaksGoEastAndSouth) {
  // Even-sized torus: the two ways around are equidistant; the route must
  // deterministically take the positive direction (east, then south).
  Topology t{TopologyKind::kTorus2D, 8, 8};
  EXPECT_EQ(t.route_xy(t.node_at(0, 0), t.node_at(4, 0)), kEast);   // 4 == 8 - 4.
  EXPECT_EQ(t.route_xy(t.node_at(0, 0), t.node_at(0, 4)), kSouth);  // Y tie too.
  EXPECT_EQ(t.route_xy(t.node_at(6, 3), t.node_at(2, 3)), kEast);   // Tie from x=6.
  // One short of the tie still goes the short way.
  EXPECT_EQ(t.route_xy(t.node_at(0, 0), t.node_at(5, 0)), kWest);
}

TEST(Topology, MeshEdgeNeighborsAreAbsent) {
  Topology t{TopologyKind::kMesh2D, 4, 4};
  for (unsigned x = 0; x < 4; ++x) {
    EXPECT_EQ(t.neighbor(t.node_at(x, 0), kNorth), -1) << x;
    EXPECT_EQ(t.neighbor(t.node_at(x, 3), kSouth), -1) << x;
  }
  for (unsigned y = 0; y < 4; ++y) {
    EXPECT_EQ(t.neighbor(t.node_at(0, y), kWest), -1) << y;
    EXPECT_EQ(t.neighbor(t.node_at(3, y), kEast), -1) << y;
  }
  // Interior nodes have all four.
  for (Port p : {kEast, kWest, kNorth, kSouth})
    EXPECT_GE(t.neighbor(t.node_at(1, 1), p), 0);
}

TEST(Topology, OppositePortsPair) {
  EXPECT_EQ(opposite(kEast), kWest);
  EXPECT_EQ(opposite(kWest), kEast);
  EXPECT_EQ(opposite(kNorth), kSouth);
  EXPECT_EQ(opposite(kSouth), kNorth);
  // Links are symmetric: neighbor through p sees us through opposite(p).
  Topology t{TopologyKind::kTorus2D, 4, 4};
  for (unsigned n = 0; n < t.nodes(); ++n) {
    for (Port p : {kEast, kWest, kNorth, kSouth}) {
      const int m = t.neighbor(n, p);
      ASSERT_GE(m, 0);
      EXPECT_EQ(t.neighbor(static_cast<unsigned>(m), opposite(p)), static_cast<int>(n));
      EXPECT_EQ(t.peer_in_port(n, p), static_cast<unsigned>(opposite(p)));
    }
  }
}

TEST(Topology, HopsMatchesRouteXyPathLength) {
  for (Topology t : {Topology{TopologyKind::kMesh2D, 4, 3},
                     Topology{TopologyKind::kTorus2D, 4, 4},
                     Topology{TopologyKind::kRing, 6, 1}}) {
    for (unsigned a = 0; a < t.nodes(); ++a) {
      for (unsigned b = 0; b < t.nodes(); ++b) {
        // Walk the route_xy path and count links.
        unsigned cur = a, steps = 0;
        while (cur != b) {
          const Port p = t.route_xy(cur, b);
          ASSERT_NE(p, kLocal);
          const int next = t.neighbor(cur, p);
          ASSERT_GE(next, 0);
          cur = static_cast<unsigned>(next);
          ASSERT_LE(++steps, t.nodes());  // No routing loops.
        }
        EXPECT_EQ(t.hops(a, b), steps) << a << "->" << b;
      }
    }
    EXPECT_EQ(t.hops(0, 0), 0u);
  }
}

TEST(Topology, DiameterIsMaxPairwiseHops) {
  for (Topology t : {Topology{TopologyKind::kMesh2D, 4, 3},
                     Topology{TopologyKind::kTorus2D, 4, 4},
                     Topology{TopologyKind::kTorus2D, 8, 8},
                     Topology{TopologyKind::kRing, 6, 1},
                     Topology{TopologyKind::kRing, 7, 1}}) {
    unsigned worst = 0;
    for (unsigned a = 0; a < t.nodes(); ++a)
      for (unsigned b = 0; b < t.nodes(); ++b) worst = std::max(worst, t.hops(a, b));
    EXPECT_EQ(t.diameter(), worst) << t.describe();
  }
  // Closed forms: full span on a mesh, half the wrap on torus/ring.
  EXPECT_EQ((Topology{TopologyKind::kMesh2D, 5, 4}.diameter()), 4u + 3u);
  EXPECT_EQ((Topology{TopologyKind::kTorus2D, 8, 8}.diameter()), 4u + 4u);
  EXPECT_EQ((Topology{TopologyKind::kRing, 8, 1}.diameter()), 4u);
}

TEST(Topology, DescribeAndRequiredPorts) {
  EXPECT_EQ((Topology{TopologyKind::kTorus2D, 8, 8}.describe()), "torus2d 8x8");
  EXPECT_EQ((Topology{TopologyKind::kRing, 6, 1}.describe()), "ring 6x1");
  EXPECT_EQ((Topology{TopologyKind::kMesh2D, 4, 3}.required_ports()), 4u);
  EXPECT_EQ((Topology{TopologyKind::kRing, 6, 1}.required_ports()), 2u);
}

// ---------------------------------------------------------------------------
// The wormhole router on a mesh, driven flit by flit through its link rings
// ---------------------------------------------------------------------------

using fabric::CreditChannel;
using fabric::WormChannel;
using fabric::WormFlit;

/// The centre router (node 4) of a 3x3 mesh with all four links wired to
/// rings the test drives directly: flits go in on in[p], come out on out[p],
/// and the router's credit returns / the test's credit grants travel on
/// credit_up[p] / credit_down[p]. A ring gets an entry only in a cycle that
/// sends something, as the fabric's neighbours do. With `echo` set, the
/// downstream side returns a credit the cycle after each flit it receives
/// (it never backs up).
struct CentreRouter {
  Topology topo{TopologyKind::kMesh2D, 3, 3};
  std::unique_ptr<fabric::WormRouter> r;
  std::vector<std::unique_ptr<WormChannel>> in, out;
  std::vector<std::unique_ptr<CreditChannel>> credit_up, credit_down;
  std::vector<std::optional<WormFlit>> feed;  ///< [port] flit to put on in[p] this cycle.
  std::vector<std::uint32_t> grant;    ///< [port] credit mask for out[p] this cycle.
  std::vector<std::vector<WormFlit>> sent;  ///< [port] flits the router emitted.
  bool echo = true;
  Cycle t = 0;

  CentreRouter(unsigned lanes, unsigned lane_depth, unsigned message_flits)
      : feed(4), grant(4, 0), sent(4) {
    fabric::WormParams wp;
    wp.lanes = lanes;
    wp.lane_depth = lane_depth;
    wp.message_flits = message_flits;
    r = std::make_unique<fabric::WormRouter>(&topo, 4, wp, nullptr);
    for (unsigned p = 0; p < 4; ++p) {
      in.push_back(std::make_unique<WormChannel>(1));
      out.push_back(std::make_unique<WormChannel>(1));
      credit_up.push_back(std::make_unique<CreditChannel>(1));
      credit_down.push_back(std::make_unique<CreditChannel>(1));
      r->connect_in(p, in[p].get(), credit_up[p].get());
      r->connect_out(p, out[p].get(), credit_down[p].get());
    }
  }

  static WormFlit flit(std::uint64_t msg, std::uint32_t seq, unsigned len, unsigned dest,
                       unsigned lane = 0) {
    WormFlit f;
    f.head = seq == 0;
    f.tail = seq + 1 == len;
    f.lane = static_cast<std::uint8_t>(lane);
    f.dest = static_cast<std::uint16_t>(dest);
    f.seq = seq;
    f.msg = msg;
    f.data = fabric::worm_payload(msg, seq);
    return f;
  }

  /// Drive this cycle's feeds and grants, run the router, record its output.
  void step() {
    for (unsigned p = 0; p < 4; ++p) {
      if (feed[p]) in[p]->push(t, *feed[p]);
      if (grant[p] != 0) credit_down[p]->push(t, grant[p]);
      feed[p].reset();
      grant[p] = 0;
    }
    ++t;  // What was pushed at t - 1 arrives now (ring delay 1).
    r->eval(t);
    for (unsigned p = 0; p < 4; ++p) {
      const WormFlit* f = out[p]->pop(t + 1);
      if (f == nullptr) continue;
      sent[p].push_back(*f);
      if (echo) grant[p] |= 1u << f->lane;
    }
  }
};

TEST(Router, OwnershipHoldsUntilTail) {
  // Two 3-flit messages from the west and the north both want the east
  // output, which has a single lane: the first head to win holds it until
  // its tail has passed, so the messages never interleave on the link.
  CentreRouter c(/*lanes=*/1, /*lane_depth=*/4, /*message_flits=*/3);
  EXPECT_EQ(c.r->name(), "worm_router_n4");  // Direct kinds have no stages.
  for (std::uint32_t k = 0; k < 3; ++k) {
    c.feed[kWest] = CentreRouter::flit(1, k, 3, 5);
    c.feed[kNorth] = CentreRouter::flit(2, k, 3, 5);
    c.step();
  }
  for (int i = 0; i < 6; ++i) c.step();
  const std::vector<WormFlit>& east = c.sent[kEast];
  ASSERT_EQ(east.size(), 6u);
  for (std::size_t i = 0; i < east.size(); ++i) {
    EXPECT_EQ(east[i].msg, east[i < 3 ? 0 : 3].msg) << i;
    EXPECT_EQ(east[i].seq, i % 3) << i;
  }
  EXPECT_NE(east[0].msg, east[3].msg);
  EXPECT_TRUE(c.r->is_quiescent(c.t));
}

TEST(Router, BlockedByCredits) {
  // A 2-flit lane toward the east: without credit returns the router sends
  // exactly two flits of a 4-flit message and holds the rest.
  CentreRouter c(/*lanes=*/1, /*lane_depth=*/2, /*message_flits=*/4);
  c.echo = false;
  for (std::uint32_t k = 0; k < 2; ++k) {
    c.feed[kWest] = CentreRouter::flit(1, k, 4, 5);
    c.step();
  }
  for (int i = 0; i < 6; ++i) c.step();
  EXPECT_EQ(c.sent[kEast].size(), 2u);
  c.feed[kWest] = CentreRouter::flit(1, 2, 4, 5);
  c.step();
  for (int i = 0; i < 4; ++i) c.step();
  EXPECT_EQ(c.sent[kEast].size(), 2u);
  EXPECT_EQ(c.r->flits_held(), 1u);
  c.grant[kEast] = 1u;  // One credit back for lane 0.
  for (int i = 0; i < 4; ++i) c.step();
  ASSERT_EQ(c.sent[kEast].size(), 3u);
  EXPECT_EQ(c.sent[kEast][2].seq, 2u);
  EXPECT_EQ(c.r->flits_held(), 0u);
}

TEST(Router, LanesSerializeIndependentMessages) {
  // Two messages from different inputs to the same output: with 2 lanes,
  // both acquire a lane and their flits interleave on the physical link.
  CentreRouter c(/*lanes=*/2, /*lane_depth=*/4, /*message_flits=*/2);
  for (std::uint32_t k = 0; k < 2; ++k) {
    c.feed[kWest] = CentreRouter::flit(1, k, 2, 5);
    c.feed[kNorth] = CentreRouter::flit(2, k, 2, 5);
    c.step();
  }
  for (int i = 0; i < 4; ++i) c.step();
  const std::vector<WormFlit>& east = c.sent[kEast];
  ASSERT_EQ(east.size(), 4u);
  EXPECT_TRUE(east[0].head && east[1].head);  // Both heads before either tail.
  EXPECT_NE(east[0].msg, east[1].msg);
  EXPECT_NE(east[0].lane, east[1].lane);  // Distinct downstream lanes.
  for (const WormFlit& f : east)
    EXPECT_EQ(f.lane, f.msg == east[0].msg ? east[0].lane : east[1].lane);
  EXPECT_TRUE(c.r->is_quiescent(c.t));  // Tails released both lanes.
}

TEST(Router, SingleFlitTailExposesNextHeadSameCycle) {
  // One lane, 1-flit messages (head = tail). A waits in the west FIFO for an
  // east credit while B, bound south, queues behind it. Popping A frees the
  // lane and exposes B to the south output's allocation in that same cycle
  // (south = 3 is allocated after east = 0), but B's lane has already
  // popped once this cycle, so B leaves next cycle. C, from the east input
  // (index 0, first in the round-robin scan), wants south from that next
  // cycle on and must find the lane taken: with B exposed a cycle late, C
  // would win the allocation and overtake it.
  CentreRouter c(/*lanes=*/1, /*lane_depth=*/2, /*message_flits=*/1);
  c.echo = false;
  c.feed[kWest] = CentreRouter::flit(1, 0, 1, 5);  // X1 east: credits 2 -> 1
  c.step();
  c.feed[kWest] = CentreRouter::flit(2, 0, 1, 5);  // X2 east: credits 1 -> 0
  c.step();
  c.feed[kWest] = CentreRouter::flit(3, 0, 1, 5);  // A east: no credit, waits
  c.step();
  c.feed[kWest] = CentreRouter::flit(4, 0, 1, 7);  // B south, behind A
  c.step();
  EXPECT_EQ(c.sent[kEast].size(), 2u);
  EXPECT_EQ(c.r->flits_held(), 2u);
  c.grant[kEast] = 1u;  // One east credit: A pops on the next eval.
  c.step();
  c.feed[kEast] = CentreRouter::flit(5, 0, 1, 7);  // C south
  c.step();
  ASSERT_EQ(c.sent[kEast].size(), 3u);
  EXPECT_EQ(c.sent[kEast][2].msg, 3u);
  ASSERT_EQ(c.sent[kSouth].size(), 1u);  // B, the cycle after A.
  EXPECT_EQ(c.sent[kSouth][0].msg, 4u);
  c.step();
  ASSERT_EQ(c.sent[kSouth].size(), 2u);
  EXPECT_EQ(c.sent[kSouth][1].msg, 5u);
  EXPECT_TRUE(c.r->is_quiescent(c.t));
}

TEST(Router, LaneDepthOneStreamsUnderCredits) {
  // Two lanes of one slot each: the upstream side feeds a west lane only
  // while it holds that lane's credit, so every flit passes through the
  // same single slot. Both 3-flit messages reach the east link whole, in
  // order, on distinct lanes, and every pop pulses exactly one credit back.
  CentreRouter c(/*lanes=*/2, /*lane_depth=*/1, /*message_flits=*/3);
  unsigned credits[2] = {1, 1};
  std::uint32_t next_seq[2] = {0, 0};
  unsigned returned = 0;
  for (int i = 0; i < 40; ++i) {
    for (unsigned lane = 0; lane < 2 && !c.feed[kWest]; ++lane) {
      if (credits[lane] == 0 || next_seq[lane] == 3) continue;
      c.feed[kWest] = CentreRouter::flit(10 + lane, next_seq[lane]++, 3, 5, lane);
      --credits[lane];
    }
    c.step();
    EXPECT_LE(c.r->flits_held(), 2u);
    const std::uint32_t* mask = c.credit_up[kWest]->pop(c.t + 1);
    if (mask == nullptr) continue;
    for (unsigned lane = 0; lane < 2; ++lane) {
      if ((*mask >> lane & 1u) == 0) continue;
      ++credits[lane];
      ++returned;
    }
  }
  EXPECT_EQ(returned, 6u);
  const std::vector<WormFlit>& east = c.sent[kEast];
  ASSERT_EQ(east.size(), 6u);
  std::uint32_t seen[2] = {0, 0};
  unsigned lane_of[2] = {0, 0};
  for (const WormFlit& f : east) {
    const auto m = static_cast<unsigned>(f.msg - 10);
    ASSERT_LT(m, 2u);
    if (f.head) lane_of[m] = f.lane;
    EXPECT_EQ(f.lane, lane_of[m]);
    EXPECT_EQ(f.seq, seen[m]++);
    EXPECT_EQ(f.data, fabric::worm_payload(f.msg, f.seq));
  }
  EXPECT_NE(lane_of[0], lane_of[1]);  // The messages overlap in time.
  EXPECT_TRUE(c.r->is_quiescent(c.t));
}

TEST(Router, BoundLaneWithEmptyFifoKeepsItsOutput) {
  // The west message's head wins the only east lane and leaves; its body
  // arrives only later, so the west lane stays bound with an empty FIFO.
  // The north message queued meanwhile must not take the east lane, and the
  // router must not report quiescence while the binding stands.
  CentreRouter c(/*lanes=*/1, /*lane_depth=*/4, /*message_flits=*/3);
  c.feed[kWest] = CentreRouter::flit(1, 0, 3, 5);
  c.step();
  EXPECT_EQ(c.r->flits_held(), 0u);
  EXPECT_FALSE(c.r->is_quiescent(c.t));
  for (std::uint32_t k = 0; k < 3; ++k) {
    c.feed[kNorth] = CentreRouter::flit(2, k, 3, 5);
    c.step();
  }
  EXPECT_EQ(c.sent[kEast].size(), 1u);
  EXPECT_EQ(c.r->flits_held(), 3u);
  for (std::uint32_t k = 1; k < 3; ++k) {
    c.feed[kWest] = CentreRouter::flit(1, k, 3, 5);
    c.step();
  }
  for (int i = 0; i < 8; ++i) c.step();
  const std::vector<WormFlit>& east = c.sent[kEast];
  ASSERT_EQ(east.size(), 6u);
  for (std::size_t i = 0; i < east.size(); ++i) {
    EXPECT_EQ(east[i].msg, i < 3 ? 1u : 2u) << i;
    EXPECT_EQ(east[i].seq, i % 3) << i;
    EXPECT_EQ(east[i].lane, 0u) << i;
  }
  EXPECT_TRUE(c.r->is_quiescent(c.t));
}

// ---------------------------------------------------------------------------
// Wormhole mesh fabrics: [Dally90]'s saturation behaviour (section 2.1)
// ---------------------------------------------------------------------------

fabric::FabricConfig mesh(unsigned side, double load, std::uint64_t seed,
                          unsigned message_flits = 20, unsigned buffer_flits = 16,
                          unsigned lanes = 1) {
  fabric::FabricConfig cfg;
  cfg.topo = Topology{TopologyKind::kMesh2D, side, side};
  cfg.link_pipe_stages = 1;
  cfg.load = load;
  cfg.seed = seed;
  cfg.threads = 1;
  cfg.message_flits = message_flits;
  cfg.buffer_flits = buffer_flits;
  cfg.lanes = lanes;
  return cfg;
}

/// Accepted flits/node/cycle and mean message latency over the cycles after
/// `warmup`, plus the end-of-run totals.
struct MeshRun {
  double accepted = 0;
  double latency = 0;
  fabric::FabricStats end;
};

MeshRun run_mesh(const fabric::FabricConfig& cfg, Cycle cycles, Cycle warmup) {
  const auto fab = fabric::Fabric::build(cfg.topo, cfg);
  EXPECT_TRUE(fab->wormhole());
  fab->run(warmup);
  const fabric::FabricStats w = fab->stats();
  fab->run(cycles - warmup);
  MeshRun r;
  r.end = fab->stats();
  r.accepted = static_cast<double>(r.end.flits_delivered - w.flits_delivered) /
               (static_cast<double>(fab->nodes()) * static_cast<double>(cycles - warmup));
  const std::uint64_t n = r.end.latency.samples() - w.latency.samples();
  r.latency = n ? static_cast<double>(r.end.latency.sum() - w.latency.sum()) /
                      static_cast<double>(n)
                : 0.0;
  return r;
}

TEST(Wormhole, LanesRaiseSaturationAtConstantStorage) {
  // [Dally90]'s actual point, and the contrast to the paper's "1 lane"
  // citation: splitting the same 16 flits of buffering into 2 or 4 lanes
  // raises the saturation throughput substantially.
  auto accepted_at = [](unsigned lanes) {
    return run_mesh(mesh(8, 0.9, 11, 20, 16, lanes), 25000, 5000).accepted;
  };
  const double one = accepted_at(1);
  const double two = accepted_at(2);
  const double four = accepted_at(4);
  EXPECT_GT(two, one * 1.15);
  EXPECT_GT(four, one * 1.25);
}

TEST(Wormhole, DeliversEverythingAtLightLoad) {
  const MeshRun r = run_mesh(mesh(4, 0.05, 3), 20000, 1000);
  EXPECT_GT(r.end.delivered, 0u);
  // Light load: deliveries keep pace with injections (no growing backlog).
  EXPECT_LT(r.end.backlog, 10u);
  EXPECT_NEAR(r.accepted, 0.05, 0.01);
}

TEST(Wormhole, LatencyGrowsWithLoad) {
  const double lo = run_mesh(mesh(4, 0.02, 4), 30000, 3000).latency;
  const double hi = run_mesh(mesh(4, 0.15, 4), 30000, 3000).latency;
  EXPECT_GT(lo, 20.0);  // At least serialization: 20 flits.
  EXPECT_GT(hi, lo);
}

TEST(Wormhole, SaturatesWellBelowCapacity) {
  // The [Dally90, 1 lane] phenomenon (section 2.1): with 20-flit messages
  // and 16-flit buffers, accepted throughput plateaus far below link rate.
  const MeshRun r = run_mesh(mesh(8, 0.9, 5), 30000, 5000);  // Far past saturation.
  EXPECT_LT(r.accepted, 0.45);
  EXPECT_GT(r.accepted, 0.05);
  EXPECT_GT(r.end.backlog, 50u);  // Clearly saturated: >1000 flits queued.
}

TEST(Wormhole, NoDeadlockUnderSustainedOverload) {
  // XY dimension-order routing on a mesh is deadlock-free even single-lane:
  // deliveries must keep happening arbitrarily late into an overloaded run.
  const fabric::FabricConfig cfg = mesh(4, 1.0, 6);
  const auto fab = fabric::Fabric::build(cfg.topo, cfg);
  fab->run(10000);
  const std::uint64_t early = fab->stats().delivered;
  fab->run(10000);
  EXPECT_GT(fab->stats().delivered, early + 50);
}

TEST(Wormhole, MessagesArriveIntact) {
  // Every delivered message took at least its serialization time, its
  // payload verified end to end, and the sinks saw whole messages (a lost
  // or reordered flit aborts the run in the sink's sequence checks).
  const fabric::FabricConfig cfg = mesh(4, 0.08, 7, /*message_flits=*/10);
  const MeshRun r = run_mesh(cfg, 20000, 100);
  ASSERT_GT(r.end.latency.samples(), 100u);
  EXPECT_GE(r.end.min_latency, static_cast<Cycle>(cfg.message_flits - 1));
  EXPECT_EQ(r.end.payload_errors, 0u);
  EXPECT_GE(r.end.flits_delivered, r.end.delivered * cfg.message_flits);
  EXPECT_EQ(r.end.injected, r.end.delivered + r.end.backlog + r.end.in_network);
}

}  // namespace
}  // namespace pmsb::net
