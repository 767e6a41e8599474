// Tests of the sharded fabric engine (src/fabric/) and of the
// multi-subscriber event API it rides on (core/event_hub.hpp).
//
// The load-bearing property is the determinism contract: a fabric run must
// produce bit-identical delivered-cell digests, drop counts, latencies and
// metric samples at ANY thread count. The conservative round scheme
// (lookahead = link_pipe_stages) is what makes that hold; these tests pin
// it with 1-vs-2-vs-4-thread comparisons on real topologies.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "check/invariants.hpp"
#include "core/fast_switch.hpp"
#include "core/switch.hpp"
#include "core/testbench.hpp"
#include "fabric/channel.hpp"
#include "fabric/fabric.hpp"
#include "obs/metrics.hpp"
#include "obs/perfetto.hpp"
#include "sim/barrier.hpp"

namespace pmsb {
namespace {

/// All fabrics go through the one public construction path,
/// fabric::Fabric::build(topology, config).
std::unique_ptr<fabric::Fabric> make_fabric(const fabric::FabricConfig& cfg) {
  return fabric::Fabric::build(cfg.topo, cfg);
}

// ---------------------------------------------------------------------------
// EventHub: ordering, RAII, and concurrent subscribers.

TEST(EventHub, FanOutInSubscriptionOrder) {
  EventHub hub;
  std::vector<int> order;
  SwitchEvents a, b, c;
  a.on_head = [&order](unsigned, Cycle, unsigned) { order.push_back(1); };
  b.on_head = [&order](unsigned, Cycle, unsigned) { order.push_back(2); };
  c.on_head = [&order](unsigned, Cycle, unsigned) { order.push_back(3); };
  const Subscription sa = hub.subscribe(std::move(a));
  const Subscription sb = hub.subscribe(std::move(b));
  const Subscription sc = hub.subscribe(std::move(c));
  hub.head(0, 0, 0);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventHub, SubscriptionRaiiUnsubscribes) {
  EventHub hub;
  int hits = 0;
  {
    SwitchEvents ev;
    ev.on_accept = [&hits](unsigned, Cycle, Cycle) { ++hits; };
    const Subscription s = hub.subscribe(std::move(ev));
    EXPECT_EQ(hub.subscriber_count(), 1u);
    hub.accept(0, 0, 0);
    EXPECT_EQ(hits, 1);
  }
  EXPECT_EQ(hub.subscriber_count(), 0u);
  hub.accept(0, 0, 0);
  EXPECT_EQ(hits, 1);  // Dead subscription no longer fires.
}

TEST(EventHub, MiddleUnsubscribePreservesOrder) {
  EventHub hub;
  std::vector<int> order;
  SwitchEvents a, b, c;
  a.on_drop = [&order](unsigned, Cycle, DropReason) { order.push_back(1); };
  b.on_drop = [&order](unsigned, Cycle, DropReason) { order.push_back(2); };
  c.on_drop = [&order](unsigned, Cycle, DropReason) { order.push_back(3); };
  const Subscription sa = hub.subscribe(std::move(a));
  Subscription sb = hub.subscribe(std::move(b));
  const Subscription sc = hub.subscribe(std::move(c));
  sb.reset();
  hub.drop(0, 0, DropReason::kNoSlot);
  EXPECT_EQ(order, (std::vector<int>{1, 3}));
}

TEST(EventHub, SubscriptionOutlivingHubIsSafe) {
  Subscription s;
  {
    EventHub hub;
    SwitchEvents ev;
    ev.on_head = [](unsigned, Cycle, unsigned) {};
    s = hub.subscribe(std::move(ev));
    EXPECT_TRUE(s.active());
  }
  EXPECT_FALSE(s.active());
  s.reset();  // Must not touch the dead hub.
}

// Two independent subscribers on a live switch see the SAME event stream, in
// subscription order, and one resetting mid-run does not disturb the other.
// (This descends from the deleted set_events() shim-equivalence test: with
// the shim gone, subscribe() is the only attachment path, so the property
// worth pinning is multi-subscriber stream identity.)
TEST(EventHub, SubscribersSeeIdenticalStreamsFromLiveSwitch) {
  struct Recorder {
    std::vector<std::string> log;
    SwitchEvents events() {
      SwitchEvents ev;
      ev.on_head = [this](unsigned i, Cycle a0, unsigned d) {
        log.push_back("h" + std::to_string(i) + "," + std::to_string(a0) + "," +
                      std::to_string(d));
      };
      ev.on_accept = [this](unsigned i, Cycle a0, Cycle t0) {
        log.push_back("a" + std::to_string(i) + "," + std::to_string(a0) + "," +
                      std::to_string(t0));
      };
      ev.on_drop = [this](unsigned i, Cycle a0, DropReason w) {
        log.push_back("d" + std::to_string(i) + "," + std::to_string(a0) + "," +
                      std::to_string(static_cast<int>(w)));
      };
      ev.on_read_grant = [this](unsigned o, unsigned i, Cycle tr, Cycle, Cycle, bool) {
        log.push_back("r" + std::to_string(o) + "," + std::to_string(i) + "," +
                      std::to_string(tr));
      };
      return ev;
    }
  };

  const SwitchConfig cfg = SwitchConfig::for_ports(4);
  TrafficSpec spec;
  spec.load = 0.9;
  spec.seed = 7;

  Recorder first, second, ephemeral;
  PipelinedTestbench tb(cfg, cfg.n_ports, cfg.cell_format(), spec, false);
  // The testbench may subscribe its own observers (the invariant checker
  // under PMSB_CHECK=1), so count relative to what is already attached.
  const std::size_t base = tb.dut().events().subscriber_count();
  const Subscription sa = tb.dut().events().subscribe(first.events());
  Subscription se = tb.dut().events().subscribe(ephemeral.events());
  const Subscription sb = tb.dut().events().subscribe(second.events());
  EXPECT_EQ(tb.dut().events().subscriber_count(), base + 3);

  tb.run(300);
  se.reset();  // Dropping the middle subscriber must not disturb the others.
  EXPECT_EQ(tb.dut().events().subscriber_count(), base + 2);
  tb.run(300);

  ASSERT_FALSE(first.log.empty());
  EXPECT_EQ(first.log, second.log);
  // The ephemeral subscriber saw exactly the first segment's prefix.
  ASSERT_LE(ephemeral.log.size(), first.log.size());
  EXPECT_TRUE(std::equal(ephemeral.log.begin(), ephemeral.log.end(), first.log.begin()));
}

// Scoreboard + InvariantChecker + an extra user subscriber on one switch:
// the redesign's whole point. All three observe the same run without
// displacing each other.
TEST(EventHub, ScoreboardCheckerAndUserTapCoexist) {
  const SwitchConfig cfg = SwitchConfig::for_ports(4);
  TrafficSpec spec;
  spec.load = 0.8;
  spec.seed = 11;
  PipelinedTestbench tb(cfg, cfg.n_ports, cfg.cell_format(), spec, /*scoreboard=*/true);

  check::InvariantChecker checker;
  checker.attach(tb.dut(), tb.engine());

  std::uint64_t taps = 0;
  SwitchEvents ev;
  ev.on_accept = [&taps](unsigned, Cycle, Cycle) { ++taps; };
  const Subscription s = tb.dut().events().subscribe(std::move(ev));
  EXPECT_GE(tb.dut().events().subscriber_count(), 3u);

  tb.run(800);
  EXPECT_TRUE(checker.ok()) << checker.total_violations();
  EXPECT_EQ(taps, tb.dut().stats().accepted);  // Tap saw every accept...
  EXPECT_TRUE(tb.scoreboard().ok());           // ...and the scoreboard still verifies.
  EXPECT_GT(tb.scoreboard().delivered(), 0u);
}

// ---------------------------------------------------------------------------
// Channel timing.

TEST(FabricChannel, ReproducesLinkPipelineDelay) {
  // The producer is a TxTap on a switch out-wire, as in the fabric. The wire
  // carries valid words on the even cycles below 20, invalid words (with
  // garbage data) on the odd ones, then nothing for many capacity()s, then
  // one last valid word -- the silence an idle skip leaves on a link.
  fabric::Channel ch(3);  // S = 3 -> total wire delay S + 1 (bridge re-drive).
  WireLink wire;
  fabric::TxTap tap(&wire, &ch);
  const Cycle last = 20 + 5 * static_cast<Cycle>(ch.capacity());
  const auto sent = [last](Cycle t) { return (t >= 0 && t < 20 && t % 2 == 0) || t == last; };
  for (Cycle t = 0; t <= last + 5; ++t) {
    if (sent(t))
      wire.drive_next(Flit{true, false, static_cast<Word>(100 + t)});
    else if (t < 20)
      wire.drive_next(Flit{false, false, static_cast<Word>(7)});
    wire.tick();
    tap.eval(t);
    const Flit* f = ch.pop(t);
    if (sent(t - 3)) {
      ASSERT_NE(f, nullptr) << t;
      EXPECT_TRUE(f->valid) << t;
      EXPECT_EQ(f->data, static_cast<Word>(100 + t - 3)) << t;
    } else {
      EXPECT_EQ(f, nullptr) << t;  // Invalid words were never stored.
    }
    // Queued entries are exactly those that arrive after this cycle; once
    // every pushed entry is consumed the queue is empty.
    EXPECT_EQ(ch.empty(), !sent(t) && !sent(t - 1) && !sent(t - 2)) << t;
  }
  EXPECT_TRUE(ch.empty());
}

// ---------------------------------------------------------------------------
// Fabric: validation, conservation, determinism.

fabric::FabricConfig small_torus(unsigned threads) {
  fabric::FabricConfig cfg;
  cfg.topo = net::Topology{net::TopologyKind::kTorus2D, 4, 4};
  cfg.node = SwitchConfig::for_ports(4);
  cfg.link_pipe_stages = 3;
  cfg.load = 0.6;
  cfg.seed = 42;
  cfg.threads = threads;
  return cfg;
}

TEST(FabricConfigCheck, RejectsBadGeometry) {
  fabric::FabricConfig cfg = small_torus(1);
  cfg.node.n_ports = 2;  // Too few ports for a 2D torus.
  cfg.node.cell_words = 4;
  cfg.node.capacity_segments = 4 * 32;
  EXPECT_TRUE(cfg.check().has(ConfigIssue::Code::kBadPorts));

  cfg = small_torus(1);
  cfg.link_pipe_stages = 0;
  EXPECT_TRUE(cfg.check().has(ConfigIssue::Code::kBadLinkStages));

  cfg = small_torus(1);
  cfg.load = 1.5;
  EXPECT_TRUE(cfg.check().has(ConfigIssue::Code::kBadLoad));

  cfg = small_torus(1);
  cfg.topo = net::Topology{net::TopologyKind::kRing, 8, 2};
  EXPECT_TRUE(cfg.check().has(ConfigIssue::Code::kBadTopology));
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
}

/// A mesh runs wormhole transport, so check() applies the worm parameter
/// rules to it and ignores the (cell) node geometry.
TEST(FabricConfigCheck, MeshWormholeParameters) {
  fabric::FabricConfig cfg;
  cfg.topo = net::Topology{net::TopologyKind::kMesh2D, 4, 4};
  cfg.node.n_ports = 1;  // Irrelevant to a worm fabric.
  EXPECT_TRUE(fabric::wormhole_kind(cfg.topo));
  EXPECT_TRUE(cfg.check().ok()) << cfg.check().summary();

  fabric::FabricConfig bad = cfg;
  bad.lanes = 0;
  EXPECT_TRUE(bad.check().has(ConfigIssue::Code::kBadPorts));
  bad.lanes = 33;
  EXPECT_TRUE(bad.check().has(ConfigIssue::Code::kBadPorts));
  bad = cfg;
  bad.lanes = 3;  // Does not divide buffer_flits = 16.
  EXPECT_TRUE(bad.check().has(ConfigIssue::Code::kBadCapacity));
  bad = cfg;
  bad.message_flits = 0;
  EXPECT_TRUE(bad.check().has(ConfigIssue::Code::kBadCellWords));
  bad = cfg;
  bad.link_pipe_stages = 0;
  EXPECT_TRUE(bad.check().has(ConfigIssue::Code::kBadLinkStages));
  bad = cfg;
  bad.topo = net::Topology{net::TopologyKind::kMesh2D, 1, 1};
  EXPECT_TRUE(bad.check().has(ConfigIssue::Code::kBadTopology));
  bad = cfg;
  bad.fast_node = [](unsigned) { return true; };
  EXPECT_TRUE(bad.check().has(ConfigIssue::Code::kBadTopology));
  bad = cfg;
  bad.flight_recorder = true;
  EXPECT_TRUE(bad.check().has(ConfigIssue::Code::kBadTopology));
  EXPECT_THROW(bad.validate(), std::invalid_argument);

  // Torus and ring keep the cell transport (wraparound links would close
  // a channel-dependency cycle under wormhole switching).
  EXPECT_FALSE(fabric::wormhole_kind(net::Topology{net::TopologyKind::kTorus2D, 4, 4}));
  EXPECT_FALSE(fabric::wormhole_kind(net::Topology{net::TopologyKind::kRing, 8, 1}));
}

/// WormFlit::dest is 16 bits: no wormhole fabric may have more endpoints.
TEST(FabricConfigCheck, WormholeEndpointLimit) {
  fabric::FabricConfig cfg;
  cfg.topo = net::Topology{net::TopologyKind::kBanyan, 1u << 16, 1};
  EXPECT_FALSE(cfg.check().has(ConfigIssue::Code::kBadTopology));
  cfg.topo = net::Topology{net::TopologyKind::kBanyan, 1u << 17, 1};
  EXPECT_TRUE(cfg.check().has(ConfigIssue::Code::kBadTopology));
  cfg.topo = net::Topology{net::TopologyKind::kMesh2D, 256, 256};
  EXPECT_FALSE(cfg.check().has(ConfigIssue::Code::kBadTopology));
  cfg.topo = net::Topology{net::TopologyKind::kMesh2D, 256, 257};
  EXPECT_TRUE(cfg.check().has(ConfigIssue::Code::kBadTopology));
}

TEST(Fabric, DeliversAndConserves) {
  const auto fab = make_fabric(small_torus(1));
  fab->run(2000);
  const fabric::FabricStats st = fab->stats();
  EXPECT_EQ(st.cycles, 2000);
  EXPECT_GT(st.injected, 0u);
  EXPECT_GT(st.delivered, 0u);
  EXPECT_EQ(st.payload_errors, 0u);  // End-to-end payload integrity.
  EXPECT_EQ(st.injected, st.delivered + st.dropped() + st.backlog + st.in_network);
  // Minimum possible latency: one hop over a D+1-cycle link, plus cell
  // serialization and switch transit.
  EXPECT_GE(st.min_latency, static_cast<Cycle>(fab->config().link_pipe_stages + 1));
  EXPECT_GT(st.mean_latency, 0.0);
  // Every delivered cell took at least one link.
  ASSERT_GE(st.by_hops.size(), 2u);
  EXPECT_EQ(st.by_hops[0].cells, 0u);
}

TEST(Fabric, HopAccountingMatchesTopology) {
  const auto fab = make_fabric(small_torus(1));
  fab->run(1500);
  const fabric::FabricStats st = fab->stats();
  // 4x4 torus diameter is 4: no route is longer.
  EXPECT_LE(st.by_hops.size(), 5u);
  std::uint64_t sum = 0;
  for (const auto& row : st.by_hops) sum += row.cells;
  EXPECT_EQ(sum, st.delivered);
}

// The headline contract: bit-identical results at any thread count.
TEST(Fabric, DeterministicAcrossThreadCounts) {
  const auto f1 = make_fabric(small_torus(1));
  const auto f2 = make_fabric(small_torus(2));
  const auto f4 = make_fabric(small_torus(4));
  ASSERT_EQ(f1->threads(), 1u);
  ASSERT_EQ(f2->threads(), 2u);
  ASSERT_EQ(f4->threads(), 4u);
  f1->run(2000);
  f2->run(2000);
  f4->run(2000);
  const fabric::FabricStats a = f1->stats();
  const fabric::FabricStats b = f2->stats();
  const fabric::FabricStats c = f4->stats();

  EXPECT_EQ(a.uid_digest, b.uid_digest);
  EXPECT_EQ(a.uid_digest, c.uid_digest);
  EXPECT_EQ(a.injected, b.injected);
  EXPECT_EQ(a.delivered, c.delivered);
  EXPECT_EQ(a.dropped_no_addr, b.dropped_no_addr);
  EXPECT_EQ(a.dropped_no_slot, b.dropped_no_slot);
  EXPECT_EQ(a.dropped_out_limit, b.dropped_out_limit);
  EXPECT_EQ(a.backlog, c.backlog);
  EXPECT_EQ(a.in_network, c.in_network);
  EXPECT_DOUBLE_EQ(a.mean_latency, b.mean_latency);
  EXPECT_DOUBLE_EQ(a.mean_latency, c.mean_latency);
  EXPECT_EQ(a.min_latency, c.min_latency);
  EXPECT_EQ(a.max_latency, c.max_latency);
  ASSERT_EQ(a.by_hops.size(), c.by_hops.size());
  for (std::size_t h = 0; h < a.by_hops.size(); ++h) {
    EXPECT_EQ(a.by_hops[h].cells, b.by_hops[h].cells) << h;
    EXPECT_EQ(a.by_hops[h].cells, c.by_hops[h].cells) << h;
    EXPECT_DOUBLE_EQ(a.by_hops[h].mean_latency, c.by_hops[h].mean_latency) << h;
  }

  // Per-node switch statistics agree too (the partition is invisible).
  for (unsigned i = 0; i < f1->nodes(); ++i) {
    EXPECT_EQ(f1->node_switch(i).stats().accepted, f4->node_switch(i).stats().accepted) << i;
    EXPECT_EQ(f1->node_switch(i).stats().read_grants, f4->node_switch(i).stats().read_grants)
        << i;
  }
}

TEST(Fabric, DeterministicOnRing) {
  fabric::FabricConfig cfg;
  cfg.topo = net::Topology{net::TopologyKind::kRing, 8, 1};
  cfg.node = SwitchConfig::for_ports(2);
  cfg.link_pipe_stages = 2;
  cfg.load = 0.4;
  cfg.seed = 5;
  cfg.threads = 1;
  const auto f1 = make_fabric(cfg);
  cfg.threads = 3;  // Uneven shard sizes on purpose.
  const auto f3 = make_fabric(cfg);
  f1->run(1600);
  f3->run(1600);
  EXPECT_EQ(f1->stats().uid_digest, f3->stats().uid_digest);
  EXPECT_EQ(f1->stats().delivered, f3->stats().delivered);
  EXPECT_EQ(f1->stats().payload_errors, 0u);
  EXPECT_GT(f1->stats().delivered, 0u);
}

/// The six fabric gauges sampled identically: same cadence, same values.
void expect_same_gauges(const obs::MetricsRegistry& ma, const obs::MetricsRegistry& mb) {
  for (const char* g : {"fabric.injected", "fabric.delivered", "fabric.dropped",
                        "fabric.backlog", "fabric.in_network", "fabric.latency.mean"}) {
    const obs::GaugeStats* a = ma.find_gauge(g);
    const obs::GaugeStats* b = mb.find_gauge(g);
    ASSERT_NE(a, nullptr) << g;
    ASSERT_NE(b, nullptr) << g;
    EXPECT_EQ(a->samples, b->samples) << g;
    EXPECT_EQ(a->last, b->last) << g;
    EXPECT_EQ(a->min, b->min) << g;
    EXPECT_EQ(a->max, b->max) << g;
    EXPECT_EQ(a->sum, b->sum) << g;
  }
}

// Metric samples (taken at round barriers) follow the same contract: same
// cadence, same values, any thread count.
TEST(Fabric, MetricsSamplingIsThreadCountInvariant) {
  obs::MetricsRegistry m1, m4;
  const auto f1 = make_fabric(small_torus(1));
  const auto f4 = make_fabric(small_torus(4));
  f1->register_metrics(&m1);
  f4->register_metrics(&m4);
  f1->run(1200);
  f4->run(1200);
  expect_same_gauges(m1, m4);
  const obs::GaugeStats* delivered = m1.find_gauge("fabric.delivered");
  EXPECT_EQ(delivered->samples,
            (1200 + f1->config().link_pipe_stages - 1) / f1->config().link_pipe_stages);
  EXPECT_DOUBLE_EQ(delivered->last, static_cast<double>(f1->stats().delivered));
}

// Multiple run() calls continue the same simulation, and sample the gauges
// on the same absolute grid as one call.
TEST(Fabric, SplitRunMatchesSingleRun) {
  const auto whole = make_fabric(small_torus(2));
  const auto split = make_fabric(small_torus(2));
  obs::MetricsRegistry mw, ms;
  whole->register_metrics(&mw);
  split->register_metrics(&ms);
  whole->run(1400);
  split->run(500);
  split->run(137);  // Deliberately not a multiple of the lookahead.
  split->run(763);
  EXPECT_EQ(whole->stats().uid_digest, split->stats().uid_digest);
  EXPECT_EQ(whole->stats().delivered, split->stats().delivered);
  EXPECT_EQ(whole->now(), split->now());
  expect_same_gauges(mw, ms);
}

// ---------------------------------------------------------------------------
// SpinBarrier under oversubscription (regression: the pure spin-then-yield
// waiter livelocked CI runners when parties > hardware threads; the sleep
// tier in sim/barrier.hpp is what this pins).

TEST(SpinBarrierTest, SurvivesMoreThreadsThanCores) {
  const unsigned cores = std::max(1u, std::thread::hardware_concurrency());
  const unsigned parties = cores * 2 + 2;  // Guaranteed oversubscribed.
  constexpr int kEpisodes = 200;
  std::atomic<int> completions{0};
  SpinBarrier barrier(parties, [&completions] { ++completions; });

  std::vector<std::thread> threads;
  threads.reserve(parties);
  for (unsigned p = 0; p < parties; ++p) {
    threads.emplace_back([&barrier] {
      for (int e = 0; e < kEpisodes; ++e) barrier.arrive_and_wait();
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(completions.load(), kEpisodes);  // Exactly one completion/episode.
}

// Regression for the wake-up path: a straggler forces every other party all
// the way into the condvar park tier, and the completion must notify them
// out of it (the old sleep-polling waiter burned 50us per wake; the condvar
// waiter is also the only reason sleepers_ accounting exists).
TEST(SpinBarrierTest, ParkedWaitersWakeOnCompletion) {
  const unsigned cores = std::max(1u, std::thread::hardware_concurrency());
  const unsigned parties = cores * 2 + 2;
  constexpr int kEpisodes = 50;
  std::atomic<int> completions{0};
  SpinBarrier barrier(parties, [&completions] { ++completions; });

  std::vector<std::thread> threads;
  threads.reserve(parties);
  for (unsigned p = 0; p < parties; ++p) {
    threads.emplace_back([&barrier, p] {
      for (int e = 0; e < kEpisodes; ++e) {
        // Party 0 straggles past everyone's spin budget, so the rest park.
        if (p == 0 && e % 8 == 0)
          std::this_thread::sleep_for(std::chrono::milliseconds(2));
        barrier.arrive_and_wait();
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(completions.load(), kEpisodes);
  EXPECT_EQ(barrier.sleepers(), 0u);  // Every parked waiter was released.
}

// The fabric itself must stay deterministic when its shard count exceeds the
// machine's core count (same livelock regression, end to end).
TEST(Fabric, DeterministicWhenOversubscribed) {
  fabric::FabricConfig cfg = small_torus(1);
  const auto f1 = make_fabric(cfg);
  cfg.threads = std::max(4u, std::thread::hardware_concurrency() + 2);
  const auto fmany = make_fabric(cfg);
  EXPECT_GE(fmany->threads(), 4u);
  f1->run(1200);
  fmany->run(1200);
  EXPECT_EQ(f1->stats().uid_digest, fmany->stats().uid_digest);
  EXPECT_EQ(f1->stats().delivered, fmany->stats().delivered);
  EXPECT_EQ(f1->stats().dropped(), fmany->stats().dropped());
}

// ---------------------------------------------------------------------------
// Idle skipping: bit-identical results with skipping forced on vs off.

void expect_same_stats(const fabric::FabricStats& a, const fabric::FabricStats& b) {
  EXPECT_EQ(a.cycles, b.cycles);
  EXPECT_EQ(a.injected, b.injected);
  EXPECT_EQ(a.delivered, b.delivered);
  EXPECT_EQ(a.payload_errors, b.payload_errors);
  EXPECT_EQ(a.dropped_no_addr, b.dropped_no_addr);
  EXPECT_EQ(a.dropped_no_slot, b.dropped_no_slot);
  EXPECT_EQ(a.dropped_out_limit, b.dropped_out_limit);
  EXPECT_EQ(a.backlog, b.backlog);
  EXPECT_EQ(a.in_network, b.in_network);
  EXPECT_EQ(a.uid_digest, b.uid_digest);
  EXPECT_DOUBLE_EQ(a.mean_latency, b.mean_latency);
  EXPECT_EQ(a.min_latency, b.min_latency);
  EXPECT_EQ(a.max_latency, b.max_latency);
  ASSERT_EQ(a.by_hops.size(), b.by_hops.size());
  for (std::size_t h = 0; h < a.by_hops.size(); ++h) {
    EXPECT_EQ(a.by_hops[h].cells, b.by_hops[h].cells) << h;
    EXPECT_DOUBLE_EQ(a.by_hops[h].mean_latency, b.by_hops[h].mean_latency) << h;
  }
}

fabric::FabricConfig low_load_torus(int idle_skip, unsigned threads) {
  fabric::FabricConfig cfg;
  cfg.topo = net::Topology{net::TopologyKind::kTorus2D, 4, 4};
  cfg.node = SwitchConfig::for_ports(4);
  cfg.link_pipe_stages = 3;
  cfg.load = 0.002;  // Sparse arrivals -> long skippable gaps.
  cfg.seed = 99;
  cfg.threads = threads;
  cfg.idle_skip = idle_skip;
  return cfg;
}

TEST(FabricIdleSkip, EquivalentToSteppedRunSingleThread) {
  const auto stepped = make_fabric(low_load_torus(/*idle_skip=*/0, 1));
  const auto skipped = make_fabric(low_load_torus(/*idle_skip=*/1, 1));
  obs::MetricsRegistry ms, mk;
  stepped->register_metrics(&ms);
  skipped->register_metrics(&mk);
  stepped->run(30000);
  skipped->run(30000);
  const fabric::FabricStats a = stepped->stats();
  EXPECT_GT(a.delivered, 0u);  // The run is not vacuous.
  expect_same_stats(a, skipped->stats());
  // Metric sampling cadence and values survive the skips too.
  expect_same_gauges(ms, mk);
}

TEST(FabricIdleSkip, EquivalentToSteppedRunSharded) {
  const auto stepped = make_fabric(low_load_torus(/*idle_skip=*/0, 2));
  const auto skipped = make_fabric(low_load_torus(/*idle_skip=*/1, 2));
  stepped->run(20000);
  skipped->run(20000);
  EXPECT_GT(stepped->stats().delivered, 0u);
  expect_same_stats(stepped->stats(), skipped->stats());
}

TEST(FabricIdleSkip, SplitRunsStillAlign) {
  const auto whole = make_fabric(low_load_torus(/*idle_skip=*/1, 1));
  const auto split = make_fabric(low_load_torus(/*idle_skip=*/1, 1));
  whole->run(9000);
  split->run(4100);  // Boundaries deliberately off the round grid.
  split->run(4900);
  EXPECT_EQ(whole->now(), split->now());
  expect_same_stats(whole->stats(), split->stats());
}

// ---------------------------------------------------------------------------
// Mixed cycle-accurate / fast-model fabrics.

fabric::FabricConfig mixed_model_torus(unsigned threads) {
  fabric::FabricConfig cfg = small_torus(threads);
  // Checkerboard: even nodes exact, odd nodes behavioural.
  cfg.fast_node = [](unsigned node) { return node % 2 == 1; };
  return cfg;
}

// ---------------------------------------------------------------------------
// Observability: per-node flight recorders, merged HDR latency, telemetry.

TEST(FabricFlight, MergedRecorderIsThreadCountInvariant) {
  auto cfg = [](unsigned threads) {
    fabric::FabricConfig c = small_torus(threads);
    c.flight_recorder = true;
    c.flight_warmup = 200;
    return c;
  };
  const auto f1 = make_fabric(cfg(1));
  const auto f4 = make_fabric(cfg(4));
  f1->run(2000);
  f4->run(2000);
  const obs::FlightRecorder a = f1->merged_flight();
  const obs::FlightRecorder b = f4->merged_flight();
  EXPECT_GT(a.completed(), 0u);
  EXPECT_EQ(a.completed(), b.completed());
  EXPECT_EQ(a.heads(), b.heads());
  for (unsigned s = 0; s < obs::kFlightStageCount; ++s) {
    const auto st = static_cast<obs::FlightStage>(s);
    EXPECT_EQ(a.stage(st).samples(), b.stage(st).samples());
    EXPECT_EQ(a.stage(st).sum(), b.stage(st).sum());
    EXPECT_EQ(a.stage(st).p50(), b.stage(st).p50());
    EXPECT_EQ(a.stage(st).p999(), b.stage(st).p999());
  }
  // The additive decomposition survives the merge.
  EXPECT_EQ(a.stage(obs::FlightStage::kTotal).sum(),
            a.stage(obs::FlightStage::kWaitGrant).sum() +
                a.stage(obs::FlightStage::kBuffer).sum() +
                a.stage(obs::FlightStage::kSerialize).sum());
  // Per-node access works and recorders exist for every node.
  for (unsigned i = 0; i < f1->nodes(); ++i) EXPECT_NE(f1->node_flight(i), nullptr);
}

TEST(FabricFlight, DisabledByDefault) {
  const auto fab = make_fabric(small_torus(1));
  fab->run(500);
  EXPECT_EQ(fab->node_flight(0), nullptr);
}

TEST(Fabric, LatencyHistogramMatchesScalarStats) {
  const auto fab = make_fabric(small_torus(2));
  fab->run(2000);
  const fabric::FabricStats st = fab->stats();
  ASSERT_GT(st.delivered, 0u);
  EXPECT_EQ(st.latency.samples(), st.delivered);
  EXPECT_EQ(st.latency.min(), static_cast<std::uint64_t>(st.min_latency));
  EXPECT_EQ(st.latency.max(), static_cast<std::uint64_t>(st.max_latency));
  EXPECT_NEAR(st.latency.mean(), st.mean_latency, 1e-9);
  EXPECT_GE(st.latency.p999(), st.latency.p50());
}

TEST(Fabric, ShardTelemetryAccountsRoundsAndRelays) {
  fabric::FabricConfig cfg = small_torus(2);
  // Round/relay accounting below is barrier-engine-specific (the dataflow
  // engine reports per-task chunks instead of lockstep rounds).
  cfg.engine = fabric::FabricEngine::kBarrier;
  const auto fab = make_fabric(cfg);
  fab->run(1200);  // 400 rounds of D = 3.
  const std::vector<fabric::ShardTelemetry> tel = fab->shard_telemetry();
  ASSERT_EQ(tel.size(), 2u);
  unsigned nodes = 0;
  std::uint64_t relayed = 0;
  for (const fabric::ShardTelemetry& sh : tel) {
    EXPECT_EQ(sh.shard, static_cast<unsigned>(&sh - tel.data()));
    EXPECT_GT(sh.nodes, 0u);
    // No idle skips at load 0.6: every shard stepped every round.
    EXPECT_EQ(sh.rounds, 1200u / 3u);
    EXPECT_GT(sh.active_ns, 0u);
    nodes += sh.nodes;
    relayed += sh.cells_relayed;
  }
  EXPECT_EQ(nodes, fab->nodes());
  EXPECT_GT(relayed, 0u);  // Multi-hop routes relay through bridges.
  EXPECT_EQ(fab->rounds_skipped(), 0u);

  obs::PerfettoTrace tr;
  fab->telemetry_to_perfetto(tr);
  // Two worker tracks, each: thread_name metadata + active + barrier_wait
  // slices; plus the stall counter track: metadata + one sample per shard.
  EXPECT_EQ(tr.event_count(), 2u * 3u + 1u + 2u);
  const std::string doc = tr.json();
  EXPECT_NE(doc.find("fabric worker 0"), std::string::npos);
  EXPECT_NE(doc.find("fabric worker 1"), std::string::npos);
  EXPECT_NE(doc.find("\"barrier_wait\""), std::string::npos);
  EXPECT_NE(doc.find("fabric shard stalls"), std::string::npos);
}

TEST(FabricFastModel, MixedFabricDeliversAndConserves) {
  const auto fab = make_fabric(mixed_model_torus(1));
  fab->run(2000);
  const fabric::FabricStats st = fab->stats();
  EXPECT_GT(st.delivered, 0u);
  EXPECT_EQ(st.payload_errors, 0u);
  EXPECT_EQ(st.injected, st.delivered + st.dropped() + st.backlog + st.in_network);
  EXPECT_TRUE(fab->node_is_fast(1));
  EXPECT_FALSE(fab->node_is_fast(0));
  EXPECT_GT(fab->node_fast_switch(1).stats().accepted, 0u);
  EXPECT_GT(fab->node_switch(0).stats().accepted, 0u);
}

TEST(FabricFastModel, MixedFabricDeterministicAcrossThreadCounts) {
  const auto f1 = make_fabric(mixed_model_torus(1));
  const auto f4 = make_fabric(mixed_model_torus(4));
  f1->run(2000);
  f4->run(2000);
  expect_same_stats(f1->stats(), f4->stats());
  for (unsigned i = 0; i < f1->nodes(); ++i) {
    if (f1->node_is_fast(i)) {
      EXPECT_EQ(f1->node_fast_switch(i).stats().accepted,
                f4->node_fast_switch(i).stats().accepted) << i;
    } else {
      EXPECT_EQ(f1->node_switch(i).stats().accepted, f4->node_switch(i).stats().accepted)
          << i;
    }
  }
}

// An all-fast low-load fabric still skips correctly (the fast model's
// quiescence hooks feed the same round planner).
TEST(FabricFastModel, AllFastIdleSkipEquivalence) {
  fabric::FabricConfig off = low_load_torus(/*idle_skip=*/0, 1);
  fabric::FabricConfig on = low_load_torus(/*idle_skip=*/1, 1);
  off.fast_node = [](unsigned) { return true; };
  on.fast_node = [](unsigned) { return true; };
  const auto stepped = make_fabric(off);
  const auto skipped = make_fabric(on);
  stepped->run(20000);
  skipped->run(20000);
  EXPECT_GT(stepped->stats().delivered, 0u);
  expect_same_stats(stepped->stats(), skipped->stats());
}

// ---------------------------------------------------------------------------
// Dataflow engine: the same determinism contract, now across ENGINES too --
// kDataflow must reproduce kBarrier's results bit-exactly at any thread
// count, under idle skipping, with mixed node models, and across run()
// splits (which also exercises mid-sequence rebalancing).

fabric::FabricConfig with_engine(fabric::FabricConfig cfg, fabric::FabricEngine e,
                                 unsigned threads) {
  cfg.engine = e;
  cfg.threads = threads;
  return cfg;
}

TEST(FabricDataflow, MatchesBarrierAcrossThreadCounts) {
  fabric::FabricConfig base = small_torus(1);
  base.flight_recorder = true;
  base.flight_warmup = 200;
  const auto ref = make_fabric(with_engine(base, fabric::FabricEngine::kBarrier, 1));
  ref->run(2000);
  const fabric::FabricStats want = ref->stats();
  ASSERT_GT(want.delivered, 0u);
  const obs::FlightRecorder want_flight = ref->merged_flight();

  for (unsigned threads : {1u, 2u, 4u, 8u}) {
    const auto df = make_fabric(with_engine(base, fabric::FabricEngine::kDataflow, threads));
    EXPECT_EQ(df->engine(), fabric::FabricEngine::kDataflow);
    df->run(2000);
    const fabric::FabricStats got = df->stats();
    expect_same_stats(want, got);
    // Merged HDR latency distribution, down in the tail.
    EXPECT_EQ(want.latency.samples(), got.latency.samples()) << threads;
    EXPECT_EQ(want.latency.p50(), got.latency.p50()) << threads;
    EXPECT_EQ(want.latency.p999(), got.latency.p999()) << threads;
    // Flight-recorder per-stage sums survive the engine change.
    const obs::FlightRecorder got_flight = df->merged_flight();
    EXPECT_EQ(want_flight.completed(), got_flight.completed()) << threads;
    for (unsigned s = 0; s < obs::kFlightStageCount; ++s) {
      const auto st = static_cast<obs::FlightStage>(s);
      EXPECT_EQ(want_flight.stage(st).samples(), got_flight.stage(st).samples())
          << threads << " stage " << s;
      EXPECT_EQ(want_flight.stage(st).sum(), got_flight.stage(st).sum())
          << threads << " stage " << s;
    }
  }
}

TEST(FabricDataflow, MetricsSamplingMatchesBarrier) {
  obs::MetricsRegistry mb, md;
  const auto fb = make_fabric(with_engine(small_torus(1), fabric::FabricEngine::kBarrier, 1));
  const auto fd = make_fabric(with_engine(small_torus(1), fabric::FabricEngine::kDataflow, 4));
  fb->register_metrics(&mb);
  fd->register_metrics(&md);
  fb->run(1200);
  fd->run(1200);
  expect_same_gauges(mb, md);
}

// Repeated run() calls continue the simulation exactly; the second and third
// runs start from a rebalanced partition (plan from the previous run),
// which must be invisible in the results and in the gauges.
TEST(FabricDataflow, SplitRunMatchesSingleRunWithRebalance) {
  fabric::FabricConfig cfg = with_engine(small_torus(1), fabric::FabricEngine::kDataflow, 4);
  cfg.rebalance = true;
  const auto whole = make_fabric(cfg);
  const auto split = make_fabric(cfg);
  obs::MetricsRegistry mw, ms;
  whole->register_metrics(&mw);
  split->register_metrics(&ms);
  whole->run(1400);
  split->run(500);
  split->run(137);  // Deliberately not a multiple of the lookahead.
  split->run(763);
  EXPECT_EQ(whole->now(), split->now());
  expect_same_stats(whole->stats(), split->stats());
  expect_same_gauges(mw, ms);
}

// Per-node idle skipping (the dataflow engine's chunk-granular variant)
// changes nothing, including against the barrier planner's round-granular
// skipping, and across a mid-run split.
TEST(FabricDataflow, IdleSkipEquivalentAcrossEnginesAndSplits) {
  const auto barrier_skip = make_fabric(
      with_engine(low_load_torus(/*idle_skip=*/1, 1), fabric::FabricEngine::kBarrier, 1));
  const auto df_step = make_fabric(
      with_engine(low_load_torus(/*idle_skip=*/0, 2), fabric::FabricEngine::kDataflow, 2));
  const auto df_skip = make_fabric(
      with_engine(low_load_torus(/*idle_skip=*/1, 2), fabric::FabricEngine::kDataflow, 2));
  const auto df_skip_split = make_fabric(
      with_engine(low_load_torus(/*idle_skip=*/1, 2), fabric::FabricEngine::kDataflow, 2));
  barrier_skip->run(20000);
  df_step->run(20000);
  df_skip->run(20000);
  df_skip_split->run(8100);  // Off the round grid on purpose.
  df_skip_split->run(11900);
  EXPECT_GT(df_step->stats().delivered, 0u);
  expect_same_stats(barrier_skip->stats(), df_step->stats());
  expect_same_stats(df_step->stats(), df_skip->stats());
  expect_same_stats(df_skip->stats(), df_skip_split->stats());
  // The invariant checker's cycle observer pins every cycle-accurate node to
  // stepping (Engine::can_skip), so under PMSB_CHECK nothing may skip.
  if (check::env_enabled())
    EXPECT_EQ(df_skip->rounds_skipped(), 0u);
  else
    EXPECT_GT(df_skip->rounds_skipped(), 0u);  // Skipping actually engaged.
}

TEST(FabricDataflow, MixedModelMatchesBarrier) {
  const auto fb = make_fabric(with_engine(mixed_model_torus(1), fabric::FabricEngine::kBarrier, 1));
  const auto fd = make_fabric(with_engine(mixed_model_torus(1), fabric::FabricEngine::kDataflow, 4));
  fb->run(2000);
  fd->run(2000);
  expect_same_stats(fb->stats(), fd->stats());
  for (unsigned i = 0; i < fb->nodes(); ++i) {
    if (fb->node_is_fast(i)) {
      EXPECT_EQ(fb->node_fast_switch(i).stats().accepted,
                fd->node_fast_switch(i).stats().accepted) << i;
    } else {
      EXPECT_EQ(fb->node_switch(i).stats().accepted, fd->node_switch(i).stats().accepted)
          << i;
    }
  }
}

TEST(FabricDataflow, DeterministicWhenOversubscribed) {
  fabric::FabricConfig cfg = with_engine(small_torus(1), fabric::FabricEngine::kDataflow, 1);
  const auto f1 = make_fabric(cfg);
  cfg.threads = std::max(4u, std::thread::hardware_concurrency() + 2);
  const auto fmany = make_fabric(cfg);
  EXPECT_GE(fmany->threads(), 4u);
  f1->run(1200);
  fmany->run(1200);
  expect_same_stats(f1->stats(), fmany->stats());
}

TEST(FabricDataflow, RebalanceNeverChangesResults) {
  fabric::FabricConfig on = with_engine(small_torus(1), fabric::FabricEngine::kDataflow, 2);
  on.rebalance = true;
  fabric::FabricConfig off = on;
  off.rebalance = false;
  const auto fon = make_fabric(on);
  const auto foff = make_fabric(off);
  // Several runs so rebalance plans actually get applied in between.
  for (int r = 0; r < 4; ++r) {
    fon->run(600);
    foff->run(600);
  }
  expect_same_stats(fon->stats(), foff->stats());
}

TEST(FabricDataflow, SchedulerStatsAndTelemetryShape) {
  const auto fab = make_fabric(with_engine(small_torus(1), fabric::FabricEngine::kDataflow, 2));
  fab->run(1200);
  const fabric::FabricSchedulerStats sched = fab->scheduler_stats();
  EXPECT_STREQ(sched.engine, "dataflow");
  EXPECT_EQ(sched.workers, 2u);
  EXPECT_GE(sched.tasks, sched.workers);
  ASSERT_EQ(sched.per_worker.size(), 2u);
  std::uint64_t active = 0;
  for (const auto& w : sched.per_worker) active += w.active_ns;
  EXPECT_GT(active, 0u);

  const std::vector<fabric::ShardTelemetry> tel = fab->shard_telemetry();
  ASSERT_EQ(tel.size(), sched.tasks);
  unsigned nodes = 0;
  std::uint64_t relayed = 0;
  std::uint64_t chunks = 0;
  for (const fabric::ShardTelemetry& t : tel) {
    EXPECT_EQ(t.barrier_wait_ns, 0u);  // kDataflow never parks at a barrier.
    nodes += t.nodes;
    relayed += t.cells_relayed;
    chunks += t.rounds;
  }
  EXPECT_EQ(nodes, fab->nodes());
  EXPECT_GT(relayed, 0u);
  EXPECT_GT(chunks, 0u);

  obs::PerfettoTrace tr;
  fab->telemetry_to_perfetto(tr);
  const std::string doc = tr.json();
  EXPECT_NE(doc.find("fabric worker 0"), std::string::npos);
  EXPECT_NE(doc.find("\"scheduler_idle\""), std::string::npos);
  EXPECT_NE(doc.find("fabric shard stalls"), std::string::npos);
  EXPECT_NE(doc.find("blocked_on_empty"), std::string::npos);
}

// The barrier engine's scheduler block is shape-compatible (degenerate
// pinned tasks), so BENCH JSON consumers need no engine-specific handling.
TEST(FabricDataflow, BarrierSchedulerStatsShape) {
  const auto fab = make_fabric(with_engine(small_torus(2), fabric::FabricEngine::kBarrier, 2));
  fab->run(600);
  const fabric::FabricSchedulerStats sched = fab->scheduler_stats();
  EXPECT_STREQ(sched.engine, "barrier");
  EXPECT_EQ(sched.workers, 2u);
  EXPECT_EQ(sched.tasks, 2u);
  EXPECT_EQ(sched.steals, 0u);
  ASSERT_EQ(sched.per_worker.size(), 2u);
  EXPECT_GT(sched.per_worker[0].active_ns + sched.per_worker[1].active_ns, 0u);
}

// ---------------------------------------------------------------------------
// Wormhole fabrics: the same determinism contract at flit granularity --
// thread counts x engines x lane counts, run splits, and idle skipping.

/// The worm topologies of the determinism matrix: a multistage network and
/// a direct one.
const net::Topology kWormTopos[] = {net::Topology{net::TopologyKind::kBanyan, 16, 1},
                                    net::Topology{net::TopologyKind::kMesh2D, 4, 4}};

fabric::FabricConfig worm_fabric(const net::Topology& topo, fabric::FabricEngine engine,
                                 unsigned threads, unsigned lanes,
                                 const char* traffic = "uniform:0.6") {
  fabric::FabricConfig cfg;
  cfg.topo = topo;
  cfg.link_pipe_stages = 1;
  cfg.seed = 11;
  cfg.engine = engine;
  cfg.threads = threads;
  cfg.lanes = lanes;
  cfg.buffer_flits = 16;
  cfg.message_flits = 8;
  cfg.traffic = traffic;
  return cfg;
}

void expect_same_worm_stats(const fabric::FabricStats& a, const fabric::FabricStats& b) {
  expect_same_stats(a, b);
  EXPECT_EQ(a.flits_delivered, b.flits_delivered);
  EXPECT_EQ(a.latency.samples(), b.latency.samples());
  EXPECT_EQ(a.latency.p50(), b.latency.p50());
  EXPECT_EQ(a.latency.p999(), b.latency.p999());
}

TEST(WormDeterminism, ThreadCountsTimesEnginesTimesLanes) {
  for (const net::Topology& topo : kWormTopos) {
    SCOPED_TRACE(topo.describe());
    for (const unsigned lanes : {1u, 4u}) {
      const auto ref =
          make_fabric(worm_fabric(topo, fabric::FabricEngine::kBarrier, 1, lanes));
      ref->run(3000);
      const fabric::FabricStats want = ref->stats();
      ASSERT_GT(want.delivered, 0u);
      ASSERT_EQ(want.payload_errors, 0u);
      for (const auto engine :
           {fabric::FabricEngine::kBarrier, fabric::FabricEngine::kDataflow}) {
        for (const unsigned threads : {1u, 2u, 4u}) {
          const auto fab = make_fabric(worm_fabric(topo, engine, threads, lanes));
          fab->run(3000);
          expect_same_worm_stats(want, fab->stats());
        }
      }
    }
  }
}

TEST(WormDeterminism, SplitRunMatchesSingleRun) {
  for (const net::Topology& topo : kWormTopos) {
    SCOPED_TRACE(topo.describe());
    const auto whole = make_fabric(worm_fabric(topo, fabric::FabricEngine::kDataflow, 4, 2));
    const auto split = make_fabric(worm_fabric(topo, fabric::FabricEngine::kDataflow, 4, 2));
    whole->run(2400);
    split->run(900);
    split->run(137);  // Deliberately off any lookahead grid.
    split->run(1363);
    EXPECT_EQ(whole->now(), split->now());
    expect_same_worm_stats(whole->stats(), split->stats());
  }
}

/// Idle skipping must be invisible at flit granularity too: a sparse worm
/// fabric (low load, long idle stretches) run with skipping forced on
/// reproduces the stepped run bit for bit, on both engines.
TEST(WormDeterminism, IdleSkipEquivalentOnBothEngines) {
  for (const net::Topology& topo : kWormTopos) {
    for (const auto engine :
         {fabric::FabricEngine::kBarrier, fabric::FabricEngine::kDataflow}) {
      SCOPED_TRACE(topo.describe() + " " + fabric::to_string(engine));
      fabric::FabricConfig stepped_cfg = worm_fabric(topo, engine, 2, 2, "uniform:0.002");
      stepped_cfg.idle_skip = 0;
      fabric::FabricConfig skipping_cfg = worm_fabric(topo, engine, 2, 2, "uniform:0.002");
      skipping_cfg.idle_skip = 1;
      const auto stepped = make_fabric(stepped_cfg);
      const auto skipping = make_fabric(skipping_cfg);
      stepped->run(30000);
      skipping->run(30000);
      EXPECT_GT(stepped->stats().delivered, 0u);
      expect_same_worm_stats(stepped->stats(), skipping->stats());
      EXPECT_GT(skipping->rounds_skipped(), 0u);  // Skipping actually engaged.
    }
  }
}

/// The fabric gauges count messages on a wormhole fabric, under the same
/// contract as on a cell fabric: every sample identical across engines,
/// thread counts and idle skipping, at a saturating and at a sparse load,
/// whole or split off the sampling grid (the grid is absolute, so a split
/// run samples exactly what the whole run does). D = 3, so rounds span
/// several cycles.
TEST(WormDeterminism, GaugesIdenticalAcrossEnginesThreadsSkipAndSplits) {
  for (const net::Topology& topo : kWormTopos) {
    for (const auto& [traffic, cycles] :
         {std::pair<const char*, Cycle>{"uniform:0.6", 3000}, {"uniform:0.002", 15000}}) {
      SCOPED_TRACE(topo.describe() + " " + traffic);
      const auto run = [&](obs::MetricsRegistry& m, fabric::FabricEngine engine,
                           unsigned threads, int idle_skip, bool split) {
        fabric::FabricConfig cfg = worm_fabric(topo, engine, threads, 2, traffic);
        cfg.link_pipe_stages = 3;
        cfg.idle_skip = idle_skip;
        const auto fab = make_fabric(cfg);
        fab->register_metrics(&m);
        if (split) {
          fab->run(1000);  // Not a multiple of D.
          fab->run(cycles - 1000);
        } else {
          fab->run(cycles);
        }
        return fab->stats();
      };
      obs::MetricsRegistry want;
      const fabric::FabricStats st =
          run(want, fabric::FabricEngine::kBarrier, 1, 0, /*split=*/false);
      ASSERT_GT(st.delivered, 0u);
      const obs::GaugeStats* delivered = want.find_gauge("fabric.delivered");
      ASSERT_NE(delivered, nullptr);
      EXPECT_EQ(delivered->samples, static_cast<std::uint64_t>((cycles + 2) / 3));
      EXPECT_EQ(delivered->last, static_cast<double>(st.delivered));
      EXPECT_EQ(want.find_gauge("fabric.in_network")->last, static_cast<double>(st.in_network));
      for (const auto engine :
           {fabric::FabricEngine::kBarrier, fabric::FabricEngine::kDataflow}) {
        for (const unsigned threads : {1u, 2u, 4u}) {
          for (const int idle_skip : {0, 1}) {
            SCOPED_TRACE(std::string(fabric::to_string(engine)) + " threads " +
                         std::to_string(threads) + " skip " + std::to_string(idle_skip));
            obs::MetricsRegistry got;
            run(got, engine, threads, idle_skip, /*split=*/false);
            expect_same_gauges(want, got);
          }
        }
        SCOPED_TRACE(std::string(fabric::to_string(engine)) + " split");
        obs::MetricsRegistry got_split;
        run(got_split, engine, 2, 1, /*split=*/true);
        expect_same_gauges(want, got_split);
      }
    }
  }
}

/// The hotsenders pattern keeps background sources off the hot egress:
/// with dedicated aggressors saturating endpoint 0, splitting each buffer
/// into more lanes must raise carried throughput (the virtual-channel
/// payoff the MW bench gates on).
TEST(WormDeterminism, MoreLanesCarryMoreUnderTreeSaturation) {
  std::uint64_t flits_by_lanes[2] = {};
  const unsigned lane_opts[2] = {1u, 4u};
  for (int i = 0; i < 2; ++i) {
    const auto fab = make_fabric(worm_fabric(kWormTopos[0], fabric::FabricEngine::kBarrier,
                                             1, lane_opts[i], "hotsenders:0.25,0.95"));
    fab->run(6000);
    flits_by_lanes[i] = fab->stats().flits_delivered;
  }
  EXPECT_GT(flits_by_lanes[1], flits_by_lanes[0]);
}

}  // namespace
}  // namespace pmsb
