// Property tests of the paper's architectural invariants (DESIGN.md §4),
// including multi-segment cells (cell_words = m * 2n, section 3.2's
// "packet size equal to or a multiple of" the quantum).
//
// Several invariants are enforced by always-on PMSB_CHECK assertions deep in
// the datapath (single-ported banks, latch overwrite windows, output-row
// sharing, credit/flow accounting); for those, *completing a run at all* is
// the property. The tests here add the observable end-to-end properties.

#include <gtest/gtest.h>

#include "core/switch.hpp"
#include "core/testbench.hpp"
#include "sim/link_pipeline.hpp"

namespace pmsb {
namespace {

struct SegCase {
  unsigned n;
  unsigned segments;
  double load;
  unsigned capacity_cells;
  std::uint64_t seed;
};

void PrintTo(const SegCase& c, std::ostream* os) {
  *os << "n" << c.n << "_m" << c.segments << "_load" << static_cast<int>(c.load * 100)
      << "_cap" << c.capacity_cells << "_seed" << c.seed;
}

class MultiSegment : public ::testing::TestWithParam<SegCase> {};

TEST_P(MultiSegment, StreamsWithoutUnderrunAndVerifies) {
  const SegCase& sc = GetParam();
  SwitchConfig cfg;
  cfg.n_ports = sc.n;
  cfg.word_bits = 16;
  cfg.cell_words = sc.segments * 2 * sc.n;
  cfg.capacity_segments = sc.capacity_cells * sc.segments;
  TrafficSpec spec;
  spec.load = sc.load;
  spec.seed = sc.seed;
  PipelinedTestbench tb(cfg, cfg.n_ports, cfg.cell_format(), spec);

  tb.run(20000);
  ASSERT_TRUE(tb.drain(500000));
  // CellSink asserts output contiguity: any segment-streaming underrun would
  // have aborted. The scoreboard checks content and order.
  EXPECT_TRUE(tb.scoreboard().ok()) << tb.scoreboard().errors().front();
  EXPECT_TRUE(tb.scoreboard().fully_drained());
  const auto& st = tb.dut().stats();
  EXPECT_EQ(st.heads_seen, st.accepted + st.dropped());
  EXPECT_EQ(st.accepted, st.read_grants);  // Everything stored departed.
}

INSTANTIATE_TEST_SUITE_P(
    Grid, MultiSegment,
    ::testing::Values(SegCase{2, 2, 0.6, 16, 31}, SegCase{2, 4, 0.9, 16, 32},
                      SegCase{4, 2, 0.7, 32, 33}, SegCase{4, 3, 1.0, 16, 34},
                      SegCase{8, 2, 0.8, 32, 35}, SegCase{2, 8, 1.0, 8, 36},
                      SegCase{4, 2, 1.0, 4, 37}));

TEST(SwitchProperties, IdleSwitchStaysIdle) {
  SwitchConfig cfg;
  cfg.n_ports = 4;
  cfg.word_bits = 16;
  cfg.cell_words = 8;
  cfg.capacity_segments = 32;
  PipelinedSwitch sw(cfg);
  Engine eng;
  eng.add(&sw);
  eng.run(1000);
  EXPECT_EQ(sw.stats().idle_cycles, 1000u);
  EXPECT_TRUE(sw.drained());
  for (unsigned o = 0; o < 4; ++o) EXPECT_FALSE(sw.out_link(o).now().valid);
}

TEST(SwitchProperties, PeakOccupancyNeverExceedsCapacity) {
  SwitchConfig cfg;
  cfg.n_ports = 4;
  cfg.word_bits = 16;
  cfg.cell_words = 8;
  cfg.capacity_segments = 8;
  TrafficSpec spec;
  spec.load = 1.0;
  spec.arrivals = ArrivalKind::kSaturated;
  spec.pattern = PatternKind::kHotspot;
  spec.hot_fraction = 0.9;
  spec.seed = 40;
  PipelinedTestbench tb(cfg, cfg.n_ports, cfg.cell_format(), spec);
  tb.run(20000);
  EXPECT_LE(tb.dut().buffer_peak(), cfg.capacity_segments);
  EXPECT_EQ(tb.dut().buffer_peak(), cfg.capacity_segments);  // It does fill.
}

TEST(SwitchProperties, DeterministicAcrossRuns) {
  auto run_once = [] {
    SwitchConfig cfg;
    cfg.n_ports = 4;
    cfg.word_bits = 16;
    cfg.cell_words = 8;
    cfg.capacity_segments = 16;
    TrafficSpec spec;
    spec.load = 0.9;
    spec.seed = 99;
    PipelinedTestbench tb(cfg, cfg.n_ports, cfg.cell_format(), spec);
    tb.run(10000);
    const auto& st = tb.dut().stats();
    return std::tuple{st.accepted, st.dropped_no_addr, st.read_grants, st.snoop_initiations,
                      tb.delivered()};
  };
  EXPECT_EQ(run_once(), run_once());
}

TEST(SwitchProperties, SaturatedPermutationIsAllCutThrough) {
  // Contention-free full load: every cell should depart via cut-through
  // (the read wave starts before the tail has arrived).
  SwitchConfig cfg;
  cfg.n_ports = 4;
  cfg.word_bits = 16;
  cfg.cell_words = 8;
  cfg.capacity_segments = 32;
  TrafficSpec spec;
  spec.arrivals = ArrivalKind::kSaturated;
  spec.pattern = PatternKind::kPermutation;
  spec.load = 1.0;
  spec.seed = 41;
  PipelinedTestbench tb(cfg, cfg.n_ports, cfg.cell_format(), spec);
  tb.run(8000);
  const auto& st = tb.dut().stats();
  EXPECT_EQ(st.cut_through_cells, st.read_grants);
  EXPECT_EQ(st.dropped(), 0u);
}

TEST(SwitchProperties, HeavyLoadShiftsToStoreAndForward) {
  // With a hot output the queue backs up: most departures to it are from
  // the buffer, not cut-through.
  SwitchConfig cfg;
  cfg.n_ports = 4;
  cfg.word_bits = 16;
  cfg.cell_words = 8;
  cfg.capacity_segments = 64;
  TrafficSpec spec;
  spec.arrivals = ArrivalKind::kSaturated;
  spec.pattern = PatternKind::kHotspot;
  spec.hot_fraction = 1.0;
  spec.load = 1.0;
  spec.seed = 42;
  PipelinedTestbench tb(cfg, cfg.n_ports, cfg.cell_format(), spec);
  tb.run(20000);
  const auto& st = tb.dut().stats();
  EXPECT_LT(st.cut_through_cells, st.read_grants / 4);
}

TEST(SwitchProperties, ReadsHavePriorityOverWrites) {
  // At full uniform load the switch should never leave an output idle while
  // it has queued cells and a free slot; measured as: read initiations keep
  // pace with accepted cells.
  SwitchConfig cfg;
  cfg.n_ports = 4;
  cfg.word_bits = 16;
  cfg.cell_words = 8;
  cfg.capacity_segments = 64;
  TrafficSpec spec;
  spec.arrivals = ArrivalKind::kSaturated;
  spec.load = 1.0;
  spec.seed = 43;
  PipelinedTestbench tb(cfg, cfg.n_ports, cfg.cell_format(), spec);
  tb.run(40000);
  const auto& st = tb.dut().stats();
  // Output utilization within a few percent of 100% (uniform saturated
  // traffic on a shared buffer sustains full output rates).
  const double out_util = static_cast<double>(st.read_grants) * cfg.cell_words /
                          (4.0 * static_cast<double>(st.cycles));
  EXPECT_GT(out_util, 0.93);
}

TEST(SwitchProperties, LatencyLowerBoundHolds) {
  SwitchConfig cfg;
  cfg.n_ports = 8;
  cfg.word_bits = 16;
  cfg.cell_words = 16;
  cfg.capacity_segments = 128;
  TrafficSpec spec;
  spec.load = 0.5;
  spec.seed = 44;
  PipelinedTestbench tb(cfg, cfg.n_ports, cfg.cell_format(), spec);
  tb.run(30000);
  tb.drain(500000);
  ASSERT_GT(tb.scoreboard().latency().samples(), 0u);
  EXPECT_GE(tb.scoreboard().latency().min(), 2u);
}

TEST(SwitchProperties, Telegraphos3ConfigRunsCleanly) {
  const SwitchConfig cfg = SwitchConfig::telegraphos3();
  TrafficSpec spec;
  spec.load = 0.9;
  spec.seed = 45;
  PipelinedTestbench tb(cfg, cfg.n_ports, cfg.cell_format(), spec);
  tb.run(30000);
  ASSERT_TRUE(tb.drain(500000));
  EXPECT_TRUE(tb.scoreboard().ok()) << tb.scoreboard().errors().front();
  EXPECT_EQ(tb.dut().stats().dropped(), 0u);  // 256-cell buffer at 0.9 load.
}

TEST(SwitchProperties, OutputLimitProtectsOtherOutputs) {
  // Anti-hogging extension (SwitchConfig::out_queue_limit): with one
  // saturated output and no cap, the hot queue absorbs the whole pool and
  // strangles everyone; the cap restores the other outputs.
  auto delivered_with_limit = [](unsigned limit) {
    SwitchConfig cfg;
    cfg.n_ports = 4;
    cfg.word_bits = 16;
    cfg.cell_words = 8;
    cfg.capacity_segments = 32;
    cfg.out_queue_limit = limit;
    TrafficSpec spec;
    spec.arrivals = ArrivalKind::kSaturated;
    spec.pattern = PatternKind::kHotspot;
    spec.hot_fraction = 0.6;
    spec.load = 1.0;
    spec.seed = 77;
    PipelinedTestbench tb(cfg, cfg.n_ports, cfg.cell_format(), spec);
    tb.run(40000);
    tb.drain(500000);
    EXPECT_TRUE(tb.scoreboard().ok()) << tb.scoreboard().errors().front();
    EXPECT_TRUE(tb.scoreboard().fully_drained());
    if (limit != 0) {
      EXPECT_GT(tb.dut().stats().dropped_out_limit, 0u);
    }
    return tb.delivered();
  };
  const std::uint64_t uncapped = delivered_with_limit(0);
  const std::uint64_t capped = delivered_with_limit(8);
  EXPECT_GT(capped, uncapped + uncapped / 4);  // At least 25% more carried.
}

TEST(SwitchProperties, OutputLimitConservation) {
  SwitchConfig cfg;
  cfg.n_ports = 4;
  cfg.word_bits = 16;
  cfg.cell_words = 8;
  cfg.capacity_segments = 16;
  cfg.out_queue_limit = 4;
  TrafficSpec spec;
  spec.arrivals = ArrivalKind::kSaturated;
  spec.load = 1.0;
  spec.seed = 78;
  PipelinedTestbench tb(cfg, cfg.n_ports, cfg.cell_format(), spec);
  tb.run(20000);
  ASSERT_TRUE(tb.drain(500000));
  const auto& st = tb.dut().stats();
  EXPECT_EQ(tb.injected(), tb.delivered() + st.dropped());
  EXPECT_TRUE(tb.scoreboard().ok()) << tb.scoreboard().errors().front();
}

TEST(SwitchProperties, LinkPipeliningShiftsLatencyUniformly) {
  // Section 4.3: pipelining the long link wires delays every cell by the
  // same constant and changes nothing else. Wrap each input and output link
  // in a k-stage LinkPipeline: head latency becomes 2 + 2*(k+1).
  for (unsigned k : {1u, 3u}) {
    SwitchConfig cfg;
    cfg.n_ports = 2;
    cfg.word_bits = 8;
    cfg.cell_words = 4;
    cfg.capacity_segments = 16;
    PipelinedSwitch sw(cfg);
    Engine eng;
    WireTicker ticker;
    std::vector<WireLink> gen_wires(2), sink_wires(2);
    std::vector<std::unique_ptr<LinkPipeline>> pipes;
    UniformDest dests(2);
    Rng seeder(91);
    std::vector<std::unique_ptr<CellSource>> sources;
    std::vector<std::unique_ptr<CellSink>> sinks;
    Scoreboard sb(2, 2, cfg.cell_format());
    for (unsigned i = 0; i < 2; ++i) {
      sources.push_back(std::make_unique<CellSource>(i, &gen_wires[i], cfg.cell_format(),
                                                     &dests, ArrivalKind::kGeometric, 0.2,
                                                     seeder.split()));
      pipes.push_back(std::make_unique<LinkPipeline>(&gen_wires[i], &sw.in_link(i), k));
      pipes.push_back(std::make_unique<LinkPipeline>(&sw.out_link(i), &sink_wires[i], k));
      sinks.push_back(std::make_unique<CellSink>(i, &sink_wires[i], cfg.cell_format()));
      ticker.add(&gen_wires[i]);
      ticker.add(&sink_wires[i]);
    }
    sb.set_input_wire_delay(k + 1);
    sb.attach(sw, sources, sinks);
    for (auto& s : sources) eng.add(s.get());
    for (auto& p : pipes) eng.add(p.get());
    eng.add(&sw);
    for (auto& s : sinks) eng.add(s.get());
    eng.add(&ticker);
    eng.run(30000);
    ASSERT_GT(sb.latency().samples(), 100u);
    // Scoreboard a0 is the generator-side wire cycle; the head crosses two
    // pipelined links (k+1 cycles each) plus the 2-cycle switch minimum.
    EXPECT_EQ(sb.latency().min(), 2u + 2 * (k + 1)) << "k = " << k;
    EXPECT_TRUE(sb.ok()) << sb.errors().front();
  }
}

TEST(SwitchProperties, StaggerPenaltyMatchesSection34Formula) {
  // E6 as a regression test: the same-cycle head-collision penalty measured
  // on the real device matches (p/4)(n-1)/n within sampling noise.
  const unsigned n = 8;
  const double p = 0.4;
  SwitchConfig cfg;
  cfg.n_ports = n;
  cfg.word_bits = 16;
  cfg.cell_words = 2 * n;
  cfg.capacity_segments = 8 * n;
  TrafficSpec spec;
  spec.arrivals = ArrivalKind::kGeometric;
  spec.load = p;
  spec.seed = 92;
  PipelinedTestbench tb(cfg, n, cfg.cell_format(), spec, /*scoreboard=*/false);
  Cycle last = -1;
  unsigned k_now = 0;
  std::uint64_t heads = 0, collisions = 0;
  SwitchEvents ev;
  ev.on_head = [&](unsigned, Cycle a0, unsigned) {
    if (a0 == last) {
      ++k_now;
    } else {
      heads += k_now;
      collisions += static_cast<std::uint64_t>(k_now) * (k_now > 0 ? k_now - 1 : 0);
      last = a0;
      k_now = 1;
    }
  };
  const Subscription ev_sub = tb.dut().events().subscribe(std::move(ev));
  tb.run(300000);
  const double measured = static_cast<double>(collisions) / (2.0 * static_cast<double>(heads));
  const double analytic = (p / 4.0) * (n - 1.0) / n;
  EXPECT_NEAR(measured, analytic, 0.15 * analytic);
}

TEST(SwitchProperties, Telegraphos1And2ConfigsRunCleanly) {
  for (const SwitchConfig& cfg : {SwitchConfig::telegraphos1(), SwitchConfig::telegraphos2()}) {
    TrafficSpec spec;
    spec.load = 0.8;
    spec.seed = 46;
    PipelinedTestbench tb(cfg, cfg.n_ports, cfg.cell_format(), spec);
    tb.run(20000);
    ASSERT_TRUE(tb.drain(500000));
    EXPECT_TRUE(tb.scoreboard().ok()) << tb.scoreboard().errors().front();
  }
}

}  // namespace
}  // namespace pmsb
