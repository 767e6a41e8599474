// Directed cycle-level tests of the pipelined shared-buffer switch: exact
// cut-through timing, staggered initiation, payload integrity, full-load
// throughput, drain/conservation.

#include <gtest/gtest.h>

#include "core/switch.hpp"
#include "core/testbench.hpp"

namespace pmsb {
namespace {

SwitchConfig small_cfg() {
  SwitchConfig cfg;
  cfg.n_ports = 2;
  cfg.word_bits = 8;
  cfg.cell_words = 4;  // = 2n, single segment.
  cfg.capacity_segments = 16;
  return cfg;
}

/// Manually push one cell into input `i` of a switch inside an engine. The
/// head appears on the input wire at cycle (engine.now() + 1).
Cycle feed_cell(Engine& eng, PipelinedSwitch& sw, unsigned i, std::uint64_t uid, unsigned dest) {
  const CellFormat fmt = sw.config().cell_format();
  const Cycle a0 = eng.now() + 1;
  for (unsigned k = 0; k < fmt.length_words; ++k) {
    sw.in_link(i).drive_next(Flit{true, k == 0, cell_word(uid, dest, k, fmt)});
    eng.step();
  }
  return a0;
}

TEST(SwitchBasic, SingleCellCutThroughHeadLatencyIsTwo) {
  const SwitchConfig cfg = small_cfg();
  PipelinedSwitch sw(cfg);
  Engine eng;
  eng.add(&sw);

  Cycle read_grant = -1, accept_t0 = -1;
  bool was_cut = false;
  SwitchEvents ev;
  ev.on_read_grant = [&](unsigned, unsigned, Cycle tr, Cycle, Cycle, bool cut) {
    read_grant = tr;
    was_cut = cut;
  };
  ev.on_accept = [&](unsigned, Cycle, Cycle t0) { accept_t0 = t0; };
  const pmsb::Subscription ev_sub = sw.events().subscribe(std::move(ev));

  std::vector<Flit> out_trace;
  const Cycle a0 = eng.now() + 1;
  const CellFormat fmt = cfg.cell_format();
  for (unsigned k = 0; k < fmt.length_words + 4; ++k) {
    if (k < fmt.length_words)
      sw.in_link(0).drive_next(Flit{true, k == 0, cell_word(7, 1, k, fmt)});
    eng.step();
    out_trace.push_back(sw.out_link(1).now());  // Wire value during cycle k+1.
  }
  // Write wave granted in the first window cycle, with a co-initiated snoop.
  EXPECT_EQ(accept_t0, a0 + 1);
  EXPECT_EQ(read_grant, a0 + 1);
  EXPECT_TRUE(was_cut);
  EXPECT_EQ(sw.stats().snoop_initiations, 1u);
  // Head word on the output wire during cycle a0 + 2. out_trace[k] is the
  // wire during cycle k+1, so index a0+1.
  ASSERT_GT(out_trace.size(), static_cast<std::size_t>(a0 + 1 + 4));
  const Flit& head = out_trace[a0 + 1];
  EXPECT_TRUE(head.valid);
  EXPECT_TRUE(head.sop);
  EXPECT_EQ(head.data, cell_word(7, 1, 0, fmt));
  // The remaining words follow back-to-back and match exactly.
  for (unsigned k = 1; k < fmt.length_words; ++k) {
    const Flit& f = out_trace[a0 + 1 + k];
    EXPECT_TRUE(f.valid);
    EXPECT_FALSE(f.sop);
    EXPECT_EQ(f.data, cell_word(7, 1, k, fmt));
  }
}

TEST(SwitchBasic, CellGoesToCorrectOutput) {
  const SwitchConfig cfg = small_cfg();
  PipelinedSwitch sw(cfg);
  Engine eng;
  eng.add(&sw);
  feed_cell(eng, sw, 0, 1, 0);
  bool out1_active = false;
  for (int k = 0; k < 12; ++k) {
    eng.step();
    out1_active |= sw.out_link(1).now().valid;
  }
  EXPECT_FALSE(out1_active);
  EXPECT_EQ(sw.stats().read_grants, 1u);
}

TEST(SwitchBasic, SimultaneousHeadsAreStaggeredByOneCycle) {
  // Two heads in the same cycle, destined to different (idle) outputs: one
  // initiates at a0+1, the other at a0+2 (section 3.4: staggered initiation,
  // expected penalty (p/4)(n-1)/n).
  const SwitchConfig cfg = small_cfg();
  PipelinedSwitch sw(cfg);
  Engine eng;
  eng.add(&sw);

  std::vector<Cycle> grants;
  SwitchEvents ev;
  ev.on_read_grant = [&](unsigned, unsigned, Cycle tr, Cycle, Cycle, bool) {
    grants.push_back(tr);
  };
  const pmsb::Subscription ev_sub = sw.events().subscribe(std::move(ev));

  const CellFormat fmt = cfg.cell_format();
  const Cycle a0 = eng.now() + 1;
  for (unsigned k = 0; k < fmt.length_words; ++k) {
    sw.in_link(0).drive_next(Flit{true, k == 0, cell_word(1, 0, k, fmt)});
    sw.in_link(1).drive_next(Flit{true, k == 0, cell_word(2, 1, k, fmt)});
    eng.step();
  }
  for (int k = 0; k < 12; ++k) eng.step();
  ASSERT_EQ(grants.size(), 2u);
  std::sort(grants.begin(), grants.end());
  EXPECT_EQ(grants[0], a0 + 1);
  EXPECT_EQ(grants[1], a0 + 2);
}

TEST(SwitchBasic, SecondCellToSameOutputWaitsForTheFirst) {
  const SwitchConfig cfg = small_cfg();
  PipelinedSwitch sw(cfg);
  Engine eng;
  eng.add(&sw);

  std::vector<Cycle> grants;
  SwitchEvents ev;
  ev.on_read_grant = [&](unsigned, unsigned, Cycle tr, Cycle, Cycle, bool) {
    grants.push_back(tr);
  };
  const pmsb::Subscription ev_sub = sw.events().subscribe(std::move(ev));

  const CellFormat fmt = cfg.cell_format();
  const Cycle a0 = eng.now() + 1;
  for (unsigned k = 0; k < fmt.length_words; ++k) {
    sw.in_link(0).drive_next(Flit{true, k == 0, cell_word(1, 1, k, fmt)});
    sw.in_link(1).drive_next(Flit{true, k == 0, cell_word(2, 1, k, fmt)});
    eng.step();
  }
  for (int k = 0; k < 20; ++k) eng.step();
  ASSERT_EQ(grants.size(), 2u);
  std::sort(grants.begin(), grants.end());
  EXPECT_EQ(grants[0], a0 + 1);
  // Read waves for one output must be >= L cycles apart (shared output row).
  EXPECT_EQ(grants[1], grants[0] + static_cast<Cycle>(cfg.cell_words));
}

TEST(SwitchBasic, BackToBackCellsOneInput) {
  // Saturated input, fixed destination: the output link must carry the cells
  // contiguously after the pipeline fills (full line rate through one port).
  const SwitchConfig cfg = small_cfg();
  PipelinedSwitch sw(cfg);
  Engine eng;
  eng.add(&sw);
  const unsigned kCells = 8;
  for (unsigned c = 0; c < kCells; ++c) feed_cell(eng, sw, 0, 100 + c, 1);
  for (int k = 0; k < 40; ++k) eng.step();
  // All words of all cells must have appeared (some already during feeding).
  EXPECT_EQ(sw.stats().read_grants, kCells);
  EXPECT_EQ(sw.stats().dropped(), 0u);
  EXPECT_TRUE(sw.drained());
}

TEST(SwitchBasic, CutThroughDisabledStillDelivers) {
  SwitchConfig cfg = small_cfg();
  cfg.cut_through = false;
  PipelinedSwitch sw(cfg);
  Engine eng;
  eng.add(&sw);

  Cycle tr = -1, t0 = -1;
  SwitchEvents ev;
  ev.on_read_grant = [&](unsigned, unsigned, Cycle tr_, Cycle t0_, Cycle, bool) {
    tr = tr_;
    t0 = t0_;
  };
  const pmsb::Subscription ev_sub = sw.events().subscribe(std::move(ev));
  feed_cell(eng, sw, 0, 5, 1);
  for (int k = 0; k < 16; ++k) eng.step();
  EXPECT_EQ(sw.stats().snoop_initiations, 0u);
  EXPECT_GT(tr, t0);  // Read strictly after the write wave started.
  EXPECT_EQ(sw.stats().read_grants, 1u);
}

TEST(SwitchBasic, FullLoadPermutationSustainsLineRate) {
  // Contention-free permutation at load 1.0: every output must be busy every
  // cycle once the pipeline fills -- the paper's full-line-rate claim (E5).
  SwitchConfig cfg;
  cfg.n_ports = 4;
  cfg.word_bits = 16;
  cfg.cell_words = 8;
  cfg.capacity_segments = 64;
  TrafficSpec spec;
  spec.arrivals = ArrivalKind::kSaturated;
  spec.pattern = PatternKind::kPermutation;
  spec.load = 1.0;
  spec.seed = 3;
  PipelinedTestbench tb(cfg, cfg.n_ports, cfg.cell_format(), spec);

  tb.run(4000);
  const auto& st = tb.dut().stats();
  EXPECT_EQ(st.dropped(), 0u);
  // Deliveries: 4000 cycles / 8 words = 500 cells per output, minus pipeline
  // fill. Allow the fill transient.
  EXPECT_GE(tb.delivered(), 4u * 495u);
  EXPECT_TRUE(tb.scoreboard().ok()) << tb.scoreboard().errors().front();
  EXPECT_TRUE(tb.drain());
  EXPECT_TRUE(tb.scoreboard().fully_drained());
}

TEST(SwitchBasic, ModerateUniformLoadIsLossless) {
  SwitchConfig cfg;
  cfg.n_ports = 4;
  cfg.word_bits = 16;
  cfg.cell_words = 8;
  cfg.capacity_segments = 256;
  TrafficSpec spec;
  spec.load = 0.7;
  spec.seed = 11;
  PipelinedTestbench tb(cfg, cfg.n_ports, cfg.cell_format(), spec);
  tb.run(20000);
  EXPECT_TRUE(tb.drain());
  const auto& st = tb.dut().stats();
  EXPECT_EQ(st.dropped(), 0u);
  EXPECT_EQ(tb.injected(), tb.delivered());
  EXPECT_TRUE(tb.scoreboard().ok()) << tb.scoreboard().errors().front();
  EXPECT_TRUE(tb.scoreboard().fully_drained());
}

TEST(SwitchBasic, MinimumObservedLatencyIsTwo) {
  SwitchConfig cfg = small_cfg();
  TrafficSpec spec;
  spec.load = 0.2;
  spec.seed = 21;
  PipelinedTestbench tb(cfg, cfg.n_ports, cfg.cell_format(), spec);
  tb.run(20000);
  tb.drain();
  ASSERT_GT(tb.scoreboard().latency().samples(), 100u);
  EXPECT_EQ(tb.scoreboard().latency().min(), 2u);
}

TEST(SwitchBasic, TinyBufferDropsAreCleanlyAccounted) {
  SwitchConfig cfg;
  cfg.n_ports = 4;
  cfg.word_bits = 16;
  cfg.cell_words = 8;
  cfg.capacity_segments = 8;  // Only 8 cells of shared buffer.
  TrafficSpec spec;
  spec.load = 1.0;
  spec.arrivals = ArrivalKind::kSaturated;
  spec.pattern = PatternKind::kHotspot;
  spec.hot_fraction = 1.0;  // Everyone hammers output 0.
  spec.seed = 5;
  PipelinedTestbench tb(cfg, cfg.n_ports, cfg.cell_format(), spec);
  tb.run(20000);
  EXPECT_TRUE(tb.drain());
  const auto& st = tb.dut().stats();
  EXPECT_GT(st.dropped(), 0u);
  EXPECT_EQ(st.dropped_no_slot, 0u);  // Single-segment cells never miss slots.
  // Conservation including drops.
  EXPECT_EQ(tb.injected(), tb.delivered() + st.dropped());
  EXPECT_TRUE(tb.scoreboard().ok()) << tb.scoreboard().errors().front();
  EXPECT_TRUE(tb.scoreboard().fully_drained());
}

TEST(SwitchBasic, HotspotKeepsOtherOutputsFlowing) {
  SwitchConfig cfg;
  cfg.n_ports = 4;
  cfg.word_bits = 16;
  cfg.cell_words = 8;
  cfg.capacity_segments = 64;
  TrafficSpec spec;
  spec.load = 0.6;
  spec.pattern = PatternKind::kHotspot;
  spec.hot_fraction = 0.6;
  spec.seed = 8;
  PipelinedTestbench tb(cfg, cfg.n_ports, cfg.cell_format(), spec, /*scoreboard=*/true);
  tb.run(30000);
  tb.drain(200000);
  EXPECT_TRUE(tb.scoreboard().ok()) << tb.scoreboard().errors().front();
  // Non-hot outputs saw traffic (no head-of-line style collapse).
  EXPECT_GT(tb.delivered(), 0u);
}

TEST(SwitchBasic, InvalidConfigsThrow) {
  SwitchConfig cfg = small_cfg();
  cfg.cell_words = 5;  // Not a multiple of 2n.
  EXPECT_THROW(PipelinedSwitch{cfg}, std::invalid_argument);
  cfg = small_cfg();
  cfg.word_bits = 1;  // dest_bits (1) >= word_bits.
  EXPECT_THROW(PipelinedSwitch{cfg}, std::invalid_argument);
  cfg = small_cfg();
  cfg.capacity_segments = 0;
  EXPECT_THROW(PipelinedSwitch{cfg}, std::invalid_argument);
}

TEST(SwitchBasic, DescribeMentionsGeometry) {
  const std::string d = SwitchConfig::telegraphos3().describe();
  EXPECT_NE(d.find("8x8"), std::string::npos);
  EXPECT_NE(d.find("16 stages"), std::string::npos);
}

TEST(SwitchConfigHelpers, GeometryArithmetic) {
  SwitchConfig cfg;
  cfg.n_ports = 8;
  cfg.word_bits = 16;
  cfg.cell_words = 32;  // Two segments.
  cfg.capacity_segments = 64;
  cfg.validate();
  EXPECT_EQ(cfg.stages(), 16u);
  EXPECT_EQ(cfg.segments_per_cell(), 2u);
  EXPECT_EQ(cfg.capacity_cells(), 32u);
  EXPECT_EQ(cfg.dest_bits(), 3u);
  EXPECT_EQ(cfg.cell_format().length_words, 32u);
}

TEST(SwitchConfigHelpers, TelegraphosFactoriesMatchThePaper) {
  const SwitchConfig t1 = SwitchConfig::telegraphos1();
  EXPECT_EQ(t1.n_ports, 4u);
  EXPECT_EQ(t1.word_bits, 8u);                     // 8 bits per clock per link.
  EXPECT_EQ(t1.cell_words * t1.word_bits, 64u);    // 8-byte packets.
  EXPECT_NEAR(t1.link_mbps(), 107.0, 1.0);         // 13.3 MHz x 8 b.

  const SwitchConfig t2 = SwitchConfig::telegraphos2();
  EXPECT_EQ(t2.cell_words * t2.word_bits, 128u);   // 16-byte packets.
  EXPECT_NEAR(t2.link_mbps(), 400.0, 1.0);         // 16 b / 40 ns.

  const SwitchConfig t3 = SwitchConfig::telegraphos3();
  EXPECT_EQ(t3.stages(), 16u);
  EXPECT_EQ(t3.capacity_cells(), 256u);            // 256 packets of 256 bits.
  EXPECT_EQ(t3.capacity_segments * t3.stages() * t3.word_bits, 65536u);  // 64 Kbit.
  EXPECT_NEAR(t3.link_mbps(), 1000.0, 1.0);        // 1 Gb/s worst case.
}

}  // namespace
}  // namespace pmsb
