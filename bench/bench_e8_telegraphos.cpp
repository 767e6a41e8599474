// E8 -- Section 4: the three Telegraphos prototypes. Each configuration runs
// at saturation on the cycle-accurate core; measured cycles convert to
// bits/s with the prototype's clock. Paper link rates: 107 Mb/s (T-I FPGA,
// 13.3 MHz x 8 bit), 400 Mb/s (T-II ASIC, 16 bit / 40 ns), 1 Gb/s worst /
// 1.6 Gb/s typical (T-III full-custom, 16 bit / 16 ns worst, 10 ns typical).

#include <cstdio>
#include <vector>

#include "area/models.hpp"
#include "bench_util.hpp"
#include "core/config.hpp"

using namespace pmsb;
using namespace pmsb::bench;

int main(int argc, char** argv) {
  return pmsb::bench::Main(
      argc, argv, {"E8", "the Telegraphos prototypes (section 4)", "e8_telegraphos"},
      [](pmsb::bench::BenchContext& ctx) {
        BenchJson& bj = ctx.json;
    struct Proto {
      const char* name;
      SwitchConfig cfg;
      const char* paper_rate;
    };
    const std::vector<Proto> protos = {
        {"Telegraphos I (FPGA)", SwitchConfig::telegraphos1(), "107 Mb/s"},
        {"Telegraphos II (std-cell ASIC)", SwitchConfig::telegraphos2(), "400 Mb/s"},
        {"Telegraphos III (full-custom)", SwitchConfig::telegraphos3(), "1000 Mb/s worst"},
    };

    std::printf("\nEach prototype at saturation (uniform destinations) on the\n"
                "cycle-accurate pipelined-memory core:\n\n");
    Table t({"prototype", "geometry", "buffer", "util", "measured/link", "paper/link"});
    exp::SweepRunner runner;
    const std::vector<CycleRun> results = runner.map(protos, [](const Proto& p) {
      TrafficSpec spec;
      spec.arrivals = ArrivalKind::kSaturated;
      spec.load = 1.0;
      spec.seed = 3;
      return run_pipelined(p.cfg, spec, 40000, 4000);
    });
    CycleRun t3;
    double t3_mbps = 0;
    for (std::size_t i = 0; i < protos.size(); ++i) {
      const Proto& p = protos[i];
      const CycleRun& r = results[i];
      const double mbps = r.output_utilization * p.cfg.link_mbps();
      if (i == 2) {
        t3 = r;
        t3_mbps = mbps;
      }
      char geom[64], buf[64];
      std::snprintf(geom, sizeof geom, "%ux%u, %u stages x %u b", p.cfg.n_ports, p.cfg.n_ports,
                    p.cfg.stages(), p.cfg.word_bits);
      std::snprintf(buf, sizeof buf, "%u cells x %u b = %u Kbit", p.cfg.capacity_cells(),
                    p.cfg.cell_words * p.cfg.word_bits,
                    p.cfg.capacity_segments * p.cfg.stages() * p.cfg.word_bits / 1024);
      t.add_row({p.name, geom, buf, Table::num(r.output_utilization, 3),
                 Table::num(mbps, 0) + " Mb/s", p.paper_rate});
    }
    t.print();

    std::printf("\nTelegraphos III timing corners (16 wires/link on-chip, section 4.4):\n\n");
    Table corners({"corner", "cycle", "per link", "aggregate (16 stages x 16 b)"});
    corners.add_row({"worst case (4.5 V, 125 C)", "16 ns",
                     Table::num(area::per_link_gbps(8, 16, 16.0), 2) + " Gb/s",
                     Table::num(area::aggregate_gbps(256, 16.0), 1) + " Gb/s"});
    corners.add_row({"typical", "10 ns", Table::num(area::per_link_gbps(8, 16, 10.0), 2) + " Gb/s",
                     Table::num(area::aggregate_gbps(256, 10.0), 1) + " Gb/s"});
    corners.print();

    std::printf("\nTelegraphos II floorplan (section 4.2, figure 6), shared-buffer part:\n\n");
    const auto fp = area::telegraphos2_floorplan();
    Table fpt({"block", "mm^2"});
    fpt.add_row({"8 x 256x16 SRAM megacells", Table::num(fp.sram_mm2, 1)});
    fpt.add_row({"peripheral std-cell regions", Table::num(fp.periph_mm2, 1)});
    fpt.add_row({"memory-bus routing", Table::num(fp.routing_mm2, 1)});
    fpt.add_row({"total shared buffer", Table::num(fp.total_mm2(), 1)});
    fpt.add_row({"whole chip (8.5 x 8.5 mm)", Table::num(fp.chip_mm2, 1)});
    fpt.print();

    bj.metric("throughput", t3.output_utilization);
    bj.metric("mean_latency", t3.head_latency.mean());
    bj.metric("occupancy", t3.mean_buffer_occupancy);
    bj.metric("buffer_peak", static_cast<double>(t3.buffer_peak));
    bj.metric("t3_measured_link_mbps", t3_mbps);
    bj.metric("t2_floorplan_total_mm2", fp.total_mm2());
    bj.add_table("prototypes at saturation", t);
    bj.add_table("Telegraphos III timing corners", corners);
    bj.add_table("Telegraphos II floorplan", fpt);

    std::printf(
        "\nShape check vs paper: every prototype sustains ~100%% utilization, so the\n"
        "measured per-link rates land on the paper's 107 / 400 / 1000 Mb/s figures\n"
        "(rates are utilization x clock x width -- the architecture's job is the\n"
        "utilization; the clock comes from each technology).\n");
    return 0;
      });
}
