// Simulator micro-benchmarks (google-benchmark): cycles/second of the
// cycle-accurate switches, slots/second of the behavioural models and
// router-cycles/second of the wormhole router. Not a paper experiment --
// this documents the cost of running the reproduction itself and guards
// against performance regressions in the kernel.
//
// Unlike stock BENCHMARK_MAIN(), main() installs a capturing reporter and
// publishes every benchmark's items/second into BENCH_sim_speed.json, so CI
// can track kernel throughput PR over PR alongside the experiment artifacts.

#include <benchmark/benchmark.h>

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "bench_util.hpp"

#include "arch/shared_buffer.hpp"
#include "common/rng.hpp"
#include "core/arbiter.hpp"
#include "core/dual_switch.hpp"
#include "core/fast_switch.hpp"
#include "core/input_latches.hpp"
#include "core/output_row.hpp"
#include "core/pipelined_memory.hpp"
#include "core/testbench.hpp"
#include "fabric/fabric.hpp"
#include "net/topology.hpp"

namespace pmsb {
namespace {

void BM_PipelinedSwitchCycles(benchmark::State& state) {
  SwitchConfig cfg;
  cfg.n_ports = static_cast<unsigned>(state.range(0));
  cfg.word_bits = 16;
  cfg.cell_words = 2 * cfg.n_ports;
  cfg.capacity_segments = 32 * cfg.n_ports;
  TrafficSpec spec;
  spec.arrivals = ArrivalKind::kSaturated;
  spec.load = 1.0;
  spec.seed = 1;
  PipelinedTestbench tb(cfg, cfg.n_ports, cfg.cell_format(), spec, /*scoreboard=*/false);
  for (auto _ : state) tb.run(1000);
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_PipelinedSwitchCycles)->Arg(4)->Arg(8)->Arg(16);

void BM_PipelinedWithScoreboard(benchmark::State& state) {
  SwitchConfig cfg;
  cfg.n_ports = 8;
  cfg.word_bits = 16;
  cfg.cell_words = 16;
  cfg.capacity_segments = 128;
  TrafficSpec spec;
  spec.load = 0.8;
  spec.seed = 2;
  PipelinedTestbench tb(cfg, cfg.n_ports, cfg.cell_format(), spec, /*scoreboard=*/true);
  for (auto _ : state) tb.run(1000);
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_PipelinedWithScoreboard);

/// Low-load runs are where the quiescence-aware kernel earns its keep: the
/// arguments are {load percent, idle skipping on/off}, so the 2%-load pair
/// measures the skip speedup directly (main() publishes the ratio into the
/// artifact's runtime block).
void BM_PipelinedLowLoad(benchmark::State& state) {
  SwitchConfig cfg;
  cfg.n_ports = 4;
  cfg.word_bits = 16;
  cfg.cell_words = 2 * cfg.n_ports;
  cfg.capacity_segments = 32 * cfg.n_ports;
  TrafficSpec spec;
  spec.load = static_cast<double>(state.range(0)) / 100.0;
  spec.seed = 9;
  PipelinedTestbench tb(cfg, cfg.n_ports, cfg.cell_format(), spec, /*scoreboard=*/false);
  tb.engine().set_idle_skip(state.range(1) != 0);
  for (auto _ : state) tb.run(20000);
  state.SetItemsProcessed(state.iterations() * 20000);
}
BENCHMARK(BM_PipelinedLowLoad)
    ->Args({2, 0})
    ->Args({2, 1})
    ->Args({10, 0})
    ->Args({10, 1});

/// The behavioural fast model under saturation: its cycle cost is what a
/// cold fabric node pays instead of the full pipelined datapath.
void BM_FastSwitchCycles(benchmark::State& state) {
  SwitchConfig cfg;
  cfg.n_ports = static_cast<unsigned>(state.range(0));
  cfg.word_bits = 16;
  cfg.cell_words = 2 * cfg.n_ports;
  cfg.capacity_segments = 32 * cfg.n_ports;
  TrafficSpec spec;
  spec.arrivals = ArrivalKind::kSaturated;
  spec.load = 1.0;
  spec.seed = 1;
  Testbench<FastSwitch, SwitchConfig> tb(cfg, cfg.n_ports, cfg.cell_format(), spec,
                                         /*scoreboard=*/false);
  for (auto _ : state) tb.run(1000);
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_FastSwitchCycles)->Arg(4)->Arg(8)->Arg(16);

void BM_DualSwitchCycles(benchmark::State& state) {
  DualSwitchConfig cfg;
  cfg.n_ports = 8;
  cfg.word_bits = 16;
  cfg.capacity_segments_per_group = 128;
  TrafficSpec spec;
  spec.arrivals = ArrivalKind::kSaturated;
  spec.load = 1.0;
  spec.seed = 3;
  Testbench<DualPipelinedSwitch, DualSwitchConfig> tb(cfg, cfg.n_ports, cfg.cell_format(),
                                                      spec, /*scoreboard=*/false);
  for (auto _ : state) tb.run(1000);
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_DualSwitchCycles);

// --- Datapath layers in isolation (the BM_PipelinedSwitchCycles/16
// geometry: S = 2n stages, 16-bit words, 32n buffer words per stage) -------

/// InputLatches under saturated arrivals: every link reads and then
/// latches one word per cycle, cells are S words and aligned, and input i's
/// write wave starts 1 + i cycles after its head (one protect_for_wave per
/// cycle for the first n cycles of every cell).
void BM_InputLatchesCycle(benchmark::State& state) {
  const unsigned n = static_cast<unsigned>(state.range(0));
  const unsigned S = 2 * n;
  InputLatches ir(n, S, 16);
  Cycle t = 0;
  Word sum = 0;
  for (auto _ : state) {
    for (int k = 0; k < 1000; ++k, ++t) {
      const unsigned phase = static_cast<unsigned>(t % S);
      const Cycle a0 = t - phase;
      if (phase >= 1 && phase <= n) ir.protect_for_wave(phase - 1, t, a0);
      for (unsigned i = 0; i < n; ++i) {
        sum += ir.read(i, phase);
        ir.latch(i, phase, static_cast<Word>((t + i) & 0xFFFF), t);
      }
      ir.tick(t);
    }
    benchmark::ClobberMemory();
  }
  benchmark::DoNotOptimize(sum);
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_InputLatchesCycle)->Arg(16);

/// PipelinedMemory saturated with alternating write and read waves (one
/// initiation every cycle, every stage busy): exec_cycle plus the clock
/// edge of the memory and the output row.
void BM_PipelinedMemoryCycle(benchmark::State& state) {
  const unsigned n = static_cast<unsigned>(state.range(0));
  const unsigned S = 2 * n;
  const std::size_t words = 32 * n;
  PipelinedMemory mem(S, words, 16);
  InputLatches ir(n, S, 16);
  OutputRow orow(S, n, 16);
  Cycle t = 0;
  for (auto _ : state) {
    for (int k = 0; k < 1000; ++k, ++t) {
      StageCtrl c;
      c.op = t % 2 == 0 ? StageOp::kWrite : StageOp::kRead;
      c.addr = static_cast<std::uint32_t>((t / 2) % words);
      c.in_link = static_cast<std::uint16_t>(t % n);
      c.out_link = static_cast<std::uint16_t>((t / 2) % n);
      c.head = true;
      mem.initiate(c);
      mem.exec_cycle(ir, orow);
      mem.tick();
      orow.tick();
    }
    benchmark::ClobberMemory();
  }
  benchmark::DoNotOptimize(mem.bank(S - 1).total_reads());
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_PipelinedMemoryCycle)->Arg(16);

/// RoundRobin::pick over n links with a pseudo-random eligibility mask per
/// pick (about half the links eligible).
void BM_RoundRobinPick(benchmark::State& state) {
  const unsigned n = static_cast<unsigned>(state.range(0));
  RoundRobin rr(n);
  Rng rng(5);
  std::vector<std::uint64_t> masks(1024);
  for (auto& m : masks) m = rng.next_u64();
  std::size_t k = 0;
  long sum = 0;
  for (auto _ : state) {
    for (int j = 0; j < 1000; ++j) {
      const std::uint64_t m = masks[k++ & 1023];
      sum += rr.pick([m](unsigned i) { return ((m >> i) & 1) != 0; });
    }
  }
  benchmark::DoNotOptimize(sum);
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_RoundRobinPick)->Arg(16);

void BM_SharedBufferSlots(benchmark::State& state) {
  const unsigned n = 16;
  SharedBufferModel model(n, 128);
  UniformDest dests(n);
  SlotTraffic traffic(n, 0.9, &dests, Rng(4));
  Cycle slot = 0;  // Monotonic across iterations (latency bookkeeping).
  for (auto _ : state) {
    for (int s = 0; s < 1000; ++s) model.step(slot++, traffic.step());
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_SharedBufferSlots);

/// The wormhole router's own cost: a 32-endpoint banyan of 80 WormRouters
/// (4 lanes, D = 1, hot senders -- the perfbench banyan32_hotsenders
/// fabric) on one worker, so no synchronisation enters: the time is the
/// routers' VC allocation, switch arbitration and flit movement plus the
/// engine's per-node stepping. Items are router-cycles.
void BM_WormRouterCycles(benchmark::State& state) {
  fabric::FabricConfig cfg;
  cfg.topo = net::Topology{net::TopologyKind::kBanyan, 32, 1};
  cfg.link_pipe_stages = 1;
  cfg.threads = 1;
  cfg.lanes = 4;
  cfg.traffic = "hotsenders:0.25,0.95";
  const auto fab = fabric::Fabric::build(cfg.topo, cfg);
  fab->run(1000);  // Past the fill transient.
  for (auto _ : state) fab->run(1000);
  benchmark::DoNotOptimize(fab->stats().delivered);
  state.SetItemsProcessed(state.iterations() * 1000 * fab->nodes());
}
BENCHMARK(BM_WormRouterCycles);

/// ConsoleReporter that additionally records each run's items/second (and
/// an item count estimate) for the JSON artifact.
class CapturingReporter : public benchmark::ConsoleReporter {
 public:
  void ReportRuns(const std::vector<Run>& reports) override {
    for (const Run& r : reports) {
      if (r.run_type != Run::RT_Iteration || r.error_occurred) continue;
      const auto it = r.counters.find("items_per_second");
      if (it == r.counters.end()) continue;
      const double ips = static_cast<double>(it->second);
      rates_.emplace_back(r.benchmark_name(), ips);
      bench::add_simulated_units(
          static_cast<std::uint64_t>(ips * r.real_accumulated_time));
    }
    benchmark::ConsoleReporter::ReportRuns(reports);
  }

  const std::vector<std::pair<std::string, double>>& rates() const { return rates_; }

 private:
  std::vector<std::pair<std::string, double>> rates_;
};

}  // namespace
}  // namespace pmsb

int main(int argc, char** argv) {
  return pmsb::bench::Main(
      argc, argv, {"SIM", "simulation-kernel speed (google-benchmark)", "sim_speed"},
      [](pmsb::bench::BenchContext& ctx) {
        // Main consumed the shared flags; the remainder (--benchmark_*) is
        // google-benchmark's.
        benchmark::Initialize(&ctx.argc, ctx.argv);
        if (benchmark::ReportUnrecognizedArguments(ctx.argc, ctx.argv)) return 1;
        pmsb::CapturingReporter reporter;
        benchmark::RunSpecifiedBenchmarks(&reporter);
        benchmark::Shutdown();

        double total = 0;
        for (const auto& [name, ips] : reporter.rates()) {
          ctx.json.metric(name + " items/s", ips);
          total += ips;
        }
        // The fixed-schema keys: "throughput" aggregates the per-benchmark
        // rates so a single number is diffable at a glance.
        ctx.json.metric("throughput", total);
        // Idle-skip speedup at 2% load (timing-dependent, so it belongs in
        // the runtime block, not metrics). CI asserts the low-load target on
        // this value.
        const auto rate_of = [&reporter](const std::string& name) {
          for (const auto& [n, ips] : reporter.rates()) {
            if (n == name) return ips;
          }
          return 0.0;
        };
        const double off = rate_of("BM_PipelinedLowLoad/2/0");
        const double on = rate_of("BM_PipelinedLowLoad/2/1");
        if (off > 0 && on > 0)
          ctx.json.runtime_metric("low_load_idle_skip_speedup", on / off);
        const double off10 = rate_of("BM_PipelinedLowLoad/10/0");
        const double on10 = rate_of("BM_PipelinedLowLoad/10/1");
        if (off10 > 0 && on10 > 0)
          ctx.json.runtime_metric("ten_pct_load_idle_skip_speedup", on10 / off10);
        return 0;
      });
}
