// FS -- Fabric scaling: whole topologies of cycle-accurate pipelined-memory
// switches (section 5's "switching fabrics made of single-chip switches"),
// run on the sharded fabric engine (src/fabric/) at 1, 2 and 4 worker
// threads.
//
// Two claims are exercised:
//  * Determinism: delivered-cell digests, drops and latencies are
//    bit-identical at every thread count (the bench FAILS otherwise, and
//    everything outside the "runtime" JSON object is diffable byte for
//    byte).
//  * Scaling: node-cycles per second improve with threads. Wall-clock rates
//    and speedups are timing-dependent, so they are published only inside
//    the "runtime" object (excluded from determinism diffs). Each timed
//    configuration runs kReps times, interleaved, over a section twice the
//    measured length; rates are medians and speedups medians of per-rep
//    ratios, with the process CPU time beside each as a cross-check (a
//    speedup lost to sync overhead burns CPU, one lost to a busy host
//    does not).

#include <algorithm>
#include <array>
#include <cstdio>
#include <ctime>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "bench_util.hpp"

#include "fabric/fabric.hpp"
#include "net/topology.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/metrics.hpp"
#include "obs/perfetto.hpp"
#include "obs/timeseries.hpp"

using namespace pmsb;
using namespace pmsb::bench;

namespace {

// Per-stage p99 of the merged flight recorders: part of the determinism
// surface, so it is compared across thread counts alongside the digests.
using FlightP99 = std::array<std::uint64_t, obs::kFlightStageCount>;

struct Run {
  unsigned threads = 0;
  fabric::FabricStats stats;
  FlightP99 flight_p99{};
  std::vector<double> wall_seconds;  ///< One per repetition.
  std::vector<double> cpu_seconds;   ///< Process CPU time, one per repetition.
  /// Per repetition, from the workers' own clocks: summed time spent
  /// advancing the simulation, and the busiest worker's time over the mean
  /// (1 = even) and over the wall (the rest went to round-by-round waits).
  std::vector<double> compute_seconds;
  std::vector<double> max_over_mean;
  std::vector<double> wall_over_max;
};

constexpr Cycle kCycles = 6000;
constexpr int kReps = 5;  // Timed repetitions per configuration (medians).
constexpr unsigned kLinkStages = 8;  // D: lookahead and per-link latency - 1.
constexpr Cycle kFlightWarmup = 500;

/// The one public construction path: Fabric::build(topology, config).
std::unique_ptr<fabric::Fabric> make_fabric(const fabric::FabricConfig& cfg) {
  return fabric::Fabric::build(cfg.topo, cfg);
}

fabric::FabricConfig make_config(const net::Topology& topo, std::uint64_t seed,
                                 unsigned threads) {
  fabric::FabricConfig cfg;
  cfg.topo = topo;
  cfg.node = SwitchConfig::for_ports(4);
  cfg.link_pipe_stages = kLinkStages;
  cfg.load = 0.6;
  cfg.seed = seed;
  cfg.threads = threads;
  cfg.flight_recorder = true;
  cfg.flight_warmup = kFlightWarmup;
  return cfg;
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Per-repetition ratios a[r] / b[r] (interleaved runs share host conditions).
std::vector<double> ratios(const std::vector<double>& a, const std::vector<double>& b) {
  std::vector<double> out;
  for (std::size_t r = 0; r < a.size() && r < b.size(); ++r)
    out.push_back(b[r] > 0 ? a[r] / b[r] : 0.0);
  return out;
}

/// Record a finished section's per-worker compute time (waits excluded).
void record_compute(Run& r, const fabric::Fabric& fab, double wall) {
  double sum = 0, most = 0;
  const fabric::FabricSchedulerStats s = fab.scheduler_stats();
  for (const auto& w : s.per_worker) {
    const double active = static_cast<double>(w.active_ns) / 1e9;
    sum += active;
    most = std::max(most, active);
  }
  r.compute_seconds.push_back(sum);
  r.max_over_mean.push_back(sum > 0 ? most * static_cast<double>(s.per_worker.size()) / sum : 0.0);
  r.wall_over_max.push_back(most > 0 ? wall / most : 0.0);
}

/// Run a fabric for `cycles` (handing its state at that point to
/// `at_cycles`), then on to twice that length; returns the wall and process
/// CPU seconds of the whole section.
template <typename AtCycles>
std::pair<double, double> timed_section(fabric::Fabric& fab, Cycle cycles, AtCycles&& at_cycles) {
  const std::clock_t cpu0 = std::clock();
  const exp::WallTimer timer;
  fab.run(cycles);
  at_cycles(fab);
  fab.run(cycles);
  return {timer.seconds(), static_cast<double>(std::clock() - cpu0) / CLOCKS_PER_SEC};
}

FlightP99 flight_p99_of(const obs::FlightRecorder& fr) {
  FlightP99 out{};
  for (unsigned s = 0; s < obs::kFlightStageCount; ++s)
    out[s] = fr.stage(static_cast<obs::FlightStage>(s)).p99();
  return out;
}

// Fill a runtime.<name> block from the fabric's scheduling-layer telemetry:
// engine, steal/rebalance totals, per-worker wall-clock slices, and per-task
// stall composition. All timing-derived -> runtime object only.
void scheduler_block(BenchJson& bj, const std::string& name, const fabric::Fabric& fab) {
  const fabric::FabricSchedulerStats s = fab.scheduler_stats();
  BenchJson::RuntimeBlock& b = bj.runtime_block(name);
  b.set("engine", std::string(s.engine));
  b.set("workers", static_cast<double>(s.workers));
  b.set("tasks", static_cast<double>(s.tasks));
  b.set("steals", static_cast<double>(s.steals));
  b.set("rebalance_splits", static_cast<double>(s.splits));
  b.set("rebalance_merges", static_cast<double>(s.merges));
  b.set_list("rebalance_log", s.rebalance_log);
  std::vector<BenchJson::RuntimeBlock::ObjectRow> workers;
  for (const auto& w : s.per_worker) {
    workers.push_back({{"active_ms", static_cast<double>(w.active_ns) / 1e6},
                       {"idle_ms", static_cast<double>(w.idle_ns) / 1e6},
                       {"steals", static_cast<double>(w.steals)},
                       {"slices", static_cast<double>(w.slices)}});
  }
  b.set_objects("per_worker", std::move(workers));
  std::vector<BenchJson::RuntimeBlock::ObjectRow> tasks;
  for (const fabric::ShardTelemetry& t : fab.shard_telemetry()) {
    tasks.push_back({{"nodes", static_cast<double>(t.nodes)},
                     {"active_ms", static_cast<double>(t.active_ns) / 1e6},
                     {"barrier_wait_ms", static_cast<double>(t.barrier_wait_ns) / 1e6},
                     {"blocked_on_empty_ms", static_cast<double>(t.blocked_on_empty_ns) / 1e6},
                     {"blocked_on_full_ms", static_cast<double>(t.blocked_on_full_ns) / 1e6},
                     {"steals", static_cast<double>(t.steals)},
                     {"chunks", static_cast<double>(t.rounds)}});
  }
  b.set_objects("per_task", std::move(tasks));
}

}  // namespace

int main(int argc, char** argv) {
  return pmsb::bench::Main(
      argc, argv,
      {"FS", "sharded fabric engine: determinism + thread scaling", "fabric_scale"},
      [](pmsb::bench::BenchContext& ctx) {
        const std::vector<net::Topology> topos = {
            net::Topology{net::TopologyKind::kTorus2D, 4, 4},
            net::Topology{net::TopologyKind::kTorus2D, 8, 8},
        };
        const std::vector<unsigned> thread_counts = {1, 2, 4};

        Table delivery({"topology", "nodes", "cycles", "injected", "delivered", "dropped",
                        "mean latency", "delivered uid digest"});
        Table scaling({"topology", "threads", "wall s", "node-cycles/s", "speedup vs 1"});
        bool deterministic = true;

        for (const net::Topology& topo : topos) {
          std::vector<Run> runs(thread_counts.size());
          for (int rep = 0; rep < kReps; ++rep) {
            for (std::size_t k = 0; k < thread_counts.size(); ++k) {
              Run& r = runs[k];
              const auto fab = make_fabric(make_config(topo, ctx.seed, thread_counts[k]));
              const auto [wall, cpu] = timed_section(*fab, kCycles, [&](fabric::Fabric& f) {
                fabric::FabricStats now = f.stats();
                if (rep == 0) {
                  r.threads = f.threads();
                  r.stats = std::move(now);
                  r.flight_p99 = flight_p99_of(f.merged_flight());
                } else if (now.uid_digest != r.stats.uid_digest ||
                           now.delivered != r.stats.delivered) {
                  std::fprintf(stderr, "FAIL: %s repetition %d diverged at %u threads\n",
                               topo.describe().c_str(), rep, r.threads);
                  deterministic = false;
                }
              });
              r.wall_seconds.push_back(wall);
              r.cpu_seconds.push_back(cpu);
              record_compute(r, *fab, wall);
              add_simulated_units(2 * static_cast<std::uint64_t>(kCycles) * topo.nodes());
            }
          }

          const fabric::FabricStats& ref = runs.front().stats;
          for (const Run& r : runs) {
            if (r.flight_p99 != runs.front().flight_p99) {
              std::fprintf(stderr,
                           "FAIL: %s merged flight-stage p99s diverged at %u threads\n",
                           topo.describe().c_str(), r.threads);
              deterministic = false;
            }
            if (r.stats.uid_digest != ref.uid_digest || r.stats.delivered != ref.delivered ||
                r.stats.dropped() != ref.dropped() ||
                r.stats.mean_latency != ref.mean_latency ||
                r.stats.latency.p999() != ref.latency.p999()) {
              std::fprintf(stderr,
                           "FAIL: %s diverged at %u threads "
                           "(digest %016llx vs %016llx, delivered %llu vs %llu)\n",
                           topo.describe().c_str(), r.threads,
                           static_cast<unsigned long long>(r.stats.uid_digest),
                           static_cast<unsigned long long>(ref.uid_digest),
                           static_cast<unsigned long long>(r.stats.delivered),
                           static_cast<unsigned long long>(ref.delivered));
              deterministic = false;
            }
          }

          char digest[20];
          std::snprintf(digest, sizeof digest, "%016llx",
                        static_cast<unsigned long long>(ref.uid_digest));
          delivery.add_row({topo.describe(),
                            Table::integer(topo.nodes()),
                            Table::integer(static_cast<long long>(kCycles)),
                            Table::integer(static_cast<long long>(ref.injected)),
                            Table::integer(static_cast<long long>(ref.delivered)),
                            Table::integer(static_cast<long long>(ref.dropped())),
                            Table::num(ref.mean_latency, 1), digest});

          for (const Run& r : runs) {
            const double wall = median(r.wall_seconds);
            const double rate = 2.0 * static_cast<double>(kCycles) * topo.nodes() / wall;
            const double speedup = median(ratios(runs.front().wall_seconds, r.wall_seconds));
            scaling.add_row({topo.describe(), Table::integer(r.threads), Table::num(wall, 3),
                             Table::num(rate, 0), Table::num(speedup, 2)});
            const std::string tag = topo.describe() + " t" + std::to_string(r.threads);
            ctx.json.runtime_metric(tag + " node-cycles/s", rate);
            if (r.threads != runs.front().threads)
              ctx.json.runtime_metric(tag + " speedup", speedup);
            ctx.json.runtime_metric(tag + " cpu_s", median(r.cpu_seconds));
            ctx.json.runtime_metric(tag + " cpu_per_wall",
                                    median(ratios(r.cpu_seconds, r.wall_seconds)));
            // Where a speedup below the worker count goes, from the
            // workers' own clocks: speedup ~= workers / (compute_vs_t1 *
            // max_over_mean * wall_over_max). compute_vs_t1 > 1: the same
            // node-cycles cost more with this many workers busy.
            // max_over_mean > 1: one worker was slower over the whole run.
            // wall_over_max > 1: the busiest worker also spent time outside
            // the simulation -- under the barrier engine, waiting each round
            // for that round's slowest shard, and the barrier itself.
            // cpu_per_wall cannot tell these apart: a worker spinning at the
            // barrier burns CPU too.
            ctx.json.runtime_metric(tag + " compute_vs_t1",
                                    median(ratios(r.compute_seconds,
                                                  runs.front().compute_seconds)));
            ctx.json.runtime_metric(tag + " max_over_mean", median(r.max_over_mean));
            ctx.json.runtime_metric(tag + " wall_over_max", median(r.wall_over_max));
          }

          const std::string prefix = topo.describe();
          ctx.json.metric(prefix + " delivered", static_cast<double>(ref.delivered));
          ctx.json.metric(prefix + " dropped", static_cast<double>(ref.dropped()));
          ctx.json.metric(prefix + " mean latency", ref.mean_latency);
          ctx.json.metric(prefix + " payload errors",
                          static_cast<double>(ref.payload_errors));
        }

        std::printf("Delivery accounting (identical at every thread count):\n\n");
        delivery.print();

        // The big fabric's latency-by-distance profile: per-hop cost is the
        // D+1-cycle link plus store-and-forward and switch transit. This run
        // also carries the observability rig -- registry + time-series
        // sampler + flight recorders -- and is the bench's Perfetto source.
        // 4 workers so the trace has real per-shard tracks; every published
        // stat is thread-count-invariant.
        const auto big = make_fabric(make_config(topos.back(), ctx.seed, 4));
        obs::MetricsRegistry metrics;  // Declared before the sampler (lifetime).
        big->register_metrics(&metrics);
        obs::TimeSeriesSampler sampler(&metrics, /*capacity=*/256);
        big->run(kCycles);
        const fabric::FabricStats st = big->stats();
        Table hops({"hops", "cells", "mean latency"});
        for (const auto& row : st.by_hops) {
          if (row.cells == 0) continue;
          hops.add_row({Table::integer(row.hops),
                        Table::integer(static_cast<long long>(row.cells)),
                        Table::num(row.mean_latency, 1)});
        }
        std::printf("\nLatency by route length (%s):\n\n", topos.back().describe().c_str());
        hops.print();

        std::printf("\nWall-clock scaling (timing-dependent; lives in the runtime "
                    "object, not the determinism surface):\n\n");
        scaling.print();

        ctx.json.metric("throughput",
                        static_cast<double>(st.delivered) / static_cast<double>(kCycles));
        ctx.json.metric("mean_latency", st.mean_latency);
        ctx.json.metric("occupancy",
                        static_cast<double>(st.in_network) / topos.back().nodes());
        ctx.json.add_table("fabric delivery", delivery);
        ctx.json.add_table("latency by hops", hops);

        // Per-stage breakdown of the big fabric's node transit latency
        // (merged HDR histograms over all 64 switches, node order).
        const obs::FlightRecorder big_flight = big->merged_flight();
        Table stages({"stage", "samples", "mean", "p50", "p90", "p99", "p99.9"});
        for (unsigned s = 0; s < obs::kFlightStageCount; ++s) {
          const auto stage = static_cast<obs::FlightStage>(s);
          const HdrHistogram& h = big_flight.stage(stage);
          stages.add_row({obs::to_string(stage), std::to_string(h.samples()),
                          Table::num(h.mean(), 2), std::to_string(h.p50()),
                          std::to_string(h.p90()), std::to_string(h.p99()),
                          std::to_string(h.p999())});
          ctx.json.percentile_metrics(std::string("stage ") + obs::to_string(stage), h);
        }
        std::printf("\nPer-stage switch-transit latency, %s (cycles, merged over "
                    "all nodes):\n\n", topos.back().describe().c_str());
        stages.print();
        ctx.json.add_table("per-stage transit latency (big fabric)", stages);
        // End-to-end (injection -> ejection) percentiles from the merged
        // per-node delivery histograms.
        ctx.json.latency_percentiles(st.latency);
        ctx.json.set_timeseries(sampler.series());

        // Shard telemetry: wall-clock split per worker, and the transit-relay
        // share each shard carried. Timing-derived -> runtime object only.
        Table shard_t({"shard", "nodes", "active ms", "barrier ms", "rounds", "relayed"});
        for (const fabric::ShardTelemetry& sh : big->shard_telemetry()) {
          shard_t.add_row({Table::integer(sh.shard), Table::integer(sh.nodes),
                           Table::num(static_cast<double>(sh.active_ns) / 1e6, 2),
                           Table::num(static_cast<double>(sh.barrier_wait_ns) / 1e6, 2),
                           Table::integer(static_cast<long long>(sh.rounds)),
                           Table::integer(static_cast<long long>(sh.cells_relayed))});
          const std::string tag = "shard" + std::to_string(sh.shard);
          ctx.json.runtime_metric(tag + " active_ms",
                                  static_cast<double>(sh.active_ns) / 1e6);
          ctx.json.runtime_metric(tag + " barrier_ms",
                                  static_cast<double>(sh.barrier_wait_ns) / 1e6);
          ctx.json.runtime_metric(tag + " rounds", static_cast<double>(sh.rounds));
          ctx.json.runtime_metric(tag + " relayed",
                                  static_cast<double>(sh.cells_relayed));
        }
        ctx.json.runtime_metric("rounds_skipped",
                                static_cast<double>(big->rounds_skipped()));
        scheduler_block(ctx.json, "scheduler", *big);
        std::printf("\nShard telemetry for the instrumented %s run (engine: %s; "
                    "wall clock; runtime object only):\n\n",
                    topos.back().describe().c_str(),
                    fabric::to_string(big->engine()));
        shard_t.print();

        {
          const std::string trace = ctx.json.trace_path();
          if (!trace.empty()) {
            obs::PerfettoTrace tr;
            sampler.to_perfetto(tr);       // Component counter tracks.
            big->telemetry_to_perfetto(tr); // Worker tracks (tid >= 1000).
            tr.write(trace);
            std::printf("\n[trace] wrote %s\n", trace.c_str());
          }
        }

        // --- Low-load idle skipping -------------------------------------
        // A sparse 8x8 torus (arrivals minutes apart in simulated time) run
        // twice: skipping forced off, then on. Every stat must be
        // bit-identical -- the wall-clock ratio is the quiescence payoff
        // and goes into the runtime object only.
        {
          const net::Topology topo{net::TopologyKind::kTorus2D, 8, 8};
          const Cycle low_cycles = 300000;
          auto low_cfg = [&](int idle_skip) {
            fabric::FabricConfig cfg = make_config(topo, ctx.seed, 1);
            cfg.load = 3e-5;
            cfg.idle_skip = idle_skip;
            return cfg;
          };
          const auto stepped = make_fabric(low_cfg(0));
          const exp::WallTimer t_off;
          stepped->run(low_cycles);
          const double wall_off = t_off.seconds();
          const auto skipping = make_fabric(low_cfg(1));
          const exp::WallTimer t_on;
          skipping->run(low_cycles);
          const double wall_on = t_on.seconds();
          add_simulated_units(2 * static_cast<std::uint64_t>(low_cycles) * topo.nodes());

          const fabric::FabricStats a = stepped->stats();
          const fabric::FabricStats b = skipping->stats();
          if (a.uid_digest != b.uid_digest || a.injected != b.injected ||
              a.delivered != b.delivered || a.dropped() != b.dropped() ||
              a.backlog != b.backlog || a.in_network != b.in_network ||
              a.mean_latency != b.mean_latency || a.min_latency != b.min_latency ||
              a.max_latency != b.max_latency) {
            std::fprintf(stderr,
                         "FAIL: idle skipping changed low-load results "
                         "(digest %016llx vs %016llx, delivered %llu vs %llu)\n",
                         static_cast<unsigned long long>(a.uid_digest),
                         static_cast<unsigned long long>(b.uid_digest),
                         static_cast<unsigned long long>(a.delivered),
                         static_cast<unsigned long long>(b.delivered));
            deterministic = false;
          }
          const double speedup = wall_on > 0 ? wall_off / wall_on : 0.0;
          std::printf("\nLow-load idle skipping (%s, load %.0e, %lld cycles): "
                      "stepped %.3fs, skipping %.3fs -> %.1fx; results identical: %s\n",
                      topo.describe().c_str(), 3e-5, static_cast<long long>(low_cycles),
                      wall_off, wall_on, speedup,
                      a.uid_digest == b.uid_digest ? "yes" : "NO");
          ctx.json.metric("low-load delivered", static_cast<double>(a.delivered));
          ctx.json.metric("low-load injected", static_cast<double>(a.injected));
          ctx.json.metric("low-load mean latency", a.mean_latency);
          ctx.json.runtime_metric("low_load_skip_off_wall_s", wall_off);
          ctx.json.runtime_metric("low_load_skip_on_wall_s", wall_on);
          ctx.json.runtime_metric("low_load_idle_skip_speedup", speedup);
        }

        // --- Mixed cycle-accurate / fast-model fabric -------------------
        // Checkerboard model selection on the 4x4 torus: the determinism
        // contract must hold for heterogeneous fabrics too.
        {
          const net::Topology topo{net::TopologyKind::kTorus2D, 4, 4};
          auto mixed_cfg = [&](unsigned threads) {
            fabric::FabricConfig cfg = make_config(topo, ctx.seed, threads);
            cfg.fast_node = [](unsigned node) { return node % 2 == 1; };
            return cfg;
          };
          const auto m1 = make_fabric(mixed_cfg(1));
          const auto m4 = make_fabric(mixed_cfg(4));
          m1->run(kCycles);
          m4->run(kCycles);
          add_simulated_units(2 * static_cast<std::uint64_t>(kCycles) * topo.nodes());
          const fabric::FabricStats a = m1->stats();
          const fabric::FabricStats b = m4->stats();
          if (a.uid_digest != b.uid_digest || a.delivered != b.delivered ||
              a.dropped() != b.dropped() || a.mean_latency != b.mean_latency) {
            std::fprintf(stderr,
                         "FAIL: mixed fast-node fabric diverged across threads "
                         "(digest %016llx vs %016llx)\n",
                         static_cast<unsigned long long>(a.uid_digest),
                         static_cast<unsigned long long>(b.uid_digest));
            deterministic = false;
          }
          std::printf("\nMixed fast/cycle-accurate fabric (%s, odd nodes fast): "
                      "delivered %llu, digest %016llx, t1 == t4: %s\n",
                      topo.describe().c_str(),
                      static_cast<unsigned long long>(a.delivered),
                      static_cast<unsigned long long>(a.uid_digest),
                      a.uid_digest == b.uid_digest ? "yes" : "NO");
          ctx.json.metric("mixed delivered", static_cast<double>(a.delivered));
          ctx.json.metric("mixed dropped", static_cast<double>(a.dropped()));
          ctx.json.metric("mixed mean latency", a.mean_latency);
        }

        // --- Imbalanced load: barrier vs dataflow -----------------------
        // An 8x8 torus where only the top-left 4x4 quadrant runs the
        // cycle-accurate switch (the rest use the fast model) is the
        // barrier engine's worst case: every round, 3/4 of the fabric waits
        // for the expensive quadrant. The dataflow engine lets cheap nodes
        // run ahead up to the channel credit and steals the hot tasks
        // across workers, so it should win wall-clock -- while every
        // published stat stays bit-identical across engines AND thread
        // counts (the bench FAILS otherwise; CI also asserts the speedup).
        {
          const net::Topology topo{net::TopologyKind::kTorus2D, 8, 8};
          const Cycle hot_cycles = 4000;
          auto hot_cfg = [&](fabric::FabricEngine engine, unsigned threads) {
            fabric::FabricConfig cfg = make_config(topo, ctx.seed, threads);
            cfg.flight_recorder = false;
            cfg.engine = engine;
            // Hot quadrant: x < 4 && y < 4 cycle-accurate, the rest fast.
            cfg.fast_node = [](unsigned node) {
              return !(node % 8 < 4 && node / 8 < 4);
            };
            return cfg;
          };
          struct HotRun {
            const char* label;
            fabric::FabricEngine engine;
            unsigned threads;
          };
          const std::vector<HotRun> hot_runs = {
              {"barrier t1", fabric::FabricEngine::kBarrier, 1},
              {"barrier t4", fabric::FabricEngine::kBarrier, 4},
              {"dataflow t4", fabric::FabricEngine::kDataflow, 4},
          };
          std::vector<Run> hot(hot_runs.size());
          std::vector<std::vector<double>> stall_ms(hot_runs.size());
          for (int rep = 0; rep < kReps; ++rep) {
            for (std::size_t k = 0; k < hot_runs.size(); ++k) {
              const HotRun& h = hot_runs[k];
              Run& r = hot[k];
              const auto fab = make_fabric(hot_cfg(h.engine, h.threads));
              const auto [wall, cpu] = timed_section(*fab, hot_cycles, [&](fabric::Fabric& f) {
                fabric::FabricStats now = f.stats();
                if (rep == 0) {
                  r.stats = std::move(now);
                } else if (now.uid_digest != r.stats.uid_digest ||
                           now.delivered != r.stats.delivered) {
                  std::fprintf(stderr, "FAIL: hotspot fabric repetition %d diverged on %s\n",
                               rep, h.label);
                  deterministic = false;
                }
              });
              r.wall_seconds.push_back(wall);
              r.cpu_seconds.push_back(cpu);
              add_simulated_units(2 * static_cast<std::uint64_t>(hot_cycles) * topo.nodes());
              double stall = 0;
              for (const fabric::ShardTelemetry& sh : fab->shard_telemetry())
                stall += static_cast<double>(sh.barrier_wait_ns + sh.blocked_on_empty_ns +
                                             sh.blocked_on_full_ns) /
                         1e6;
              stall_ms[k].push_back(stall);
              if (rep == 0 && h.threads == 4)
                scheduler_block(ctx.json, h.engine == fabric::FabricEngine::kBarrier
                                              ? "scheduler_barrier"
                                              : "scheduler_dataflow",
                                *fab);
            }
          }
          Table hot_t({"run", "wall s", "delivered", "digest", "blocked/wait ms"});
          for (std::size_t k = 0; k < hot_runs.size(); ++k) {
            const Run& r = hot[k];
            const double wall = median(r.wall_seconds);
            const double stall = median(stall_ms[k]);
            char digest[20];
            std::snprintf(digest, sizeof digest, "%016llx",
                          static_cast<unsigned long long>(r.stats.uid_digest));
            hot_t.add_row({hot_runs[k].label, Table::num(wall, 3),
                           Table::integer(static_cast<long long>(r.stats.delivered)),
                           digest, Table::num(stall, 1)});
            const std::string tag = std::string("hotspot ") + hot_runs[k].label;
            ctx.json.runtime_metric(tag + " wall_s", wall);
            ctx.json.runtime_metric(tag + " stall_ms", stall);
            ctx.json.runtime_metric(tag + " cpu_s", median(r.cpu_seconds));
            ctx.json.runtime_metric(tag + " cpu_per_wall",
                                    median(ratios(r.cpu_seconds, r.wall_seconds)));
          }
          const fabric::FabricStats& ref = hot.front().stats;
          for (std::size_t k = 0; k < hot_runs.size(); ++k) {
            const fabric::FabricStats& hs = hot[k].stats;
            if (hs.uid_digest != ref.uid_digest || hs.delivered != ref.delivered ||
                hs.dropped() != ref.dropped() || hs.mean_latency != ref.mean_latency ||
                hs.latency.p999() != ref.latency.p999()) {
              std::fprintf(stderr,
                           "FAIL: hotspot fabric diverged on %s "
                           "(digest %016llx vs %016llx)\n",
                           hot_runs[k].label, static_cast<unsigned long long>(hs.uid_digest),
                           static_cast<unsigned long long>(ref.uid_digest));
              deterministic = false;
            }
          }
          // Barrier t4 over dataflow t4, per repetition.
          const double ratio = median(ratios(hot[1].wall_seconds, hot[2].wall_seconds));
          ctx.json.runtime_metric("hotspot dataflow_vs_barrier_speedup", ratio);
          std::printf("\nImbalanced load (%s, hot 4x4 quadrant cycle-accurate, rest "
                      "fast):\n\n", topo.describe().c_str());
          hot_t.print();
          std::printf("\nDataflow vs barrier at 4 threads: %.2fx "
                      "(timing-dependent; CI asserts >= 1.5x on real cores)\n", ratio);
          ctx.json.metric("hotspot delivered", static_cast<double>(ref.delivered));
          ctx.json.metric("hotspot dropped", static_cast<double>(ref.dropped()));
          ctx.json.metric("hotspot mean latency", ref.mean_latency);
          ctx.json.metric("hotspot p999 latency",
                          static_cast<double>(ref.latency.p999()));
        }

        if (!deterministic) return 1;
        std::printf("\nDeterminism: delivered-cell digests identical across "
                    "{1, 2, 4} threads, both engines, on every topology.\n");
        return 0;
      });
}
