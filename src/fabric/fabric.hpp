// Multi-switch fabric: a whole net::Topology of nodes, partitioned across
// worker threads, with a hard determinism contract -- delivered cells,
// drops, latencies and every published metric are bit-identical at any
// thread count AND under either execution engine.
//
// Every node has one runtime, whatever the transport and the engine: its
// own sim::Engine, the transport's parts, and its ring edges. A cell node
// (torus, ring) is one PipelinedSwitch or FastSwitch, one PortBridge per
// incoming link (ejection, next-hop head rewrite, transit/injection mux --
// see src/fabric/bridge.hpp), one TxTap per outgoing link, and its
// Injector/Ejector endpoints. A wormhole node (mesh, multistage) is one
// WormRouter (src/fabric/worm.hpp). ALL inter-node links -- including those
// whose endpoints land on the same worker -- go through Channel rings, so
// the simulated wiring does not depend on the partition; the fabric keeps
// them in one list of {producer, consumer, ring} links.
//
// The two engines (FabricConfig::engine) only decide who steps which node
// when:
//
//  * kBarrier -- conservative lockstep: inter-node links have
//    `link_pipe_stages` (D >= 1) register stages, i.e. a word leaving a node
//    cannot be observed anywhere else for at least D + 1 cycles. Each shard
//    (a list of nodes) runs each of its nodes for a round of up to D cycles,
//    then all shards meet at a SpinBarrier; every channel slot a node reads
//    during round r was written in round r-1 or earlier, so no cross-node
//    event can ever be missed. The barrier's last arriver samples the
//    metrics gauges.
//
//  * kDataflow -- credit-backpressured tasks: nodes are grouped into
//    SchedTasks run by a work-stealing Scheduler. A node whose neighbors
//    have executed through cycle u may run to u + D (its inputs for those
//    cycles are already in the channel rings) and to
//    consumer_done + capacity - D on the output side (write credit); a task
//    blocks only when every owned node hits one of those bounds, and is
//    woken by the neighbor that moves it. Slow nodes no longer stall the
//    whole fabric -- only their neighborhood, transitively. Metric samples
//    are assembled per round boundary from per-node contributions (each
//    node passes every boundary exactly once), reproducing the barrier's
//    sampling cadence and values bit-exactly. See DESIGN.md "Task-dataflow
//    fabric" for the correctness argument.

#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "check/invariants.hpp"
#include "core/config.hpp"
#include "core/event_hub.hpp"
#include "core/fast_switch.hpp"
#include "core/switch.hpp"
#include "exp/thread_pool.hpp"
#include "fabric/bridge.hpp"
#include "fabric/channel.hpp"
#include "fabric/worm.hpp"
#include "net/topology.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/metrics.hpp"
#include "sim/engine.hpp"
#include "stats/hdr_histogram.hpp"

namespace pmsb::obs {
class PerfettoTrace;
}

namespace pmsb::fabric {

/// Execution engine for Fabric::run(). Results are bit-identical either way
/// (CI-enforced); the choice only affects wall-clock and scheduling
/// telemetry.
enum class FabricEngine {
  kBarrier,   ///< Lockstep rounds over a SpinBarrier (PR 5 engine).
  kDataflow,  ///< Credit-backpressured tasks on a work-stealing scheduler.
};

/// Process-wide default engine: PMSB_FABRIC_ENGINE=dataflow|barrier (read
/// once; barrier when unset). Lets CI run every fabric bench/test under
/// both engines without touching configs.
FabricEngine fabric_engine_env_default();

/// Process-wide override for the default above (bench --engine flag). Only
/// affects FabricConfigs constructed after the call; call from startup code
/// before any simulation threads exist.
void set_fabric_engine_override(FabricEngine e);

const char* to_string(FabricEngine e);

/// True when Fabric::build runs `topo` as flit-level wormhole routers (mesh
/// and multistage kinds) rather than cell switches (torus and ring).
bool wormhole_kind(const net::Topology& topo);

struct FabricConfig {
  net::Topology topo;
  /// Per-node switch geometry (cell fabrics -- torus and ring -- only;
  /// wormhole kinds run flit-level WormRouters and ignore this). Needs
  /// n_ports >= topo.required_ports(), word_bits >= 16 and cell_words >= 4
  /// (fabric wire format), and a head tag wide enough for a node id.
  /// SwitchConfig::for_ports() qualifies.
  SwitchConfig node = SwitchConfig::for_ports(4);
  /// D: register stages on every inter-node link (latency D + 1 cycles).
  /// Doubles as the engines' synchronization lookahead.
  unsigned link_pipe_stages = 4;
  /// Offered load per node as a fraction of one link's cell rate.
  double load = 0.5;
  std::uint64_t seed = 1;
  /// Worker threads; 0 resolves via exp::thread_count() (PMSB_THREADS).
  /// Clamped to the node count.
  unsigned threads = 0;
  /// Execution engine (see FabricEngine). Default from PMSB_FABRIC_ENGINE.
  FabricEngine engine = fabric_engine_env_default();
  /// kDataflow initial partition grain: tasks ~= threads * tasks_per_worker
  /// (clamped to [threads, nodes]). More tasks = finer stealing and
  /// rebalancing, more scheduling overhead.
  unsigned tasks_per_worker = 4;
  /// kDataflow load-aware repartitioning between run() calls: split tasks
  /// that dominated the last run's active_ns, merge starved ones. Never
  /// changes results, only placement (the partition is invisible to the
  /// simulation).
  bool rebalance = true;
  /// Idle-cycle skipping: when a region of the fabric is quiescent and its
  /// channels are empty, jump to the next scheduled injection instead of
  /// stepping. Round-granular and global under kBarrier; per-node under
  /// kDataflow. Results are bit-identical either way (CI-enforced).
  /// -1 = environment default (PMSB_IDLE_SKIP), 0 = off, 1 = on.
  int idle_skip = -1;
  /// Per-node model selection: nodes for which this returns true run the
  /// behavioural FastSwitch (core/fast_switch.hpp) instead of the
  /// cycle-accurate PipelinedSwitch -- cold nodes fast, hot nodes exact.
  /// Null (default) = all nodes cycle-accurate. Must be a pure function of
  /// the node index (determinism).
  std::function<bool(unsigned node)> fast_node;
  /// Attach a per-node obs::FlightRecorder (per-stage latency breakdown;
  /// merged across nodes via Fabric::merged_flight()). Event counting is the
  /// only added per-cell cost; off by default.
  bool flight_recorder = false;
  /// Cells whose head arrived before this cycle are excluded from the
  /// flight recorders.
  Cycle flight_warmup = 0;

  // --- Wormhole transport (mesh and multistage topologies only) -----------
  /// Virtual channels (lanes) per router port, 1..32; must divide
  /// buffer_flits.
  unsigned lanes = 1;
  /// Flit buffering per router input port, split evenly across lanes
  /// (lane_depth = buffer_flits / lanes = per-lane credits).
  unsigned buffer_flits = 16;
  /// Flits per message (head..tail).
  unsigned message_flits = 8;
  /// Lane allocation / switch arbitration policy.
  WormAlloc alloc = WormAlloc::kRoundRobin;
  /// Workload spec (traffic::GeneratorSpec grammar, e.g. "uniform:0.8",
  /// "hotspot:0.25"). Wormhole fabrics honor every destination kind; cell
  /// fabrics support "uniform" only. A spec-embedded load overrides `load`.
  std::string traffic = "uniform";

  ConfigValidation check() const;
  void validate() const;
};

/// Wall-clock accounting for one shard (kBarrier: one per worker thread;
/// kDataflow: one per scheduler task) of the run so far. Telemetry is
/// timing-derived, so it belongs in the BENCH JSON "runtime" block only
/// (the determinism diffs strip it); rounds and cells_relayed are
/// deterministic per shard *given* a thread count and engine, but the
/// partition itself changes with PMSB_THREADS and rebalancing.
struct ShardTelemetry {
  unsigned shard = 0;
  unsigned nodes = 0;           ///< Nodes owned by this shard/task.
  std::uint64_t active_ns = 0;  ///< Wall time advancing the simulation.
  std::uint64_t barrier_wait_ns = 0;    ///< kBarrier: parked at the round barrier.
  std::uint64_t blocked_on_empty_ns = 0;  ///< kDataflow: starved of upstream data.
  std::uint64_t blocked_on_full_ns = 0;   ///< kDataflow: out of downstream credit.
  std::uint64_t steals = 0;     ///< kDataflow: times this task ran on a thief.
  std::uint64_t rounds = 0;     ///< Rounds/chunks stepped (skipped excluded).
  std::uint64_t cells_relayed = 0;  ///< Transit cells relayed by this shard's bridges.
};

/// Scheduling-layer accounting for the run so far (BENCH JSON
/// runtime.scheduler block). kBarrier reports its shards as degenerate
/// pinned tasks so the block shape is engine-independent.
struct FabricSchedulerStats {
  const char* engine = "barrier";
  unsigned workers = 0;
  unsigned tasks = 0;
  std::uint64_t steals = 0;
  std::uint64_t splits = 0;   ///< Rebalance: hot tasks split.
  std::uint64_t merges = 0;   ///< Rebalance: cold task pairs merged.
  struct Worker {
    std::uint64_t active_ns = 0;
    std::uint64_t idle_ns = 0;  ///< Barrier wait / steal hunt + parked.
    std::uint64_t steals = 0;
    std::uint64_t slices = 0;
  };
  std::vector<Worker> per_worker;
  /// Human-readable rebalance decisions, in order ("split task 3 ...").
  std::vector<std::string> rebalance_log;
};

/// Aggregated end-of-run accounting, merged over nodes in index order.
/// Cell fabrics count cells; wormhole fabrics count messages (and report
/// flits_delivered besides).
struct FabricStats {
  Cycle cycles = 0;
  std::uint64_t injected = 0;   ///< Cells/messages generated (incl. still queued).
  std::uint64_t delivered = 0;
  std::uint64_t flits_delivered = 0;  ///< Wormhole fabrics only.
  std::uint64_t payload_errors = 0;
  std::uint64_t dropped_no_addr = 0;
  std::uint64_t dropped_no_slot = 0;
  std::uint64_t dropped_out_limit = 0;
  std::uint64_t backlog = 0;     ///< Generated but not yet on the wire.
  std::uint64_t in_network = 0;  ///< On the wire or buffered in a switch/bridge.
  std::uint64_t uid_digest = 0;  ///< Node-order mix of per-node delivery digests.
  double mean_latency = 0;       ///< Injection -> ejection, delivered cells.
  Cycle min_latency = 0;
  Cycle max_latency = 0;
  /// Full latency distribution (merged per-node HDR histograms, node order):
  /// exact p50/p90/p99/p99.9 at any thread count.
  HdrHistogram latency;

  struct HopRow {
    unsigned hops;
    std::uint64_t cells;
    double mean_latency;
  };
  std::vector<HopRow> by_hops;

  std::uint64_t dropped() const {
    return dropped_no_addr + dropped_no_slot + dropped_out_limit;
  }
};

class Fabric {
 public:
  /// THE construction path: build a fabric of `topo`'s shape with the given
  /// configuration (cfg.topo is overridden by `topo`). The topology kind
  /// picks the transport (see wormhole_kind): mesh and multistage
  /// (banyan/omega/clos) topologies get flit-level wormhole routers; torus
  /// and ring get cell-granular PipelinedSwitch nodes. Throws
  /// std::invalid_argument on an invalid configuration.
  static std::unique_ptr<Fabric> build(const net::Topology& topo, const FabricConfig& cfg);

  ~Fabric();

  Fabric(const Fabric&) = delete;
  Fabric& operator=(const Fabric&) = delete;

  unsigned nodes() const { return cfg_.topo.nodes(); }
  unsigned threads() const { return workers_; }
  FabricEngine engine() const { return cfg_.engine; }
  Cycle now() const { return cycles_run_; }
  const FabricConfig& config() const { return cfg_; }
  /// True when this fabric runs flit-level wormhole transport (mesh or
  /// multistage topology); the node_*switch accessors below are
  /// cell-fabric-only.
  bool wormhole() const { return worm_; }
  bool node_is_fast(unsigned i) const {
    PMSB_CHECK(!worm_, "wormhole fabrics have no switch nodes");
    return nodes_[i].cell->fast != nullptr;
  }
  const PipelinedSwitch& node_switch(unsigned i) const {
    PMSB_CHECK(!worm_, "wormhole fabrics have no switch nodes");
    PMSB_CHECK(nodes_[i].cell->sw != nullptr, "node runs the fast model (see node_is_fast)");
    return *nodes_[i].cell->sw;
  }
  const FastSwitch& node_fast_switch(unsigned i) const {
    PMSB_CHECK(!worm_, "wormhole fabrics have no switch nodes");
    PMSB_CHECK(nodes_[i].cell->fast != nullptr, "node runs the cycle-accurate switch");
    return *nodes_[i].cell->fast;
  }
  const WormRouter& node_router(unsigned i) const {
    PMSB_CHECK(worm_, "cell fabrics have no wormhole routers");
    return *nodes_[i].router;
  }

  /// Register live gauges (fabric.injected/delivered/dropped/backlog/
  /// in_network/latency.mean) on `m` and sample them at every round
  /// boundary of subsequent run() calls -- same cadence and values under
  /// both engines. Call before run(); `m` must outlive the fabric's runs.
  void register_metrics(obs::MetricsRegistry* m);

  /// Advance the whole fabric by `cycles`. Callable repeatedly.
  void run(Cycle cycles);

  /// Deterministic aggregate accounting (identical at any thread count and
  /// under either engine).
  FabricStats stats() const;

  /// Per-node flight recorder (null unless FabricConfig::flight_recorder).
  const obs::FlightRecorder* node_flight(unsigned i) const {
    return worm_ ? nullptr : nodes_[i].cell->flight.get();
  }
  /// All nodes' recorders folded in node order -- deterministic at any
  /// thread count. Requires FabricConfig::flight_recorder.
  obs::FlightRecorder merged_flight() const;

  /// Wall-clock telemetry of the run so far: one entry per worker shard
  /// (kBarrier) or per scheduler task (kDataflow).
  std::vector<ShardTelemetry> shard_telemetry() const;
  /// Scheduling-layer telemetry of the run so far (see FabricSchedulerStats).
  FabricSchedulerStats scheduler_stats() const;
  /// Idle jumps the planner took: whole-fabric rounds under kBarrier,
  /// per-node chunks under kDataflow (0 with idle skipping off).
  std::uint64_t rounds_skipped() const {
    return rounds_skipped_.load(std::memory_order_relaxed);
  }
  /// Render telemetry as Perfetto tracks: one worker track per shard/worker
  /// (active / wait slices in wall-clock microseconds) plus a counter track
  /// of per-shard stall totals, so barrier-vs-dataflow wait time is
  /// directly comparable in one trace.
  void telemetry_to_perfetto(obs::PerfettoTrace& out) const;

 private:
  explicit Fabric(const FabricConfig& cfg);

  /// One directed ring: `from` writes it, `to` reads it. Cell links, worm
  /// data rings u->v and worm credit rings v->u alike -- so the dataflow
  /// dependency graph has an edge from -> to per ring, and both of its
  /// bounds cover both directions of a worm link.
  struct Link {
    unsigned from;
    unsigned to;
    ChannelBase* ring;
  };

  /// Traffic counts of one node (or, summed, of the fabric): the inputs of
  /// the six gauges. Cell fabrics count cells, wormhole fabrics messages.
  struct SampleFrame {
    std::uint64_t injected = 0;
    std::uint64_t delivered = 0;
    std::uint64_t dropped = 0;
    std::uint64_t backlog = 0;
    std::uint64_t lat_sum = 0;
  };

  /// A node's runtime, the same under both engines.
  struct Node {
    /// The node's own two-phase kernel. Its idle skipping stays off: it
    /// cannot see the node's rings, so only the fabric's planners may skip.
    Engine engine;

    /// Cell transport (torus/ring) parts; null on a wormhole fabric.
    struct Cell {
      std::unique_ptr<PipelinedSwitch> sw;  ///< Exactly one of sw / fast is set.
      std::unique_ptr<FastSwitch> fast;
      std::vector<std::unique_ptr<PortBridge>> bridges;  ///< By input port.
      std::vector<std::unique_ptr<TxTap>> taps;          ///< By output port.
      Injector injector;
      Ejector ejector;
      std::uint64_t drop_no_addr = 0;
      std::uint64_t drop_no_slot = 0;
      std::uint64_t drop_out_limit = 0;
      Subscription drop_sub;  ///< Fabric's own EventHub subscription.
      /// Structural checking under PMSB_CHECK (coexists with the drop
      /// subscription on the same hub).
      std::unique_ptr<check::InvariantChecker> checker;
      /// Per-stage latency breakdown (FabricConfig::flight_recorder).
      std::unique_ptr<obs::FlightRecorder> flight;
    };
    std::unique_ptr<Cell> cell;
    /// Wormhole transport; null on a cell fabric.
    std::unique_ptr<WormRouter> router;

    /// Ring edges: the links this node reads and writes (views into
    /// Fabric::ins_ / outs_).
    std::span<const Link> ins;
    std::span<const Link> outs;
    /// Cycles fully executed (== engine.now() between dataflow chunks). The
    /// only cross-thread-written word of a node under kDataflow; everything
    /// else is owned by whichever worker holds the node. On its own cache
    /// line, so neighbors polling it do not contend with the node's stepping.
    alignas(64) std::atomic<Cycle> done{0};
  };

  /// kBarrier worker: a node list plus telemetry, written every round only
  /// by the thread running this shard (hence a cache line of its own; the
  /// pool's wait_idle orders the writes before the main thread reads them).
  struct alignas(64) Shard {
    std::vector<unsigned> node_ids;
    std::uint64_t active_ns = 0;
    std::uint64_t barrier_wait_ns = 0;
    std::uint64_t rounds = 0;
  };

  void build();
  /// Create node v's transport parts and endpoints.
  void make_node(unsigned v, double load);
  /// Add node v's components to its engine; a cell node also gets its
  /// bridges and taps on the rings in `cell_rings` ([node * ports_ + port]).
  void wire_node(unsigned v, const std::vector<Channel*>& cell_rings);
  template <typename RingT>
  RingT* add_ring(unsigned from, unsigned to);
  /// Contiguous node blocks, one per part (any fixed partition yields
  /// identical results; contiguity keeps neighbors together).
  std::vector<std::vector<unsigned>> node_blocks(unsigned parts) const;
  /// The worker pool, built on first use.
  exp::ThreadPool& pool();
  void end_of_round();
  /// Round-granularity idle skip, run inside the barrier completion while
  /// every worker is parked: if all nodes are quiescent and all rings
  /// empty, advance cycles_run_ by whole rounds (sampling metrics at each
  /// boundary exactly as stepped rounds would) up to the earliest scheduled
  /// injection, then clear the rings. Workers notice the jump after the
  /// barrier and skip_to() their nodes' engines.
  void maybe_skip();
  SampleFrame counts(unsigned v) const;
  SampleFrame totals() const;
  /// Sample the registry at `cycle` with the gauges reading `f`.
  void publish(const SampleFrame& f, Cycle cycle);
  /// Transit cells (cell node) or forwarded flits (worm node) relayed by v.
  std::uint64_t relayed(unsigned v) const;

  // --- Dataflow engine (implementation in fabric.cpp) ---------------------
  struct Dataflow;
  /// Node-level outcome of one bounded chunk attempt.
  enum class NodeAdvance : std::uint8_t {
    kStepped,        ///< Executed a chunk cycle by cycle.
    kSkipped,        ///< Jumped a quiescent chunk (idle skip).
    kInputBlocked,   ///< Upstream lookahead exhausted.
    kCreditBlocked,  ///< Downstream ring out of credit.
    kNodeDone,       ///< Reached the run target.
  };
  void run_dataflow(Cycle cycles);
  NodeAdvance df_advance_node(unsigned v);
  bool df_node_ready(unsigned v) const;
  void df_contribute_sample(unsigned v, Cycle boundary_index);
  /// Recompute the task partition from the last run's per-task active_ns
  /// (split hot, merge cold); applied lazily at the next run's start.
  void df_plan_rebalance();
  void df_apply_partition(const std::vector<std::vector<unsigned>>& parts);

  FabricConfig cfg_;
  CellCodec codec_;
  unsigned ports_ = 0;    ///< Router ports in use (degree, + kLocal on a worm mesh).
  unsigned workers_ = 1;  ///< Resolved worker-thread count.
  bool worm_ = false;     ///< Wormhole transport (wormhole_kind(topo)).
  /// Shared worm destination pattern (stateless per pick; see
  /// traffic/spec.hpp).
  std::unique_ptr<DestPattern> wdests_;
  std::vector<std::unique_ptr<ChannelBase>> rings_;
  std::vector<Link> links_;  ///< In wiring order.
  std::vector<Node> nodes_;  ///< [node]; sized once, never moved.
  /// links_ grouped by consumer / producer (backing Node::ins / outs).
  std::vector<Link> ins_, outs_;
  /// Dataflow write credit, min over rings of capacity() - D.
  Cycle credit_ = kNeverWake;
  std::vector<Shard> shards_;          ///< kBarrier only.
  std::unique_ptr<Dataflow> df_;       ///< kDataflow only.
  std::unique_ptr<exp::ThreadPool> pool_;  ///< Lazily built when needed.
  obs::MetricsRegistry* metrics_ = nullptr;
  /// Non-null only while publish() is inside metrics_->sample(); the gauges
  /// read this frame, and fold totals() when sampled at any other time.
  const SampleFrame* sample_frame_ = nullptr;
  Cycle cycles_run_ = 0;
  Cycle run_target_ = 0;
  bool idle_skip_on_ = true;  ///< Resolved from FabricConfig::idle_skip.
  std::atomic<std::uint64_t> rounds_skipped_{0};
};

}  // namespace pmsb::fabric
