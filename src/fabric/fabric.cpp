#include "fabric/fabric.hpp"

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <limits>
#include <stdexcept>
#include <thread>
#include <utility>

#include "common/rng.hpp"
#include "exp/sweep.hpp"
#include "fabric/scheduler.hpp"
#include "fabric/task.hpp"
#include "obs/perfetto.hpp"
#include "sim/barrier.hpp"
#include "traffic/spec.hpp"

namespace pmsb::fabric {
namespace {
bool g_engine_overridden = false;
FabricEngine g_engine_override = FabricEngine::kBarrier;
}  // namespace

void set_fabric_engine_override(FabricEngine e) {
  g_engine_overridden = true;
  g_engine_override = e;
}

FabricEngine fabric_engine_env_default() {
  if (g_engine_overridden) return g_engine_override;
  static const FabricEngine e = [] {
    const char* v = std::getenv("PMSB_FABRIC_ENGINE");
    if (v != nullptr && std::string(v) == "dataflow") return FabricEngine::kDataflow;
    return FabricEngine::kBarrier;
  }();
  return e;
}

const char* to_string(FabricEngine e) {
  return e == FabricEngine::kDataflow ? "dataflow" : "barrier";
}

bool wormhole_kind(const net::Topology& topo) {
  // Wormhole switching holds a chain of buffers per message, so it is
  // deadlock-free only on an acyclic channel-dependency graph. XY routing on
  // a mesh gives one, and so do feed-forward stages; the wraparound links of
  // a torus or ring close cycles, so those kinds stay cell fabrics.
  return topo.multistage() || topo.kind == net::TopologyKind::kMesh2D;
}

ConfigValidation FabricConfig::check() const {
  // Wormhole fabrics have no per-node switch; their geometry and transport
  // parameters are validated here instead of node.check().
  if (wormhole_kind(topo)) {
    ConfigValidation v;
    auto issue = [&v](ConfigIssue::Code c, std::string msg) {
      v.issues.push_back(ConfigIssue{c, std::move(msg)});
    };
    if (!topo.multistage()) {
      if (topo.nodes() < 2)
        issue(ConfigIssue::Code::kBadTopology, "fabric needs at least two nodes");
    } else if (topo.kind == net::TopologyKind::kClos) {
      if (topo.radix < 2)
        issue(ConfigIssue::Code::kBadTopology, "a Clos network needs radix >= 2");
      else if (topo.width != topo.radix * topo.radix)
        issue(ConfigIssue::Code::kBadTopology,
              "a symmetric Clos C(k,k,k) needs width == radix * radix endpoints");
    } else if (!is_pow2(topo.width) || topo.width < 4) {
      issue(ConfigIssue::Code::kBadTopology,
            "banyan/omega networks need a power-of-two width >= 4");
    }
    // WormFlit::dest names the endpoint in 16 bits.
    if (topo.endpoints() > std::numeric_limits<decltype(WormFlit::dest)>::max() + 1u)
      issue(ConfigIssue::Code::kBadTopology,
            "wormhole fabrics address at most 65536 endpoints");
    if (lanes < 1 || lanes > 32)
      issue(ConfigIssue::Code::kBadPorts, "wormhole lanes must be in [1, 32]");
    else if (buffer_flits < lanes || buffer_flits % lanes != 0)
      issue(ConfigIssue::Code::kBadCapacity,
            "buffer_flits must be a positive multiple of lanes");
    if (message_flits < 1)
      issue(ConfigIssue::Code::kBadCellWords, "wormhole messages need >= 1 flit");
    if (link_pipe_stages < 1)
      issue(ConfigIssue::Code::kBadLinkStages, "router links need >= 1 register stage");
    if (!(load >= 0.0) || load > 1.0)
      issue(ConfigIssue::Code::kBadLoad, "offered load must be in [0, 1]");
    if (tasks_per_worker < 1)
      issue(ConfigIssue::Code::kBadTopology, "tasks_per_worker must be >= 1");
    try {
      (void)traffic::GeneratorSpec::parse(traffic);
    } catch (const std::invalid_argument& e) {
      issue(ConfigIssue::Code::kBadLoad, e.what());
    }
    if (fast_node)
      issue(ConfigIssue::Code::kBadTopology, "fast_node applies to cell fabrics only");
    if (flight_recorder)
      issue(ConfigIssue::Code::kBadTopology,
            "flight_recorder applies to cell fabrics only");
    return v;
  }

  ConfigValidation v = node.check();
  auto issue = [&v](ConfigIssue::Code c, std::string msg) {
    v.issues.push_back(ConfigIssue{c, std::move(msg)});
  };
  try {
    const auto spec = traffic::GeneratorSpec::parse(traffic);
    if (spec.kind != traffic::GeneratorSpec::Kind::kUniform)
      issue(ConfigIssue::Code::kBadLoad,
            "cell fabrics support uniform traffic only (got \"" + traffic + "\")");
  } catch (const std::invalid_argument& e) {
    issue(ConfigIssue::Code::kBadLoad, e.what());
  }
  if (topo.nodes() < 2) issue(ConfigIssue::Code::kBadTopology, "fabric needs at least two nodes");
  if (topo.kind == net::TopologyKind::kRing) {
    if (topo.height != 1 || topo.width < 2)
      issue(ConfigIssue::Code::kBadTopology, "a ring is width >= 2, height == 1");
  } else if (topo.kind == net::TopologyKind::kTorus2D) {
    // Width/height 1 would wrap a node onto itself.
    if (topo.width < 2 || topo.height < 2)
      issue(ConfigIssue::Code::kBadTopology, "a torus needs width and height >= 2");
  }
  if (node.n_ports < topo.required_ports())
    issue(ConfigIssue::Code::kBadPorts,
          "fabric nodes need at least " + std::to_string(topo.required_ports()) + " ports");
  if (node.word_bits < 16)
    issue(ConfigIssue::Code::kBadWordBits, "fabric wire format needs word_bits >= 16");
  if (node.cell_words < 4)
    issue(ConfigIssue::Code::kBadCellWords, "fabric wire format needs cells of >= 4 words");
  else if (bits_for(topo.nodes()) > node.cell_format().tag_bits())
    issue(ConfigIssue::Code::kHeadTooNarrow, "head tag too narrow for a node id");
  if (link_pipe_stages < 1)
    issue(ConfigIssue::Code::kBadLinkStages, "inter-node links need >= 1 register stage");
  if (!(load >= 0.0) || load > 1.0)
    issue(ConfigIssue::Code::kBadLoad, "offered load must be in [0, 1]");
  if (tasks_per_worker < 1)
    issue(ConfigIssue::Code::kBadTopology, "tasks_per_worker must be >= 1");
  return v;
}

void FabricConfig::validate() const {
  const ConfigValidation v = check();
  if (!v.ok()) throw std::invalid_argument(v.summary());
}

// ---------------------------------------------------------------------------
// Dataflow engine internals.
//
// Correctness model (full argument in DESIGN.md "Task-dataflow fabric"):
// every node publishes `done` -- the count of cycles it has fully executed.
// Node X with upstream neighbors U and downstream neighbors Y may execute
// cycle t when
//
//   t <  min_U(U.done) + D            (input bound: the entry X pops at t,
//                                      pushed at t - D if any, is queued
//                                      once U.done > t - D)
//   t <  min_Y(Y.done) + capacity - D (credit bound: X's push at t reuses
//                                      the slot of an entry stamped
//                                      <= t - capacity, which Y popped
//                                      strictly before its current cycle)
//
// Both loads are seq_cst and every `done` store is seq_cst, which (a) gives
// the ring pushes release/acquire visibility through the counter, replacing
// the barrier's happens-before edge, and (b) pairs with the scheduler's
// blocked/wake Dekker protocol (scheduler.hpp). The global minimum node is
// always runnable (its bounds are strictly ahead of it), so the task graph
// cannot deadlock.

struct Fabric::Dataflow {
  class Task : public SchedTask {
   public:
    Fabric* fab = nullptr;
    std::vector<unsigned> node_ids;
    /// active_ns at the start of the current run (rebalance input).
    std::uint64_t active_snapshot = 0;

    Advance advance() override {
      bool progressed = false;
      bool any_blocked = false;
      bool any_empty = false;
      for (unsigned v : node_ids) {
        switch (fab->df_advance_node(v)) {
          case NodeAdvance::kStepped:
            rounds.fetch_add(1, std::memory_order_relaxed);
            progressed = true;
            break;
          case NodeAdvance::kSkipped: progressed = true; break;
          case NodeAdvance::kInputBlocked:
            any_blocked = true;
            any_empty = true;
            break;
          case NodeAdvance::kCreditBlocked: any_blocked = true; break;
          case NodeAdvance::kNodeDone: break;
        }
      }
      if (progressed) return Advance::kProgress;
      if (!any_blocked) return Advance::kFinished;
      return any_empty ? Advance::kBlockedOnEmpty : Advance::kBlockedOnFull;
    }

    bool can_advance() const override {
      for (unsigned v : node_ids)
        if (fab->df_node_ready(v)) return true;
      return false;
    }
  };

  /// Accumulator for one in-flight grid cycle's metric sample (see
  /// df_contribute_sample). Reused round-robin: slot j serves grid indices
  /// j, j + R, j + 2R, ... where R = frames.size().
  struct FrameSlot {
    std::atomic<Cycle> boundary{-1};  ///< Grid index armed, -1 inactive.
    std::atomic<unsigned> remaining{0};
    std::atomic<std::uint64_t> injected{0};
    std::atomic<std::uint64_t> delivered{0};
    std::atomic<std::uint64_t> dropped{0};
    std::atomic<std::uint64_t> backlog{0};
    std::atomic<std::uint64_t> lat_sum{0};

    /// Zero the sums and open the slot for grid index `k` (-1 closes it).
    void arm(Cycle k, unsigned nodes) {
      injected.store(0, std::memory_order_relaxed);
      delivered.store(0, std::memory_order_relaxed);
      dropped.store(0, std::memory_order_relaxed);
      backlog.store(0, std::memory_order_relaxed);
      lat_sum.store(0, std::memory_order_relaxed);
      remaining.store(nodes, std::memory_order_relaxed);
      boundary.store(k, std::memory_order_release);
    }
    void add(const SampleFrame& c) {
      injected.fetch_add(c.injected, std::memory_order_relaxed);
      delivered.fetch_add(c.delivered, std::memory_order_relaxed);
      dropped.fetch_add(c.dropped, std::memory_order_relaxed);
      backlog.fetch_add(c.backlog, std::memory_order_relaxed);
      lat_sum.fetch_add(c.lat_sum, std::memory_order_relaxed);
    }
    SampleFrame frame() const {
      SampleFrame f;
      f.injected = injected.load(std::memory_order_relaxed);
      f.delivered = delivered.load(std::memory_order_relaxed);
      f.dropped = dropped.load(std::memory_order_relaxed);
      f.backlog = backlog.load(std::memory_order_relaxed);
      f.lat_sum = lat_sum.load(std::memory_order_relaxed);
      return f;
    }
  };

  std::vector<std::unique_ptr<Task>> tasks;
  std::vector<unsigned> task_of;  ///< node -> owning task index.
  std::vector<std::vector<unsigned>> wake_lists;
  std::vector<unsigned> placement;
  std::unique_ptr<Scheduler> scheduler;

  /// Grid index (cycle / D) of the run's last sample; with metrics off, the
  /// index below its first, so no slot is armed.
  Cycle last_sample = 0;
  std::vector<std::unique_ptr<FrameSlot>> frames;
  /// Next grid index whose sample may be published (orders the registry's
  /// sample() calls exactly like the barrier's rounds).
  std::atomic<Cycle> sample_turn{0};

  // Rebalancing (planned at run end, applied at next run start).
  std::vector<std::vector<unsigned>> pending_parts;
  bool pending = false;
  std::uint64_t splits = 0;
  std::uint64_t merges = 0;
  std::vector<std::string> log;
};

std::unique_ptr<Fabric> Fabric::build(const net::Topology& topo, const FabricConfig& cfg) {
  FabricConfig c = cfg;
  c.topo = topo;
  return std::unique_ptr<Fabric>(new Fabric(c));
}

Fabric::Fabric(const FabricConfig& cfg) : cfg_(cfg) {
  cfg_.validate();
  worm_ = wormhole_kind(cfg_.topo);
  if (!worm_) codec_ = CellCodec{cfg_.node.cell_format(), bits_for(cfg_.topo.nodes())};
  // A mesh worm router has the endpoint's kLocal port besides its links.
  ports_ = worm_ && !cfg_.topo.multistage() ? net::kNumPorts : cfg_.topo.required_ports();
  build();
}

Fabric::~Fabric() = default;

void Fabric::make_node(unsigned v, double load) {
  Node& nd = nodes_[v];
  nd.engine.set_idle_skip(false);
  if (worm_) {
    WormParams wp;
    wp.lanes = cfg_.lanes;
    wp.lane_depth = cfg_.buffer_flits / cfg_.lanes;
    wp.message_flits = cfg_.message_flits;
    wp.messages_per_cycle = load / cfg_.message_flits;
    wp.alloc = cfg_.alloc;
    nd.router = std::make_unique<WormRouter>(&cfg_.topo, v, wp, wdests_.get());
    return;
  }
  nd.cell = std::make_unique<Node::Cell>();
  Node::Cell& c = *nd.cell;
  if (cfg_.fast_node && cfg_.fast_node(v)) {
    c.fast = std::make_unique<FastSwitch>(cfg_.node);
  } else {
    c.sw = std::make_unique<PipelinedSwitch>(cfg_.node);
  }
  c.injector.rng = Rng(mix64(cfg_.seed + 0x9e3779b97f4a7c15ULL * (v + 1)));
  c.injector.cells_per_cycle = load / cfg_.node.cell_words;
  c.injector.self = v;
  c.injector.n_nodes = nodes();
  // The fabric's own accounting rides the multi-subscriber hub, leaving
  // room for checkers, scoreboards, and user taps on the same switch.
  SwitchEvents ev;
  Node::Cell* cp = &c;
  ev.on_drop = [cp](unsigned, Cycle, DropReason why) {
    switch (why) {
      case DropReason::kNoAddress: ++cp->drop_no_addr; break;
      case DropReason::kNoSlot: ++cp->drop_no_slot; break;
      case DropReason::kOutputLimit: ++cp->drop_out_limit; break;
    }
  };
  EventHub& hub = c.sw ? c.sw->events() : c.fast->events();
  c.drop_sub = hub.subscribe(std::move(ev));
  if (cfg_.flight_recorder) {
    obs::FlightRecorderConfig fr;
    fr.warmup = cfg_.flight_warmup;
    c.flight =
        std::make_unique<obs::FlightRecorder>(cfg_.node.n_ports, cfg_.node.cell_words, fr);
    c.flight->attach(hub);
  }
}

template <typename RingT>
RingT* Fabric::add_ring(unsigned from, unsigned to) {
  auto ring = std::make_unique<RingT>(cfg_.link_pipe_stages);
  RingT* r = ring.get();
  rings_.push_back(std::move(ring));
  links_.push_back(Link{from, to, r});
  return r;
}

void Fabric::wire_node(unsigned v, const std::vector<Channel*>& cell_rings) {
  Node& nd = nodes_[v];
  if (nd.router) {
    nd.engine.add(nd.router.get());
    return;
  }
  const net::Topology& topo = cfg_.topo;
  Node::Cell& c = *nd.cell;
  nd.engine.add(c.sw ? static_cast<Component*>(c.sw.get())
                     : static_cast<Component*>(c.fast.get()));
  auto in_link = [&c](unsigned q) -> WireLink* {
    return c.sw ? &c.sw->in_link(q) : &c.fast->in_link(q);
  };
  auto out_link = [&c](unsigned p) -> WireLink* {
    return c.sw ? &c.sw->out_link(p) : &c.fast->out_link(p);
  };
  nd.engine.reserve(1 + 2 * ports_);  // The switch, a bridge and a tap per port.
  c.bridges.reserve(ports_);
  c.taps.reserve(ports_);
  // The first connected port doubles as the node's injection point.
  bool designated = false;
  for (unsigned q = 0; q < ports_; ++q) {
    const net::Port port = static_cast<net::Port>(q);
    const int u = topo.neighbor(v, port);
    if (u < 0) continue;
    Channel* rx = cell_rings[static_cast<unsigned>(u) * ports_ + net::opposite(port)];
    PMSB_CHECK(rx != nullptr, "fabric link without a channel");
    Injector* inj = designated ? nullptr : &c.injector;
    designated = true;
    c.bridges.push_back(std::make_unique<PortBridge>(&cfg_.topo, &codec_, v, port, rx,
                                                     in_link(q), inj, &c.ejector));
    nd.engine.add(c.bridges.back().get());
  }
  PMSB_CHECK(designated, "fabric node with no links");
  for (unsigned p = 0; p < ports_; ++p) {
    Channel* ch = cell_rings[v * ports_ + p];
    if (!ch) continue;
    c.taps.push_back(std::make_unique<TxTap>(out_link(p), ch));
    nd.engine.add(c.taps.back().get());
  }
  // Structural invariant checking only exists for the cycle-accurate
  // switch; fast nodes are covered by the differential harness instead.
  if (check::env_enabled() && c.sw) {
    c.checker = std::make_unique<check::InvariantChecker>();
    c.checker->attach(*c.sw, nd.engine);
  }
}

void Fabric::build() {
  const net::Topology& topo = cfg_.topo;
  const unsigned n = topo.nodes();
  workers_ = std::min(std::max(cfg_.threads ? cfg_.threads : exp::thread_count(), 1u), n);
  idle_skip_on_ = cfg_.idle_skip < 0 ? Engine::idle_skip_env_default() : cfg_.idle_skip != 0;
  // A spec-embedded load ("uniform:0.3") overrides cfg_.load.
  const auto spec = traffic::GeneratorSpec::parse(cfg_.traffic);
  if (worm_) {
    // One shared destination pattern: pick() is stateless (each caller
    // passes its own Rng), so routers on different threads can share it.
    // The rng here only seeds the permutation draw.
    Rng drng(mix64(cfg_.seed ^ 0x517cc1b727220a95ULL));
    wdests_ = spec.make_dest(topo.endpoints(), drng);
  }
  const double load = spec.load_or(cfg_.load);
  nodes_ = std::vector<Node>(n);
  for (unsigned v = 0; v < n; ++v) make_node(v, load);

  // Rings, identical at every thread count and engine: each directed link
  // gets one even when both endpoints land on one worker -- a cell ring, or
  // a forward flit ring u->v plus a reverse credit ring v->u.
  std::vector<Channel*> cell_rings(worm_ ? 0 : static_cast<std::size_t>(n) * ports_, nullptr);
  rings_.reserve(static_cast<std::size_t>(n) * ports_ * (worm_ ? 2 : 1));
  links_.reserve(rings_.capacity());
  for (unsigned u = 0; u < n; ++u) {
    for (unsigned p = 0; p < ports_; ++p) {
      const int nb = topo.neighbor(u, p);
      if (nb < 0) continue;
      const unsigned v = static_cast<unsigned>(nb);
      if (!worm_) {
        cell_rings[u * ports_ + p] = add_ring<Channel>(u, v);
        continue;
      }
      WormChannel* data = add_ring<WormChannel>(u, v);
      CreditChannel* credit = add_ring<CreditChannel>(v, u);
      nodes_[u].router->connect_out(p, data, credit);
      nodes_[v].router->connect_in(topo.peer_in_port(u, p), data, credit);
    }
  }
  if (worm_) {
    // Endpoints: sources on the ingress ports (per-endpoint RNG split from
    // the seed, like the cell Injectors), sinks on the egress ports -- a
    // mesh node's kLocal port, or a multistage network's first-stage inputs
    // and last-stage outputs.
    for (unsigned e = 0; e < topo.endpoints(); ++e) {
      const auto [v, q] = topo.ingress_of(e);
      nodes_[v].router->add_source(q, e,
                                   Rng(mix64(cfg_.seed + 0x9e3779b97f4a7c15ULL * (e + 1))));
      if (!topo.multistage()) nodes_[v].router->add_sink(net::kLocal, e);
    }
    for (unsigned el = 0; el < topo.elements_per_stage(); ++el) {
      const unsigned v = topo.node_id(topo.stages() - 1, el);
      for (unsigned p = 0; p < ports_; ++p)
        nodes_[v].router->add_sink(p, topo.egress_endpoint(v, p));
    }
  }
  for (unsigned v = 0; v < n; ++v) wire_node(v, cell_rings);

  // Ring edges: links_ grouped by consumer (ins) and by producer (outs), a
  // counting sort that keeps wiring order within each node. A worm credit
  // ring makes the data link's upstream router a consumer, so the dataflow
  // bounds below point both ways along every worm link.
  const auto group = [this, n](std::vector<Link>& flat, unsigned Link::*key,
                               std::span<const Link> Node::*edges) {
    std::vector<std::size_t> at(n + 1, 0);
    for (const Link& l : links_) ++at[l.*key + 1];
    for (unsigned v = 0; v < n; ++v) at[v + 1] += at[v];
    flat.resize(links_.size());
    for (unsigned v = 0; v < n; ++v)
      nodes_[v].*edges = {flat.data() + at[v], at[v + 1] - at[v]};
    for (const Link& l : links_) flat[at[l.*key]++] = l;
  };
  group(ins_, &Link::to, &Node::ins);
  group(outs_, &Link::from, &Node::outs);
  const Cycle stages = cfg_.link_pipe_stages;
  for (const Link& l : links_)
    credit_ = std::min(credit_, static_cast<Cycle>(l.ring->capacity()) - stages);
  PMSB_CHECK(credit_ > 0, "channel ring smaller than its own delay");

  if (cfg_.engine == FabricEngine::kBarrier) {
    shards_.reserve(workers_);
    for (std::vector<unsigned>& ids : node_blocks(workers_))
      shards_.push_back(Shard{std::move(ids)});
    return;
  }
  df_ = std::make_unique<Dataflow>();
  df_->scheduler = std::make_unique<Scheduler>(workers_);
  // Sampling-frame ring: clock skew between any two nodes is bounded by D
  // per link of the undirected dependency graph between them, i.e. one
  // boundary per link: the diameter of a direct network, and at most
  // 2 * (stages - 1) on a multistage one, whose credit rings point back
  // upstream (forward to a common stage and back). Four spare slots, and
  // in-flight boundary accumulators can never collide.
  const unsigned span = topo.multistage() ? 2 * topo.stages() : topo.diameter();
  for (unsigned j = 0; j < span + 4; ++j)
    df_->frames.push_back(std::make_unique<Dataflow::FrameSlot>());
  // Initial partition: tasks_per_worker tasks per worker so stealing and
  // rebalancing have slack to move load around.
  const unsigned tasks = std::min(std::max(workers_ * cfg_.tasks_per_worker, workers_), n);
  df_apply_partition(node_blocks(tasks));
}

std::vector<std::vector<unsigned>> Fabric::node_blocks(unsigned parts) const {
  const unsigned n = nodes();
  std::vector<std::vector<unsigned>> blocks(parts);
  for (unsigned b = 0; b < parts; ++b)
    for (unsigned v = b * n / parts; v < (b + 1) * n / parts; ++v) blocks[b].push_back(v);
  return blocks;
}

void Fabric::df_apply_partition(const std::vector<std::vector<unsigned>>& parts) {
  Dataflow& df = *df_;
  const unsigned n = nodes();
  df.tasks.clear();
  df.task_of.assign(n, 0);
  for (std::size_t t = 0; t < parts.size(); ++t) {
    PMSB_CHECK(!parts[t].empty(), "empty task in fabric partition");
    auto task = std::make_unique<Dataflow::Task>();
    task->fab = this;
    task->node_ids = parts[t];
    for (unsigned v : parts[t]) df.task_of[v] = static_cast<unsigned>(t);
    df.tasks.push_back(std::move(task));
  }
  // Wake lists: the tasks owning any ring neighbor of this task's nodes.
  df.wake_lists.assign(parts.size(), {});
  for (std::size_t t = 0; t < parts.size(); ++t) {
    std::vector<unsigned>& nbrs = df.wake_lists[t];
    for (unsigned v : parts[t]) {
      for (const Link& l : nodes_[v].ins) nbrs.push_back(df.task_of[l.from]);
      for (const Link& l : nodes_[v].outs) nbrs.push_back(df.task_of[l.to]);
    }
    std::sort(nbrs.begin(), nbrs.end());
    nbrs.erase(std::unique(nbrs.begin(), nbrs.end()), nbrs.end());
    nbrs.erase(std::remove(nbrs.begin(), nbrs.end(), static_cast<unsigned>(t)), nbrs.end());
  }
  // Initial placement follows the node index (neighboring tasks start on
  // the same worker); stealing takes it from there.
  df.placement.resize(parts.size());
  for (std::size_t t = 0; t < parts.size(); ++t) {
    const unsigned w = static_cast<unsigned>(
        static_cast<std::uint64_t>(parts[t].front()) * workers_ / n);
    df.placement[t] = std::min(w, workers_ - 1);
  }
}

void Fabric::register_metrics(obs::MetricsRegistry* m) {
  metrics_ = m;
  if (!m) return;
  // The gauges read the frame publish() hands them -- the live totals with
  // every barrier worker parked, or a boundary frame the dataflow engine
  // assembled from per-node contributions while other nodes kept advancing.
  // Values are identical.
  const auto gauge = [this, m](const char* name, double (*fn)(const SampleFrame&)) {
    m->add_gauge(name, [this, fn] { return fn(sample_frame_ ? *sample_frame_ : totals()); });
  };
  gauge("fabric.injected",
        [](const SampleFrame& f) { return static_cast<double>(f.injected); });
  gauge("fabric.delivered",
        [](const SampleFrame& f) { return static_cast<double>(f.delivered); });
  gauge("fabric.dropped", [](const SampleFrame& f) { return static_cast<double>(f.dropped); });
  gauge("fabric.backlog", [](const SampleFrame& f) { return static_cast<double>(f.backlog); });
  gauge("fabric.in_network", [](const SampleFrame& f) {
    return static_cast<double>(f.injected - f.backlog - f.delivered - f.dropped);
  });
  gauge("fabric.latency.mean", [](const SampleFrame& f) {
    return f.delivered ? static_cast<double>(f.lat_sum) / static_cast<double>(f.delivered)
                       : 0.0;
  });
}

void Fabric::publish(const SampleFrame& f, Cycle cycle) {
  sample_frame_ = &f;
  metrics_->sample(cycle);
  sample_frame_ = nullptr;
}

exp::ThreadPool& Fabric::pool() {
  if (!pool_) {
    exp::ThreadPoolOptions po;
    if (exp::pin_threads_env())
      po.on_worker_start = [](unsigned w) { exp::pin_current_thread(w); };
    pool_ = std::make_unique<exp::ThreadPool>(workers_, std::move(po));
  }
  return *pool_;
}

void Fabric::run(Cycle cycles) {
  if (cycles <= 0) return;
  if (df_) {
    run_dataflow(cycles);
    return;
  }
  run_target_ = cycles_run_ + cycles;
  const Cycle start = cycles_run_;
  const Cycle target = run_target_;
  // The last arriver of each round advances the global clock and samples
  // the gauges while every other shard is parked (see sim/barrier.hpp);
  // with one shard the "barrier" cost is that round bookkeeping itself.
  SpinBarrier barrier(static_cast<unsigned>(shards_.size()), [this] { end_of_round(); });
  auto work = [this, start, target, &barrier](Shard& shard) {
    using SteadyClock = std::chrono::steady_clock;
    auto ns_between = [](SteadyClock::time_point a, SteadyClock::time_point b) {
      return static_cast<std::uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(b - a).count());
    };
    Cycle done = start;
    while (done < target) {
      // Rounds end on the gauge grid (multiples of D) or at the target.
      const Cycle step = round_end(done) - done;
      const auto t0 = SteadyClock::now();
      // Within a round a node pops only ring entries pushed in earlier
      // rounds, so the shard may run its nodes one after another.
      for (unsigned v : shard.node_ids) nodes_[v].engine.run(step);
      const auto t1 = SteadyClock::now();
      done += step;
      barrier.arrive_and_wait();
      shard.active_ns += ns_between(t0, t1);
      shard.barrier_wait_ns += ns_between(t1, SteadyClock::now());
      ++shard.rounds;
      // The planner may have skipped whole rounds inside the barrier
      // (maybe_skip); every worker observes the same jump -- the barrier
      // orders the cycles_run_ write before this read -- so all shards
      // take identical trajectories.
      if (done < cycles_run_ && cycles_run_ <= target) {
        for (unsigned v : shard.node_ids) nodes_[v].engine.skip_to(cycles_run_);
        done = cycles_run_;
      }
    }
  };
  if (shards_.size() == 1) {
    work(shards_[0]);
  } else {
    for (Shard& shard : shards_) pool().submit([&work, &shard] { work(shard); });
    pool_->wait_idle();
  }
  PMSB_CHECK(cycles_run_ == run_target_, "fabric rounds out of step");
}

void Fabric::run_dataflow(Cycle cycles) {
  Dataflow& df = *df_;
  if (df.pending) {
    df_apply_partition(df.pending_parts);
    df.pending_parts.clear();
    df.pending = false;
  }
  run_target_ = cycles_run_ + cycles;
  const Cycle grid = cfg_.link_pipe_stages;
  const Cycle first = cycles_run_ / grid + 1;
  df.last_sample = metrics_ != nullptr ? run_target_ / grid : first - 1;
  df.sample_turn.store(first, std::memory_order_relaxed);
  const auto rsize = static_cast<Cycle>(df.frames.size());
  for (Cycle k = first; k < first + rsize; ++k)
    df.frames[static_cast<std::size_t>(k % rsize)]->arm(k <= df.last_sample ? k : -1, nodes());
  for (auto& t : df.tasks)
    t->active_snapshot = t->active_ns.load(std::memory_order_relaxed);

  std::vector<SchedTask*> tasks;
  tasks.reserve(df.tasks.size());
  for (auto& t : df.tasks) tasks.push_back(t.get());
  df.scheduler->run(pool(), tasks, df.wake_lists, df.placement);

  cycles_run_ = run_target_;
  for (const Node& nd : nodes_)
    PMSB_CHECK(nd.done.load(std::memory_order_relaxed) == run_target_,
               "dataflow node stopped short of the run target");
  PMSB_CHECK(df.sample_turn.load(std::memory_order_relaxed) == df.last_sample + 1,
             "dataflow run finished with unpublished samples");
  if (cfg_.rebalance) df_plan_rebalance();
}

Fabric::NodeAdvance Fabric::df_advance_node(unsigned v) {
  Node& nd = nodes_[v];
  const Cycle target = run_target_;
  const Cycle d = nd.engine.now();
  if (d >= target) return NodeAdvance::kNodeDone;
  const Cycle stages = cfg_.link_pipe_stages;

  // Input bound first: it is the tighter constraint under load, and its
  // seq_cst loads double as the acquire of the upstreams' ring pushes.
  Cycle limit = target;
  for (const Link& in : nd.ins) {
    const Cycle b = nodes_[in.from].done.load(std::memory_order_seq_cst) + stages;
    if (b < limit) limit = b;
  }
  if (limit <= d) return NodeAdvance::kInputBlocked;
  for (const Link& out : nd.outs) {
    const Cycle b = nodes_[out.to].done.load(std::memory_order_seq_cst) + credit_;
    if (b < limit) limit = b;
  }
  if (limit <= d) return NodeAdvance::kCreditBlocked;
  if (metrics_ != nullptr) {
    // Land on every grid cycle so this node can contribute its sample share
    // there (the barrier engine samples at exactly these cycles).
    const Cycle nb = round_end(d);
    if (nb < limit) limit = nb;
  }

  bool stepped = true;
  if (idle_skip_on_ && nd.engine.can_skip()) {
    // Whole-chunk idle skip: every component quiescent through the chunk
    // (wake >= limit keeps the wake cycle itself stepped) and no flit
    // arriving on any input during [d, limit). An empty input has delivered
    // every entry pushed before the upstream progress loaded above, and any
    // later push is stamped >= upstream_done >= limit - D, so it arrives at
    // or after limit. Skipped cycles push nothing, so the outputs need no
    // compensation.
    Cycle wake = kNeverWake;
    if (nd.engine.quiescent_at(d, &wake) && wake >= limit &&
        std::all_of(nd.ins.begin(), nd.ins.end(),
                    [](const Link& in) { return in.ring->empty(); })) {
      nd.engine.skip_to(limit);
      rounds_skipped_.fetch_add(1, std::memory_order_relaxed);
      stepped = false;
    }
  }
  if (stepped) nd.engine.run(limit - d);

  // Publish progress: seq_cst store pairs with neighbors' bound loads (ring
  // visibility) and with the scheduler's block/recheck protocol.
  nd.done.store(limit, std::memory_order_seq_cst);
  if (metrics_ != nullptr && limit % stages == 0) df_contribute_sample(v, limit / stages);
  return stepped ? NodeAdvance::kStepped : NodeAdvance::kSkipped;
}

bool Fabric::df_node_ready(unsigned v) const {
  const Node& nd = nodes_[v];
  const Cycle d = nd.done.load(std::memory_order_seq_cst);
  if (d >= run_target_) return false;
  const Cycle stages = cfg_.link_pipe_stages;
  for (const Link& in : nd.ins)
    if (nodes_[in.from].done.load(std::memory_order_seq_cst) + stages <= d) return false;
  for (const Link& out : nd.outs)
    if (nodes_[out.to].done.load(std::memory_order_seq_cst) + credit_ <= d) return false;
  return true;
}

void Fabric::df_contribute_sample(unsigned v, Cycle k) {
  Dataflow& df = *df_;
  const Cycle rsize = static_cast<Cycle>(df.frames.size());
  Dataflow::FrameSlot& slot = *df.frames[static_cast<std::size_t>(k % rsize)];
  // The slot serving grid index k is re-armed by the completer of index
  // k - R. The skew bound (frame ring comment in build) guarantees that
  // index has all contributions by now, so this wait only covers an
  // in-flight completion call.
  while (slot.boundary.load(std::memory_order_acquire) != k) std::this_thread::yield();
  // This worker holds node v exactly at the boundary cycle, so these reads
  // see the same per-node state the parked barrier engine would.
  slot.add(counts(v));
  if (slot.remaining.fetch_sub(1, std::memory_order_acq_rel) != 1) return;

  // Last contributor publishes, strictly in grid order (sample_turn is the
  // baton; the registry's time series relies on monotonic sample calls).
  while (df.sample_turn.load(std::memory_order_acquire) != k) std::this_thread::yield();
  publish(slot.frame(), k * static_cast<Cycle>(cfg_.link_pipe_stages));
  // Re-arm this slot for index k + R before passing the baton.
  slot.arm(k + rsize <= df.last_sample ? k + rsize : -1, nodes());
  df.sample_turn.store(k + 1, std::memory_order_release);
}

void Fabric::df_plan_rebalance() {
  Dataflow& df = *df_;
  const std::size_t ntasks = df.tasks.size();
  std::vector<std::uint64_t> delta(ntasks, 0);
  std::uint64_t total = 0;
  for (std::size_t i = 0; i < ntasks; ++i) {
    delta[i] = df.tasks[i]->active_ns.load(std::memory_order_relaxed) -
               df.tasks[i]->active_snapshot;
    total += delta[i];
  }
  if (total == 0) return;
  const double mean = static_cast<double>(total) / static_cast<double>(ntasks);

  struct Part {
    std::vector<unsigned> ids;
    double cost;
  };
  bool changed = false;
  // Split pass: halve tasks that dominated the last run.
  std::vector<Part> parts;
  parts.reserve(ntasks + 4);
  for (std::size_t i = 0; i < ntasks; ++i) {
    const auto& ids = df.tasks[i]->node_ids;
    const double cost = static_cast<double>(delta[i]);
    if (cost > 1.6 * mean && ids.size() >= 2) {
      const std::size_t mid = ids.size() / 2;
      parts.push_back(Part{{ids.begin(), ids.begin() + static_cast<long>(mid)}, cost / 2});
      parts.push_back(Part{{ids.begin() + static_cast<long>(mid), ids.end()}, cost / 2});
      df.log.push_back("split task " + std::to_string(i) + " (" +
                       std::to_string(ids.size()) + " nodes, " +
                       std::to_string(cost / mean) + "x mean active_ns)");
      ++df.splits;
      changed = true;
    } else {
      parts.push_back(Part{ids, cost});
    }
  }
  // Merge pass: coalesce adjacent starved tasks, keeping at least one task
  // per worker so nobody idles by construction.
  std::vector<Part> merged;
  merged.reserve(parts.size());
  for (std::size_t i = 0; i < parts.size(); ++i) {
    const std::size_t projected = merged.size() + (parts.size() - i);
    if (!merged.empty() && projected - 1 >= workers_ && merged.back().cost < 0.4 * mean &&
        parts[i].cost < 0.4 * mean) {
      df.log.push_back("merge tasks at node " + std::to_string(merged.back().ids.front()) +
                       " + " + std::to_string(parts[i].ids.front()) + " (both < 0.4x mean)");
      merged.back().ids.insert(merged.back().ids.end(), parts[i].ids.begin(),
                               parts[i].ids.end());
      merged.back().cost += parts[i].cost;
      ++df.merges;
      changed = true;
    } else {
      merged.push_back(std::move(parts[i]));
    }
  }
  if (!changed) return;
  df.pending_parts.clear();
  df.pending_parts.reserve(merged.size());
  for (Part& p : merged) df.pending_parts.push_back(std::move(p.ids));
  df.pending = true;
}

void Fabric::end_of_round() {
  cycles_run_ = round_end(cycles_run_);
  if (metrics_ && cycles_run_ % cfg_.link_pipe_stages == 0) publish(totals(), cycles_run_);
  if (idle_skip_on_) maybe_skip();
}

void Fabric::maybe_skip() {
  if (cycles_run_ >= run_target_) return;
  // Global quiescence: every component of every node idle (observers -- the
  // per-node invariant checkers -- pin a node to stepping), and every ring
  // empty. Any failure means at least one cell is somewhere in flight, and
  // the next round must be stepped.
  Cycle wake = kNeverWake;
  for (const Node& nd : nodes_) {
    Cycle w = kNeverWake;
    if (!nd.engine.can_skip() || !nd.engine.quiescent_at(cycles_run_, &w)) return;
    if (w < wake) wake = w;
  }
  for (const auto& ring : rings_)
    if (!ring->empty()) return;
  // Advance whole rounds while they end at or before the earliest wake
  // (components must execute the wake cycle itself), keeping the metrics
  // cadence of stepped rounds. Skipped cycles push nothing onto the rings.
  while (cycles_run_ < run_target_) {
    const Cycle nb = round_end(cycles_run_);
    if (nb > wake) break;
    cycles_run_ = nb;
    if (metrics_ && nb % cfg_.link_pipe_stages == 0) publish(totals(), nb);
    rounds_skipped_.fetch_add(1, std::memory_order_relaxed);
  }
}

Fabric::SampleFrame Fabric::counts(unsigned v) const {
  const Node& nd = nodes_[v];
  SampleFrame c;
  if (worm_) {
    // Wormhole transport is lossless (credit-backpressured): no drops.
    const WormRouter& r = *nd.router;
    for (unsigned p = 0; p < ports_; ++p) {
      if (r.has_source(p)) {
        const auto ss = r.source_stats(p);
        c.injected += ss.generated;
        c.backlog += ss.backlog;
      }
      if (r.has_sink(p)) {
        const auto ks = r.sink_stats(p);
        c.delivered += ks.delivered;
        c.lat_sum += ks.lat_sum;
      }
    }
    return c;
  }
  const Node::Cell& cl = *nd.cell;
  c.injected = cl.injector.generated;
  c.delivered = cl.ejector.delivered;
  c.dropped = cl.drop_no_addr + cl.drop_no_slot + cl.drop_out_limit;
  c.backlog = cl.injector.backlog.size();
  c.lat_sum = cl.ejector.lat_sum;
  return c;
}

Fabric::SampleFrame Fabric::totals() const {
  SampleFrame t;
  for (unsigned v = 0; v < nodes(); ++v) {
    const SampleFrame c = counts(v);
    t.injected += c.injected;
    t.delivered += c.delivered;
    t.dropped += c.dropped;
    t.backlog += c.backlog;
    t.lat_sum += c.lat_sum;
  }
  return t;
}

std::uint64_t Fabric::relayed(unsigned v) const {
  const Node& nd = nodes_[v];
  if (nd.router) return nd.router->flits_forwarded();
  std::uint64_t s = 0;
  for (const auto& b : nd.cell->bridges) s += b->relayed();
  return s;
}

FabricStats Fabric::stats() const {
  FabricStats st;
  st.cycles = cycles_run_;
  bool have_lat = false;
  std::uint64_t lat_sum = 0;
  if (worm_) {
    // Merge sinks in (node, port) order -- a fixed order, so the digest and
    // histogram are identical at any thread count and under either engine.
    for (const Node& nd : nodes_) {
      const WormRouter& r = *nd.router;
      for (unsigned p = 0; p < ports_; ++p) {
        if (r.has_source(p)) {
          const auto ss = r.source_stats(p);
          st.injected += ss.generated;
          st.backlog += ss.backlog;
        }
        if (!r.has_sink(p)) continue;
        const auto ks = r.sink_stats(p);
        st.delivered += ks.delivered;
        st.flits_delivered += ks.flits;
        st.payload_errors += ks.payload_errors;
        st.uid_digest = mix64(st.uid_digest ^ ks.digest);
        st.latency.merge(*ks.lat_hist);
        lat_sum += ks.lat_sum;
        if (ks.delivered) {
          const Cycle lo = static_cast<Cycle>(ks.lat_hist->min());
          const Cycle hi = static_cast<Cycle>(ks.lat_hist->max());
          if (!have_lat || lo < st.min_latency) st.min_latency = lo;
          if (!have_lat || hi > st.max_latency) st.max_latency = hi;
          have_lat = true;
        }
      }
    }
    st.mean_latency = st.delivered
                          ? static_cast<double>(lat_sum) / static_cast<double>(st.delivered)
                          : 0.0;
    // Every multistage endpoint pair crosses all stages() - 1 inter-stage
    // links. Mesh paths vary in length, and the sinks keep no per-hop split.
    if (st.delivered && cfg_.topo.multistage())
      st.by_hops.push_back(
          FabricStats::HopRow{cfg_.topo.stages() - 1, st.delivered, st.mean_latency});
    const auto accounted = st.backlog + st.delivered;
    PMSB_CHECK(st.injected >= accounted, "worm fabric conservation violated");
    st.in_network = st.injected - accounted;
    return st;
  }
  for (const Node& nd : nodes_) {
    const Node::Cell& n = *nd.cell;
    st.injected += n.injector.generated;
    st.backlog += n.injector.backlog.size();
    st.delivered += n.ejector.delivered;
    st.payload_errors += n.ejector.payload_errors;
    st.dropped_no_addr += n.drop_no_addr;
    st.dropped_no_slot += n.drop_no_slot;
    st.dropped_out_limit += n.drop_out_limit;
    st.uid_digest = mix64(st.uid_digest ^ n.ejector.digest);
    st.latency.merge(n.ejector.lat_hist);
    lat_sum += n.ejector.lat_sum;
    if (n.ejector.delivered) {
      if (!have_lat || n.ejector.lat_min < st.min_latency) st.min_latency = n.ejector.lat_min;
      if (!have_lat || n.ejector.lat_max > st.max_latency) st.max_latency = n.ejector.lat_max;
      have_lat = true;
    }
    if (st.by_hops.size() < n.ejector.by_hops.size())
      st.by_hops.resize(n.ejector.by_hops.size(), FabricStats::HopRow{0, 0, 0});
    for (std::size_t h = 0; h < n.ejector.by_hops.size(); ++h) {
      st.by_hops[h].cells += n.ejector.by_hops[h].cells;
      // mean_latency temporarily accumulates the sum; divided below.
      st.by_hops[h].mean_latency += static_cast<double>(n.ejector.by_hops[h].lat_sum);
    }
  }
  st.mean_latency =
      st.delivered ? static_cast<double>(lat_sum) / static_cast<double>(st.delivered) : 0.0;
  for (std::size_t h = 0; h < st.by_hops.size(); ++h) {
    st.by_hops[h].hops = static_cast<unsigned>(h);
    if (st.by_hops[h].cells)
      st.by_hops[h].mean_latency /= static_cast<double>(st.by_hops[h].cells);
  }
  const auto accounted = st.backlog + st.delivered + st.dropped();
  PMSB_CHECK(st.injected >= accounted, "fabric conservation violated");
  st.in_network = st.injected - accounted;
  return st;
}

obs::FlightRecorder Fabric::merged_flight() const {
  PMSB_CHECK(cfg_.flight_recorder, "fabric built without FabricConfig::flight_recorder");
  obs::FlightRecorderConfig fr;
  fr.warmup = cfg_.flight_warmup;
  obs::FlightRecorder merged(cfg_.node.n_ports, cfg_.node.cell_words, fr);
  for (const Node& nd : nodes_) merged.merge(*nd.cell->flight);
  return merged;
}

std::vector<ShardTelemetry> Fabric::shard_telemetry() const {
  std::vector<ShardTelemetry> out;
  if (df_) {
    const Dataflow& df = *df_;
    out.reserve(df.tasks.size());
    for (std::size_t i = 0; i < df.tasks.size(); ++i) {
      const Dataflow::Task& task = *df.tasks[i];
      ShardTelemetry t;
      t.shard = static_cast<unsigned>(i);
      t.nodes = static_cast<unsigned>(task.node_ids.size());
      t.active_ns = task.active_ns.load(std::memory_order_relaxed);
      t.blocked_on_empty_ns = task.blocked_on_empty_ns.load(std::memory_order_relaxed);
      t.blocked_on_full_ns = task.blocked_on_full_ns.load(std::memory_order_relaxed);
      t.steals = task.steals.load(std::memory_order_relaxed);
      t.rounds = task.rounds.load(std::memory_order_relaxed);
      for (unsigned v : task.node_ids) t.cells_relayed += relayed(v);
      out.push_back(t);
    }
    return out;
  }
  out.reserve(shards_.size());
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    const Shard& sh = shards_[s];
    ShardTelemetry t;
    t.shard = static_cast<unsigned>(s);
    t.nodes = static_cast<unsigned>(sh.node_ids.size());
    t.active_ns = sh.active_ns;
    t.barrier_wait_ns = sh.barrier_wait_ns;
    t.rounds = sh.rounds;
    for (unsigned v : sh.node_ids) t.cells_relayed += relayed(v);
    out.push_back(t);
  }
  return out;
}

FabricSchedulerStats Fabric::scheduler_stats() const {
  FabricSchedulerStats s;
  s.engine = to_string(cfg_.engine);
  s.workers = workers_;
  if (df_) {
    const Dataflow& df = *df_;
    s.tasks = static_cast<unsigned>(df.tasks.size());
    s.steals = df.scheduler->total_steals();
    s.splits = df.splits;
    s.merges = df.merges;
    s.rebalance_log = df.log;
    for (const Scheduler::WorkerStats& w : df.scheduler->worker_stats())
      s.per_worker.push_back(FabricSchedulerStats::Worker{w.active_ns, w.idle_ns, w.steals,
                                                          w.slices});
    return s;
  }
  s.tasks = static_cast<unsigned>(shards_.size());
  for (const Shard& sh : shards_)
    s.per_worker.push_back(
        FabricSchedulerStats::Worker{sh.active_ns, sh.barrier_wait_ns, 0, sh.rounds});
  return s;
}

void Fabric::telemetry_to_perfetto(obs::PerfettoTrace& out) const {
  // Worker tracks start at tid 1000 so they never collide with the
  // component counter tracks of a TimeSeriesSampler sharing the trace; the
  // shard-stall counter track sits above them at tid 1900.
  constexpr unsigned kWorkerTidBase = 1000;
  constexpr unsigned kStallTid = 1900;
  const std::uint64_t skipped = rounds_skipped();
  if (cfg_.engine == FabricEngine::kDataflow) {
    const FabricSchedulerStats sched = scheduler_stats();
    for (std::size_t w = 0; w < sched.per_worker.size(); ++w) {
      const auto& ws = sched.per_worker[w];
      const unsigned tid = kWorkerTidBase + static_cast<unsigned>(w);
      out.set_track_name(tid, "fabric worker " + std::to_string(w) + " (wall clock)");
      const std::int64_t active_us = static_cast<std::int64_t>(ws.active_ns / 1000);
      const std::int64_t idle_us = static_cast<std::int64_t>(ws.idle_ns / 1000);
      out.complete(0, active_us, tid, "active",
                   {{"slices", static_cast<double>(ws.slices)},
                    {"steals", static_cast<double>(ws.steals)}});
      out.complete(active_us, idle_us, tid, "scheduler_idle",
                   {{"chunks_skipped", static_cast<double>(skipped)}});
    }
  } else {
    for (const ShardTelemetry& t : shard_telemetry()) {
      const unsigned tid = kWorkerTidBase + t.shard;
      out.set_track_name(tid, "fabric worker " + std::to_string(t.shard) + " (wall clock)");
      const std::int64_t active_us = static_cast<std::int64_t>(t.active_ns / 1000);
      const std::int64_t wait_us = static_cast<std::int64_t>(t.barrier_wait_ns / 1000);
      out.complete(0, active_us, tid, "active",
                   {{"nodes", static_cast<double>(t.nodes)},
                    {"rounds", static_cast<double>(t.rounds)},
                    {"cells_relayed", static_cast<double>(t.cells_relayed)}});
      out.complete(active_us, wait_us, tid, "barrier_wait",
                   {{"rounds_skipped", static_cast<double>(skipped)}});
    }
  }
  // One counter sample per shard/task (ts = shard index): stall composition
  // in microseconds, directly comparable between the engines' traces.
  out.set_track_name(kStallTid, std::string("fabric shard stalls (") +
                                    to_string(cfg_.engine) + ", us by shard index)");
  for (const ShardTelemetry& t : shard_telemetry()) {
    out.counter(static_cast<std::int64_t>(t.shard), kStallTid, "fabric.stall_us",
                {{"barrier_wait", static_cast<double>(t.barrier_wait_ns / 1000)},
                 {"blocked_on_empty", static_cast<double>(t.blocked_on_empty_ns / 1000)},
                 {"blocked_on_full", static_cast<double>(t.blocked_on_full_ns / 1000)},
                 {"steals", static_cast<double>(t.steals)}});
  }
}

}  // namespace pmsb::fabric
