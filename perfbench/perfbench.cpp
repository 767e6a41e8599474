// Workload runner of the repository benchmark. perfbench/run.py builds this
// program, runs it once per benchmark run, checks what it reports and
// prints the metrics; see perfbench/README.md for the workloads and metrics.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1 [--trace-out PATH]
//             [--verify 0|1]
//
// Every run is a sequence of fixed-size simulations ("reps") of one
// workload, repeated until --seconds have passed. Rep i simulates traffic
// realization i mod R; its simulated results depend only on the workload
// and the realization's seed, so a repeated realization must reproduce its
// first rep exactly. Host time is recorded per block of each rep's measured
// window; run.py turns the blocks into the reported figures.
//
// --trace 0 measures host speed (rate, CPU time, set-up, memory) and the
// simulated results. --trace 1 is the separate per-layer run: it times calls
// into each layer's public functions from this file (forwarding Component
// wrappers around the single switch's parts; chunked Fabric::run calls and
// the fabric's public telemetry counters), keeps the spans in memory and
// writes them as a Chrome/Perfetto trace at exit. --verify 1 runs only the
// untimed verification passes; run.py runs it as a second process with
// PMSB_CHECK=1, so the program's own invariant checkers ride along.
//
// The last line on stdout is one JSON object with everything measured; all
// human-readable output is run.py's.

#include <time.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "core/fast_switch.hpp"
#include "core/switch.hpp"
#include "core/testbench.hpp"
#include "fabric/fabric.hpp"
#include "net/topology.hpp"
#include "obs/build_info.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/json_writer.hpp"
#include "sim/engine.hpp"
#include "stats/hdr_histogram.hpp"
#include "traffic/generators.hpp"

namespace {

using namespace pmsb;
using Clock = std::chrono::steady_clock;

const Clock::time_point kEpoch = Clock::now();

double now_ns() {
  return std::chrono::duration<double, std::nano>(Clock::now() - kEpoch).count();
}

/// User + system CPU time of the whole process (all threads), or of the
/// calling thread alone.
double cpu_seconds(clockid_t clock = CLOCK_PROCESS_CPUTIME_ID) {
  timespec ts{};
  clock_gettime(clock, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

/// Peak resident memory of this process image. (getrusage's ru_maxrss
/// would also count the memory of the process that forked this one, since
/// Linux carries it across exec.)
double peak_rss_mib() {
  std::ifstream status("/proc/self/status");
  std::string key;
  while (status >> key) {
    if (key == "VmHWM:") {
      double kib = 0;
      status >> kib;
      return kib / 1024.0;
    }
    status.ignore(4096, '\n');
  }
  return 0.0;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 == 1 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

std::string hex(std::uint64_t v) {
  char buf[20];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

// ---------------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------------

/// Worker threads of every fabric workload. Fixed, so rates compare across
/// runs; simulated results do not depend on it.
constexpr unsigned kWorkers = 4;

struct Workload {
  const char* name;
  bool fabric;
  Cycle warmup;  ///< Cycles simulated before the measured window.
  Cycle window;  ///< Measured cycles per rep.
  net::Topology topo;
  unsigned link_stages;  ///< D.
  double load;           ///< 0 = the traffic spec's own load.
  bool hot_quadrant;     ///< Only the top-left 4x4 quadrant runs cycle-accurate.
  unsigned lanes;
  const char* traffic;
  /// Independent traffic realizations a run pools its simulated results
  /// over (see realization_seed()).
  unsigned realizations;
};

// Each rep simulates a fraction of a second of host time. The simulated
// latency tail of one traffic realization varies a lot from seed to seed
// (the saturated switch's p99 by a third even over 1.5M cycles), while the
// pool of several independent realizations repeats within a few percent;
// so a run pools `realizations` of them, each at least 1000 latency samples
// over all (p99 then has at least ten samples beyond it).
const Workload kWorkloads[] = {
    {"switch16_saturated", false, 2000, 150000, {}, 0, 1.0, false, 1, "", 16},
    {"torus8x8_uniform", true, 1000, 12000, {net::TopologyKind::kTorus2D, 8, 8}, 8, 0.6,
     false, 1, "uniform", 16},
    {"torus8x8_hotquad", true, 1000, 24000, {net::TopologyKind::kTorus2D, 8, 8}, 8, 0.6, true,
     1, "uniform", 16},
    {"torus8x8_sparse", true, 1000, 1500000, {net::TopologyKind::kTorus2D, 8, 8}, 8, 3e-5,
     false, 1, "uniform", 8},
    {"banyan32_hotsenders", true, 1000, 12000, {net::TopologyKind::kBanyan, 32, 1}, 1, 0.0,
     false, 4, "hotsenders:0.25,0.95", 16},
};

/// Seed of realization r of a run with --seed `seed`. Realization 0 is the
/// program run with `seed` itself.
std::uint64_t realization_seed(std::uint64_t seed, unsigned r) {
  return seed + r * 0x9e3779b97f4a7c15ULL;
}

const Workload* find_workload(const std::string& name) {
  for (const Workload& w : kWorkloads)
    if (name == w.name) return &w;
  return nullptr;
}

const Workload& workload(const char* name) { return *find_workload(name); }

/// The single switch: the geometry of BM_PipelinedSwitchCycles/16 (16-bit
/// words, 32-word cells, 512 segments).
SwitchConfig switch16_config() { return SwitchConfig::for_ports(16); }

fabric::FabricConfig fabric_config(const Workload& w, std::uint64_t seed, unsigned threads) {
  fabric::FabricConfig cfg;
  cfg.topo = w.topo;
  cfg.link_pipe_stages = w.link_stages;
  if (w.load > 0) cfg.load = w.load;
  cfg.seed = seed;
  cfg.threads = threads;
  cfg.lanes = w.lanes;
  cfg.traffic = w.traffic;
  if (w.hot_quadrant)
    cfg.fast_node = [](unsigned v) { return !(v % 8 < 4 && v / 8 < 4); };
  return cfg;
}

// ---------------------------------------------------------------------------
// Simulated results and their checks
// ---------------------------------------------------------------------------

struct LatencySummary {
  std::uint64_t samples = 0;
  std::uint64_t p50 = 0;
  std::uint64_t p99 = 0;
  std::uint64_t beyond_p99 = 0;  ///< Samples ranked above p99's rank.
};

LatencySummary summarize(const HdrHistogram& h) {
  LatencySummary s;
  s.samples = h.samples();
  s.p50 = h.p50();
  s.p99 = h.p99();
  const auto rank = static_cast<std::uint64_t>(std::ceil(0.99 * static_cast<double>(s.samples)));
  s.beyond_p99 = s.samples - rank;
  return s;
}

/// The samples `end` recorded after `start` was copied from the same
/// histogram, at bucket resolution.
HdrHistogram window_of(const HdrHistogram& end, const HdrHistogram& start) {
  HdrHistogram w(end.precision_bits());
  for (std::size_t i = 0; i < end.bucket_count(); ++i) {
    const std::uint64_t c = end.count_at(i) - start.count_at(i);
    if (c != 0) w.add(end.bucket_high(i), c);
  }
  return w;
}

/// What one rep simulated: a function of the workload and the realization's
/// seed only.
struct SimResult {
  std::uint64_t digest = 0;  ///< Order-sensitive digest of the deliveries.
  std::uint64_t injected = 0;
  std::uint64_t delivered = 0;
  std::uint64_t dropped = 0;
  std::uint64_t backlog = 0;
  std::uint64_t in_network = 0;
  std::uint64_t payload_errors = 0;
  double throughput = 0;  ///< Window deliveries (flits on wormhole) / endpoint / cycle.
  std::uint64_t window_injected = 0;
  std::uint64_t window_dropped = 0;
  LatencySummary latency; ///< Deliveries inside the window.
  std::string failure;    ///< First failed check; empty when all passed.

  double loss() const {
    return window_injected == 0 ? 0.0
                                : static_cast<double>(window_dropped) /
                                      static_cast<double>(window_injected);
  }
  void check(bool ok, const std::string& what) {
    if (!ok && failure.empty()) failure = what;
  }
  void check_common() {
    check(delivered > 0, "nothing delivered");
    check(payload_errors == 0, "payload errors: " + std::to_string(payload_errors));
  }
  bool same_outcome(const SimResult& o) const {
    return digest == o.digest && injected == o.injected && delivered == o.delivered &&
           dropped == o.dropped && backlog == o.backlog && in_network == o.in_network &&
           payload_errors == o.payload_errors && throughput == o.throughput &&
           window_injected == o.window_injected && window_dropped == o.window_dropped &&
           latency.samples == o.latency.samples && latency.p50 == o.latency.p50 &&
           latency.p99 == o.latency.p99;
  }
};

/// Host time of one block of the measured window.
struct Block {
  double wall_s = 0;
  double cpu_s = 0;
  std::uint64_t node_cycles = 0;
};

struct Rep {
  unsigned realization = 0;
  std::vector<Block> blocks;  ///< The measured window, in kBlocks parts.
  SimResult sim;
  HdrHistogram window_latency;  ///< Latency samples of the window.
};

/// The measured window is timed in this many blocks, so a run holds many
/// short samples of host speed.
constexpr unsigned kBlocks = 16;

/// Run `window` cycles as kBlocks timed calls of `run(cycles)`, charging
/// the CPU time of `cpu_clock`.
template <typename RunFn>
void time_window(Rep& rep, Cycle window, unsigned nodes, clockid_t cpu_clock, RunFn&& run) {
  for (unsigned b = 0; b < kBlocks; ++b) {
    const Cycle cycles = window / kBlocks + (b + 1 == kBlocks ? window % kBlocks : 0);
    const double c0 = cpu_seconds(cpu_clock);
    const double w0 = now_ns();
    run(cycles);
    const double wall = (now_ns() - w0) / 1e9;
    rep.blocks.push_back(Block{wall, cpu_seconds(cpu_clock) - c0,
                               static_cast<std::uint64_t>(cycles) * nodes});
  }
}

// ---------------------------------------------------------------------------
// Per-layer tracing: in-memory spans, written as a Perfetto trace at exit
// ---------------------------------------------------------------------------

enum Track : unsigned {
  kTrackEngine = 1,
  kTrackSource,
  kTrackSwitch,
  kTrackSink,
  kTrackFabricBuild,
  kTrackFabricRun,
  kTrackProbe,
  kTrackCount,
};

const char* track_name(unsigned t) {
  switch (t) {
    case kTrackEngine: return "sim: Engine::step (sampled cycles)";
    case kTrackSource: return "traffic: CellSource::eval";
    case kTrackSwitch: return "core: PipelinedSwitch eval/commit";
    case kTrackSink: return "traffic: CellSink::eval";
    case kTrackFabricBuild: return "fabric: Fabric::build";
    case kTrackFabricRun: return "fabric: Fabric::run";
    case kTrackProbe: return "probes";
    default: return "?";
  }
}

class SpanLog {
 public:
  /// Span ids start at 1; 0 means "no parent".
  std::uint64_t reserve_id() { return next_id_++; }

  void add(std::uint64_t id, const char* name, unsigned track, double start_ns, double dur_ns,
           std::uint64_t parent = 0, const char* workload = "") {
    if (spans_.size() >= kMaxSpans) {
      ++dropped_;
      return;
    }
    spans_.push_back(Span{id, parent, name, workload, track, start_ns, dur_ns});
  }
  void add(const char* name, unsigned track, double start_ns, double dur_ns,
           const char* workload = "") {
    add(reserve_id(), name, track, start_ns, dur_ns, 0, workload);
  }

  std::size_t size() const { return spans_.size(); }
  std::uint64_t dropped() const { return dropped_; }

  /// Trace-event JSON (microsecond timestamps with sub-microsecond
  /// fractions: most component spans are shorter than 1 us, which the
  /// integer-timestamp obs::PerfettoTrace would round to zero). Spans of a
  /// track were recorded in start order, so per-track timestamps ascend.
  /// `metrics` go into the trace's "otherData" object.
  bool write(const std::string& path, const std::map<std::string, double>& metrics) const {
    obs::JsonWriter j;
    j.begin_object().key("otherData").begin_object();
    for (const auto& [name, value] : metrics) j.field(name, value);
    j.end_object().key("traceEvents").begin_array();
    for (unsigned t = 1; t < kTrackCount; ++t) {
      j.begin_object().field("ph", "M").field("pid", 1u).field("tid", t);
      j.field("name", "thread_name").key("args").begin_object();
      j.field("name", track_name(t)).end_object().end_object();
    }
    for (const Span& s : spans_) {
      j.begin_object().field("ph", "X").field("pid", 1u).field("tid", s.track);
      j.field("name", s.name).field("ts", s.start_ns / 1e3).field("dur", s.dur_ns / 1e3);
      j.key("args").begin_object().field("id", s.id).field("parent", s.parent);
      if (*s.workload != '\0') j.field("workload", s.workload);
      j.end_object().end_object();
    }
    j.end_array().end_object();
    std::ofstream out(path);
    out << j.str() << '\n';
    return static_cast<bool>(out);
  }

 private:
  static constexpr std::size_t kMaxSpans = 60000;
  struct Span {
    std::uint64_t id;
    std::uint64_t parent;
    const char* name;
    const char* workload;
    unsigned track;
    double start_ns;
    double dur_ns;
  };
  std::vector<Span> spans_;
  std::uint64_t next_id_ = 1;
  std::uint64_t dropped_ = 0;
};

/// Layers timed inside the single-switch Engine.
enum Layer : unsigned { kSource, kSwitchEval, kSwitchCommit, kSink, kLayerCount };

/// Shared by the forwarding wrappers of one traced Engine: while `sampling`
/// is set, every wrapped eval/commit is timed and logged as a child span of
/// the current Engine::step span.
struct LayerTracer {
  SpanLog* log = nullptr;
  const char* workload = "";
  bool sampling = false;
  std::uint64_t step_span = 0;
  double layer_ns[kLayerCount] = {};
  std::uint64_t sampled_cycles = 0;

  void record(Layer l, double start, double end) {
    static const char* const kNames[kLayerCount] = {"CellSource::eval", "PipelinedSwitch::eval",
                                                    "PipelinedSwitch::commit", "CellSink::eval"};
    static const unsigned kTracks[kLayerCount] = {kTrackSource, kTrackSwitch, kTrackSwitch,
                                                  kTrackSink};
    layer_ns[l] += end - start;
    log->add(log->reserve_id(), kNames[l], kTracks[l], start, end - start, step_span, workload);
  }
};

/// One layer's components (all sources, the switch, or all sinks) behind
/// one forwarding Component, timed as one span per eval/commit while the
/// tracer samples. Grouping keeps the clock reads per sampled cycle few:
/// one span per source would cost more than the source's own eval.
class LayerGroup final : public Component {
 public:
  LayerGroup(std::vector<Component*> parts, Layer eval_layer, Layer commit_layer,
             LayerTracer* tr)
      : parts_(std::move(parts)), eval_layer_(eval_layer), commit_layer_(commit_layer), tr_(tr) {
    for (Component* c : parts_)
      if (c->has_commit()) committers_.push_back(c);
  }

  void eval(Cycle t) override {
    if (!tr_->sampling) {
      for (Component* c : parts_) c->eval(t);
      return;
    }
    const double s = now_ns();
    for (Component* c : parts_) c->eval(t);
    tr_->record(eval_layer_, s, now_ns());
  }
  void commit(Cycle t) override {
    if (!tr_->sampling) {
      for (Component* c : committers_) c->commit(t);
      return;
    }
    const double s = now_ns();
    for (Component* c : committers_) c->commit(t);
    tr_->record(commit_layer_, s, now_ns());
  }
  bool has_commit() const override { return !committers_.empty(); }
  bool is_quiescent(Cycle t) const override {
    return std::all_of(parts_.begin(), parts_.end(),
                       [t](const Component* c) { return c->is_quiescent(t); });
  }
  Cycle next_wake(Cycle t) const override {
    Cycle wake = kNeverWake;
    for (const Component* c : parts_) wake = std::min(wake, c->next_wake(t));
    return wake;
  }
  void skip(Cycle t, Cycle n) override {
    for (Component* c : parts_) c->skip(t, n);
  }
  std::string name() const override { return parts_.front()->name(); }

 private:
  std::vector<Component*> parts_;
  std::vector<Component*> committers_;
  Layer eval_layer_;
  Layer commit_layer_;
  LayerTracer* tr_;
};

/// Engine::step() with every wrapped component timed; the step itself is
/// the parent span.
void sampled_step(Engine& eng, LayerTracer& tr) {
  tr.step_span = tr.log->reserve_id();
  tr.sampling = true;
  const double s = now_ns();
  eng.step();
  const double e = now_ns();
  tr.sampling = false;
  ++tr.sampled_cycles;
  tr.log->add(tr.step_span, "Engine::step", kTrackEngine, s, e - s, 0, tr.workload);
}

/// What an empty span measures: about one clock read, included in every
/// span's duration.
double empty_span_ns() {
  constexpr int kIters = 20000;
  double total = 0;
  for (int i = 0; i < kIters; ++i) {
    const double s = now_ns();
    total += now_ns() - s;
  }
  return total / kIters;
}

// ---------------------------------------------------------------------------
// Single-switch harness
// ---------------------------------------------------------------------------

/// One switch, a CellSource per input and a CellSink per output on one
/// Engine: the composition and seeding of core/testbench.hpp's Testbench
/// with uniform destinations, so its results equal a PipelinedTestbench's.
/// With a tracer, each layer is added through one LayerGroup.
template <typename SwitchT>
class Harness {
 public:
  Harness(const SwitchConfig& cfg, ArrivalKind arrivals, double load, std::uint64_t seed,
          LayerTracer* tracer = nullptr)
      : sw_(cfg), dests_(cfg.n_ports) {
    Rng seeder(seed);
    const CellFormat fmt = cfg.cell_format();
    for (unsigned i = 0; i < cfg.n_ports; ++i)
      sources_.push_back(std::make_unique<CellSource>(i, &sw_.in_link(i), fmt, &dests_,
                                                      arrivals, load, seeder.split()));
    for (unsigned o = 0; o < cfg.n_ports; ++o)
      sinks_.push_back(std::make_unique<CellSink>(o, &sw_.out_link(o), fmt));
    std::vector<Component*> sources, sinks;
    for (auto& s : sources_) sources.push_back(s.get());
    for (auto& s : sinks_) sinks.push_back(s.get());
    add(std::move(sources), kSource, kSource, tracer);
    add({&sw_}, kSwitchEval, kSwitchCommit, tracer);
    add(std::move(sinks), kSink, kSink, tracer);
  }

  SwitchT& sw() { return sw_; }
  Engine& engine() { return engine_; }

  std::uint64_t injected() const {
    std::uint64_t n = 0;
    for (const auto& s : sources_) n += s->cells_injected();
    return n;
  }
  std::uint64_t delivered() const {
    std::uint64_t n = 0;
    for (const auto& s : sinks_) n += s->cells_delivered();
    return n;
  }

  /// Stop the sources and run until the switch is empty and the last words
  /// reached the sinks. False if it did not drain.
  bool drain() {
    for (auto& s : sources_) s->set_enabled(false);
    const bool ok = engine_.run_until([&](Cycle) { return sw_.drained(); }, 200000);
    if (ok) engine_.run(4 * sw_.config().n_ports + 8);
    return ok;
  }

 private:
  void add(std::vector<Component*> parts, Layer eval_layer, Layer commit_layer,
           LayerTracer* tracer) {
    if (tracer == nullptr) {
      for (Component* c : parts) engine_.add(c);
      return;
    }
    groups_.push_back(
        std::make_unique<LayerGroup>(std::move(parts), eval_layer, commit_layer, tracer));
    engine_.add(groups_.back().get());
  }

  SwitchT sw_;
  UniformDest dests_;
  std::vector<std::unique_ptr<CellSource>> sources_;
  std::vector<std::unique_ptr<CellSink>> sinks_;
  std::vector<std::unique_ptr<LayerGroup>> groups_;
  Engine engine_;
};

using SwitchHarness = Harness<PipelinedSwitch>;

std::unique_ptr<SwitchHarness> make_switch16(std::uint64_t seed, LayerTracer* tracer = nullptr) {
  return std::make_unique<SwitchHarness>(switch16_config(), ArrivalKind::kSaturated, 1.0, seed,
                                         tracer);
}

/// Delivery digest of a single switch: an order-sensitive mix of every read
/// grant's (output, input, head arrival, grant cycle). (input, head arrival)
/// names one cell, so this digests which cells left through which output
/// and when.
class GrantDigest {
 public:
  explicit GrantDigest(EventHub& hub) {
    SwitchEvents ev;
    ev.on_read_grant = [this](unsigned out, unsigned in, Cycle tr, Cycle, Cycle a0, bool) {
      value_ = mix64(value_ ^ mix64((static_cast<std::uint64_t>(out) << 48) ^
                                    (static_cast<std::uint64_t>(in) << 32) ^ a0) ^
                     (tr * 0x9e3779b97f4a7c15ULL));
    };
    sub_ = hub.subscribe(std::move(ev));
  }
  std::uint64_t value() const { return value_; }

 private:
  std::uint64_t value_ = 0;
  Subscription sub_;
};

Rep run_switch_rep(const Workload& w, std::uint64_t seed) {
  Rep rep;
  auto h = make_switch16(seed);

  const SwitchConfig& cfg = h->sw().config();
  obs::FlightRecorderConfig fcfg;
  fcfg.warmup = w.warmup;
  obs::FlightRecorder flight(cfg.n_ports, cfg.cell_words, fcfg);
  flight.attach(h->sw().events());
  GrantDigest digest(h->sw().events());

  h->engine().run(w.warmup);
  const std::uint64_t inj0 = h->injected(), del0 = h->delivered();
  const std::uint64_t drop0 = h->sw().stats().dropped();

  time_window(rep, w.window, 1, CLOCK_THREAD_CPUTIME_ID, [&](Cycle c) { h->engine().run(c); });

  SimResult& r = rep.sim;
  r.digest = digest.value();
  r.injected = h->injected();
  r.delivered = h->delivered();
  r.dropped = h->sw().stats().dropped();
  r.in_network = r.injected - r.delivered - r.dropped;
  r.throughput = static_cast<double>(r.delivered - del0) / cfg.n_ports /
                 static_cast<double>(w.window);
  r.window_injected = r.injected - inj0;
  r.window_dropped = r.dropped - drop0;
  rep.window_latency = flight.stage(obs::FlightStage::kTotal);
  r.latency = summarize(rep.window_latency);
  r.check_common();
  r.check(r.injected >= r.delivered + r.dropped, "more cells left than entered");

  // Conservation: once drained, every injected cell was delivered or dropped.
  r.check(h->drain(), "switch did not drain");
  r.check(h->injected() == h->delivered() + h->sw().stats().dropped(),
          "injected != delivered + dropped after drain");
  return rep;
}

/// The switch's verification pass: the program's own Testbench with the
/// scoreboard (payload integrity, per-pair FIFO order, conservation) and the
/// invariant checker attached, over the same cycles as a rep. It must
/// deliver exactly as many cells as the benchmark's harness does.
std::string scoreboard_pass(const Workload& w, std::uint64_t seed) {
  const SimResult harness = run_switch_rep(w, seed).sim;
  if (!harness.failure.empty()) return "harness: " + harness.failure;
  const SwitchConfig cfg = switch16_config();
  TrafficSpec spec;
  spec.arrivals = ArrivalKind::kSaturated;
  spec.load = 1.0;
  spec.seed = seed;
  PipelinedTestbench tb(cfg, cfg.n_ports, cfg.cell_format(), spec, /*with_scoreboard=*/true);
  const check::InvariantChecker& checker = tb.attach_checker();
  tb.run(w.warmup + w.window);
  if (tb.delivered() != harness.delivered)
    return "scoreboard testbench delivered " + std::to_string(tb.delivered()) +
           " cells, harness " + std::to_string(harness.delivered);
  if (!tb.drain()) return "scoreboard testbench did not drain";
  if (!tb.scoreboard().ok()) return "scoreboard: " + tb.scoreboard().errors().front();
  if (!tb.scoreboard().fully_drained()) return "scoreboard: cells outstanding after drain";
  if (!checker.ok()) return "invariant checker: " + checker.violations().front().message;
  return "";
}

// ---------------------------------------------------------------------------
// Fabric workloads
// ---------------------------------------------------------------------------

std::unique_ptr<fabric::Fabric> build_fabric(const fabric::FabricConfig& cfg) {
  return fabric::Fabric::build(cfg.topo, cfg);
}

Rep run_fabric_rep(const Workload& w, std::uint64_t seed) {
  Rep rep;
  const fabric::FabricConfig cfg = fabric_config(w, seed, kWorkers);
  const auto fab = build_fabric(cfg);

  fab->run(w.warmup);
  const fabric::FabricStats s0 = fab->stats();
  time_window(rep, w.window, fab->nodes(), CLOCK_PROCESS_CPUTIME_ID,
              [&](Cycle c) { fab->run(c); });

  const fabric::FabricStats s1 = fab->stats();
  SimResult& r = rep.sim;
  r.digest = s1.uid_digest;
  r.injected = s1.injected;
  r.delivered = s1.delivered;
  r.dropped = s1.dropped();
  r.backlog = s1.backlog;
  r.in_network = s1.in_network;
  r.payload_errors = s1.payload_errors;
  const std::uint64_t units = fab->wormhole() ? s1.flits_delivered - s0.flits_delivered
                                              : s1.delivered - s0.delivered;
  r.throughput = static_cast<double>(units) / w.topo.endpoints() /
                 static_cast<double>(w.window);
  r.window_injected = s1.injected - s0.injected;
  r.window_dropped = s1.dropped() - s0.dropped();
  rep.window_latency = window_of(s1.latency, s0.latency);
  r.latency = summarize(rep.window_latency);
  r.check_common();
  return rep;
}

// FabricStats derives in_network as injected minus everything accounted
// elsewhere, so the fabric's own totals always balance. The audits below
// count the cells (flits) inside the network from each node's public state
// instead and hold the totals against them.

std::string audit_failure(unsigned node, const std::string& what) {
  return "node " + std::to_string(node) + ": " + what;
}

/// Cell fabric. Per node, exactly: every head seen was accepted, dropped or
/// is pending, and every accepted cell departed or is queued. Fabric-wide:
/// the drop counts agree, and the cells between nodes -- departed but not
/// yet received whole (`out`), or relayed/injected but not yet seen as a
/// head (`in`) -- are never negative and never more than the wires hold.
std::string audit_cells(const fabric::Fabric& fab) {
  const fabric::FabricConfig& cfg = fab.config();
  const fabric::FabricStats st = fab.stats();
  std::int64_t heads = 0, departed = 0, dropped = 0;
  for (unsigned i = 0; i < fab.nodes(); ++i) {
    const bool fast = fab.node_is_fast(i);
    const SwitchStats& s = fast ? fab.node_fast_switch(i).stats() : fab.node_switch(i).stats();
    const std::uint64_t pending = fast ? 0 : fab.node_switch(i).pending_cells();
    const std::uint64_t queued =
        fast ? fab.node_fast_switch(i).queued_cells() : fab.node_switch(i).queued_cells();
    if (s.heads_seen != s.accepted + s.dropped() + pending)
      return audit_failure(i, "heads seen != accepted + dropped + pending");
    if (s.accepted != s.read_grants + queued)
      return audit_failure(i, "accepted != departed + queued");
    heads += static_cast<std::int64_t>(s.heads_seen);
    departed += static_cast<std::int64_t>(s.read_grants);
    dropped += static_cast<std::int64_t>(s.dropped());
  }
  if (dropped != static_cast<std::int64_t>(st.dropped()))
    return "fabric drops " + std::to_string(st.dropped()) + " != node drops " +
           std::to_string(dropped);
  std::int64_t relayed = 0;
  for (const fabric::ShardTelemetry& sh : fab.shard_telemetry())
    relayed += static_cast<std::int64_t>(sh.cells_relayed);
  std::int64_t links = 0;
  for (unsigned v = 0; v < fab.nodes(); ++v)
    for (unsigned p = 0; p < cfg.node.n_ports; ++p)
      links += cfg.topo.neighbor(v, p) >= 0 ? 1 : 0;
  // A link carries one cell per L cycles (the output stagger), and a cell
  // is on it from its read grant until its tail is through the D link
  // stages and reassembled: at most 2n + L + D + 2 cycles. A bridge holds
  // a staged cell, a transit queue of at most 4 and one cell in
  // transmission, with one more on its wire to the switch.
  const std::int64_t L = cfg.node.cell_words;
  const std::int64_t on_link = 2 * cfg.node.n_ports + L + cfg.link_pipe_stages + 2;
  const std::int64_t out_cap = (on_link + L - 1) / L + 1;
  const std::int64_t in_cap = 7;
  const std::int64_t out = departed - static_cast<std::int64_t>(st.delivered) - relayed;
  const std::int64_t in =
      relayed + static_cast<std::int64_t>(st.injected - st.backlog) - heads;
  if (out < 0 || out > links * out_cap)
    return "cells between a departure and the next node: " + std::to_string(out) +
           ", wires hold 0.." + std::to_string(links * out_cap);
  if (in < 0 || in > links * in_cap)
    return "cells between a bridge and its switch: " + std::to_string(in) +
           ", bridges hold 0.." + std::to_string(links * in_cap);
  return "";
}

/// Wormhole fabric: lossless, and every flit a source sent is delivered,
/// held in a router's lane buffer or on a link lane, which its credits
/// bound. FabricStats counts whole messages: those still queued or being
/// sent are its backlog, so up to one message per source lane is partly
/// sent.
std::string audit_flits(const fabric::Fabric& fab) {
  const fabric::FabricConfig& cfg = fab.config();
  const fabric::FabricStats st = fab.stats();
  if (st.dropped() != 0) return "a lossless wormhole fabric dropped messages";
  if (st.delivered > st.injected - st.backlog)
    return "more messages delivered than sources finished sending";
  std::int64_t held = 0, links = 0;
  for (unsigned i = 0; i < fab.nodes(); ++i) {
    held += static_cast<std::int64_t>(fab.node_router(i).flits_held());
    for (unsigned p = 0; p < cfg.topo.required_ports(); ++p)
      links += cfg.topo.neighbor(i, p) >= 0 ? 1 : 0;
  }
  const std::int64_t mf = cfg.message_flits;
  const std::int64_t endpoints = cfg.topo.endpoints();
  // Flits of fully sent messages, less those delivered or in a router
  // buffer: flits on links (counting the ejection links, a lane's credits
  // each) minus the flits of partly sent messages.
  const std::int64_t sent = mf * static_cast<std::int64_t>(st.injected - st.backlog);
  const std::int64_t rest = sent - static_cast<std::int64_t>(st.flits_delivered) - held;
  const std::int64_t partly = endpoints * cfg.lanes * (mf - 1);
  const std::int64_t on_links = (links + endpoints) * cfg.buffer_flits;
  if (rest < -partly || rest > on_links)
    return "flits sent but neither delivered nor buffered: " + std::to_string(rest) +
           ", expected " + std::to_string(-partly) + ".." + std::to_string(on_links);
  return "";
}

/// A fabric's verification pass: a rep's cycles in 16 chunks, audited after
/// each; the sparse torus audits a shorter run, since the invariant checkers
/// keep every node stepping.
std::string fabric_pass(const Workload& w, std::uint64_t seed) {
  const auto fab = build_fabric(fabric_config(w, seed, kWorkers));
  const Cycle total = w.warmup + std::min<Cycle>(w.window, 100000);
  const Cycle chunk = total / 16;
  for (Cycle done = 0; done < total; done += chunk) {
    fab->run(std::min(chunk, total - done));
    const std::string why = fab->wormhole() ? audit_flits(*fab) : audit_cells(*fab);
    if (!why.empty()) return "cycle " + std::to_string(fab->now()) + ": " + why;
  }
  const fabric::FabricStats st = fab->stats();
  if (st.delivered == 0) return "nothing delivered";
  if (st.payload_errors != 0) return "payload errors: " + std::to_string(st.payload_errors);
  return "";
}

/// Set-up time alone: construct and destroy without simulating.
double setup_only(const Workload& w, std::uint64_t seed) {
  const double t0 = now_ns();
  if (w.fabric) {
    const auto fab = build_fabric(fabric_config(w, seed, kWorkers));
    return (now_ns() - t0) / 1e9;
  }
  const auto h = make_switch16(seed);
  return (now_ns() - t0) / 1e9;
}

// ---------------------------------------------------------------------------
// Traced passes
// ---------------------------------------------------------------------------

/// Sample one cycle in this many (timing every component in every cycle
/// doubles the cycle time).
constexpr Cycle kSampleEvery = 32;

using LayerValues = std::map<std::string, double>;

/// The single switch with each layer wrapped; returns the per-layer values
/// it measures and the untraced/traced rate ratio.
LayerValues trace_switch(const Workload& w, std::uint64_t seed, SpanLog& log,
                         double empty_span) {
  LayerTracer tr;
  tr.log = &log;
  tr.workload = w.name;
  auto h = make_switch16(seed, &tr);
  h->engine().run(w.warmup);
  const SwitchStats st0 = h->sw().stats();
  // The unsampled cycles between samples are timed as well, interleaved
  // with the samples, as the cycle time the child spans are taken from.
  double unsampled_ns = 0;
  Cycle unsampled = 0;
  const double t0 = now_ns();
  for (Cycle c = 0; c < w.window; c += kSampleEvery) {
    sampled_step(h->engine(), tr);
    const double s = now_ns();
    h->engine().run(kSampleEvery - 1);
    unsampled_ns += now_ns() - s;
    unsampled += kSampleEvery - 1;
  }
  const double traced_ns = now_ns() - t0;
  const Cycle cycles = h->engine().now() - w.warmup;
  const SwitchStats& st1 = h->sw().stats();

  // The same window untraced, for the tracing overhead.
  auto plain = make_switch16(seed);
  plain->engine().run(w.warmup);
  const double u0 = now_ns();
  plain->engine().run(cycles);
  const double untraced_ns = now_ns() - u0;

  // Every child span measured its body plus about one clock read.
  const double n = static_cast<double>(tr.sampled_cycles);
  auto layer = [&](Layer l) { return tr.layer_ns[l] / n - empty_span; };
  const double eval = layer(kSwitchEval);
  const double commit = layer(kSwitchCommit);
  const double children = layer(kSource) + eval + commit + layer(kSink);
  const double dc = static_cast<double>(st1.cycles - st0.cycles);
  const double initiations = dc - static_cast<double>(st1.idle_cycles - st0.idle_cycles);
  const double heads = static_cast<double>(st1.heads_seen - st0.heads_seen);

  LayerValues v;
  v["core.switch_eval_ns_per_cycle"] = eval;
  v["core.switch_commit_ns_per_cycle"] = commit;
  v["core.ns_per_initiation"] = (eval + commit) * dc / initiations;
  v["core.admit_ratio"] = static_cast<double>(st1.accepted - st0.accepted) / heads;
  v["core.read_stall_ratio"] =
      static_cast<double>(st1.read_stall_cycles - st0.read_stall_cycles) / dc;
  v["traffic.source_ns_per_cycle"] = layer(kSource);
  v["traffic.sink_ns_per_cycle"] = layer(kSink);
  v["sim.engine_self_ns_per_cycle"] =
      unsampled_ns / static_cast<double>(unsampled) - children;
  v["trace.ncs_ratio"] = untraced_ns / traced_ns;
  return v;
}

/// Untraced ns per cycle of a standalone n=4 switch (the torus node
/// geometry) under uniform load 0.6: the median of five timed blocks.
template <typename SwitchT>
double probe4_ns_per_cycle(std::uint64_t seed, SpanLog& log, const char* label) {
  Harness<SwitchT> h(SwitchConfig::for_ports(4), ArrivalKind::kGeometric, 0.6, seed);
  constexpr Cycle kBlock = 40000;
  h.engine().run(1000);
  std::vector<double> per_cycle;
  for (int i = 0; i < 5; ++i) {
    const double s = now_ns();
    h.engine().run(kBlock);
    const double e = now_ns();
    log.add(label, kTrackProbe, s, e - s);
    per_cycle.push_back((e - s) / kBlock);
  }
  return median(per_cycle);
}

struct FabricTrace {
  LayerValues values;
  std::string failure;  ///< Non-empty when the 1-worker rerun diverged.
};

/// A fabric workload run in chunks (one span per Fabric::run call), then
/// untraced at kWorkers and at 1 worker. The 1-worker digest must equal the
/// traced one.
FabricTrace trace_fabric(const Workload& w, std::uint64_t seed, SpanLog& log,
                         Cycle window) {
  const Cycle total = w.warmup + window;
  const fabric::FabricConfig cfg = fabric_config(w, seed, kWorkers);
  double s = now_ns();
  const auto fab = build_fabric(cfg);
  log.add("Fabric::build", kTrackFabricBuild, s, now_ns() - s, w.name);
  const Cycle chunk = std::max<Cycle>(total / 32, 1);
  const double t0 = now_ns();
  for (Cycle done = 0; done < total;) {
    const Cycle step = std::min(chunk, total - done);
    s = now_ns();
    fab->run(step);
    log.add("Fabric::run (chunk)", kTrackFabricRun, s, now_ns() - s, w.name);
    done += step;
  }
  const double traced_ns = now_ns() - t0;
  const double node_cycles = static_cast<double>(total) * fab->nodes();

  std::uint64_t active = 0, wait = 0, rounds = 0, relayed = 0;
  const std::vector<fabric::ShardTelemetry> shards = fab->shard_telemetry();
  for (const fabric::ShardTelemetry& sh : shards) {
    active += sh.active_ns;
    wait += sh.barrier_wait_ns + sh.blocked_on_empty_ns + sh.blocked_on_full_ns;
    rounds += sh.rounds;
    relayed += sh.cells_relayed;
  }
  const double rounds_per_shard = static_cast<double>(rounds) / shards.size();
  // Skipped and stepped work in node-chunks under either engine: a barrier
  // round (skipped or stepped by a shard) covers every node of the fabric
  // (or shard); a dataflow skip or stepped round covers one node.
  const bool barrier = fab->engine() == fabric::FabricEngine::kBarrier;
  double stepped = 0;
  for (const fabric::ShardTelemetry& sh : shards)
    stepped += static_cast<double>(sh.rounds) * (barrier ? sh.nodes : 1);
  const double skipped =
      static_cast<double>(fab->rounds_skipped()) * (barrier ? fab->nodes() : 1);

  FabricTrace out;
  LayerValues& v = out.values;
  v["fabric.active_ns_per_node_cycle"] = active / node_cycles;
  v["sync.wait_share"] = static_cast<double>(wait) / static_cast<double>(active + wait);
  v["sync.rounds_per_cycle"] = rounds_per_shard / static_cast<double>(total);
  v["sync.wait_ns_per_round"] = static_cast<double>(wait) / static_cast<double>(rounds);
  v["sync.steals"] = static_cast<double>(fab->scheduler_stats().steals);
  v["sim.skip_ratio"] = skipped / (skipped + stepped);
  if (fab->wormhole()) {
    std::uint64_t flits = 0;
    for (unsigned i = 0; i < fab->nodes(); ++i) flits += fab->node_router(i).flits_forwarded();
    v["fabric.worm_ns_per_flit"] = static_cast<double>(active) / static_cast<double>(flits);
  } else {
    v["fabric.cells_relayed_per_node_cycle"] = relayed / node_cycles;
    std::uint64_t heads = 0, accepted = 0, stalls = 0, cycles = 0;
    for (unsigned i = 0; i < fab->nodes(); ++i) {
      if (fab->node_is_fast(i)) continue;
      const SwitchStats& st = fab->node_switch(i).stats();
      heads += st.heads_seen;
      accepted += st.accepted;
      stalls += st.read_stall_cycles;
      cycles += st.cycles;
    }
    if (heads > 0) v["core.admit_ratio"] = static_cast<double>(accepted) / heads;
    v["core.read_stall_ratio"] = static_cast<double>(stalls) / static_cast<double>(cycles);
  }
  const std::uint64_t digest = fab->stats().uid_digest;

  auto timed_run = [&](unsigned threads, const char* name, std::uint64_t* digest_out) {
    const auto f = build_fabric(fabric_config(w, seed, threads));
    const double b = now_ns();
    f->run(total);
    const double e = now_ns();
    log.add(name, kTrackFabricRun, b, e - b, w.name);
    *digest_out = f->stats().uid_digest;
    return node_cycles / (e - b);
  };
  std::uint64_t d_untraced = 0, d_one = 0;
  const double rate_untraced = timed_run(kWorkers, "Fabric::run (untraced)", &d_untraced);
  const double rate_one = timed_run(1, "Fabric::run (1 worker)", &d_one);
  v["sync.parallel_efficiency"] = rate_untraced / (kWorkers * rate_one);
  v["trace.ncs_ratio"] = (node_cycles / traced_ns) / rate_untraced;
  if (d_one != digest || d_untraced != digest)
    out.failure = std::string(w.name) + ": digests differ: traced " + hex(digest) +
                  ", untraced " + hex(d_untraced) + ", 1 worker " + hex(d_one);
  return out;
}

// ---------------------------------------------------------------------------
// Output
// ---------------------------------------------------------------------------

void write_build(obs::JsonWriter& j) {
  j.key("build").begin_object();
  j.field("compiler", obs::build_compiler()).field("flags", obs::build_flags());
  j.field("git_sha", obs::build_git_sha()).end_object();
}

void write_sim(obs::JsonWriter& j, const char* key, const SimResult& r) {
  j.key(key).begin_object();
  j.field("digest", hex(r.digest)).field("injected", r.injected);
  j.field("delivered", r.delivered).field("dropped", r.dropped);
  j.field("backlog", r.backlog).field("in_network", r.in_network);
  j.field("payload_errors", r.payload_errors);
  j.field("throughput", r.throughput).field("loss", r.loss());
  j.field("latency_samples", r.latency.samples).field("p50", r.latency.p50);
  j.field("p99", r.latency.p99).field("beyond_p99", r.latency.beyond_p99);
  j.field("failure", r.failure).end_object();
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool verify = false;
  std::string trace_out = "perfbench_trace.json";
};

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload NAME --seed N --seconds S --trace 0|1 "
               "[--trace-out PATH] [--verify 0|1]\nworkloads:");
  for (const Workload& w : kWorkloads) std::fprintf(stderr, " %s", w.name);
  std::fprintf(stderr, "\n");
  return 2;
}

/// The realizations' results as one: counts summed, latency histograms
/// merged, digests mixed in realization order.
SimResult pool(const std::vector<const Rep*>& reps, const Workload& w) {
  SimResult p;
  HdrHistogram latency;
  double throughput = 0;
  for (const Rep* r : reps) {
    const SimResult& s = r->sim;
    p.digest = mix64(p.digest ^ s.digest);
    p.injected += s.injected;
    p.delivered += s.delivered;
    p.dropped += s.dropped;
    p.backlog += s.backlog;
    p.in_network += s.in_network;
    p.payload_errors += s.payload_errors;
    p.window_injected += s.window_injected;
    p.window_dropped += s.window_dropped;
    throughput += s.throughput;
    latency.merge(r->window_latency);
    p.check(s.failure.empty(), "realization " + std::to_string(r->realization) + ": " + s.failure);
  }
  p.throughput = throughput / static_cast<double>(reps.size());
  p.latency = summarize(latency);
  p.check(p.latency.beyond_p99 >= 10,
          std::string(w.name) + ": fewer than 10 latency samples beyond p99");
  return p;
}

/// Untraced run: reps until the time budget is spent, at least one per
/// realization; rep i simulates realization i mod R, and a repeated
/// realization must reproduce its first rep exactly.
///
/// The single switch runs kWorkers reps at a time, one single-threaded
/// simulation per thread (as the repository's sweep runner runs
/// independent switch simulations). Interference from the host's other
/// tenants drifts over minutes and hit a lone thread's rate by up to 40%;
/// spread over every core, the per-simulation rate repeats far better.
int run_untraced(const Workload& w, const Args& a) {
  // Set-up is short (tens of microseconds to a millisecond), so it is timed
  // on its own, one set-up at a time, many times; first, while the heap is
  // in the same state in every run.
  std::vector<double> setup;
  for (int i = 0; i < 101; ++i) setup.push_back(setup_only(w, a.seed));

  const double deadline = now_ns() + a.seconds * 1e9;
  const unsigned batch = w.fabric ? 1 : kWorkers;
  std::vector<Rep> reps;
  do {
    const std::size_t first = reps.size();
    reps.resize(first + batch);
    std::vector<std::thread> threads;
    for (std::size_t i = first; i < reps.size(); ++i) {
      const auto r = static_cast<unsigned>(i % w.realizations);
      const std::uint64_t seed = realization_seed(a.seed, r);
      if (w.fabric) {
        reps[i] = run_fabric_rep(w, seed);
      } else {
        threads.emplace_back([&reps, &w, i, seed] { reps[i] = run_switch_rep(w, seed); });
      }
    }
    for (std::thread& t : threads) t.join();
    for (std::size_t i = first; i < reps.size(); ++i) {
      Rep& rep = reps[i];
      rep.realization = static_cast<unsigned>(i % w.realizations);
      if (i >= w.realizations) {
        // Only the first pass is pooled. Free the repeat's histogram, so
        // that memory does not grow with the number of reps.
        [[maybe_unused]] const HdrHistogram freed = std::move(rep.window_latency);
        if (!rep.sim.same_outcome(reps[i - w.realizations].sim))
          rep.sim.check(false, "differs from the earlier rep of the same realization");
      }
    }
  } while (reps.size() < w.realizations || now_ns() < deadline);
  const double rss = peak_rss_mib();  // Before the verification pass below.

  std::vector<const Rep*> first_pass;
  for (unsigned r = 0; r < w.realizations; ++r) first_pass.push_back(&reps[r]);
  const SimResult pooled = pool(first_pass, w);


  obs::JsonWriter j;
  j.begin_object().field("workload", w.name).field("seed", a.seed).field("trace", false);
  j.field("workers", w.fabric ? kWorkers : 1u).field("realizations", w.realizations);
  write_build(j);
  j.key("reps").begin_array();
  for (const Rep& r : reps) {
    j.begin_object().field("realization", r.realization);
    j.key("blocks").begin_array();
    for (const Block& b : r.blocks) {
      j.begin_object().field("wall_s", b.wall_s).field("cpu_s", b.cpu_s);
      j.field("node_cycles", b.node_cycles).end_object();
    }
    j.end_array();
    write_sim(j, "sim", r.sim);
    j.end_object();
  }
  j.end_array();
  write_sim(j, "pooled", pooled);
  j.key("setup_samples").begin_array();
  for (double s : setup) j.value(s);
  j.end_array();
  j.field("peak_rss_mib", rss).end_object();
  std::printf("%s\n", j.str().c_str());
  return 0;
}

/// The untimed verification passes of realization 0.
int run_verify(const Workload& w, const Args& a) {
  const char* name = w.fabric ? "fabric audit pass" : "scoreboard pass";
  const std::string failure = w.fabric ? fabric_pass(w, a.seed) : scoreboard_pass(w, a.seed);
  obs::JsonWriter j;
  j.begin_object().field("workload", w.name).field("seed", a.seed);
  j.key("verification").begin_array();
  j.begin_object().field("name", name).field("failure", failure).end_object();
  j.end_array().end_object();
  std::printf("%s\n", j.str().c_str());
  return 0;
}

/// Home workload of each per-layer metric: where it is measured when the
/// traced workload does not run that layer.
const char* home_of(const std::string& metric) {
  static const std::map<std::string, const char*> kHome = {
      {"fabric.active_ns_per_node_cycle", "torus8x8_uniform"},
      {"fabric.glue_ns_per_node_cycle", "torus8x8_uniform"},
      {"fabric.cells_relayed_per_node_cycle", "torus8x8_uniform"},
      {"fabric.worm_ns_per_flit", "banyan32_hotsenders"},
      {"sync.wait_share", "torus8x8_uniform"},
      {"sync.rounds_per_cycle", "banyan32_hotsenders"},
      {"sync.wait_ns_per_round", "banyan32_hotsenders"},
      {"sync.steals", "torus8x8_hotquad"},
      {"sync.parallel_efficiency", "torus8x8_uniform"},
      {"sim.skip_ratio", "torus8x8_sparse"},
  };
  const auto it = kHome.find(metric);
  return it == kHome.end() ? "switch16_saturated" : it->second;
}

/// Traced run: traced passes of the workload until the time budget is
/// spent (medians over passes), then one shorter pass of each other
/// workload that is the home of a metric this workload does not measure,
/// and the two n=4 probes.
int run_traced(const Workload& w, const Args& a) {
  static const char* const kMetrics[] = {
      "core.switch_eval_ns_per_cycle", "core.switch_commit_ns_per_cycle",
      "core.ns_per_initiation",        "core.admit_ratio",
      "core.read_stall_ratio",         "core.switch4_ns_per_cycle",
      "core.fast_switch4_ns_per_cycle", "traffic.source_ns_per_cycle",
      "traffic.sink_ns_per_cycle",     "sim.engine_self_ns_per_cycle",
      "sim.skip_ratio",                "fabric.active_ns_per_node_cycle",
      "fabric.glue_ns_per_node_cycle", "fabric.cells_relayed_per_node_cycle",
      "fabric.worm_ns_per_flit",       "sync.wait_share",
      "sync.rounds_per_cycle",         "sync.wait_ns_per_round",
      "sync.steals",                   "sync.parallel_efficiency",
      "trace.ncs_ratio",
  };
  SpanLog log;
  const double empty_span = empty_span_ns();
  std::vector<std::string> failures;

  // Per-layer values measured on each workload, as medians over passes.
  std::map<std::string, LayerValues> measured;
  auto run_pass = [&](const Workload& wl, Cycle window) {
    if (!wl.fabric) return trace_switch(wl, a.seed, log, empty_span);
    FabricTrace ft = trace_fabric(wl, a.seed, log, window);
    if (!ft.failure.empty()) failures.push_back(ft.failure);
    return ft.values;
  };

  const double deadline = now_ns() + a.seconds * 1e9;
  std::map<std::string, std::vector<double>> samples;
  unsigned passes = 0;
  do {
    for (const auto& [k, val] : run_pass(w, w.window)) samples[k].push_back(val);
    ++passes;
  } while (now_ns() < deadline);
  for (const auto& [k, vals] : samples) measured[w.name][k] = median(vals);

  std::map<std::string, double> values;
  std::map<std::string, std::string> source;
  const double switch4 = probe4_ns_per_cycle<PipelinedSwitch>(a.seed, log, "PipelinedSwitch n=4");
  const double fast4 = probe4_ns_per_cycle<FastSwitch>(a.seed, log, "FastSwitch n=4");
  values["core.switch4_ns_per_cycle"] = switch4;
  source["core.switch4_ns_per_cycle"] = "probe: PipelinedSwitch n=4, uniform 0.6";
  values["core.fast_switch4_ns_per_cycle"] = fast4;
  source["core.fast_switch4_ns_per_cycle"] = "probe: FastSwitch n=4, uniform 0.6";

  for (const char* m : kMetrics) {
    if (values.count(m) != 0) continue;
    const std::string name = m;
    if (name == "fabric.glue_ns_per_node_cycle") continue;  // Derived below.
    const LayerValues& own = measured[w.name];
    if (own.count(name) != 0) {
      values[name] = own.at(name);
      source[name] = w.name;
      continue;
    }
    const Workload& home = workload(home_of(name));
    if (measured.count(home.name) == 0)
      measured[home.name] = run_pass(home, std::max<Cycle>(home.window / 4, 1000));
    values[name] = measured[home.name].at(name);
    source[name] = std::string(home.name) + " (home pass)";
  }
  // Fabric glue (bridges, channels, injectors/ejectors) per node-cycle,
  // estimated as the dense torus's active time minus the standalone n=4
  // switch probe.
  {
    const Workload& uni = workload("torus8x8_uniform");
    if (measured.count(uni.name) == 0)
      measured[uni.name] = run_pass(uni, std::max<Cycle>(uni.window / 4, 1000));
    values["fabric.glue_ns_per_node_cycle"] =
        measured[uni.name].at("fabric.active_ns_per_node_cycle") - switch4;
    source["fabric.glue_ns_per_node_cycle"] =
        std::string(uni.name) + " active minus n=4 probe (estimate)";
  }

  const bool wrote = log.write(a.trace_out, values);
  if (!wrote) failures.push_back("could not write " + a.trace_out);

  obs::JsonWriter j;
  j.begin_object().field("workload", w.name).field("seed", a.seed).field("trace", true);
  j.field("workers", w.fabric ? kWorkers : 1u);
  write_build(j);
  j.field("passes", passes).field("empty_span_ns", empty_span);
  j.field("spans", static_cast<std::uint64_t>(log.size()));
  j.field("spans_dropped", log.dropped()).field("trace_file", a.trace_out);
  j.key("layers").begin_array();
  for (const char* m : kMetrics) {
    j.begin_object().field("name", m).field("value", values.at(m));
    j.field("source", source.at(m)).end_object();
  }
  j.end_array();
  j.key("failures").begin_array();
  for (const std::string& f : failures) j.value(f);
  j.end_array().end_object();
  std::printf("%s\n", j.str().c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (i + 1 >= argc) return usage();
    const char* v = argv[++i];
    if (k == "--workload") {
      a.workload = v;
    } else if (k == "--seed") {
      a.seed = std::strtoull(v, nullptr, 10);
    } else if (k == "--seconds") {
      a.seconds = std::atof(v);
    } else if (k == "--trace") {
      a.trace = std::strcmp(v, "0") != 0;
    } else if (k == "--verify") {
      a.verify = std::strcmp(v, "0") != 0;
    } else if (k == "--trace-out") {
      a.trace_out = v;
    } else {
      return usage();
    }
  }
  const Workload* w = find_workload(a.workload);
  if (w == nullptr || a.seconds <= 0) return usage();
  if (a.verify) return run_verify(*w, a);
  return a.trace ? run_traced(*w, a) : run_untraced(*w, a);
}
