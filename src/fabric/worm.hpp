// Flit-level wormhole transport for the 2D mesh and the multistage fabrics
// (banyan / omega / Clos): one WormRouter per mesh node or switching
// element, connected by the same channel queues the cell fabrics use -- a
// Ring<WormFlit> per link in the forward direction and a credit Ring of lane
// masks per link in the *reverse* direction.
//
// Transport model (the classic virtual-channel wormhole router [Dally90]):
//
//  * A message of `message_flits` flits streams head -> body -> tail. Only
//    the head carries routing state (the destination endpoint); a router
//    computes its output with a table-free rule: net::Topology::route_xy
//    (dimension order, kLocal at the destination) on a mesh, route_stage (a
//    single destination-digit test) on a multistage network.
//  * Each input port buffers flits in `lanes` virtual-channel FIFOs of
//    `lane_depth` flits each. A lane holds flits of at most one message at a
//    time from head to tail (per-lane contiguity), so a blocked message
//    stalls only its own lane while other lanes overtake it -- the whole
//    point of virtual channels on a blocking banyan.
//  * Each output has `lanes` outgoing virtual channels. VC allocation binds
//    an (input, lane) holding a head flit to a free output lane, at most one
//    new binding per output per cycle; switch arbitration then picks at most
//    one flit per output per cycle among its bound lanes (both round-robin
//    for fairness, or lowest-index for a deterministic worst case).
//  * Flow control is credit-based and lossless: an output lane starts with
//    `lane_depth` credits (the downstream FIFO's capacity), spends one per
//    flit sent, and regains one when the downstream router pops that flit
//    and pulses the credit back on the reverse ring. The credit round trip
//    is 2 * (delay + 1) cycles, so full-throughput streaming on one lane
//    needs lane_depth >= 2 * (delay + 1) -- worm fabrics default to
//    link_pipe_stages = 1 for that reason.
//  * The channel-dependency graph is acyclic, so wormhole deadlock cannot
//    arise: a multistage network is feed-forward (stage s only ever sends
//    to stage s + 1), and XY routing on a mesh never turns from Y back to X.
//    Lanes buy throughput under head-of-line blocking, not deadlock freedom.
//
// Per-cycle work scales with the lanes that hold something. Each (input,
// lane) FIFO is a ring of `lane_depth` slots in one flat array. A head is
// routed once, on reaching the front of its FIFO, and sets its lane's bit
// in the candidate mask cand_[out][in]; owned_[out] marks bound output
// lanes (its complement is the free-lane mask). Every round-robin pick --
// VC allocation, lane grant, switch arbitration, source lane pick and
// emission -- takes countr_zero of a mask rotated to its start, which
// visits lanes in the circular index order of a per-index scan
// (DESIGN.md "Wormhole fabrics").
//
// Endpoints sit on the extra kLocal port of every mesh node, or on the
// first-stage inputs / last-stage outputs of a multistage network. Each
// ingress owns a Source (Bernoulli message arrivals at
// `messages_per_cycle`, destination from a shared traffic::DestPattern,
// backlog queued losslessly). Injection is per lane, as in [Dally90]: the
// source streams one active message per lane and interleaves their flits
// round-robin at the 1-flit/cycle link rate, so a stalled message blocks
// only its own lane -- never the source. Each egress owns a Sink (per-lane
// reassembly, end-to-end payload verification, an order-sensitive delivery
// digest and an HDR latency histogram). Everything a router touches is
// either private or a single-writer ring, so the barrier and dataflow
// engines shard routers exactly like cell-fabric nodes.

#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "check/worm_invariants.hpp"
#include "common/rng.hpp"
#include "common/util.hpp"
#include "fabric/channel.hpp"
#include "net/topology.hpp"
#include "sim/engine.hpp"
#include "stats/hdr_histogram.hpp"
#include "traffic/generators.hpp"

namespace pmsb::fabric {

/// One flit on a link. `lane` is the virtual channel the flit
/// occupies on *this* link (rewritten per hop); `dest` is the destination
/// endpoint; `msg`/`seq` identify the flit within its message; `created` is
/// the message's arrival cycle at the source (for end-to-end latency).
struct WormFlit {
  bool head = false;
  bool tail = false;
  std::uint8_t lane = 0;
  std::uint16_t dest = 0;
  std::uint32_t seq = 0;
  std::uint64_t msg = 0;
  Cycle created = 0;
  Word data = 0;
};

using WormChannel = Ring<WormFlit>;
/// Reverse-direction credit return: bit l set = one credit for lane l of the
/// paired forward link. One entry aggregates every lane the downstream
/// router popped from in a cycle (a lane pops at most one flit per cycle,
/// so one bit per lane suffices); a cycle with no pop sends none.
using CreditChannel = Ring<std::uint32_t>;

/// Lane selection policy for VC allocation (and the switch arbiter).
enum class WormAlloc {
  kRoundRobin,   ///< Rotating priority per output -- fair under contention.
  kLowestIndex,  ///< Fixed priority -- simplest hardware, starvation-prone.
};

/// Deterministic payload word for flit `seq` of message `msg`; the sink
/// recomputes it for end-to-end verification.
inline Word worm_payload(std::uint64_t msg, std::uint32_t seq) {
  return mix64(msg + 0x9e3779b97f4a7c15ULL * (static_cast<std::uint64_t>(seq) + 1));
}

struct WormParams {
  unsigned lanes = 1;          ///< Virtual channels per port (1..32).
  unsigned lane_depth = 16;    ///< Flits of buffering per lane (= credits).
  unsigned message_flits = 8;  ///< Flits per message (head..tail).
  double messages_per_cycle = 0.0;  ///< Bernoulli arrival rate per endpoint.
  WormAlloc alloc = WormAlloc::kRoundRobin;
};

/// One mesh node or multistage switching element (see file comment).
class WormRouter : public Component {
 public:
  WormRouter(const net::Topology* topo, unsigned node, const WormParams& params,
             DestPattern* dests);

  // --- Wiring (fabric build time) ----------------------------------------
  /// Link input: flits arrive on `rx`, credits return on `credit_tx`.
  void connect_in(unsigned in_port, WormChannel* rx, CreditChannel* credit_tx);
  /// Link output: flits leave on `tx`, credits arrive on `credit_rx`.
  void connect_out(unsigned out_port, WormChannel* tx, CreditChannel* credit_rx);
  /// Ingress (kLocal on a mesh, a first-stage input otherwise): endpoint
  /// `endpoint` injects into `in_port`.
  void add_source(unsigned in_port, unsigned endpoint, Rng rng);
  /// Egress (kLocal on a mesh, a last-stage output otherwise): output
  /// `out_port` delivers to endpoint `endpoint`.
  void add_sink(unsigned out_port, unsigned endpoint);

  void eval(Cycle t) override;
  void commit(Cycle) override {}
  bool has_commit() const override { return false; }
  /// Quiescent when nothing is buffered, streaming, or bound. In-flight
  /// flits/credits live in the channels, which the fabric's skip planners
  /// check separately (ChannelBase::empty), exactly as for the cell fabrics.
  bool is_quiescent(Cycle t) const override;
  Cycle next_wake(Cycle t) const override;
  std::string name() const override;

  // --- Accounting (read at barriers / after the run) ---------------------
  struct SourceStats {
    std::uint64_t generated = 0;  ///< Messages created (arrival process).
    std::size_t backlog = 0;      ///< Messages queued, not yet streaming.
  };
  struct SinkStats {
    std::uint64_t delivered = 0;       ///< Complete messages (tail seen).
    std::uint64_t flits = 0;           ///< Flits delivered.
    std::uint64_t payload_errors = 0;  ///< End-to-end payload mismatches.
    std::uint64_t digest = 0;          ///< Order-sensitive delivery digest.
    std::uint64_t lat_sum = 0;
    const HdrHistogram* lat_hist = nullptr;
  };

  bool has_source(unsigned in_port) const { return sources_[in_port] != nullptr; }
  bool has_sink(unsigned out_port) const { return sinks_[out_port] != nullptr; }
  SourceStats source_stats(unsigned in_port) const;
  SinkStats sink_stats(unsigned out_port) const;

  /// Flits relayed onto router-to-router links (the telemetry work measure).
  std::uint64_t flits_forwarded() const { return flits_forwarded_; }
  /// Flits currently buffered across all lane FIFOs.
  std::uint64_t flits_held() const { return held_; }

 private:
  struct Source {
    unsigned in_port = 0;
    unsigned endpoint = 0;
    Rng rng{0};
    // Precomputed next arrival (same replay scheme as fabric::Injector, so
    // idle stretches between arrivals are skippable without disturbing the
    // RNG stream).
    Cycle next_arrival = 0;
    unsigned next_dest = 0;
    bool primed = false;
    std::uint64_t next_msg_seq = 0;
    std::uint64_t generated = 0;
    struct Pending {
      unsigned dest;
      std::uint64_t msg;
      Cycle created;
    };
    std::deque<Pending> backlog;
    // Streaming state: one active message per lane ([Dally90] per-lane
    // injection), flits interleaved round-robin at <= 1 flit per cycle
    // total (the injection link rate). A single shared worm here would
    // let one stalled hot-destined message head-of-line-block the whole
    // source, and extra lanes could never raise hotspot throughput.
    struct Worm {
      std::uint32_t seq = 0;
      unsigned dest = 0;
      std::uint64_t msg = 0;
      Cycle created = 0;
    };
    std::vector<Worm> worms;  ///< [lane]
    std::uint32_t active = 0;  ///< Lanes whose worm is streaming.
    unsigned pick_rr = 0;      ///< Rotating lane-pick start.
    unsigned emit_rr = 0;      ///< Rotating emission start lane.
  };

  struct Sink {
    unsigned out_port = 0;
    unsigned endpoint = 0;
    struct LaneRx {
      bool mid = false;
      std::uint64_t msg = 0;
      std::uint32_t next_seq = 0;
      Cycle created = 0;
    };
    std::vector<LaneRx> lanes;
    std::uint64_t delivered = 0;
    std::uint64_t flits = 0;
    std::uint64_t payload_errors = 0;
    std::uint64_t digest = 0;
    std::uint64_t lat_sum = 0;
    HdrHistogram lat_hist;
  };

  /// One (input, lane) FIFO: a ring of lane_depth slots in slots_.
  struct LaneFifo {
    unsigned head = 0;  ///< Slot of the front flit.
    unsigned len = 0;
  };

  /// One outgoing virtual channel of an output port; `in`/`in_lane` name
  /// the input lane bound to it while its bit is set in owned_.
  struct OutLane {
    unsigned in = 0;
    unsigned in_lane = 0;
    unsigned credits = 0;
  };

  std::size_t li(unsigned port, unsigned lane) const {
    return static_cast<std::size_t>(port) * params_.lanes + lane;
  }
  /// Round-robin start under kRoundRobin, 0 (lowest index first) otherwise.
  unsigned start(unsigned rr) const {
    return params_.alloc == WormAlloc::kRoundRobin ? rr : 0;
  }
  /// Lane after `l`, wrapping to 0.
  unsigned next_lane(unsigned l) const { return l + 1 == params_.lanes ? 0 : l + 1; }
  void push_flit(unsigned in_port, const WormFlit& f);
  void expose(unsigned in, unsigned lane);
  void source_step(Source& s, Cycle t);
  void source_prime(Source& s, Cycle from);
  void alloc_lane(unsigned out);
  void arbitrate(unsigned out, Cycle t);
  void deliver(Sink& sink, const WormFlit& f, Cycle t);

  const net::Topology* topo_;
  unsigned node_;
  WormParams params_;
  DestPattern* dests_;
  unsigned ports_;
  bool direct_;      ///< Direct kind (mesh): endpoint on port kLocal.
  bool last_stage_;

  std::vector<WormChannel*> rx_;           ///< [in_port], null at ingress.
  std::vector<CreditChannel*> credit_tx_;  ///< [in_port], null at ingress.
  std::vector<WormChannel*> tx_;           ///< [out_port], null at egress.
  std::vector<CreditChannel*> credit_rx_;  ///< [out_port], null at egress.

  std::uint32_t lane_mask_ = 0;        ///< Bits 0..lanes-1.
  std::vector<WormFlit> slots_;        ///< [li(in, lane) * lane_depth + slot]
  std::vector<LaneFifo> fifo_;         ///< [li(in, lane)]
  std::vector<OutLane> out_lane_;      ///< [li(out, lane)]
  /// [out * ports + in]: lanes of `in` whose front flit is an unbound head
  /// routed to `out` -- the VC-allocation candidates.
  std::vector<std::uint32_t> cand_;
  std::vector<std::uint32_t> bound_;   ///< [in] lanes bound to an output lane.
  std::vector<std::uint32_t> owned_;   ///< [out] lanes bound to an input lane.
  /// [out] VC-allocation scan start, as (input << 5) | lane.
  std::vector<unsigned> rr_alloc_;
  std::vector<unsigned> rr_lane_;   ///< Per-output free-lane grant start.
  std::vector<unsigned> rr_sw_;     ///< Per-output switch-arbiter scan start.

  /// [in] lanes popped during the current eval, which is also the credit
  /// mask sent upstream at its end. It blocks a second pop from the same
  /// lane (one flit per lane per cycle) and keeps the credit mask exact --
  /// without it, a tail popped at one output and the next message's head
  /// popped at another output in the same cycle would merge into a single
  /// credit bit and leak a credit.
  std::vector<std::uint32_t> popped_;

  std::vector<std::unique_ptr<Source>> sources_;  ///< [in_port]
  std::vector<std::unique_ptr<Sink>> sinks_;      ///< [out_port]

  std::uint64_t flits_in_total_ = 0;   ///< Accepted off links + injected.
  std::uint64_t flits_out_total_ = 0;  ///< Forwarded + delivered.
  std::uint64_t flits_forwarded_ = 0;  ///< Forwarded onto router-to-router links.
  std::uint64_t held_ = 0;             ///< Flits buffered in lane FIFOs.

  std::unique_ptr<check::WormAuditor> auditor_;  ///< Non-null under PMSB_CHECK=1.
};

}  // namespace pmsb::fabric
