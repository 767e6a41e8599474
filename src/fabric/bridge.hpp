// Fabric <-> switch glue: per-link components that move cells between the
// channel rings (src/fabric/channel.hpp) and a node's cycle-accurate
// PipelinedSwitch, plus the per-node traffic endpoints.
//
// Each directed inter-node link gets two components:
//
//   TxTap      (producer shard)  copies the upstream switch's out-wire into
//                                the channel, one entry per valid word.
//   PortBridge (consumer shard)  reassembles arriving cells from the
//                                channel, ejects the ones addressed to this
//                                node, rewrites the head word of transit
//                                cells for their next hop (dimension-order
//                                routing), and time-multiplexes transit
//                                traffic with locally injected cells onto
//                                the node's in-wire. Transit has priority;
//                                injection only fills idle cell slots.
//
// Fabric cell wire format (CellCodec), riding inside the node switches'
// ordinary L-word cells:
//
//   word 0  [ hop out-port : dest_bits | destination node : tag bits ]
//   word 1  source node
//   word 2  per-source sequence number (low 16 bits)
//   word 3  injection cycle (low 16 bits; latencies valid below 2^16)
//   word 4+ payload derived from the cell uid with an avalanche mixer
//
// Only word 0 changes en route (the hop field is rewritten per hop), so the
// ejector can verify the payload end to end and reconstruct the uid
// (source << 16 | sequence) for the order-sensitive delivery digest.

#pragma once

#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "common/cell.hpp"
#include "common/rng.hpp"
#include "common/util.hpp"
#include "fabric/channel.hpp"
#include "net/topology.hpp"
#include "sim/engine.hpp"
#include "sim/wire.hpp"
#include "stats/hdr_histogram.hpp"

namespace pmsb::fabric {

/// Encode/decode of the fabric wire format described above.
struct CellCodec {
  CellFormat fmt;
  unsigned node_bits = 0;  ///< bits_for(#nodes); must fit fmt.tag_bits().

  Word word_mask() const { return low_mask(fmt.word_bits); }

  /// Head word for a cell leaving the current node through `out_port`.
  Word head(unsigned out_port, unsigned dest_node) const {
    return (static_cast<Word>(out_port) |
            (static_cast<Word>(dest_node) << fmt.dest_bits)) & word_mask();
  }
  unsigned dest_node_of(Word head_word) const {
    return static_cast<unsigned>(decode_tag(head_word, fmt));
  }

  static std::uint64_t uid(std::uint64_t src_node, std::uint64_t seq) {
    return (src_node << 16) | (seq & 0xFFFF);
  }
  Word payload(std::uint64_t cell_uid, unsigned k) const {
    return mix64(cell_uid + 0x9e3779b97f4a7c15ULL * k) & word_mask();
  }

  /// All L words of a freshly injected cell.
  std::vector<Word> build(unsigned out_port, unsigned dest_node, unsigned src_node,
                          std::uint64_t seq, Cycle created) const;
};

/// Per-node traffic source. One designated PortBridge per node owns the
/// injection right; arrivals are Bernoulli per cycle and queue here until
/// that bridge has an idle cell slot. All randomness is per-node (split from
/// the fabric seed by node index), so the arrival process is identical under
/// any sharding.
struct Injector {
  struct Pending {
    unsigned dest_node;
    std::uint64_t seq;
    Cycle created;
  };

  Rng rng;
  double cells_per_cycle = 0;  ///< Bernoulli probability, = load / L.
  unsigned self = 0;
  unsigned n_nodes = 0;
  std::uint64_t next_seq = 0;
  std::uint64_t generated = 0;  ///< Cells created (delivered + dropped + queued + in flight).
  std::deque<Pending> backlog;

  /// Next arrival, computed ahead of time so idle cycles between arrivals
  /// are skippable: the per-cycle Bernoulli draws are made in a batch when
  /// the previous arrival fires, consuming the RNG stream in exactly the
  /// order the historical one-draw-per-step() loop did. kNeverWake when
  /// cells_per_cycle <= 0 (the old code drew nothing in that case either).
  Cycle next_arrival = 0;
  unsigned next_dest = 0;
  bool primed = false;

  /// Replay the per-cycle draws from `from` until one succeeds, then draw
  /// the destination (uniform over the other nodes), exactly as the stepped
  /// formulation would have.
  void prime(Cycle from) {
    primed = true;
    if (cells_per_cycle <= 0) {
      next_arrival = kNeverWake;
      return;
    }
    Cycle a = from;
    while (!rng.next_bool(cells_per_cycle)) ++a;
    unsigned dest = static_cast<unsigned>(rng.next_below(n_nodes - 1));
    if (dest >= self) ++dest;
    next_arrival = a;
    next_dest = dest;
  }

  /// Called once per fabric cycle by the node's designated bridge; enqueues
  /// the precomputed arrival when its cycle comes up.
  void step(Cycle t) {
    if (!primed) prime(t);
    if (t != next_arrival) return;
    backlog.push_back(Pending{next_dest, next_seq++, t});
    ++generated;
    prime(t + 1);
  }
};

/// Per-node traffic sink: end-to-end delivery accounting. Written only by
/// this node's bridges (all in one shard), read at round barriers and after
/// the run.
struct Ejector {
  std::uint64_t delivered = 0;
  std::uint64_t payload_errors = 0;  ///< Cells whose payload words mismatched.
  std::uint64_t digest = 0;          ///< Order-sensitive mix of delivered uids.
  std::uint64_t lat_sum = 0;
  Cycle lat_min = 0;
  Cycle lat_max = 0;
  /// End-to-end latency distribution; merged across nodes (node order) into
  /// FabricStats::latency for fabric-wide percentiles.
  HdrHistogram lat_hist;

  struct HopBucket {
    std::uint64_t cells = 0;
    std::uint64_t lat_sum = 0;
  };
  std::vector<HopBucket> by_hops;  ///< Indexed by route length in links.

  void deliver(std::uint64_t uid, Cycle latency, unsigned hops, bool payload_ok);
};

/// Copies each valid word on the upstream switch's out-wire into the
/// channel, making it visible to the consumer shard `delay` cycles later.
class TxTap : public Component {
 public:
  TxTap(WireLink* from, Channel* ch) : from_(from), ch_(ch) {}

  void eval(Cycle t) override {
    if (from_->now().valid) ch_->push(t, from_->now());
  }
  void commit(Cycle) override {}
  bool has_commit() const override { return false; }
  /// An idle out-wire pushes nothing, so skipping such a cycle changes
  /// nothing on the channel.
  bool is_quiescent(Cycle) const override { return !from_->now().valid; }
  std::string name() const override { return "fabric_tx_tap"; }

 private:
  WireLink* from_;
  Channel* ch_;
};

/// Consumer-side link endpoint (see file comment).
class PortBridge : public Component {
 public:
  PortBridge(const net::Topology* topo, const CellCodec* codec, unsigned node,
             net::Port port, Channel* rx, WireLink* in_link, Injector* injector,
             Ejector* ejector);

  void eval(Cycle t) override;
  void commit(Cycle t) override;
  /// Quiescent when no cell is being reassembled, staged, queued, or
  /// transmitted and no injection is pending. The rx channel is NOT checked
  /// here -- the fabric's skip planners verify Channel::empty() before
  /// skipping (engine-local skipping stays disabled in the fabric's node
  /// engines, so these hooks are only consulted by those planners).
  bool is_quiescent(Cycle) const override {
    return !rx_active_ && !tx_active_ && !staged_valid_ && fifo_.empty() &&
           (injector_ == nullptr || injector_->backlog.empty());
  }
  Cycle next_wake(Cycle) const override {
    return injector_ != nullptr ? injector_->next_arrival : kNeverWake;
  }
  std::string name() const override;

  /// Transit cells accepted but not yet re-transmitted (store-and-forward
  /// queue; bounded by the output stagger of the upstream switch).
  std::size_t transit_depth() const { return fifo_.size() + (staged_valid_ ? 1 : 0); }

  /// Transit cells this bridge relayed toward their next hop (total).
  std::uint64_t relayed() const { return relayed_; }

 private:
  void finish_cell(Cycle t);

  const net::Topology* topo_;
  const CellCodec* codec_;
  unsigned node_;
  net::Port port_;
  Channel* rx_;
  WireLink* in_link_;
  Injector* injector_;  ///< Non-null only on the node's designated bridge.
  Ejector* ejector_;
  unsigned length_;  ///< L, cached.

  // Arrival reassembly.
  bool rx_active_ = false;
  unsigned rx_phase_ = 0;
  std::vector<Word> rx_words_;

  // Transit store-and-forward: a cell completed during eval is staged and
  // becomes eligible for retransmission only after the clock edge.
  bool staged_valid_ = false;
  std::vector<Word> staged_;
  std::deque<std::vector<Word>> fifo_;

  // Transmission onto the node's in-wire.
  bool tx_active_ = false;
  unsigned tx_phase_ = 0;
  std::vector<Word> tx_words_;

  std::uint64_t relayed_ = 0;  ///< Transit cells accepted for relay.
};

}  // namespace pmsb::fabric
