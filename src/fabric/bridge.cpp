#include "fabric/bridge.hpp"

namespace pmsb::fabric {

std::vector<Word> CellCodec::build(unsigned out_port, unsigned dest_node,
                                   unsigned src_node, std::uint64_t seq,
                                   Cycle created) const {
  std::vector<Word> w(fmt.length_words);
  w[0] = head(out_port, dest_node);
  w[1] = static_cast<Word>(src_node) & word_mask();
  w[2] = static_cast<Word>(seq) & 0xFFFF;
  w[3] = static_cast<Word>(created) & 0xFFFF;
  const std::uint64_t id = uid(src_node, seq);
  for (unsigned k = 4; k < fmt.length_words; ++k) w[k] = payload(id, k);
  return w;
}

void Ejector::deliver(std::uint64_t uid, Cycle latency, unsigned hops, bool payload_ok) {
  if (delivered == 0 || latency < lat_min) lat_min = latency;
  if (latency > lat_max) lat_max = latency;
  ++delivered;
  lat_sum += static_cast<std::uint64_t>(latency);
  lat_hist.add(static_cast<std::uint64_t>(latency));
  digest = mix64(digest ^ (uid * 0x2545f4914f6cdd1dULL));
  if (!payload_ok) ++payload_errors;
  if (by_hops.size() <= hops) by_hops.resize(hops + 1);
  ++by_hops[hops].cells;
  by_hops[hops].lat_sum += static_cast<std::uint64_t>(latency);
}

PortBridge::PortBridge(const net::Topology* topo, const CellCodec* codec, unsigned node,
                       net::Port port, Channel* rx, WireLink* in_link,
                       Injector* injector, Ejector* ejector)
    : topo_(topo),
      codec_(codec),
      node_(node),
      port_(port),
      rx_(rx),
      in_link_(in_link),
      injector_(injector),
      ejector_(ejector),
      length_(codec->fmt.length_words) {
  rx_words_.reserve(length_);
}

std::string PortBridge::name() const {
  return "fabric_bridge[" + std::to_string(node_) + "." + std::to_string(port_) + "]";
}

void PortBridge::eval(Cycle t) {
  // Traffic generation first, so a cell created this cycle can board an idle
  // slot immediately (cycle-exact regardless of sharding: per-node rng, one
  // draw per cycle, performed by the node's single designated bridge).
  if (injector_) injector_->step(t);

  // ---- Arrival side: the virtual wire from the upstream TxTap.
  if (const Flit* f = rx_->pop(t)) {
    if (!rx_active_) {
      PMSB_CHECK(f->sop, "fabric link: body word arrived while expecting a head");
      rx_active_ = true;
      rx_phase_ = 0;
      rx_words_.clear();
    } else {
      PMSB_CHECK(!f->sop, "fabric link: head word arrived inside a cell");
    }
    rx_words_.push_back(f->data);
    if (++rx_phase_ == length_) {
      rx_active_ = false;
      finish_cell(t);
    }
  } else {
    PMSB_CHECK(!rx_active_, "fabric link: gap inside a cell");
  }

  // ---- Output side: transit first, then local injection.
  if (!tx_active_) {
    if (!fifo_.empty()) {
      tx_words_ = std::move(fifo_.front());
      fifo_.pop_front();
      tx_active_ = true;
      tx_phase_ = 0;
    } else if (injector_ && !injector_->backlog.empty()) {
      const Injector::Pending p = injector_->backlog.front();
      injector_->backlog.pop_front();
      const net::Port out = topo_->route_xy(node_, p.dest_node);
      PMSB_CHECK(out != net::kLocal, "injected cell addressed to its own node");
      tx_words_ = codec_->build(out, p.dest_node, node_, p.seq, p.created);
      tx_active_ = true;
      tx_phase_ = 0;
    }
  }
  if (tx_active_) {
    in_link_->drive_next(Flit{true, tx_phase_ == 0, tx_words_[tx_phase_]});
    if (++tx_phase_ == length_) tx_active_ = false;
  }
}

void PortBridge::finish_cell(Cycle t) {
  const unsigned dest_node = codec_->dest_node_of(rx_words_[0]);
  PMSB_CHECK(dest_node < topo_->nodes(), "fabric cell with bad destination node");
  if (dest_node == node_) {
    const auto src = static_cast<unsigned>(rx_words_[1]);
    const std::uint64_t id = CellCodec::uid(src, rx_words_[2]);
    const Cycle latency =
        static_cast<Cycle>((static_cast<std::uint64_t>(t) - rx_words_[3]) & 0xFFFF);
    bool ok = true;
    for (unsigned k = 4; k < length_; ++k) ok &= rx_words_[k] == codec_->payload(id, k);
    ejector_->deliver(id, latency, topo_->hops(src, node_), ok);
    return;
  }
  // Transit: rewrite the hop field for this node's switch, keep the rest.
  const net::Port out = topo_->route_xy(node_, dest_node);
  PMSB_CHECK(out != net::kLocal, "transit cell routed to kLocal");
  rx_words_[0] = codec_->head(out, dest_node);
  PMSB_CHECK(!staged_valid_, "two cells completed in one cycle on one bridge");
  staged_ = std::move(rx_words_);
  staged_valid_ = true;
  ++relayed_;
  rx_words_.clear();
  rx_words_.reserve(length_);
}

void PortBridge::commit(Cycle) {
  if (staged_valid_) {
    fifo_.push_back(std::move(staged_));
    staged_valid_ = false;
    // Upstream output stagger bounds arrivals to one cell per L cycles and
    // the mux drains one per L when backlogged, so the queue stays tiny.
    PMSB_CHECK(fifo_.size() <= 4, "fabric transit queue grew beyond its bound");
  }
}

}  // namespace pmsb::fabric
