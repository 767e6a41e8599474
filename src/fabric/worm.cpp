#include "fabric/worm.hpp"

#include <algorithm>
#include <bit>

#include "check/invariants.hpp"

namespace pmsb::fabric {

namespace {

/// The set bits of `mask` in circular order from bit `start` (bits >= start
/// ascending, then the bits below it): the first one `take` accepts, or -1.
/// `start` is a lane index, so the shift stays below 32.
template <class Take>
int first_from(std::uint32_t mask, unsigned start, Take take) {
  const std::uint32_t hi = mask & (~0u << start);
  for (std::uint32_t m : {hi, mask ^ hi})
    for (; m != 0; m &= m - 1) {
      const auto b = static_cast<unsigned>(std::countr_zero(m));
      if (take(b)) return static_cast<int>(b);
    }
  return -1;
}

constexpr auto kAny = [](unsigned) { return true; };

}  // namespace

WormRouter::WormRouter(const net::Topology* topo, unsigned node, const WormParams& params,
                       DestPattern* dests)
    : topo_(topo), node_(node), params_(params), dests_(dests) {
  PMSB_CHECK(params.lanes >= 1 && params.lanes <= 32, "worm lanes must be in [1, 32]");
  PMSB_CHECK(params.lane_depth >= 1, "worm lane_depth must be >= 1");
  PMSB_CHECK(params.message_flits >= 1, "worm message_flits must be >= 1");
  direct_ = !topo->multistage();
  // Direct kinds add the endpoint's own port at index kLocal (a mesh node
  // is both a router and a terminal); multistage endpoints sit on edge ports.
  ports_ = direct_ ? net::kNumPorts : topo->required_ports();
  last_stage_ = !direct_ && topo->stage_of(node) + 1 == topo->stages();
  const std::size_t pl = static_cast<std::size_t>(ports_) * params_.lanes;
  lane_mask_ = params_.lanes == 32 ? ~0u : (1u << params_.lanes) - 1;
  rx_.resize(ports_, nullptr);
  credit_tx_.resize(ports_, nullptr);
  tx_.resize(ports_, nullptr);
  credit_rx_.resize(ports_, nullptr);
  slots_.resize(pl * params_.lane_depth);
  fifo_.resize(pl);
  out_lane_.resize(pl);
  for (OutLane& ol : out_lane_) ol.credits = params_.lane_depth;
  cand_.resize(static_cast<std::size_t>(ports_) * ports_, 0);
  bound_.resize(ports_, 0);
  owned_.resize(ports_, 0);
  rr_alloc_.resize(ports_, 0);
  rr_lane_.resize(ports_, 0);
  rr_sw_.resize(ports_, 0);
  popped_.resize(ports_, 0);
  sources_.resize(ports_);
  sinks_.resize(ports_);
  if (check::env_enabled())
    auditor_ = std::make_unique<check::WormAuditor>(ports_, params_.lanes,
                                                    params_.lane_depth, params_.message_flits);
}

void WormRouter::connect_in(unsigned in_port, WormChannel* rx, CreditChannel* credit_tx) {
  PMSB_CHECK(in_port < ports_ && rx_[in_port] == nullptr, "worm input already wired");
  rx_[in_port] = rx;
  credit_tx_[in_port] = credit_tx;
}

void WormRouter::connect_out(unsigned out_port, WormChannel* tx, CreditChannel* credit_rx) {
  PMSB_CHECK(out_port < ports_ && tx_[out_port] == nullptr, "worm output already wired");
  tx_[out_port] = tx;
  credit_rx_[out_port] = credit_rx;
}

void WormRouter::add_source(unsigned in_port, unsigned endpoint, Rng rng) {
  PMSB_CHECK(in_port < ports_ && rx_[in_port] == nullptr && sources_[in_port] == nullptr,
             "worm source conflicts with an existing input");
  auto s = std::make_unique<Source>();
  s->in_port = in_port;
  s->endpoint = endpoint;
  s->rng = rng;
  s->worms.resize(params_.lanes);
  sources_[in_port] = std::move(s);
}

void WormRouter::add_sink(unsigned out_port, unsigned endpoint) {
  PMSB_CHECK(direct_ ? out_port == net::kLocal : last_stage_,
             "worm sinks attach to the local port or last-stage outputs only");
  PMSB_CHECK(out_port < ports_ && tx_[out_port] == nullptr && sinks_[out_port] == nullptr,
             "worm sink conflicts with an existing output");
  auto k = std::make_unique<Sink>();
  k->out_port = out_port;
  k->endpoint = endpoint;
  k->lanes.resize(params_.lanes);
  sinks_[out_port] = std::move(k);
}

void WormRouter::push_flit(unsigned in_port, const WormFlit& f) {
  const std::size_t idx = li(in_port, f.lane);
  LaneFifo& q = fifo_[idx];
  const unsigned len = ++q.len;
  ++flits_in_total_;
  ++held_;
  PMSB_CHECK(len <= params_.lane_depth, "worm lane overflow (credit protocol broken)");
  unsigned slot = q.head + len - 1;
  if (slot >= params_.lane_depth) slot -= params_.lane_depth;
  slots_[idx * params_.lane_depth + slot] = f;
  if (len == 1) expose(in_port, f.lane);
  if (auditor_ != nullptr)
    auditor_->on_push(in_port, f.lane, f.head, f.tail, f.msg, f.seq, len);
}

/// The front of FIFO (in, lane) may have changed: an unbound head there is
/// routed, once, and becomes a VC-allocation candidate at its output.
void WormRouter::expose(unsigned in, unsigned lane) {
  const std::size_t idx = li(in, lane);
  const LaneFifo& q = fifo_[idx];
  if (q.len == 0 || (bound_[in] >> lane & 1u) != 0) return;
  const WormFlit& f = slots_[idx * params_.lane_depth + q.head];
  if (!f.head) return;
  const unsigned out =
      direct_ ? topo_->route_xy(node_, f.dest) : topo_->route_stage(node_, in, f.dest);
  PMSB_CHECK(out < ports_, "worm head routed to a port the router does not have");
  cand_[static_cast<std::size_t>(out) * ports_ + in] |= 1u << lane;
}

void WormRouter::source_prime(Source& s, Cycle from) {
  s.primed = true;
  if (params_.messages_per_cycle <= 0) {
    s.next_arrival = kNeverWake;
    return;
  }
  Cycle a = from;
  while (!s.rng.next_bool(params_.messages_per_cycle)) ++a;
  s.next_arrival = a;
  s.next_dest = dests_->pick(s.endpoint, s.rng);
}

void WormRouter::source_step(Source& s, Cycle t) {
  if (!s.primed) source_prime(s, t);
  if (t == s.next_arrival) {
    const std::uint64_t msg =
        (static_cast<std::uint64_t>(s.endpoint) << 32) | s.next_msg_seq++;
    s.backlog.push_back(Source::Pending{s.next_dest, msg, t});
    ++s.generated;
    source_prime(s, t + 1);
  }
  // Start pending messages on idle lanes, by the configured policy. Each
  // lane streams one message head..tail at a time, so the per-lane
  // contiguity invariant holds by construction.
  while (!s.backlog.empty()) {
    const std::uint32_t idle = lane_mask_ & ~s.active;
    if (idle == 0) break;  // every lane mid-message
    const auto pick = static_cast<unsigned>(first_from(idle, start(s.pick_rr), kAny));
    s.pick_rr = next_lane(pick);
    const Source::Pending& p = s.backlog.front();
    s.worms[pick] = Source::Worm{0, p.dest, p.msg, p.created};
    s.active |= 1u << pick;
    s.backlog.pop_front();
  }
  // Emit at most one flit this cycle (the injection link rate), rotating
  // across lanes whose worm is active and whose FIFO has room.
  const int won = first_from(s.active, start(s.emit_rr), [&](unsigned l) {
    return fifo_[li(s.in_port, l)].len < params_.lane_depth;
  });
  if (won < 0) return;
  const auto l = static_cast<unsigned>(won);
  Source::Worm& w = s.worms[l];
  WormFlit f;
  f.head = w.seq == 0;
  f.tail = w.seq + 1 == params_.message_flits;
  f.lane = static_cast<std::uint8_t>(l);
  f.dest = static_cast<std::uint16_t>(w.dest);
  f.seq = w.seq;
  f.msg = w.msg;
  f.created = w.created;
  f.data = worm_payload(w.msg, w.seq);
  push_flit(s.in_port, f);
  if (f.tail)
    s.active &= ~(1u << l);
  else
    ++w.seq;
  s.emit_rr = next_lane(l);
}

void WormRouter::alloc_lane(unsigned out) {
  // The first candidate (input, lane) in flattened order from the rotating
  // start: the start input's lanes from the start lane up, the following
  // inputs' lanes, then the start input's lanes below the start lane.
  std::uint32_t* cand = &cand_[static_cast<std::size_t>(out) * ports_];
  const unsigned s = start(rr_alloc_[out]);
  const std::uint32_t below = ~(~0u << (s & 31u));
  unsigned in = s >> 5;
  std::uint32_t m = cand[in] & ~below;
  for (unsigned k = 1; m == 0 && k <= ports_; ++k) {
    in = in + 1 == ports_ ? 0 : in + 1;
    m = cand[in] & (k == ports_ ? below : ~0u);
  }
  if (m == 0) return;
  // Grant a free output lane by the same policy; with none free the first
  // candidate waits and nothing is bound this cycle.
  const std::uint32_t free = lane_mask_ & ~owned_[out];
  if (free == 0) return;
  const auto lane = static_cast<unsigned>(std::countr_zero(m));
  const auto grant = static_cast<unsigned>(first_from(free, start(rr_lane_[out]), kAny));
  owned_[out] |= 1u << grant;
  bound_[in] |= 1u << lane;
  cand[in] &= ~(1u << lane);
  OutLane& ol = out_lane_[li(out, grant)];
  ol.in = in;
  ol.in_lane = lane;
  if (lane + 1 < params_.lanes)
    rr_alloc_[out] = (in << 5) | (lane + 1);
  else
    rr_alloc_[out] = in + 1 == ports_ ? 0 : (in + 1) << 5;
  rr_lane_[out] = next_lane(grant);
}

void WormRouter::arbitrate(unsigned out, Cycle t) {
  const bool egress = tx_[out] == nullptr;
  OutLane* lanes = &out_lane_[li(out, 0)];
  // The first owned output lane from the rotating start that has a credit
  // (or delivers locally) and whose input lane has a flit not yet popped
  // this cycle.
  const int won = first_from(owned_[out], start(rr_sw_[out]), [&](unsigned l) {
    const OutLane& ol = lanes[l];
    return (egress || ol.credits != 0) && fifo_[li(ol.in, ol.in_lane)].len != 0 &&
           (popped_[ol.in] >> ol.in_lane & 1u) == 0;
  });
  if (won < 0) return;
  const auto l = static_cast<unsigned>(won);
  OutLane& ol = lanes[l];
  const std::size_t src = li(ol.in, ol.in_lane);
  LaneFifo& q = fifo_[src];
  WormFlit f = slots_[src * params_.lane_depth + q.head];
  q.head = q.head + 1 == params_.lane_depth ? 0 : q.head + 1;
  --q.len;
  --held_;
  popped_[ol.in] |= 1u << ol.in_lane;
  f.lane = static_cast<std::uint8_t>(l);
  if (!egress) --ol.credits;
  if (f.tail) {
    // Unbind; the next message's head, if queued, now competes for
    // allocation at later outputs this very cycle.
    owned_[out] &= ~(1u << l);
    bound_[ol.in] &= ~(1u << ol.in_lane);
    expose(ol.in, ol.in_lane);
  }
  rr_sw_[out] = next_lane(l);
  ++flits_out_total_;
  if (egress) {
    deliver(*sinks_[out], f, t);
  } else {
    tx_[out]->push(t, f);
    ++flits_forwarded_;
  }
}

void WormRouter::deliver(Sink& sink, const WormFlit& f, Cycle t) {
  Sink::LaneRx& rx = sink.lanes[f.lane];
  if (f.head) {
    PMSB_CHECK(!rx.mid, "worm sink: head flit interrupted an open message");
    rx.mid = true;
    rx.msg = f.msg;
    rx.next_seq = 0;
    rx.created = f.created;
  } else {
    PMSB_CHECK(rx.mid && f.msg == rx.msg, "worm sink: body flit without its message");
  }
  PMSB_CHECK(f.seq == rx.next_seq, "worm sink: flit sequence gap");
  ++rx.next_seq;
  ++sink.flits;
  if (f.data != worm_payload(f.msg, f.seq)) ++sink.payload_errors;
  if (f.tail) {
    PMSB_CHECK(rx.next_seq == params_.message_flits, "worm sink: short message");
    rx.mid = false;
    ++sink.delivered;
    const Cycle lat = t - f.created;
    sink.lat_sum += static_cast<std::uint64_t>(lat);
    sink.lat_hist.add(static_cast<std::uint64_t>(lat));
    sink.digest = mix64(sink.digest ^ (f.msg * 0x2545f4914f6cdd1dULL));
  }
}

void WormRouter::eval(Cycle t) {
  // 1. Accept at most one flit per link input.
  for (unsigned in = 0; in < ports_; ++in) {
    if (rx_[in] == nullptr) continue;
    if (const WormFlit* f = rx_[in]->pop(t)) push_flit(in, *f);
  }
  // 2. Consume returned credits.
  for (unsigned out = 0; out < ports_; ++out) {
    if (credit_rx_[out] == nullptr) continue;
    const std::uint32_t* credits = credit_rx_[out]->pop(t);
    if (credits == nullptr) continue;
    for (std::uint32_t m = *credits & lane_mask_; m != 0; m &= m - 1) {
      const auto l = static_cast<unsigned>(std::countr_zero(m));
      OutLane& ol = out_lane_[li(out, l)];
      ++ol.credits;
      PMSB_CHECK(ol.credits <= params_.lane_depth, "worm credit overflow");
      if (auditor_ != nullptr) auditor_->on_credit(out, l, ol.credits);
    }
  }
  // 3. Inject (ingress routers only): arrivals plus one streamed flit per source.
  for (unsigned in = 0; in < ports_; ++in)
    if (sources_[in] != nullptr) source_step(*sources_[in], t);
  // 4. Per output: one VC allocation, then one switch grant; a flit goes
  // onto the tx channel only when a lane wins.
  for (unsigned out = 0; out < ports_; ++out) {
    alloc_lane(out);
    arbitrate(out, t);
  }
  // 5. Return credits upstream: one entry per input that popped this cycle,
  // the mask of its popped lanes.
  for (unsigned in = 0; in < ports_; ++in) {
    if (popped_[in] != 0 && credit_tx_[in] != nullptr) credit_tx_[in]->push(t, popped_[in]);
    popped_[in] = 0;
  }
  if (auditor_ != nullptr) {
    // Count the flits the lane FIFOs hold, independently of held_, so a flit
    // lost inside a FIFO breaks conservation.
    std::uint64_t queued = 0;
    for (const LaneFifo& q : fifo_) queued += q.len;
    PMSB_CHECK(held_ == queued, "worm router held count drifted from its lane FIFOs");
    auditor_->on_cycle_end(flits_in_total_, flits_out_total_, queued);
  }
}

bool WormRouter::is_quiescent(Cycle) const {
  if (held_ != 0) return false;
  for (const std::uint32_t o : owned_)
    if (o != 0) return false;
  for (const auto& s : sources_)
    if (s != nullptr && (!s->backlog.empty() || s->active != 0)) return false;
  return true;
}

Cycle WormRouter::next_wake(Cycle) const {
  Cycle wake = kNeverWake;
  for (const auto& s : sources_)
    if (s != nullptr) wake = std::min(wake, s->primed ? s->next_arrival : Cycle{0});
  return wake;
}

std::string WormRouter::name() const {
  if (direct_) return "worm_router_n" + std::to_string(node_);
  return "worm_router_s" + std::to_string(topo_->stage_of(node_)) + "e" +
         std::to_string(topo_->element_of(node_));
}

WormRouter::SourceStats WormRouter::source_stats(unsigned in_port) const {
  PMSB_CHECK(sources_[in_port] != nullptr, "no worm source on this input");
  const Source& s = *sources_[in_port];
  const auto streaming = static_cast<std::size_t>(std::popcount(s.active));
  return SourceStats{s.generated, s.backlog.size() + streaming};
}

WormRouter::SinkStats WormRouter::sink_stats(unsigned out_port) const {
  PMSB_CHECK(sinks_[out_port] != nullptr, "no worm sink on this output");
  const Sink& k = *sinks_[out_port];
  SinkStats st;
  st.delivered = k.delivered;
  st.flits = k.flits;
  st.payload_errors = k.payload_errors;
  st.digest = k.digest;
  st.lat_sum = k.lat_sum;
  st.lat_hist = &k.lat_hist;
  return st;
}

}  // namespace pmsb::fabric
