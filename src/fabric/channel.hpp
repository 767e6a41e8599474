// One directed inter-node link of the fabric: a bounded single-producer
// single-consumer queue that reproduces sim/link_pipeline.hpp's timing
// without sharing any mutable simulation object between shards.
//
// A LinkPipeline with S register stages delivers the word on the upstream
// out-wire at cycle t onto the downstream in-wire at cycle t + S + 1. The
// fabric splits that wire at the register boundary: during its eval of
// cycle t the producer pushes the out-wire's word stamped t -- only when it
// sends one -- and the consumer, during its eval of cycle t, pops the head
// entry iff its stamp is t - S, then re-drives the node's in-wire for t + 1
// -- the same S + 1 total, with the consumer playing the role of the last
// pipeline register. A cycle that sends nothing stores nothing, so a
// stretch of cycles the fabric skips leaves nothing stale behind.
//
// The queue is generic over its payload (Ring<T>): the cell fabrics carry
// whole-cell words (Channel = Ring<Flit>), the wormhole fabrics carry
// single flits with lane tags (Ring<WormFlit>) and, in the *reverse*
// direction of every data link, per-lane credit masks (Ring<uint32_t>).
//
// Occupancy. Stamps are distinct (at most one push per producer cycle).
// Let the producer be executing cycle p while the consumer has executed
// every cycle below c. The consumer has popped every entry stamped below
// c - S, so the queued entries are stamped in [c - S, p]: at most
// p - c + S + 1 of them. The engines bound p - c:
//
//  * Barrier engine (conservative rounds of at most k <= S cycles between
//    barriers): within a round p - c <= k - 1, so at most k + S <= 2S <
//    capacity() entries are queued. An entry popped at cycle c is stamped
//    c - S, below the round's first cycle, so it was pushed in an earlier
//    round and the barrier orders the push before the pop. A push reuses
//    the slot of an entry stamped at least capacity() >= 2S + 2 cycles
//    earlier, which was popped at a cycle <= p - S - 2, also in an earlier
//    round. Different threads therefore never touch one slot in a round.
//
//  * Dataflow engine (credit backpressure): producer and consumer publish
//    per-node progress counters (cycles fully executed). The consumer runs
//    cycle c only after observing producer_done > c - S, so the entry it
//    pops at c was pushed before that counter store. The producer runs
//    cycle p only while p < consumer_done + capacity() - S (its write
//    credit), so at most capacity() entries are queued, and the slot it
//    reuses held an entry stamped <= p - capacity(), popped at a cycle
//    <= p - capacity() + S < consumer_done: in the consumer's published
//    past. Same disjointness, point-to-point edges instead of a global
//    barrier. Wormhole credit rings are ordinary rings here: a credit link
//    v->u makes u a *downstream* of v in the dependency graph, so the same
//    two bounds cover both directions. See src/fabric/fabric.cpp and
//    DESIGN.md "Task-dataflow fabric" / "Multistage wormhole fabrics".
//
// Under either engine the consumer may also see an entry pushed in its own
// round, or beyond the producer progress it loaded: the producer fills the
// slot before it publishes `tail` (release), and the consumer loads `tail`
// (acquire) before it reads a slot, so such an entry is read whole -- its
// stamp is too new, and it stays queued.
//
// ChannelBase is the payload-erased face the fabric's skip planners use
// (empty() applies to any payload type).

#pragma once

#include <atomic>
#include <cstddef>
#include <vector>

#include "common/cell.hpp"
#include "common/util.hpp"

namespace pmsb::fabric {

class ChannelBase {
 public:
  /// `delay` = the modelled LinkPipeline's register stages S (>= 1). Total
  /// out-wire to in-wire latency is delay + 1 (see file comment).
  explicit ChannelBase(unsigned delay) : delay_(delay) {
    PMSB_CHECK(delay >= 1, "fabric links need at least one register stage");
    std::size_t cap = 1;
    while (cap < 2 * static_cast<std::size_t>(delay) + 2) cap <<= 1;
    mask_ = cap - 1;
  }
  virtual ~ChannelBase() = default;

  unsigned delay() const { return delay_; }

  /// Queue entries. The dataflow engine's write credit is capacity() -
  /// delay() cycles of producer lead over the consumer.
  std::size_t capacity() const { return mask_ + 1; }

  /// True when every entry pushed has been popped. An entry still queued at
  /// the consumer's cycle is exactly one that arrives at or after that
  /// cycle, so an empty link delivers nothing before its next push. Part of
  /// the fabric's global quiescence predicate (barrier engine, every node
  /// parked) and of the consumer's own skip predicate (dataflow engine).
  bool empty() const { return head_ == tail_.load(std::memory_order_acquire); }

 protected:
  unsigned delay_;
  std::size_t mask_;
  std::size_t head_ = 0;              ///< Consumer: next entry to pop.
  std::atomic<std::size_t> tail_{0};  ///< Producer: one past the newest entry.
};

template <typename T>
class Ring final : public ChannelBase {
 public:
  explicit Ring(unsigned delay) : ChannelBase(delay), buf_(capacity()) {}

  /// Producer side: send `v` during cycle t. Exactly one writer, at most
  /// once per producer cycle, in cycle order.
  void push(Cycle t, const T& v) {
    const std::size_t tail = tail_.load(std::memory_order_relaxed);
    buf_[tail & mask_] = Entry{t, v};
    tail_.store(tail + 1, std::memory_order_release);
  }

  /// Consumer side, during cycle t: the entry sent `delay` cycles ago, or
  /// null when nothing was sent then. The entry stays intact through the
  /// consumer's cycle t (its slot is reused only after that, see above).
  const T* pop(Cycle t) {
    if (empty()) return nullptr;
    const Entry& e = buf_[head_ & mask_];
    const Cycle due = t - static_cast<Cycle>(delay_);
    if (e.stamp != due) {
      PMSB_CHECK(e.stamp > due, "link entry passed its arrival cycle unread");
      return nullptr;
    }
    ++head_;
    return &e.payload;
  }

 private:
  struct Entry {
    Cycle stamp = 0;  ///< Producer cycle of the push.
    T payload{};
  };

  std::vector<Entry> buf_;
};

/// The cell fabrics' link: switch-word Flits, valid ones only.
using Channel = Ring<Flit>;

}  // namespace pmsb::fabric
