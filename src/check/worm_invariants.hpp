// Wormhole-transport invariants, checked live inside every WormRouter when
// PMSB_CHECK=1 (check::env_enabled()):
//
//  * Per-lane FIFO bound: a (input, lane) FIFO never exceeds its credit
//    allotment (lane_depth = buffer_flits / lanes) -- the credit protocol's
//    whole guarantee.
//  * Per-lane message contiguity: flits of one message occupy a lane
//    back-to-back (head, seq 0..L-1, tail) with no interleaving -- the
//    virtual-channel allocator must hold a lane from head to tail.
//  * Per-output credit bound: returned credits never exceed lane_depth
//    (a credit overflow means a flit was double-counted somewhere).
//  * Flit conservation per router per cycle: every flit that entered
//    (accepted off a link or injected by a source) is either buffered in a
//    lane FIFO or has been forwarded/delivered -- flits_in == flits_out +
//    held, checked at the end of every eval. The router passes `held` as
//    the sum of its lane FIFO lengths, not its running count, so a flit
//    lost inside a FIFO breaks the identity.
//
// The auditor deliberately takes plain scalars (no fabric types) so the
// check layer stays below src/fabric in the include graph.

#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace pmsb::check {

class WormAuditor {
 public:
  WormAuditor(unsigned ports, unsigned lanes, unsigned lane_depth, unsigned message_flits);

  /// A flit entered FIFO (in_port, lane); depth_after is its new size.
  void on_push(unsigned in_port, unsigned lane, bool head, bool tail, std::uint64_t msg,
               std::uint32_t seq, std::size_t depth_after);

  /// A credit returned for (out_port, lane); credits_after is the new count.
  void on_credit(unsigned out_port, unsigned lane, unsigned credits_after);

  /// End-of-eval conservation: flits accepted == flits forwarded + buffered.
  void on_cycle_end(std::uint64_t flits_in, std::uint64_t flits_out,
                    std::uint64_t held) const;

 private:
  struct LaneState {
    bool mid = false;  ///< Between a head and its tail.
    std::uint64_t msg = 0;
    std::uint32_t next_seq = 0;
  };

  unsigned lanes_;
  unsigned lane_depth_;
  unsigned message_flits_;
  std::vector<LaneState> in_lane_;  ///< [in_port * lanes + lane]
};

}  // namespace pmsb::check
