// The input buffer registers of figure 4: for each incoming link, one row of
// S latches, IR[i][0..S-1]. Word k of an arriving cell is latched into
// IR[i][k mod S] at the end of its arrival cycle; the row is reused
// cyclically by successive segments/cells (the paper's "wave of new packet
// words entering into the input buffer registers, overwriting the old
// data").
//
// The class also verifies the paper's central no-double-buffering claim: a
// latch may be overwritten only after the write wave that needed its old
// value has passed (enforced by the protecting wave recorded when a write
// wave is scheduled). Any arbitration bug that would need the wide-memory-
// style second register row trips the check.
//
// Representation: committed latch values are one flat word array; the
// loads of the current cycle are a list of (latch, word) pairs, so the clock
// edge commits only the latches loaded this cycle (at most one per link in
// a switch). Protection is one (t0, a0) pair per input: a wave always
// protects every stage of its input, so latch s's consumption cycle is
// t0 + s and its expected arrival commit a0 + s.

#pragma once

#include <cstdint>
#include <limits>
#include <vector>

#include "common/small_vec.hpp"
#include "common/util.hpp"

namespace pmsb {

class InputLatches {
 public:
  InputLatches(unsigned n_inputs, unsigned stages, unsigned word_bits);

  unsigned stages() const { return stages_; }

  /// Committed latch content (for the stage-s write this cycle).
  Word read(unsigned input, unsigned s) const { return q_[index(input, s)]; }

  /// Stage a latch load at the end of the current cycle `t`.
  void latch(unsigned input, unsigned s, Word data, Cycle t) {
    PMSB_CHECK((data & ~mask_) == 0, "latched word wider than the link");
    const std::size_t i = index(input, s);
    // The overwrite commits at the end of cycle t, so the old value is still
    // readable during t itself; it is lost from cycle t+1 on. Two commits are
    // legal while a wave is outstanding: the arriving word the wave expects
    // (t == a0 + s) and anything at/after the consumption cycle t0 + s.
    const Wave& w = waves_[input];
    const Cycle st = static_cast<Cycle>(s);
    PMSB_CHECK(t == w.a0 + st || t >= w.t0 + st,
               "input latch overwritten while a scheduled write wave still "
               "needs it -- the no-double-buffering property is violated");
    loads_.push_back({i, data});  // A later load of the same latch wins.
  }

  /// Declare that the write wave initiated at t0 (for the segment whose
  /// head word was latched at the end of a0) consumes IR[input][s] during
  /// cycle t0 + s. The word it expects there is the one committing at the
  /// end of a0 + s -- that commit is legal even though it happens inside the
  /// protection window; any *other* commit before the consumption cycle
  /// destroys data the wave still needs (the violation the wide memory
  /// avoids only by double buffering). Replaces the input's earlier wave.
  void protect_for_wave(unsigned input, Cycle t0, Cycle a0) {
    PMSB_CHECK(t0 > a0, "write wave cannot initiate before the head word is latched");
    PMSB_CHECK(input < n_inputs_, "latch index out of range");
    waves_[input] = Wave{t0, a0};
  }

  /// Clock edge at the end of cycle t.
  void tick(Cycle) {
    for (const Load& l : loads_) q_[l.latch] = l.data;
    loads_.clear();
  }

 private:
  std::size_t index(unsigned input, unsigned s) const {
    PMSB_CHECK(input < n_inputs_ && s < stages_, "latch index out of range");
    return static_cast<std::size_t>(input) * stages_ + s;
  }

  /// The wave protecting an input's row; the initial value protects nothing.
  struct Wave {
    Cycle t0 = std::numeric_limits<Cycle>::min() / 2;
    Cycle a0 = std::numeric_limits<Cycle>::min() / 2;
  };
  struct Load {
    std::size_t latch;
    Word data;
  };

  unsigned n_inputs_;
  unsigned stages_;
  Word mask_;
  std::vector<Word> q_;       ///< [input * stages_ + s]: committed values.
  std::vector<Wave> waves_;   ///< Per input.
  SmallVec<Load, 32> loads_;  ///< This cycle's loads, in call order.
};

}  // namespace pmsb
