// The single shared row of output buffer registers (figure 4).
//
// "Figure 4 uses only one row of output buffer registers shared among all
//  outgoing links, with the restriction that no two outgoing links can
//  start sending out packets in the same cycle." (section 3.2)
//
// OR[s] is loaded at the end of the cycle in which stage s performs a read
// (or snoops a write bus), and drives the selected outgoing link during the
// following cycle. Because read waves advance one stage per cycle, each
// OR[s] value is consumed exactly one cycle after it is loaded; the class
// asserts that sharing discipline (one load per stage per cycle; one
// register driving a given link per cycle -- the latter via WireLink's
// single-driver check).
//
// The row remembers which stages it loaded this cycle, so driving the links
// and the clock edge touch only those registers, in load order (ascending
// stage order for each memory's exec_cycle; registers that drive the same
// cycle target distinct links, so the order never changes what is driven).

#pragma once

#include <cstdint>
#include <vector>

#include "common/cell.hpp"
#include "common/small_vec.hpp"
#include "common/util.hpp"
#include "sim/wire.hpp"

namespace pmsb {

class OutputRow {
 public:
  OutputRow(unsigned stages, unsigned n_outputs, unsigned word_bits);

  /// Stage s captures `data` this cycle, to drive `out_link` next cycle.
  /// `sop` marks the head word of a cell (stage 0 of the head segment).
  void load(unsigned s, Word data, unsigned out_link, bool sop) {
    PMSB_CHECK(s < stages_, "output-row stage out of range");
    PMSB_CHECK(out_link < n_outputs_, "output link out of range");
    PMSB_CHECK((data & ~mask_) == 0, "output word wider than the link");
    Slot& slot = staged_[s];
    PMSB_CHECK(!slot.valid, "output register loaded twice in one cycle");
    slot = Slot{true, out_link, Flit{true, sop, data}};
    loaded_.push_back(s);
  }

  /// Put every value loaded this cycle onto its outgoing link for the next
  /// cycle (the register -> link-driver path). Call once per eval, after the
  /// memory stages executed.
  void drive_links(std::vector<WireLink>& out_links) {
    PMSB_CHECK(out_links.size() == n_outputs_, "output link count mismatch");
    for (const unsigned s : loaded_) out_links[staged_[s].out_link].drive_next(staged_[s].flit);
  }

  /// Clock edge.
  void tick() {
    for (const unsigned s : loaded_) staged_[s].valid = false;
    loaded_.clear();
  }

 private:
  unsigned stages_;
  unsigned n_outputs_;
  Word mask_;

  struct Slot {
    bool valid = false;
    unsigned out_link = 0;
    Flit flit;
  };
  std::vector<Slot> staged_;       ///< Per stage: the load performed this cycle.
  SmallVec<unsigned, 64> loaded_;  ///< Stages loaded this cycle, in load order.
};

}  // namespace pmsb
