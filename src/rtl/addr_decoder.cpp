#include "rtl/addr_decoder.hpp"

#include <algorithm>
#include <bit>

namespace pmsb {

std::vector<bool> decode_one_hot(std::uint32_t addr, std::size_t words) {
  PMSB_CHECK(addr < words, "decode address out of range");
  std::vector<bool> lines(words, false);
  lines[addr] = true;
  return lines;
}

std::uint32_t encode_from_one_hot(const std::vector<bool>& lines) {
  long found = -1;
  for (std::size_t i = 0; i < lines.size(); ++i) {
    if (lines[i]) {
      PMSB_CHECK(found < 0, "word-line vector is not one-hot");
      found = static_cast<long>(i);
    }
  }
  PMSB_CHECK(found >= 0, "word-line vector has no active line");
  return static_cast<std::uint32_t>(found);
}

AddressPath::AddressPath(unsigned stages, std::size_t words, AddrPathMode mode)
    : stages_(stages),
      words_(words),
      mode_(mode),
      blocks_((words + 63) / 64),
      bits_(stages * ((words + 63) / 64), 0) {
  PMSB_CHECK(stages >= 1, "address path needs at least one stage");
  PMSB_CHECK(words >= 1, "address path needs at least one word line");
}

long AddressPath::active_addr(unsigned s, std::uint32_t ctrl_addr, bool stage_active) {
  PMSB_CHECK(s < stages_, "stage index out of range");
  if (mode_ == AddrPathMode::kPerStageDecoders) {
    if (!stage_active) return -1;
    ++decode_ops_;
    PMSB_CHECK(ctrl_addr < words_, "decode address out of range");
    return static_cast<long>(ctrl_addr);
  }
  // Figure 7(b): stage 0 decodes; later stages use the registered one-hot
  // vector shifted along the word lines.
  if (s == 0) {
    if (!stage_active) return -1;
    ++decode_ops_;
    PMSB_CHECK(ctrl_addr < words_, "decode address out of range");
    // phys(0) was cleared by the previous tick(); stage 0 decodes at most
    // once per cycle (one wave initiation per cycle).
    bits_[phys(0) * blocks_ + ctrl_addr / 64] |= std::uint64_t{1} << (ctrl_addr % 64);
    ++live_;
    return static_cast<long>(ctrl_addr);
  }
  // Scan the whole register without data-dependent branches: collect any
  // block with two or more lines high, count the non-zero blocks and note
  // the last one; OR all blocks to locate the active line.
  const std::uint64_t* blocks = &bits_[phys(s) * blocks_];
  std::uint64_t any = 0;
  std::uint64_t multi = 0;
  std::size_t nonzero = 0;
  std::size_t block = 0;
  for (std::size_t i = 0; i < blocks_; ++i) {
    const std::uint64_t b = blocks[i];
    any |= b;
    multi |= b & (b - 1);
    nonzero += b != 0;
    block = b != 0 ? i : block;
  }
  PMSB_CHECK(multi == 0 && nonzero <= 1, "word-line vector is not one-hot");
  const long found =
      any != 0 ? static_cast<long>(block * 64 + static_cast<std::size_t>(std::countr_zero(any)))
               : -1;
  if (found < 0) {
    PMSB_CHECK(!stage_active, "control pipeline active but word-line pipeline idle");
    return -1;
  }
  PMSB_CHECK(stage_active, "word-line pipeline active but control pipeline idle");
  PMSB_CHECK(static_cast<std::uint32_t>(found) == ctrl_addr,
             "decoded-address pipeline diverged from the address the control "
             "pipeline carries (figure 7b functional-equivalence violation)");
  return found;
}

void AddressPath::tick() {
  if (mode_ != AddrPathMode::kDecodedPipeline) return;
  // Rotate the ring: old phys(s-1) becomes new phys(s). The retiring last
  // register (its stage already fired) becomes the new staging slot and is
  // wiped for the next decode. Every other live register -- the staged
  // decoder output and each inter-stage register -- transfers into its
  // successor.
  const unsigned last = phys(stages_ - 1);
  std::uint64_t* retiring = &bits_[last * blocks_];
  const bool retired =
      std::any_of(retiring, retiring + blocks_, [](std::uint64_t b) { return b != 0; });
  one_hot_transfers_ += live_ - retired;
  live_ -= retired;
  std::fill_n(retiring, blocks_, 0);
  head_ = last;
}

}  // namespace pmsb
