#include "core/input_latches.hpp"

namespace pmsb {

InputLatches::InputLatches(unsigned n_inputs, unsigned stages, unsigned word_bits)
    : n_inputs_(n_inputs), stages_(stages), mask_(low_mask(word_bits)),
      q_(static_cast<std::size_t>(n_inputs) * stages), waves_(n_inputs) {
  PMSB_CHECK(n_inputs > 0 && stages > 0, "degenerate latch array");
}

}  // namespace pmsb
