#include "core/output_row.hpp"

namespace pmsb {

OutputRow::OutputRow(unsigned stages, unsigned n_outputs, unsigned word_bits)
    : stages_(stages), n_outputs_(n_outputs), mask_(low_mask(word_bits)), staged_(stages) {
  PMSB_CHECK(stages > 0 && n_outputs > 0, "degenerate output row");
}

}  // namespace pmsb
