#include "rtl/ctrl_pipeline.hpp"

namespace pmsb {

const char* to_string(StageOp op) {
  switch (op) {
    case StageOp::kNone: return "none";
    case StageOp::kWrite: return "write";
    case StageOp::kRead: return "read";
    case StageOp::kWriteSnoop: return "write+snoop";
  }
  return "?";
}

CtrlPipeline::CtrlPipeline(unsigned stages) : stages_(stages), ring_(stages) {
  PMSB_CHECK(stages >= 1, "control pipeline needs at least one stage");
}

void CtrlPipeline::tick() {
  // Every live entry but the one leaving the last stage crosses a pipeline
  // register. The retiring last slot becomes stage 0's slot for the next
  // cycle: the old slot(s-1) is the new slot(s).
  const unsigned last = slot(stages_ - 1);
  const bool retiring = !ring_[last].idle();
  ctrl_reg_transfers_ += live_ - retiring;
  live_ -= retiring;
  ring_[last] = StageCtrl{};
  head_ = last;
  injected_this_cycle_ = false;
}

}  // namespace pmsb
