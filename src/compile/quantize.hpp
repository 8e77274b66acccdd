// Calibration-based post-training int8 quantization.
//
// The pass runs the (folded + fused) float graph on a handful of
// single-sample calibration inputs through a serial, unplanned
// rt::Executor, records per-value activation ranges, and rewrites the
// graph into the integer domain:
//
//   input -> quantize -> {qconv2d / qadd / qavg_pool / qgap / qlinear /
//   qrelu}* -> dequantize -> f32 logits
//
// Activations are asymmetric per-tensor (zero point nudged onto the
// int8 grid), weights symmetric per-output-channel, biases int32 at
// scale in_scale * w_scale[c], and every requantization goes through
// hw/quant's fixed-point multiplier — no float arithmetic survives
// between the quantize and dequantize endpoints, which is what makes
// inference bit-identical across runs and thread counts.
#pragma once

#include <vector>

#include "src/compile/pass_manager.hpp"
#include "src/hw/quant.hpp"
#include "src/tensor/tensor.hpp"

namespace micronas::compile {

struct QuantizePassOptions {
  QuantSpec spec;  // must be 8-bit
};

class QuantizePass final : public Pass {
 public:
  /// `calibration` batches must match the graph's input type.
  QuantizePass(std::vector<Tensor> calibration, QuantizePassOptions options = {});

  std::string name() const override { return "int8-ptq"; }
  bool run(ir::Graph& graph) override;

 private:
  std::vector<Tensor> calibration_;
  QuantizePassOptions options_;
};

}  // namespace micronas::compile
