#include "src/compile/quantize.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "src/rt/runtime.hpp"

namespace micronas::compile {

namespace {

struct Range {
  double min = std::numeric_limits<double>::infinity();
  double max = -std::numeric_limits<double>::infinity();
  bool seen() const { return min <= max; }
};

/// Per-output-channel symmetric weight quantization (int8 in
/// [-127, 127] so +/- ranges stay symmetric).
struct QuantizedWeights {
  std::vector<std::int8_t> data;
  std::vector<double> scales;  // per output channel
};

QuantizedWeights quantize_weights(const Tensor& w, int cout) {
  QuantizedWeights out;
  const std::size_t per_channel = w.numel() / static_cast<std::size_t>(cout);
  out.data.resize(w.numel());
  out.scales.resize(static_cast<std::size_t>(cout));
  for (int c = 0; c < cout; ++c) {
    double abs_max = 0.0;
    for (std::size_t k = 0; k < per_channel; ++k) {
      abs_max = std::max(abs_max,
                         std::abs(static_cast<double>(w[static_cast<std::size_t>(c) * per_channel + k])));
    }
    const double scale = choose_symmetric_scale(abs_max);
    out.scales[static_cast<std::size_t>(c)] = scale;
    for (std::size_t k = 0; k < per_channel; ++k) {
      const std::size_t i = static_cast<std::size_t>(c) * per_channel + k;
      const long q = std::lround(static_cast<double>(w[i]) / scale);
      out.data[i] = static_cast<std::int8_t>(std::clamp<long>(q, -kInt8Max, kInt8Max));
    }
  }
  return out;
}

std::vector<std::int32_t> quantize_bias(const Tensor* bias, int cout, double in_scale,
                                        const std::vector<double>& w_scales) {
  std::vector<std::int32_t> out(static_cast<std::size_t>(cout), 0);
  if (!bias) return out;
  for (int c = 0; c < cout; ++c) {
    const double scale = in_scale * w_scales[static_cast<std::size_t>(c)];
    const double q = static_cast<double>((*bias)[static_cast<std::size_t>(c)]) / scale;
    out[static_cast<std::size_t>(c)] = static_cast<std::int32_t>(std::llround(q));
  }
  return out;
}

}  // namespace

QuantizePass::QuantizePass(std::vector<Tensor> calibration, QuantizePassOptions options)
    : calibration_(std::move(calibration)), options_(options) {
  if (calibration_.empty()) {
    throw std::invalid_argument("QuantizePass: at least one calibration batch required");
  }
  if (options_.spec.bits != 8) {
    throw std::invalid_argument("QuantizePass: only 8-bit quantization is implemented");
  }
}

bool QuantizePass::run(ir::Graph& graph) {
  // Only the canonical post-fusion op set can be lowered to int8.
  for (const auto& node : graph.nodes()) {
    switch (node.op) {
      case ir::OpKind::kInput:
      case ir::OpKind::kConst:
      case ir::OpKind::kConv2d:
      case ir::OpKind::kRelu:
      case ir::OpKind::kAvgPool:
      case ir::OpKind::kAdd:
      case ir::OpKind::kGlobalAvgPool:
      case ir::OpKind::kLinear:
        break;
      case ir::OpKind::kBatchNorm:
      case ir::OpKind::kChannelAffine:
        throw std::invalid_argument(
            "QuantizePass: graph still contains " + op_kind_name(node.op) +
            " — run constant-fold and fuse-conv-bn-relu first");
      default:
        throw std::invalid_argument("QuantizePass: graph is already quantized (" +
                                    op_kind_name(node.op) + ")");
    }
  }

  // ---- calibration: per-value activation ranges on the float graph.
  std::vector<Range> ranges(static_cast<std::size_t>(graph.size()));
  {
    rt::Executor calib(graph);
    calib.set_observer([&ranges](int id, std::span<const float> values) {
      Range& r = ranges[static_cast<std::size_t>(id)];
      for (float v : values) {
        r.min = std::min(r.min, static_cast<double>(v));
        r.max = std::max(r.max, static_cast<double>(v));
      }
    });
    for (const Tensor& batch : calibration_) calib.run(batch);
  }
  const auto activation_params = [&](int old_id) {
    const Range& r = ranges[static_cast<std::size_t>(old_id)];
    if (!r.seen()) {
      throw std::logic_error("QuantizePass: no calibration data for node %" +
                             std::to_string(old_id));
    }
    return choose_affine_params(r.min, r.max);
  };

  // ---- rewrite into a fresh integer graph.
  ir::Graph q;
  std::vector<int> map(static_cast<std::size_t>(graph.size()), -1);
  std::vector<AffineParams> qparams(static_cast<std::size_t>(graph.size()));

  // Activation-position operand: a rewritten node, or an f32 constant
  // that survived folding (e.g. an all-`none` cell output) which gets
  // quantized in place with its own range.
  const auto operand = [&](int old_id) {
    if (map[static_cast<std::size_t>(old_id)] >= 0) return map[static_cast<std::size_t>(old_id)];
    const ir::Node& c = graph.node(old_id);
    if (!c.is_const() || c.type.dtype != ir::DType::kF32) {
      throw std::logic_error("QuantizePass: unmapped operand %" + std::to_string(old_id));
    }
    double lo = 0.0, hi = 0.0;
    for (float v : c.f32_data.data()) {
      lo = std::min(lo, static_cast<double>(v));
      hi = std::max(hi, static_cast<double>(v));
    }
    const AffineParams p = choose_affine_params(lo, hi);
    std::vector<std::int8_t> data(c.f32_data.numel());
    for (std::size_t i = 0; i < data.size(); ++i) data[i] = quantize_one(c.f32_data[i], p);
    const int id = q.add_const_i8(c.type.shape, std::move(data), c.name + ".q");
    map[static_cast<std::size_t>(old_id)] = id;
    qparams[static_cast<std::size_t>(old_id)] = p;
    return id;
  };
  const auto params_of = [&](int old_id) { return qparams[static_cast<std::size_t>(old_id)]; };
  const auto single_multiplier = [](double m) {
    ir::QuantAttrs a;
    a.mantissa.resize(1);
    a.shift.resize(1);
    quantize_multiplier(m, &a.mantissa[0], &a.shift[0]);
    return a;
  };

  for (const auto& old_node : graph.nodes()) {
    const int old_id = old_node.id;
    switch (old_node.op) {
      case ir::OpKind::kConst:
        break;  // consumed lazily via operand()/weight handling

      case ir::OpKind::kInput: {
        const int in_id = q.add_input(old_node.type, old_node.name);
        const AffineParams p = activation_params(old_id);
        const int quant_id = q.add_node(ir::OpKind::kQuantize, {in_id}, {}, "quantize_input");
        q.node(quant_id).quant.out_q = p;
        map[static_cast<std::size_t>(old_id)] = quant_id;
        qparams[static_cast<std::size_t>(old_id)] = p;
        break;
      }

      case ir::OpKind::kConv2d:
      case ir::OpKind::kLinear: {
        const bool is_conv = old_node.op == ir::OpKind::kConv2d;
        const int x = operand(old_node.inputs[0]);
        const AffineParams in_p = params_of(old_node.inputs[0]);
        const AffineParams out_p = activation_params(old_id);
        const ir::Node& w_const = graph.node(old_node.inputs[1]);
        const int cout = w_const.type.shape[0];
        QuantizedWeights qw = quantize_weights(w_const.f32_data, cout);
        const Tensor* bias =
            old_node.inputs.size() == 3 ? &graph.node(old_node.inputs[2]).f32_data : nullptr;
        std::vector<std::int32_t> qb = quantize_bias(bias, cout, in_p.scale, qw.scales);

        const int w_id = q.add_const_i8(w_const.type.shape, std::move(qw.data),
                                        w_const.name + ".q");
        const int b_id = q.add_const_i32(Shape{cout}, std::move(qb),
                                         old_node.name + ".bias.q");
        const int id = q.add_node(is_conv ? ir::OpKind::kQConv2d : ir::OpKind::kQLinear,
                                  {x, w_id, b_id}, old_node.conv, old_node.name);
        ir::QuantAttrs attrs;
        attrs.in_q = in_p;
        attrs.out_q = out_p;
        attrs.mantissa.resize(static_cast<std::size_t>(cout));
        attrs.shift.resize(static_cast<std::size_t>(cout));
        for (int c = 0; c < cout; ++c) {
          const double m = in_p.scale * qw.scales[static_cast<std::size_t>(c)] / out_p.scale;
          quantize_multiplier(m, &attrs.mantissa[static_cast<std::size_t>(c)],
                              &attrs.shift[static_cast<std::size_t>(c)]);
        }
        q.node(id).quant = std::move(attrs);
        map[static_cast<std::size_t>(old_id)] = id;
        qparams[static_cast<std::size_t>(old_id)] = out_p;
        break;
      }

      case ir::OpKind::kAvgPool: {
        const int x = operand(old_node.inputs[0]);
        const AffineParams in_p = params_of(old_node.inputs[0]);
        const AffineParams out_p = activation_params(old_id);
        const int id = q.add_node(ir::OpKind::kQAvgPool, {x}, old_node.conv, old_node.name);
        const int window = old_node.conv.kernel * old_node.conv.kernel;
        ir::QuantAttrs attrs = single_multiplier(in_p.scale / (window * out_p.scale));
        attrs.in_q = in_p;
        attrs.out_q = out_p;
        q.node(id).quant = std::move(attrs);
        map[static_cast<std::size_t>(old_id)] = id;
        qparams[static_cast<std::size_t>(old_id)] = out_p;
        break;
      }

      case ir::OpKind::kGlobalAvgPool: {
        const int x = operand(old_node.inputs[0]);
        const AffineParams in_p = params_of(old_node.inputs[0]);
        const AffineParams out_p = activation_params(old_id);
        const Shape& xs = graph.node(old_node.inputs[0]).type.shape;
        const int id = q.add_node(ir::OpKind::kQGlobalAvgPool, {x}, {}, old_node.name);
        ir::QuantAttrs attrs = single_multiplier(in_p.scale / (xs[2] * xs[3] * out_p.scale));
        attrs.in_q = in_p;
        attrs.out_q = out_p;
        q.node(id).quant = std::move(attrs);
        map[static_cast<std::size_t>(old_id)] = id;
        qparams[static_cast<std::size_t>(old_id)] = out_p;
        break;
      }

      case ir::OpKind::kAdd: {
        const int a = operand(old_node.inputs[0]);
        const AffineParams a_p = params_of(old_node.inputs[0]);
        const int b = operand(old_node.inputs[1]);
        const AffineParams b_p = params_of(old_node.inputs[1]);
        const AffineParams out_p = activation_params(old_id);
        const int id = q.add_node(ir::OpKind::kQAdd, {a, b}, {}, old_node.name);
        ir::QuantAttrs attrs = single_multiplier(a_p.scale / out_p.scale);
        attrs.in_q = a_p;
        attrs.in2_q = b_p;
        attrs.out_q = out_p;
        quantize_multiplier(b_p.scale / out_p.scale, &attrs.mantissa2, &attrs.shift2);
        q.node(id).quant = std::move(attrs);
        map[static_cast<std::size_t>(old_id)] = id;
        qparams[static_cast<std::size_t>(old_id)] = out_p;
        break;
      }

      case ir::OpKind::kRelu: {
        // Integer ReLU is max(q, zp) on the *input* grid; output keeps
        // the producer's parameters (the TFLite convention).
        const int x = operand(old_node.inputs[0]);
        const AffineParams in_p = params_of(old_node.inputs[0]);
        const int id = q.add_node(ir::OpKind::kQRelu, {x}, {}, old_node.name);
        q.node(id).quant.in_q = in_p;
        q.node(id).quant.out_q = in_p;
        map[static_cast<std::size_t>(old_id)] = id;
        qparams[static_cast<std::size_t>(old_id)] = in_p;
        break;
      }

      default:
        throw std::logic_error("QuantizePass: unexpected op " + op_kind_name(old_node.op));
    }
  }

  const int q_out = operand(graph.output());
  const int deq = q.add_node(ir::OpKind::kDequantize, {q_out}, {}, "dequantize_output");
  q.node(deq).quant.in_q = params_of(graph.output());
  q.set_output(deq);
  q.validate();

  graph = std::move(q);
  return true;
}

}  // namespace micronas::compile
