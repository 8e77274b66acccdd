#include "src/ir/lower.hpp"

#include <cmath>
#include <map>
#include <string>
#include <vector>

#include "src/common/rng.hpp"
#include "src/nb201/ops.hpp"

namespace micronas::ir {

namespace {

/// Builder threaded through the skeleton emission. Every parameterized
/// layer draws from its own forked stream so the weights of one layer
/// do not depend on how many layers precede it.
struct Lowering {
  Graph graph;
  const LowerOptions& options;
  Rng rng;
  std::uint64_t layer_counter = 0;
  // One shared all-zero constant per activation shape (`none` edges).
  std::map<std::vector<int>, int> zero_consts;

  explicit Lowering(const LowerOptions& opts) : options(opts), rng(splitmix64(opts.seed)) {}

  Rng layer_rng() { return rng.fork(++layer_counter); }

  int zero_const(const Shape& shape) {
    auto it = zero_consts.find(shape.dims());
    if (it != zero_consts.end()) return it->second;
    const int id = graph.add_const(Tensor(shape), "zero" + shape.to_string());
    zero_consts.emplace(shape.dims(), id);
    return id;
  }

  /// conv(+BN)(+ReLU): the canonical parameterized chain. Returns the
  /// id of the chain's last node.
  int conv_bn_relu(int x, int cout, int kernel, int stride, int pad, bool relu,
                   const std::string& name) {
    Rng wrng = layer_rng();
    const int cin = graph.node(x).type.shape[1];
    Tensor weight(Shape{cout, cin, kernel, kernel});
    const float stddev =
        std::sqrt(2.0F / static_cast<float>(cin * kernel * kernel));  // Kaiming
    wrng.fill_normal(weight.data(), 0.0F, stddev);
    const int w = graph.add_const(std::move(weight), name + ".w");

    ConvAttrs attrs;
    attrs.kernel = kernel;
    attrs.stride = stride;
    attrs.pad = pad;
    int y = graph.add_node(OpKind::kConv2d, {x, w}, attrs, name);

    if (options.emit_batch_norm) {
      Tensor gamma(Shape{cout}), beta(Shape{cout}), mean(Shape{cout}), var(Shape{cout});
      wrng.fill_uniform(gamma.data(), 0.8F, 1.2F);
      wrng.fill_normal(beta.data(), 0.0F, 0.1F);
      wrng.fill_normal(mean.data(), 0.0F, 0.1F);
      wrng.fill_uniform(var.data(), 0.5F, 1.5F);
      const int g = graph.add_const(std::move(gamma), name + ".bn.gamma");
      const int b = graph.add_const(std::move(beta), name + ".bn.beta");
      const int mu = graph.add_const(std::move(mean), name + ".bn.mean");
      const int v = graph.add_const(std::move(var), name + ".bn.var");
      y = graph.add_node(OpKind::kBatchNorm, {y, g, b, mu, v}, {}, name + ".bn");
    }
    if (relu) y = graph.add_node(OpKind::kRelu, {y}, {}, name + ".relu");
    return y;
  }

  /// One searched cell: node j = Σ_{i<j} op(i→j)(node_i).
  int cell(int x, const nb201::Genotype& g, const std::string& name) {
    std::vector<int> node_vals(nb201::kNumNodes, -1);
    node_vals[0] = x;
    for (int node = 1; node < nb201::kNumNodes; ++node) {
      int acc = -1;
      for (int from = 0; from < node; ++from) {
        const std::string ename =
            name + ".n" + std::to_string(node) + ".e" + std::to_string(from);
        const int src = node_vals[static_cast<std::size_t>(from)];
        int contrib = -1;
        switch (g.op(from, node)) {
          case nb201::Op::kNone:
            contrib = zero_const(graph.node(src).type.shape);
            break;
          case nb201::Op::kSkipConnect:
            contrib = src;  // identity edges alias their source value
            break;
          case nb201::Op::kConv1x1: {
            const int c = graph.node(src).type.shape[1];
            contrib = conv_bn_relu(src, c, 1, 1, 0, true, ename + ".conv1x1");
            break;
          }
          case nb201::Op::kConv3x3: {
            const int c = graph.node(src).type.shape[1];
            contrib = conv_bn_relu(src, c, 3, 1, 1, true, ename + ".conv3x3");
            break;
          }
          case nb201::Op::kAvgPool3x3: {
            ConvAttrs attrs;
            attrs.kernel = 3;
            attrs.stride = 1;
            attrs.pad = 1;
            contrib = graph.add_node(OpKind::kAvgPool, {src}, attrs, ename + ".avg_pool");
            break;
          }
        }
        acc = acc < 0 ? contrib
                      : graph.add_node(OpKind::kAdd, {acc, contrib}, {},
                                       name + ".n" + std::to_string(node) + ".sum");
      }
      node_vals[static_cast<std::size_t>(node)] = acc;
    }
    return node_vals[nb201::kNumNodes - 1];
  }

  /// NB201 residual reduction: conv3x3(s2)-BN-ReLU → conv3x3-BN on the
  /// main path, 1x1(s2)-BN shortcut, elementwise add, ReLU.
  int reduction(int x, const std::string& name) {
    const int cin = graph.node(x).type.shape[1];
    const int cout = cin * 2;
    int main_path = conv_bn_relu(x, cout, 3, 2, 1, true, name + ".conv_a");
    main_path = conv_bn_relu(main_path, cout, 3, 1, 1, false, name + ".conv_b");
    const int shortcut = conv_bn_relu(x, cout, 1, 2, 0, false, name + ".shortcut");
    const int sum = graph.add_node(OpKind::kAdd, {main_path, shortcut}, {}, name + ".add");
    return graph.add_node(OpKind::kRelu, {sum}, {}, name + ".relu");
  }
};

}  // namespace

Graph lower_genotype(const nb201::Genotype& genotype, const LowerOptions& options) {
  const MacroNetConfig& m = options.macro;
  if (m.num_stages < 1 || m.cells_per_stage < 1) {
    throw std::invalid_argument("lower_genotype: stages and cells_per_stage must be >= 1");
  }
  Lowering lw(options);

  int x = lw.graph.add_input(
      TensorType{Shape{1, m.input_channels, m.input_size, m.input_size},
                 DType::kF32});

  x = lw.conv_bn_relu(x, m.base_channels, 3, 1, 1, true, "stem");

  for (int stage = 0; stage < m.num_stages; ++stage) {
    const std::string sname = std::string("s") + std::to_string(stage);
    if (stage > 0) x = lw.reduction(x, sname + ".reduce");
    for (int c = 0; c < m.cells_per_stage; ++c) {
      x = lw.cell(x, genotype, sname + ".c" + std::to_string(c));
    }
  }

  x = lw.graph.add_node(OpKind::kGlobalAvgPool, {x}, {}, "gap");

  {
    Rng wrng = lw.layer_rng();
    const int features = lw.graph.node(x).type.shape[1];
    Tensor weight(Shape{m.num_classes, features});
    wrng.fill_normal(weight.data(), 0.0F, std::sqrt(1.0F / static_cast<float>(features)));
    Tensor bias(Shape{m.num_classes});
    wrng.fill_normal(bias.data(), 0.0F, 0.01F);
    const int w = lw.graph.add_const(std::move(weight), "fc.w");
    const int b = lw.graph.add_const(std::move(bias), "fc.b");
    x = lw.graph.add_node(OpKind::kLinear, {x, w, b}, {}, "fc");
  }

  lw.graph.set_output(x);
  lw.graph.validate();
  return std::move(lw.graph);
}

}  // namespace micronas::ir
