// Packed int8 GEMM kernels: the blocked/vectorized paths behind
// qconv2d_auto / qlinear_auto must be byte-identical to the scalar
// reference kernels for every shape, batch size and thread count the
// selection table can route to them — exact int32 accumulation means
// layout and schedule cannot legally change a single output byte.
// Also pins the packing layout (ABI: serialized into .mnpkg PACK
// sections), the selection table itself, and the BatchedExecutor
// per-sample parallelism gate these kernels run behind.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <random>
#include <string>
#include <vector>

#include "src/common/thread_pool.hpp"
#include "src/compile/compiler.hpp"
#include "src/hw/quant.hpp"
#include "src/nb201/genotype.hpp"
#include "src/rt/kernels_int8.hpp"
#include "src/rt/kernels_int8_gemm.hpp"
#include "src/rt/runtime.hpp"

namespace micronas::rt {
namespace {

struct ConvCase {
  int batch, cin, hw, cout, kernel, stride, pad;
};

std::string case_name(const ConvCase& c) {
  return "batch=" + std::to_string(c.batch) + " cin=" + std::to_string(c.cin) +
         " hw=" + std::to_string(c.hw) + " cout=" + std::to_string(c.cout) +
         " k=" + std::to_string(c.kernel) + " s=" + std::to_string(c.stride) +
         " p=" + std::to_string(c.pad);
}

/// Random-but-deterministic conv operands with per-channel requant
/// params covering both positive and negative shifts.
struct ConvData {
  std::vector<std::int8_t> input, weight;
  std::vector<std::int32_t> bias, weight_sum, mantissa;
  std::vector<int> shift;
  int out_h, out_w;

  explicit ConvData(const ConvCase& c, std::uint32_t seed) {
    std::mt19937 rng(seed);
    out_h = (c.hw + 2 * c.pad - c.kernel) / c.stride + 1;
    out_w = out_h;
    const int patch = c.cin * c.kernel * c.kernel;
    input.resize(static_cast<std::size_t>(c.batch) * c.cin * c.hw * c.hw);
    weight.resize(static_cast<std::size_t>(c.cout) * patch);
    for (auto& v : input) v = static_cast<std::int8_t>(rng());
    for (auto& v : weight) v = static_cast<std::int8_t>(rng());
    bias.resize(c.cout);
    weight_sum.assign(c.cout, 0);
    mantissa.resize(c.cout);
    shift.resize(c.cout);
    for (int ch = 0; ch < c.cout; ++ch) {
      bias[ch] = static_cast<std::int32_t>(rng() % 2001) - 1000;
      for (int k = 0; k < patch; ++k) weight_sum[ch] += weight[ch * patch + k];
      quantize_multiplier(0.0005 + 0.001 * (ch % 7), &mantissa[ch], &shift[ch]);
    }
  }
};

QConv2dArgs conv_args(const ConvCase& c, ConvData& d, std::int8_t* columns, std::int8_t* out) {
  QConv2dArgs a{};
  a.batch = c.batch;
  a.cin = c.cin;
  a.h = a.w = c.hw;
  a.cout = c.cout;
  a.kernel = c.kernel;
  a.stride = c.stride;
  a.pad = c.pad;
  a.out_h = d.out_h;
  a.out_w = d.out_w;
  a.in_zp = -3;
  a.out_zp = 5;
  a.fused_relu = true;
  a.input = d.input.data();
  a.weight = d.weight.data();
  a.bias = d.bias.data();
  a.weight_sum = d.weight_sum.data();
  a.mantissa = d.mantissa.data();
  a.shift = d.shift.data();
  a.columns = columns;
  a.output = out;
  return a;
}

std::size_t conv_scratch_bytes(const ConvCase& c, const ConvData& d) {
  const std::size_t scalar = static_cast<std::size_t>(c.batch) * d.out_h * d.out_w * c.cin *
                             c.kernel * c.kernel;
  const std::size_t gemm = static_cast<std::size_t>(c.batch) *
                           qconv_gemm_scratch_bytes(c.cin, c.hw, c.hw, c.kernel, c.pad, d.out_h,
                                                    d.out_w);
  return std::max(scalar, gemm);
}

// The headline property: for a grid of shapes crossing kernel size,
// stride, padding, ragged channel counts and batch sizes, every kernel
// the selection table can pick produces output bytes memcmp-equal to
// the scalar reference, for serial and pooled execution alike.
TEST(QConvGemm, AllSelectedKernelsBitIdenticalToScalarAcrossShapesAndThreads) {
  const ConvCase cases[] = {
      {1, 3, 9, 8, 3, 1, 1},   {1, 16, 16, 16, 3, 1, 1}, {2, 16, 16, 8, 3, 2, 1},
      {1, 33, 7, 17, 3, 1, 1}, {3, 8, 5, 24, 3, 2, 1},   {1, 16, 8, 16, 3, 1, 0},
      {1, 16, 16, 16, 1, 1, 0}, {2, 64, 4, 64, 1, 1, 0}, {1, 32, 8, 32, 1, 2, 0},
      {2, 24, 6, 40, 1, 1, 0},  {1, 64, 8, 64, 1, 1, 0},
  };
  ThreadPool pool3(3);
  ThreadPool pool7(7);
  for (const ConvCase& c : cases) {
    ConvData d(c, 0xC0FFEEu ^ static_cast<std::uint32_t>(c.cin * 131 + c.kernel));
    const std::size_t out_elems = static_cast<std::size_t>(c.batch) * c.cout * d.out_h * d.out_w;
    std::vector<std::int8_t> scratch(conv_scratch_bytes(c, d));
    std::vector<std::int8_t> ref(out_elems), got(out_elems);

    QConv2dArgs a = conv_args(c, d, scratch.data(), ref.data());
    qconv2d(a, nullptr);

    const int patch = c.cin * c.kernel * c.kernel;
    const PackedWeights packed = pack_weights_dot16(d.weight.data(), c.cout, patch);
    struct Variant {
      const char* what;
      const PackedWeights* packed;
      ThreadPool* pool;
    };
    const Variant variants[] = {
        {"auto/packed/serial", &packed, nullptr}, {"auto/packed/pool3", &packed, &pool3},
        {"auto/packed/pool7", &packed, &pool7},   {"auto/unpacked/serial", nullptr, nullptr},
        {"auto/unpacked/pool3", nullptr, &pool3},
    };
    for (const Variant& v : variants) {
      std::fill(got.begin(), got.end(), std::int8_t{0});
      QConv2dArgs b = conv_args(c, d, scratch.data(), got.data());
      qconv2d_auto(b, v.packed, v.pool);
      ASSERT_EQ(std::memcmp(ref.data(), got.data(), out_elems), 0)
          << case_name(c) << " via " << v.what << " ("
          << qconv_kernel_name(select_qconv_kernel(b, v.packed)) << ")";
    }
  }
}

TEST(QConvGemm, GemmKernelItselfBitIdenticalWhereSelectionPrefersDirect) {
  // 1x1/s1/p0 with a large plane routes to the direct kernel; force
  // the GEMM down the same shapes via a stride-2 sibling so both
  // blocked kernels stay covered on 1x1 weights.
  const ConvCase c{2, 32, 8, 32, 1, 2, 0};
  ConvData d(c, 77);
  const std::size_t out_elems = static_cast<std::size_t>(c.batch) * c.cout * d.out_h * d.out_w;
  std::vector<std::int8_t> scratch(conv_scratch_bytes(c, d));
  std::vector<std::int8_t> ref(out_elems), got(out_elems);
  QConv2dArgs a = conv_args(c, d, scratch.data(), ref.data());
  qconv2d(a, nullptr);
  const PackedWeights packed = pack_weights_dot16(d.weight.data(), c.cout, c.cin);
  QConv2dArgs b = conv_args(c, d, scratch.data(), got.data());
  ASSERT_EQ(select_qconv_kernel(b, &packed),
            fast_kernels_enabled() ? QConvKernel::kIm2colGemm : QConvKernel::kScalar);
  qconv2d_auto(b, &packed, nullptr);
  EXPECT_EQ(std::memcmp(ref.data(), got.data(), out_elems), 0);
}

TEST(QLinearGemm, BitIdenticalToScalarAcrossShapesAndThreads) {
  struct LinCase {
    int batch, in_features, out_features;
  };
  const LinCase cases[] = {{1, 64, 10}, {3, 64, 10}, {5, 37, 13}, {2, 256, 100}, {7, 8, 3}};
  ThreadPool pool4(4);
  for (const LinCase& c : cases) {
    std::mt19937 rng(static_cast<std::uint32_t>(c.in_features * 1009 + c.batch));
    std::vector<std::int8_t> input(static_cast<std::size_t>(c.batch) * c.in_features);
    std::vector<std::int8_t> weight(static_cast<std::size_t>(c.out_features) * c.in_features);
    for (auto& v : input) v = static_cast<std::int8_t>(rng());
    for (auto& v : weight) v = static_cast<std::int8_t>(rng());
    std::vector<std::int32_t> bias(c.out_features), wsum(c.out_features, 0),
        mant(c.out_features);
    std::vector<int> shift(c.out_features);
    for (int o = 0; o < c.out_features; ++o) {
      bias[o] = static_cast<std::int32_t>(rng() % 400) - 200;
      for (int k = 0; k < c.in_features; ++k) wsum[o] += weight[o * c.in_features + k];
      quantize_multiplier(0.002 + 0.0003 * o, &mant[o], &shift[o]);
    }
    std::vector<std::int8_t> ref(static_cast<std::size_t>(c.batch) * c.out_features);
    std::vector<std::int8_t> got(ref.size());
    QLinearArgs a{};
    a.batch = c.batch;
    a.in_features = c.in_features;
    a.out_features = c.out_features;
    a.in_zp = 2;
    a.out_zp = -7;
    a.input = input.data();
    a.weight = weight.data();
    a.bias = bias.data();
    a.weight_sum = wsum.data();
    a.mantissa = mant.data();
    a.shift = shift.data();
    a.output = ref.data();
    qlinear(a, nullptr);
    const PackedWeights packed =
        pack_weights_dot16(weight.data(), c.out_features, c.in_features);
    for (ThreadPool* pool : {static_cast<ThreadPool*>(nullptr), &pool4}) {
      std::fill(got.begin(), got.end(), std::int8_t{0});
      a.output = got.data();
      qlinear_auto(a, &packed, pool);
      ASSERT_EQ(std::memcmp(ref.data(), got.data(), ref.size()), 0)
          << "batch=" << c.batch << " in=" << c.in_features << " out=" << c.out_features
          << (pool ? " pooled" : " serial");
    }
  }
}

// ------------------------------------------------------ packing layout

TEST(PackWeights, Dot16LayoutWidensRowsAndZeroPadsTheTail) {
  const int cout = 3, patch = kDotLanes + 5;  // forces a ragged K tail
  std::vector<std::int8_t> weight(static_cast<std::size_t>(cout) * patch);
  std::mt19937 rng(9);
  for (auto& v : weight) v = static_cast<std::int8_t>(rng());
  const PackedWeights pw = pack_weights_dot16(weight.data(), cout, patch);
  EXPECT_EQ(pw.layout, WeightLayout::kPackedDot16);
  EXPECT_EQ(pw.cout, cout);
  EXPECT_EQ(pw.patch, patch);
  EXPECT_EQ(pw.padded_patch(), 2 * kDotLanes);
  ASSERT_EQ(pw.data.size(), static_cast<std::size_t>(cout) * pw.padded_patch());
  for (int c = 0; c < cout; ++c) {
    for (int k = 0; k < pw.padded_patch(); ++k) {
      const std::int16_t want = k < patch ? static_cast<std::int16_t>(weight[c * patch + k]) : 0;
      ASSERT_EQ(pw.data[static_cast<std::size_t>(c) * pw.padded_patch() + k], want)
          << "row " << c << " lane " << k;
    }
  }
}

TEST(PackWeights, GraphPackingCoversExactlyTheWantedNodesKeyedByConsumer) {
  const nb201::Genotype g = nb201::Genotype::from_string(
      "|nor_conv_3x3~0|+|skip_connect~0|nor_conv_1x1~1|+|avg_pool_3x3~0|skip_connect~1|nor_conv_3x3~2|");
  compile::CompilerOptions options;
  options.macro.cells_per_stage = 1;
  options.macro.input_size = 8;
  options.calibration_batches = 1;
  options.quantize = true;
  options.seed = 3;
  const compile::CompiledModel model = compile::compile_genotype(g, options);
  const PackedWeightSet set = pack_graph_weights(model.graph);
  int packed_nodes = 0;
  for (const ir::Node& node : model.graph.nodes()) {
    const PackedWeights* pw = set.find(node.id);
    if (node_wants_packed_weights(model.graph, node)) {
      ASSERT_NE(pw, nullptr) << "node " << node.id;
      const ir::Node& weight = model.graph.node(node.inputs[1]);
      EXPECT_EQ(pw->cout, weight.type.shape[0]);
      EXPECT_EQ(static_cast<std::size_t>(pw->cout) * pw->padded_patch(), pw->data.size());
      ++packed_nodes;
    } else {
      EXPECT_EQ(pw, nullptr) << "node " << node.id;
    }
  }
  EXPECT_GT(packed_nodes, 0);
  EXPECT_FALSE(set.empty());
  // Out-of-range ids must not fault.
  EXPECT_EQ(set.find(-1), nullptr);
  EXPECT_EQ(set.find(1 << 20), nullptr);
}

// --------------------------------------------------- selection table

TEST(KernelSelection, TableRoutesByShapeAndPackedAvailability) {
  if (!fast_kernels_enabled()) GTEST_SKIP() << "portable build: always scalar";
  ConvCase big1x1{1, 16, 16, 16, 1, 1, 0};  // 256 out pixels
  ConvData dbig(big1x1, 1);
  std::vector<std::int8_t> scratch(conv_scratch_bytes(big1x1, dbig));
  std::vector<std::int8_t> out(16 * 16 * 16);
  QConv2dArgs a = conv_args(big1x1, dbig, scratch.data(), out.data());
  const PackedWeights packed1x1 = pack_weights_dot16(dbig.weight.data(), 16, 16);
  // Large-plane 1x1 prefers direct even when packed weights exist.
  EXPECT_EQ(select_qconv_kernel(a, &packed1x1), QConvKernel::kDirectConv);
  EXPECT_EQ(select_qconv_kernel(a, nullptr), QConvKernel::kDirectConv);

  ConvCase small1x1{1, 64, 4, 64, 1, 1, 0};  // 16 out pixels: below kDirectMinPix
  ConvData dsmall(small1x1, 2);
  std::vector<std::int8_t> scratch2(conv_scratch_bytes(small1x1, dsmall));
  std::vector<std::int8_t> out2(64 * 4 * 4);
  QConv2dArgs b = conv_args(small1x1, dsmall, scratch2.data(), out2.data());
  const PackedWeights packed_small = pack_weights_dot16(dsmall.weight.data(), 64, 64);
  EXPECT_EQ(select_qconv_kernel(b, &packed_small), QConvKernel::kIm2colGemm);
  EXPECT_EQ(select_qconv_kernel(b, nullptr), QConvKernel::kDirectConv);

  ConvCase spatial{1, 16, 16, 16, 3, 1, 1};
  ConvData dsp(spatial, 3);
  std::vector<std::int8_t> scratch3(conv_scratch_bytes(spatial, dsp));
  std::vector<std::int8_t> out3(16 * 16 * 16);
  QConv2dArgs s = conv_args(spatial, dsp, scratch3.data(), out3.data());
  const PackedWeights packed_sp = pack_weights_dot16(dsp.weight.data(), 16, 16 * 9);
  EXPECT_EQ(select_qconv_kernel(s, &packed_sp), QConvKernel::kIm2colGemm);
  // Spatial conv without packed weights: scalar, never a blocked path.
  EXPECT_EQ(select_qconv_kernel(s, nullptr), QConvKernel::kScalar);
  // A packed set for the WRONG shape must not be trusted.
  const PackedWeights mismatched = pack_weights_dot16(dsp.weight.data(), 16, 16);
  EXPECT_EQ(select_qconv_kernel(s, &mismatched), QConvKernel::kScalar);

  QLinearArgs l{};
  l.batch = 1;
  l.in_features = 64;
  l.out_features = 10;
  std::vector<std::int8_t> lw(640);
  const PackedWeights packed_lin = pack_weights_dot16(lw.data(), 10, 64);
  EXPECT_EQ(select_qlinear_kernel(l, &packed_lin), QLinearKernel::kGemm);
  EXPECT_EQ(select_qlinear_kernel(l, nullptr), QLinearKernel::kScalar);
}

// ------------------------------------- batched executor dispatch gate

TEST(BatchedDispatchGate, SampleIoBytesCountsRealBytesNotElements) {
  const nb201::Genotype g = nb201::Genotype::from_string(
      "|nor_conv_3x3~0|+|skip_connect~0|nor_conv_3x3~1|+|avg_pool_3x3~0|nor_conv_1x1~1|nor_conv_3x3~2|");
  compile::CompilerOptions options;
  options.macro.cells_per_stage = 1;
  options.macro.input_size = 8;
  options.calibration_batches = 1;
  options.quantize = true;
  options.seed = 5;
  const compile::CompiledModel model = compile::compile_genotype(g, options);
  bool saw_int8 = false, saw_f32 = false;
  for (const ir::Node& node : model.graph.nodes()) {
    if (node.is_const() || node.op == ir::OpKind::kInput) continue;
    const std::size_t bytes = BatchedExecutor::sample_io_bytes(model.graph, node);
    if (bytes == 0 || bytes == ~std::size_t{0}) continue;  // heavy ops: always parallel
    const auto elem_bytes = [](ir::DType t) {
      return t == ir::DType::kI8 ? std::size_t{1} : sizeof(float);
    };
    std::size_t expect = node.type.shape.numel() * elem_bytes(node.type.dtype);
    for (int in : node.inputs) {
      const ir::Node& src = model.graph.node(in);
      if (src.is_const()) continue;
      expect += src.type.shape.numel() * elem_bytes(src.type.dtype);
    }
    ASSERT_EQ(bytes, expect) << "node " << node.id << " op "
                             << static_cast<int>(node.op);
    if (node.type.dtype == ir::DType::kI8) saw_int8 = true;
    if (node.type.dtype == ir::DType::kF32) saw_f32 = true;
  }
  EXPECT_TRUE(saw_int8);
  // An int8 tensor of N elements must gate on N bytes (not 4N): a
  // batch-1 16x8x8 int8 add (1 KB per operand, 3 KB in+out) sits below
  // the whole-dispatch gate even though 4N would put it across.
  EXPECT_LT(std::size_t{3} * 16 * 8 * 8, BatchedExecutor::kMinParallelBytes);
  EXPECT_GE(std::size_t{4} * 3 * 16 * 8 * 8, BatchedExecutor::kMinParallelBytes);
  (void)saw_f32;
}

}  // namespace
}  // namespace micronas::rt
