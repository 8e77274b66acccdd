// int8 runtime numerics: fixed-point requantization edge cases
// (saturation, rounding ties, the gemmlowp INT32_MIN corner),
// zero-point handling for asymmetric activations, agreement with the
// float reference, and bit-identical execution across thread counts
// and repeated runs.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <random>
#include <vector>

#include "src/compile/compiler.hpp"
#include "src/data/synthetic.hpp"
#include "src/hw/quant.hpp"
#include "src/rt/kernels_int8.hpp"
#include "src/rt/runtime.hpp"

namespace micronas {
namespace {

// ----------------------------------------------------- affine helpers

TEST(AffineQuant, ChoosesParamsCoveringRangeWithExactZero) {
  const AffineParams p = choose_affine_params(-1.0, 3.0);
  EXPECT_NEAR(p.scale, 4.0 / 255.0, 1e-12);
  // Real zero must map exactly onto an integer grid point.
  const double zero_q = -(-1.0) / p.scale + kInt8Min;
  EXPECT_NEAR(static_cast<double>(p.zero_point), zero_q, 0.5 + 1e-9);
  EXPECT_EQ(quantize_one(0.0F, p), static_cast<std::int8_t>(p.zero_point));

  // Ranges not containing zero are widened to include it.
  const AffineParams pos = choose_affine_params(2.0, 6.0);
  EXPECT_NEAR(pos.scale, 6.0 / 255.0, 1e-12);
  EXPECT_EQ(pos.zero_point, kInt8Min);

  // Degenerate range: identity params.
  const AffineParams deg = choose_affine_params(0.0, 0.0);
  EXPECT_EQ(deg.scale, 1.0);
  EXPECT_EQ(deg.zero_point, 0);
}

TEST(AffineQuant, QuantizeSaturatesAndRoundsToNearest) {
  const AffineParams p{0.5, 10};
  EXPECT_EQ(quantize_one(1000.0F, p), static_cast<std::int8_t>(127));   // saturate high
  EXPECT_EQ(quantize_one(-1000.0F, p), static_cast<std::int8_t>(-128)); // saturate low
  EXPECT_EQ(quantize_one(0.24F, p), static_cast<std::int8_t>(10));      // rounds down
  EXPECT_EQ(quantize_one(0.26F, p), static_cast<std::int8_t>(11));      // rounds up
  EXPECT_EQ(dequantize_one(static_cast<std::int8_t>(12), p), 1.0F);
}

TEST(AffineQuant, QuantizeMultiplierRoundTripsPowersOfTwoExactly) {
  std::int32_t mantissa = 0;
  int shift = 0;
  for (const double m : {1.0, 0.5, 0.25, 2.0, 8.0}) {
    quantize_multiplier(m, &mantissa, &shift);
    EXPECT_EQ(mantissa, std::int32_t{1} << 30);  // 0.5 in Q31
    for (const std::int32_t x : {8, -8, 1000, -1000, 123456}) {
      // x·m integral for these x -> both rounding stages are exact.
      EXPECT_EQ(multiply_by_quantized_multiplier(x, mantissa, shift),
                static_cast<std::int32_t>(std::llround(x * m)))
          << "x=" << x << " m=" << m;
    }
  }
  // Known artifacts of the two-stage fixed-point idiom, exactly as in
  // gemmlowp/TFLite: positive double-rounding (1·0.25 -> 0.5 -> 1) and
  // the negative single-LSB tie collapsing to 0 (the SRDHM nudge is
  // asymmetric at the smallest magnitudes).
  quantize_multiplier(0.25, &mantissa, &shift);
  EXPECT_EQ(multiply_by_quantized_multiplier(1, mantissa, shift), 1);
  EXPECT_EQ(multiply_by_quantized_multiplier(-1, mantissa, shift), 0);
  EXPECT_THROW(quantize_multiplier(0.0, &mantissa, &shift), std::invalid_argument);
  EXPECT_THROW(quantize_multiplier(-1.0, &mantissa, &shift), std::invalid_argument);
}

TEST(AffineQuant, SaturatingRoundingDoublingHighMulEdges) {
  constexpr std::int32_t kMin = std::numeric_limits<std::int32_t>::min();
  constexpr std::int32_t kMax = std::numeric_limits<std::int32_t>::max();
  // The single overflow case of the gemmlowp idiom saturates.
  EXPECT_EQ(saturating_rounding_doubling_high_mul(kMin, kMin), kMax);
  // Identity against 0.5 in Q31 doubles back to x (exact for even x).
  const std::int32_t half = std::int32_t{1} << 30;
  EXPECT_EQ(saturating_rounding_doubling_high_mul(1 << 8, half), 1 << 7);
  EXPECT_EQ(saturating_rounding_doubling_high_mul(-(1 << 8), half), -(1 << 7));
  EXPECT_EQ(saturating_rounding_doubling_high_mul(0, kMax), 0);
}

TEST(AffineQuant, RoundingDivideByPotTiesAwayFromZero) {
  EXPECT_EQ(rounding_divide_by_pot(5, 1), 3);    // 2.5 -> 3
  EXPECT_EQ(rounding_divide_by_pot(-5, 1), -3);  // −2.5 -> −3 (away from zero)
  EXPECT_EQ(rounding_divide_by_pot(4, 1), 2);
  EXPECT_EQ(rounding_divide_by_pot(-4, 1), -2);
  EXPECT_EQ(rounding_divide_by_pot(7, 2), 2);    // 1.75 -> 2
  EXPECT_EQ(rounding_divide_by_pot(-7, 2), -2);
  EXPECT_EQ(rounding_divide_by_pot(123, 0), 123);
  EXPECT_THROW(rounding_divide_by_pot(1, -1), std::invalid_argument);
}

// The vectorized output stage against the scalar reference: every
// shift the kernels accept, mantissas at both ends of the Q31 range
// quantize_multiplier produces plus random ones, and accumulators at the
// int32 extremes (the left-shift wrap and the high-mul rounding edges).
TEST(AffineQuant, RowHelperMatchesScalarReferenceForEveryShift) {
  constexpr std::int32_t kMin = std::numeric_limits<std::int32_t>::min();
  constexpr std::int32_t kMax = std::numeric_limits<std::int32_t>::max();
  std::mt19937 rng(2024);
  std::vector<std::int32_t> xs = {kMin, kMax, 0, 1, -1, kMin + 1, kMax - 1};
  for (int i = 0; i < 249; ++i) xs.push_back(static_cast<std::int32_t>(rng()));
  for (int i = 0; i < 64; ++i) xs.push_back(static_cast<std::int32_t>(rng() % 4096) - 2048);
  const int n = static_cast<int>(xs.size());
  std::vector<std::int8_t> got(xs.size());
  int checked = 0;
  for (int shift = kMinRequantShift; shift <= kMaxRequantShift; ++shift) {
    std::vector<std::int32_t> mantissas = {std::int32_t{1} << 30, kMax};
    for (int i = 0; i < 4; ++i) {
      mantissas.push_back(static_cast<std::int32_t>((std::int64_t{1} << 30) + rng() % (1U << 30)));
    }
    mantissas.push_back(static_cast<std::int32_t>(1 + rng() % kMax));  // below Q31's 0.5 too
    for (const std::int32_t mantissa : mantissas) {
      const QuantizedMultiplier m(mantissa, shift);
      for (const std::int32_t x : xs) {
        ASSERT_EQ(m.apply(x), multiply_by_quantized_multiplier(x, mantissa, shift))
            << "x=" << x << " mantissa=" << mantissa << " shift=" << shift;
        ++checked;
      }
      for (const int out_zp : {0, -7}) {
        for (const int lo : {static_cast<int>(kInt8Min), 3}) {
          requantize_row(xs.data(), n, 0, m, out_zp, lo, got.data());
          for (int j = 0; j < n; ++j) {
            // In 64 bits: at the int32 extremes the zero point pushes
            // the sum out of int32.
            const std::int64_t q = std::int64_t{multiply_by_quantized_multiplier(
                                       xs[static_cast<std::size_t>(j)], mantissa, shift)} +
                                   out_zp;
            ASSERT_EQ(got[static_cast<std::size_t>(j)],
                      static_cast<std::int8_t>(std::clamp<std::int64_t>(q, lo, kInt8Max)))
                << "x=" << xs[static_cast<std::size_t>(j)] << " mantissa=" << mantissa
                << " shift=" << shift << " zp=" << out_zp << " lo=" << lo;
          }
        }
      }
    }
  }
  EXPECT_EQ(checked, 63 * 7 * n);
  // Out-of-range multipliers are rejected when built, never applied.
  EXPECT_THROW(QuantizedMultiplier(0, 0), std::invalid_argument);
  EXPECT_THROW(QuantizedMultiplier(-5, 0), std::invalid_argument);
  EXPECT_THROW(QuantizedMultiplier(kMin, 0), std::invalid_argument);
  EXPECT_THROW(QuantizedMultiplier(1 << 30, 32), std::invalid_argument);
  EXPECT_THROW(QuantizedMultiplier(1 << 30, -32), std::invalid_argument);
}

// ------------------------------------------------------ kernel numerics

TEST(Int8Kernels, QReluClampsAtZeroPoint) {
  const std::int8_t in[5] = {-128, -5, 0, 5, 127};
  std::int8_t out[5];
  rt::qrelu(in, out, 5, /*zp=*/-3);
  EXPECT_EQ(out[0], -3);
  EXPECT_EQ(out[1], -3);
  EXPECT_EQ(out[2], 0);
  EXPECT_EQ(out[3], 5);
  EXPECT_EQ(out[4], 127);
}

TEST(Int8Kernels, QAddMatchesRealArithmeticWithAsymmetricZeroPoints) {
  // a: scale 0.1 zp 3; b: scale 0.05 zp -7; out: scale 0.2 zp 5.
  const AffineParams a_p{0.1, 3}, b_p{0.05, -7}, out_p{0.2, 5};
  std::int32_t ma, mb;
  int sa, sb;
  quantize_multiplier(a_p.scale / out_p.scale, &ma, &sa);
  quantize_multiplier(b_p.scale / out_p.scale, &mb, &sb);
  std::int8_t a[4], b[4], out[4];
  const float av[4] = {1.0F, -0.4F, 5.0F, 0.0F};
  const float bv[4] = {-0.3F, 0.45F, 2.0F, 0.0F};
  for (int i = 0; i < 4; ++i) {
    a[i] = quantize_one(av[i], a_p);
    b[i] = quantize_one(bv[i], b_p);
  }
  rt::qadd(a, b, out, 4, a_p.zero_point, ma, sa, b_p.zero_point, mb, sb, out_p.zero_point);
  for (int i = 0; i < 4; ++i) {
    const float real = dequantize_one(out[i], out_p);
    EXPECT_NEAR(real, av[i] + bv[i], 2.5 * out_p.scale) << "i=" << i;
  }
  // Exact zero stays exact: zp_a/zp_b inputs must produce zp_out.
  a[0] = static_cast<std::int8_t>(a_p.zero_point);
  b[0] = static_cast<std::int8_t>(b_p.zero_point);
  rt::qadd(a, b, out, 1, a_p.zero_point, ma, sa, b_p.zero_point, mb, sb, out_p.zero_point);
  EXPECT_EQ(out[0], static_cast<std::int8_t>(out_p.zero_point));
}

// qadd's single vectorized loop against the per-element reference, at
// lengths around the vector widths and the old 512-element table
// threshold, with every operand value and zero points at the extremes.
TEST(Int8Kernels, QAddMatchesScalarLoopAtEveryLength) {
  std::mt19937 rng(99);
  struct Params {
    int zp_a, zp_b, zp_out;
    double scale_a, scale_b;
  };
  for (const Params& p : {Params{3, -7, 5, 0.5, 0.25}, Params{-128, 127, -128, 1.9, 0.004},
                          Params{127, -128, 127, 0.013, 3.5}}) {
    std::int32_t ma, mb;
    int sa, sb;
    quantize_multiplier(p.scale_a, &ma, &sa);
    quantize_multiplier(p.scale_b, &mb, &sb);
    for (const std::size_t n : {std::size_t{1}, std::size_t{511}, std::size_t{512},
                                std::size_t{4097}}) {
      std::vector<std::int8_t> a(n), b(n), got(n), want(n);
      for (std::size_t i = 0; i < n; ++i) {
        // The first 256 x 256 pairs sweep every operand value.
        a[i] = static_cast<std::int8_t>(i < 256 ? i : rng());
        b[i] = static_cast<std::int8_t>(i < 256 ? 255 - i : rng());
      }
      rt::qadd(a.data(), b.data(), got.data(), n, p.zp_a, ma, sa, p.zp_b, mb, sb, p.zp_out);
      for (std::size_t i = 0; i < n; ++i) {
        const std::int32_t q =
            multiply_by_quantized_multiplier(static_cast<std::int32_t>(a[i]) - p.zp_a, ma, sa) +
            multiply_by_quantized_multiplier(static_cast<std::int32_t>(b[i]) - p.zp_b, mb, sb) +
            p.zp_out;
        want[i] = static_cast<std::int8_t>(std::clamp<std::int32_t>(q, kInt8Min, kInt8Max));
      }
      ASSERT_EQ(got, want) << "n=" << n << " zp " << p.zp_a << "/" << p.zp_b << "/" << p.zp_out;
    }
  }
}

TEST(Int8Kernels, QGlobalAvgPoolMatchesScalarLoop) {
  Rng rng(31);
  for (const int channels : {1, 3, 64, 70, 130}) {
    for (const int hw : {1, 7, 64}) {
      for (const int in_zp : {-128, 0, 127}) {
        const int batch = 2;
        const int out_zp = -in_zp / 2;
        std::int32_t mantissa = 0;
        int shift = 0;
        quantize_multiplier(1.3 / hw, &mantissa, &shift);
        std::vector<std::int8_t> in(static_cast<std::size_t>(batch) * channels * hw);
        for (auto& v : in) v = static_cast<std::int8_t>(rng.uniform_int(-128, 127));
        std::vector<std::int8_t> got(static_cast<std::size_t>(batch) * channels);
        std::vector<std::int8_t> want(got.size());
        rt::qglobal_avg_pool(in.data(), got.data(), batch, channels, hw, 1, in_zp, mantissa,
                             shift, out_zp);
        for (std::size_t nc = 0; nc < want.size(); ++nc) {
          std::int32_t acc = 0;
          for (int i = 0; i < hw; ++i) {
            acc += static_cast<std::int32_t>(in[nc * static_cast<std::size_t>(hw) +
                                                static_cast<std::size_t>(i)]) -
                   in_zp;
          }
          const std::int32_t q = multiply_by_quantized_multiplier(acc, mantissa, shift) + out_zp;
          want[nc] = static_cast<std::int8_t>(std::clamp<std::int32_t>(q, kInt8Min, kInt8Max));
        }
        ASSERT_EQ(got, want) << channels << " channels, " << hw << " pixels, zp " << in_zp;
      }
    }
  }
}

// The branch-free qavg_pool must match the bounds-checked reference
// loop byte for byte: kernel 2/3, stride 1/2, pad 0/1, odd and even
// planes, zero points at the int8 extremes, and output extents both at
// the full window formula and one row short of it (out_h comes from the
// caller, so input rows no window reads must not matter).
TEST(Int8Kernels, QAvgPoolMatchesScalarReference) {
  Rng rng(4242);
  int cases = 0;
  for (const int kernel : {2, 3}) {
    for (const int stride : {1, 2}) {
      for (const int pad : {0, 1}) {
        for (const int h : {1, 3, 5, 8, 9}) {
          for (const int w : {1, 4, 7}) {
            for (const int in_zp : {-128, 127, -5}) {
              const int out_zp = in_zp == 127 ? -128 : 127;
              const int full_h = (h + 2 * pad - kernel) / stride + 1;
              const int full_w = (w + 2 * pad - kernel) / stride + 1;
              if (h + 2 * pad < kernel || w + 2 * pad < kernel) continue;
              for (const int crop : {0, 1}) {
                const int out_h = std::max(1, full_h - crop);
                const int out_w = full_w;
                const int batch = 2;
                const int channels = 3;
                std::vector<std::int8_t> in(static_cast<std::size_t>(batch) * channels * h * w);
                for (auto& v : in) v = static_cast<std::int8_t>(rng.uniform_int(-128, 127));
                std::int32_t mantissa = 0;
                int shift = 0;
                quantize_multiplier(1.7 / (kernel * kernel), &mantissa, &shift);
                const std::size_t out_n =
                    static_cast<std::size_t>(batch) * channels * out_h * out_w;
                std::vector<std::int8_t> got(out_n, 0);
                std::vector<std::int8_t> want(out_n, 1);
                rt::qavg_pool(in.data(), got.data(), batch, channels, h, w, kernel, stride, pad,
                              out_h, out_w, in_zp, mantissa, shift, out_zp);
                rt::qavg_pool_reference(in.data(), want.data(), batch, channels, h, w, kernel,
                                        stride, pad, out_h, out_w, in_zp, mantissa, shift, out_zp);
                ASSERT_EQ(got, want) << "k" << kernel << " s" << stride << " p" << pad << " "
                                     << h << "x" << w << " -> " << out_h << "x" << out_w
                                     << " zp " << in_zp << "/" << out_zp;
                ++cases;
              }
            }
          }
        }
      }
    }
  }
  EXPECT_GT(cases, 300);
}

TEST(Int8Kernels, QConvHandlesAsymmetricInputZeroPointAtBorders) {
  // 1 channel, 3x3 kernel of ones over a constant input: interior
  // sums see 9 pixels, corners 4 — padding must contribute *real
  // zero*, i.e. q == zp, not integer 0. A wrong pad value shows up
  // exactly at the border pixels.
  const AffineParams in_p{0.1, -28}, out_p{0.05, -100};
  const int h = 4, w = 4;
  std::int8_t input[h * w];
  const float real_in = 0.7F;
  for (auto& v : input) v = quantize_one(real_in, in_p);  // q = -21
  std::int8_t weight[9];
  for (auto& v : weight) v = 25;  // w_scale 0.02 -> real 0.5
  const double w_scale = 0.02;
  std::int32_t wsum = 9 * 25;
  std::int32_t mantissa;
  int shift;
  quantize_multiplier(in_p.scale * w_scale / out_p.scale, &mantissa, &shift);
  std::vector<std::int32_t> mant(1, mantissa);
  std::vector<int> sh(1, shift);

  rt::QConv2dArgs args;
  args.cin = 1;
  args.h = h;
  args.w = w;
  args.cout = 1;
  args.kernel = 3;
  args.stride = 1;
  args.pad = 1;
  args.out_h = h;
  args.out_w = w;
  args.in_zp = in_p.zero_point;
  args.out_zp = out_p.zero_point;
  args.input = input;
  args.weight = weight;
  args.weight_sum = &wsum;
  args.mantissa = mant.data();
  args.shift = sh.data();
  std::vector<std::int8_t> columns(static_cast<std::size_t>(h * w * 9));
  args.columns = columns.data();
  std::int8_t output[h * w];
  args.output = output;
  rt::qconv2d(args, nullptr);

  const float interior = 9 * real_in * 0.5F;   // 3.15
  const float corner = 4 * real_in * 0.5F;     // 1.4
  EXPECT_NEAR(dequantize_one(output[1 * w + 1], out_p), interior, 2.0F * out_p.scale);
  EXPECT_NEAR(dequantize_one(output[0], out_p), corner, 2.0F * out_p.scale);
}

// --------------------------------------------- end-to-end determinism

compile::CompiledModel small_compiled(std::uint64_t seed = 1) {
  compile::CompilerOptions options;
  options.macro.cells_per_stage = 1;
  options.macro.input_size = 12;
  options.seed = seed;
  return compile::compile_genotype(
      nb201::Genotype::from_string("|nor_conv_3x3~0|+|none~0|skip_connect~1|+"
                                   "|avg_pool_3x3~0|nor_conv_1x1~1|nor_conv_3x3~2|"),
      options);
}

Tensor probe(int size) {
  DatasetSpec spec;
  spec.height = spec.width = size;
  Rng rng(5);
  SyntheticDataset data(spec, rng);
  return data.sample_batch(1, rng).images;
}

TEST(Int8Runtime, BitIdenticalAcrossRunsThreadsAndPlanModes) {
  const compile::CompiledModel model = small_compiled();
  const Tensor input = probe(12);

  rt::Executor planned1(model.graph, model.plan, rt::ExecOptions{1});
  const Tensor reference = planned1.run(input);
  ASSERT_EQ(reference.numel(), 10U);

  for (const int threads : {1, 2, 5, 0}) {
    rt::Executor exec(model.graph, model.plan, rt::ExecOptions{threads});
    for (int run = 0; run < 3; ++run) {
      const Tensor y = exec.run(input);
      for (std::size_t i = 0; i < y.numel(); ++i) {
        ASSERT_EQ(y[i], reference[i]) << "threads=" << threads << " run=" << run;
      }
    }
  }
  // Planned (arena) and unplanned (per-value buffers) execution agree
  // bit for bit — the plan is layout, not semantics.
  rt::Executor unplanned(model.graph, rt::ExecOptions{3});
  const Tensor y = unplanned.run(input);
  for (std::size_t i = 0; i < y.numel(); ++i) ASSERT_EQ(y[i], reference[i]);
}

TEST(Int8Runtime, ExecutorRejectsNonF32Endpoints) {
  // The runtime's entry/exit contract is f32 in, f32 out; graphs with
  // integer endpoints must be rejected at construction, not overflow
  // buffers at run time.
  ir::Graph i8_in;
  const int x = i8_in.add_input({Shape{1, 1, 2, 2}, ir::DType::kI8});
  i8_in.set_output(i8_in.add_node(ir::OpKind::kDequantize, {x}));
  EXPECT_THROW(rt::Executor(i8_in, rt::ExecOptions{1}), std::invalid_argument);

  ir::Graph i8_out;
  const int y = i8_out.add_input({Shape{1, 1, 2, 2}, ir::DType::kF32});
  i8_out.set_output(i8_out.add_node(ir::OpKind::kQuantize, {y}));
  EXPECT_THROW(rt::Executor(i8_out, rt::ExecOptions{1}), std::invalid_argument);
}

TEST(Int8Runtime, ExecutorRejectsGraphsNotAtBatchOne) {
  // The executor's batch capacity supplies the sample axis, so the
  // graph itself must be compiled at batch 1 — in both buffer layouts.
  ir::Graph g;
  const int x = g.add_input({Shape{2, 1, 2, 2}, ir::DType::kF32});
  g.set_output(g.add_node(ir::OpKind::kRelu, {x}));
  EXPECT_THROW(rt::Executor(g, rt::plan_memory(g), rt::ExecOptions{1}), std::invalid_argument);
  EXPECT_THROW(rt::Executor(g, rt::ExecOptions{1}), std::invalid_argument);
}

TEST(Int8Runtime, TracksFloatReferenceLogits) {
  const compile::CompiledModel model = small_compiled();
  compile::CompilerOptions naive;
  naive.macro.cells_per_stage = 1;
  naive.macro.input_size = 12;
  naive.fold = naive.fuse = naive.quantize = false;
  const compile::CompiledModel float_model = compile::compile_genotype(
      nb201::Genotype::from_string("|nor_conv_3x3~0|+|none~0|skip_connect~1|+"
                                   "|avg_pool_3x3~0|nor_conv_1x1~1|nor_conv_3x3~2|"),
      naive);

  const Tensor input = probe(12);
  rt::Executor qexec(model.graph, model.plan, rt::ExecOptions{1});
  rt::Executor fexec(float_model.graph, rt::ExecOptions{1});
  const Tensor qy = qexec.run(input);
  const Tensor fy = fexec.run(input);

  // Quantization error is bounded relative to the logit spread; top-1
  // must agree (that is what deployment accuracy depends on).
  float spread = 0.0F;
  for (std::size_t i = 0; i < fy.numel(); ++i) spread = std::max(spread, std::abs(fy[i]));
  std::size_t q_top = 0, f_top = 0;
  for (std::size_t i = 1; i < fy.numel(); ++i) {
    if (qy[i] > qy[q_top]) q_top = i;
    if (fy[i] > fy[f_top]) f_top = i;
  }
  EXPECT_EQ(q_top, f_top);
  for (std::size_t i = 0; i < fy.numel(); ++i) {
    EXPECT_NEAR(qy[i], fy[i], 0.1F * spread + 1.0F) << "logit " << i;
  }
}

}  // namespace
}  // namespace micronas
