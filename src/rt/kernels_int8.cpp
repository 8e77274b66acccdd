#include "src/rt/kernels_int8.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

#include "src/hw/quant.hpp"
#include "src/rt/simd_clones.hpp"

namespace micronas::rt {

namespace {

inline std::int8_t clamp_i8(std::int32_t v, int lo) {
  return static_cast<std::int8_t>(std::clamp<std::int32_t>(v, lo, kInt8Max));
}

// The vectorized kernels below take decoded QuantizedMultipliers: the
// public entry points decode (and range-check) them on the calling
// thread, so no SIMD clone can throw.

MICRONAS_SIMD_CLONES
void qadd_rows(const std::int8_t* a, const std::int8_t* b, std::int8_t* out, std::size_t n,
               int zp_a, QuantizedMultiplier m_a, int zp_b, QuantizedMultiplier m_b,
               int zp_out) {
  for (std::size_t i = 0; i < n; ++i) {
    const std::int32_t q = m_a.apply(static_cast<std::int32_t>(a[i]) - zp_a) +
                           m_b.apply(static_cast<std::int32_t>(b[i]) - zp_b) + zp_out;
    out[i] = clamp_i8(q, kInt8Min);
  }
}

MICRONAS_SIMD_CLONES
void qavg_pool_planes(const std::int8_t* input, std::int8_t* output, int batch, int channels,
                      int h, int w, int kernel, int stride, int pad, int out_h, int out_w,
                      int in_zp, QuantizedMultiplier m, int out_zp) {
  // The padded plane covers exactly the cells some window reads: rows
  // [0, rows) and columns [0, cols) of the pad-shifted input. Cells
  // outside the input hold (q - zp) == 0 — what the reference skips —
  // so every window sums the reference's terms plus zeros, and integer
  // sums are exact. Windows are summed separably: a horizontal pass of
  // `kernel` taps per row, then a vertical pass over `kernel` row sums,
  // all without bounds checks.
  const int rows = (out_h - 1) * stride + kernel;
  const int cols = (out_w - 1) * stride + kernel;
  const int copy_h = std::clamp(rows - pad, 0, h);
  const int copy_w = std::clamp(cols - pad, 0, w);
  std::vector<std::int16_t> padded(static_cast<std::size_t>(rows) * cols, 0);
  std::vector<std::int32_t> row_sums(static_cast<std::size_t>(rows) * out_w);
  std::vector<std::int32_t> acc(static_cast<std::size_t>(out_w));
  for (int n = 0; n < batch; ++n) {
    for (int c = 0; c < channels; ++c) {
      const std::int8_t* plane =
          input + (static_cast<std::ptrdiff_t>(n) * channels + c) * h * w;
      std::int8_t* oplane =
          output + (static_cast<std::ptrdiff_t>(n) * channels + c) * out_h * out_w;
      for (int y = 0; y < copy_h; ++y) {
        const std::int8_t* src = plane + static_cast<std::ptrdiff_t>(y) * w;
        std::int16_t* dst = padded.data() + static_cast<std::ptrdiff_t>(y + pad) * cols + pad;
        for (int x = 0; x < copy_w; ++x) {
          dst[x] = static_cast<std::int16_t>(static_cast<std::int32_t>(src[x]) - in_zp);
        }
      }
      for (int r = 0; r < rows; ++r) {
        const std::int16_t* prow = padded.data() + static_cast<std::ptrdiff_t>(r) * cols;
        std::int32_t* srow = row_sums.data() + static_cast<std::ptrdiff_t>(r) * out_w;
        for (int ox = 0; ox < out_w; ++ox) srow[ox] = 0;
        for (int kx = 0; kx < kernel; ++kx) {
          for (int ox = 0; ox < out_w; ++ox) srow[ox] += prow[ox * stride + kx];
        }
      }
      std::int32_t* sums = acc.data();
      for (int oy = 0; oy < out_h; ++oy) {
        for (int ox = 0; ox < out_w; ++ox) sums[ox] = 0;
        for (int ky = 0; ky < kernel; ++ky) {
          const std::int32_t* srow =
              row_sums.data() + static_cast<std::ptrdiff_t>(oy * stride + ky) * out_w;
          for (int ox = 0; ox < out_w; ++ox) sums[ox] += srow[ox];
        }
        requantize_row(sums, out_w, 0, m, out_zp, kInt8Min,
                       oplane + static_cast<std::ptrdiff_t>(oy) * out_w);
      }
    }
  }
}

/// Channels per requantized row of qglobal_avg_pool's plane sums.
constexpr int kGapRow = 64;

MICRONAS_SIMD_CLONES
void qglobal_avg_pool_planes(const std::int8_t* input, std::int8_t* output, int batch,
                             int channels, int hw, int in_zp, QuantizedMultiplier m,
                             int out_zp) {
  std::int32_t sums[kGapRow];
  for (int n = 0; n < batch; ++n) {
    for (int c0 = 0; c0 < channels; c0 += kGapRow) {
      const int cn = std::min(kGapRow, channels - c0);
      for (int cc = 0; cc < cn; ++cc) {
        const std::int8_t* plane =
            input + (static_cast<std::ptrdiff_t>(n) * channels + c0 + cc) * hw;
        std::int32_t acc = 0;
        for (int i = 0; i < hw; ++i) acc += static_cast<std::int32_t>(plane[i]) - in_zp;
        sums[cc] = acc;
      }
      requantize_row(sums, cn, 0, m, out_zp, kInt8Min,
                     output + static_cast<std::ptrdiff_t>(n) * channels + c0);
    }
  }
}

}  // namespace

void im2col_i8(const std::int8_t* input, int cin, int h, int w, int kernel, int stride, int pad,
               int out_h, int out_w, std::int8_t pad_value, std::int8_t* columns) {
  const int patch = cin * kernel * kernel;
  for (int oy = 0; oy < out_h; ++oy) {
    for (int ox = 0; ox < out_w; ++ox) {
      std::int8_t* col = columns + (static_cast<std::ptrdiff_t>(oy) * out_w + ox) * patch;
      int k = 0;
      for (int c = 0; c < cin; ++c) {
        const std::int8_t* plane = input + static_cast<std::ptrdiff_t>(c) * h * w;
        for (int ky = 0; ky < kernel; ++ky) {
          const int iy = oy * stride - pad + ky;
          for (int kx = 0; kx < kernel; ++kx) {
            const int ix = ox * stride - pad + kx;
            col[k++] = (iy >= 0 && iy < h && ix >= 0 && ix < w)
                           ? plane[static_cast<std::ptrdiff_t>(iy) * w + ix]
                           : pad_value;
          }
        }
      }
    }
  }
}

void qconv2d(const QConv2dArgs& a, ThreadPool* pool) {
  const int patch = a.cin * a.kernel * a.kernel;
  const int npix = a.out_h * a.out_w;
  const int relu_lo = a.fused_relu ? std::max(kInt8Min, a.out_zp) : kInt8Min;

  // All samples' pixels into one column matrix: the GEMM M dimension is
  // batch * npix, so a coalesced batch is one channel-partitioned GEMM
  // (one pool dispatch per conv, not one per sample) and a channel's
  // weight row is reused across the whole batch.
  for (int n = 0; n < a.batch; ++n) {
    const std::int8_t* in =
        a.input + static_cast<std::ptrdiff_t>(n) * a.cin * a.h * a.w;
    im2col_i8(in, a.cin, a.h, a.w, a.kernel, a.stride, a.pad, a.out_h, a.out_w,
              static_cast<std::int8_t>(a.in_zp),
              a.columns + static_cast<std::ptrdiff_t>(n) * npix * patch);
  }

  // Channel-blocked GEMM over the flat (sample, channel) grid —
  // folding batch into the grain keeps every worker busy even when
  // cout alone is smaller than the pool (the stem conv at batch N).
  // Blocks are sample-major, so one sample's columns (npix * patch
  // bytes) stay cache-hot while a block's channels sweep them. The
  // per-output accumulation order is exactly the batch-1 order, so
  // results stay bit-identical across batch sizes, block counts and
  // thread counts.
  for_sample_units(a.batch, a.cout, pool, [&](int n, int c_begin, int c_end) {
    const std::int8_t* cols = a.columns + static_cast<std::ptrdiff_t>(n) * npix * patch;
    for (int c = c_begin; c < c_end; ++c) {
      const std::int8_t* wrow = a.weight + static_cast<std::ptrdiff_t>(c) * patch;
      // acc = Σ_k w*q - zp*Σ_k w (+ bias): padding cells hold q == zp,
      // so the correction term works uniformly across the border.
      const std::int32_t base =
          (a.bias ? a.bias[c] : 0) - a.in_zp * a.weight_sum[c];
      std::int8_t* orow =
          a.output + (static_cast<std::ptrdiff_t>(n) * a.cout + c) * npix;
      for (int j = 0; j < npix; ++j) {
        const std::int8_t* col = cols + static_cast<std::ptrdiff_t>(j) * patch;
        std::int32_t acc = base;
        for (int k = 0; k < patch; ++k) {
          acc += static_cast<std::int32_t>(wrow[k]) * static_cast<std::int32_t>(col[k]);
        }
        const std::int32_t q =
            multiply_by_quantized_multiplier(acc, a.mantissa[c], a.shift[c]) + a.out_zp;
        orow[j] = clamp_i8(q, relu_lo);
      }
    }
  });
}

void qlinear(const QLinearArgs& a, ThreadPool* pool) {
  // Same flat (sample, out_feature) partition as qconv2d: at batch N
  // the final-layer GEMM is N * out_features independent dot products,
  // so the batched path parallelizes instead of running serial.
  for_sample_units(a.batch, a.out_features, pool, [&](int n, int c_begin, int c_end) {
    const std::int8_t* in = a.input + static_cast<std::ptrdiff_t>(n) * a.in_features;
    std::int8_t* out = a.output + static_cast<std::ptrdiff_t>(n) * a.out_features;
    for (int c = c_begin; c < c_end; ++c) {
      const std::int8_t* wrow = a.weight + static_cast<std::ptrdiff_t>(c) * a.in_features;
      std::int32_t acc = (a.bias ? a.bias[c] : 0) - a.in_zp * a.weight_sum[c];
      for (int k = 0; k < a.in_features; ++k) {
        acc += static_cast<std::int32_t>(wrow[k]) * static_cast<std::int32_t>(in[k]);
      }
      const std::int32_t q =
          multiply_by_quantized_multiplier(acc, a.mantissa[c], a.shift[c]) + a.out_zp;
      out[c] = clamp_i8(q, kInt8Min);
    }
  });
}

void qadd(const std::int8_t* a, const std::int8_t* b, std::int8_t* out, std::size_t n,
          int zp_a, std::int32_t mant_a, int shift_a, int zp_b, std::int32_t mant_b, int shift_b,
          int zp_out) {
  qadd_rows(a, b, out, n, zp_a, QuantizedMultiplier(mant_a, shift_a), zp_b,
            QuantizedMultiplier(mant_b, shift_b), zp_out);
}

void qavg_pool(const std::int8_t* input, std::int8_t* output, int batch, int channels, int h,
               int w, int kernel, int stride, int pad, int out_h, int out_w, int in_zp,
               std::int32_t mantissa, int shift, int out_zp) {
  if (out_h <= 0 || out_w <= 0) return;
  qavg_pool_planes(input, output, batch, channels, h, w, kernel, stride, pad, out_h, out_w,
                   in_zp, QuantizedMultiplier(mantissa, shift), out_zp);
}

void qavg_pool_reference(const std::int8_t* input, std::int8_t* output, int batch, int channels,
                         int h, int w, int kernel, int stride, int pad, int out_h, int out_w,
                         int in_zp, std::int32_t mantissa, int shift, int out_zp) {
  for (int n = 0; n < batch; ++n) {
    for (int c = 0; c < channels; ++c) {
      const std::int8_t* plane =
          input + (static_cast<std::ptrdiff_t>(n) * channels + c) * h * w;
      std::int8_t* oplane =
          output + (static_cast<std::ptrdiff_t>(n) * channels + c) * out_h * out_w;
      for (int oy = 0; oy < out_h; ++oy) {
        for (int ox = 0; ox < out_w; ++ox) {
          std::int32_t acc = 0;
          for (int ky = 0; ky < kernel; ++ky) {
            const int iy = oy * stride - pad + ky;
            if (iy < 0 || iy >= h) continue;  // pad: (q - zp) == 0
            for (int kx = 0; kx < kernel; ++kx) {
              const int ix = ox * stride - pad + kx;
              if (ix < 0 || ix >= w) continue;
              acc += static_cast<std::int32_t>(plane[static_cast<std::ptrdiff_t>(iy) * w + ix]) -
                     in_zp;
            }
          }
          const std::int32_t q =
              multiply_by_quantized_multiplier(acc, mantissa, shift) + out_zp;
          oplane[static_cast<std::ptrdiff_t>(oy) * out_w + ox] = clamp_i8(q, kInt8Min);
        }
      }
    }
  }
}

void qglobal_avg_pool(const std::int8_t* input, std::int8_t* output, int batch, int channels,
                      int h, int w, int in_zp, std::int32_t mantissa, int shift, int out_zp) {
  qglobal_avg_pool_planes(input, output, batch, channels, h * w, in_zp,
                          QuantizedMultiplier(mantissa, shift), out_zp);
}

void qrelu(const std::int8_t* input, std::int8_t* output, std::size_t n, int zp) {
  const auto lo = static_cast<std::int8_t>(std::max(kInt8Min, zp));
  for (std::size_t i = 0; i < n; ++i) output[i] = std::max(input[i], lo);
}

void quantize_buffer(const float* input, std::int8_t* output, std::size_t n, double scale,
                     int zp) {
  const AffineParams p{scale, zp};
  for (std::size_t i = 0; i < n; ++i) output[i] = quantize_one(input[i], p);
}

void dequantize_buffer(const std::int8_t* input, float* output, std::size_t n, double scale,
                       int zp) {
  const AffineParams p{scale, zp};
  for (std::size_t i = 0; i < n; ++i) output[i] = dequantize_one(input[i], p);
}

}  // namespace micronas::rt
