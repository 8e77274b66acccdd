// Post-training int8 quantization model (extension beyond the paper).
//
// The paper's fp32 deployment is what the latency numbers in §III
// describe, but real MCU deployments of CIFAR-scale networks are int8
// (TFLite-Micro / X-CUBE-AI style): the Cortex-M7's SMLAD dual-MAC
// path roughly quadruples MAC throughput and activations shrink 4×,
// which is what lets full cells fit the F746's 320 KB SRAM. This
// module derives the quantized deployment model and its accuracy
// penalty so quantization can participate in search constraints.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <stdexcept>

#include "src/hw/memory_model.hpp"
#include "src/net/macro_net.hpp"

namespace micronas {

struct QuantSpec {
  int bits = 8;
  /// Accuracy drop (percentage points) of post-training int8
  /// quantization on well-conditioned CNNs — sub-point in practice.
  double accuracy_penalty_pts = 0.4;
  /// Per-channel scale/zero-point pairs stored alongside the weights.
  int overhead_bytes_per_channel = 8;
};

/// Copy of `model` with every layer retagged to the quantized
/// precision. Shapes and schedules are unchanged.
MacroModel quantize_model(const MacroModel& model, const QuantSpec& spec = {});

/// True if every layer of the model carries the same precision `bits`.
bool model_is_uniform_precision(const MacroModel& model, int bits);

/// Memory accounting for a (possibly quantized) model: byte widths are
/// taken from the layer specs, plus quantizer metadata in flash.
MemoryReport analyze_quantized_memory(const MacroModel& model, const QuantSpec& spec = {});

/// Surrogate accuracy after quantization.
double quantized_accuracy(double fp32_accuracy, const QuantSpec& spec = {});

// ------------------------------------------------------- affine arithmetic
//
// The numeric substrate of the int8 deployment path (src/compile/,
// src/rt/): TFLite-style affine quantization. real = scale * (q - zp),
// with asymmetric per-tensor activations and symmetric per-channel
// weights. Requantization of int32 accumulators goes through a
// fixed-point multiplier (gemmlowp idiom: saturating rounding doubling
// high mul + rounding right shift) so inference is integer-exact and
// bit-identical across runs, threads and hosts.

inline constexpr int kInt8Min = -128;
inline constexpr int kInt8Max = 127;

/// real = scale * (q - zero_point), q in [-128, 127].
struct AffineParams {
  double scale = 1.0;
  int zero_point = 0;
};

/// Asymmetric parameters covering [min, max] (range is widened to
/// include 0 so that real zero is exactly representable; degenerate
/// ranges get scale 1). The zero point is nudged onto the int8 grid.
AffineParams choose_affine_params(double min, double max);

/// Symmetric weight scale for |w| <= abs_max mapped onto [-127, 127]
/// (zero point fixed at 0; degenerate abs_max gets scale 1).
double choose_symmetric_scale(double abs_max);

/// Decompose a positive real multiplier into a Q31 fixed-point
/// `mantissa` and a power-of-two `shift` such that
/// m ~= mantissa * 2^(shift - 31). Exact for powers of two.
void quantize_multiplier(double m, std::int32_t* mantissa, int* shift);

/// (a * b) rounded to the high 32 bits of the doubled 64-bit product.
/// Saturates the single overflow case a == b == INT32_MIN.
///
/// This and the two helpers below are the scalar reference of the
/// requantization arithmetic: the scalar kernels call them per output
/// element, and QuantizedMultiplier::apply (below) must match
/// multiply_by_quantized_multiplier bit for bit.
inline std::int32_t saturating_rounding_doubling_high_mul(std::int32_t a, std::int32_t b) {
  const bool overflow = a == b && a == std::numeric_limits<std::int32_t>::min();
  if (overflow) return std::numeric_limits<std::int32_t>::max();
  const std::int64_t ab = static_cast<std::int64_t>(a) * static_cast<std::int64_t>(b);
  const std::int32_t nudge = ab >= 0 ? (1 << 30) : (1 - (1 << 30));
  return static_cast<std::int32_t>((ab + nudge) / (1LL << 31));
}

/// x / 2^exponent with round-to-nearest, ties away from zero.
inline std::int32_t rounding_divide_by_pot(std::int32_t x, int exponent) {
  if (exponent < 0 || exponent > 31) [[unlikely]] {
    throw std::invalid_argument("rounding_divide_by_pot: exponent out of [0, 31]");
  }
  if (exponent == 0) return x;
  const std::int32_t mask = static_cast<std::int32_t>((1LL << exponent) - 1);
  const std::int32_t remainder = x & mask;
  std::int32_t threshold = mask >> 1;
  if (x < 0) threshold += 1;
  std::int32_t result = x >> exponent;
  if (remainder > threshold) result += 1;
  return result;
}

/// Apply a quantized multiplier produced by quantize_multiplier.
inline std::int32_t multiply_by_quantized_multiplier(std::int32_t x, std::int32_t mantissa,
                                                     int shift) {
  // x * mantissa * 2^(shift - 31): the high mul supplies 2^-31; the
  // remaining power of two is applied as a shift on either side.
  const int left_shift = shift > 0 ? shift : 0;
  const int right_shift = shift > 0 ? 0 : -shift;
  const std::int32_t shifted =
      static_cast<std::int32_t>(static_cast<std::uint32_t>(x) << left_shift);
  return rounding_divide_by_pot(saturating_rounding_doubling_high_mul(shifted, mantissa),
                                right_shift);
}

/// Smallest and largest `shift` a requant multiplier may carry: the
/// remaining power of two is applied as a 32-bit shift on one side.
inline constexpr int kMinRequantShift = -31;
inline constexpr int kMaxRequantShift = 31;

/// True iff (mantissa, shift) is a multiplier the int8 kernels accept
/// (what quantize_multiplier produces for any representable scale).
inline constexpr bool quantized_multiplier_in_range(std::int32_t mantissa, int shift) {
  return mantissa > 0 && shift >= kMinRequantShift && shift <= kMaxRequantShift;
}

/// A quantized multiplier (mantissa, shift) decoded once, for the
/// vectorized output stage of the int8 kernels (gemmlowp's
/// OutputStageQuantizeDownInt32ByFixedPoint). The constructor checks the
/// range once — mantissa > 0, shift in [kMinRequantShift,
/// kMaxRequantShift] — so `apply` needs no check and no branch: it is
/// pure lane arithmetic that the kernels' SIMD clones vectorize over a
/// whole row of accumulators. For every int32 x, apply(x) ==
/// multiply_by_quantized_multiplier(x, mantissa, shift).
class QuantizedMultiplier {
 public:
  /// Throws std::invalid_argument if (mantissa, shift) is out of range.
  QuantizedMultiplier(std::int32_t mantissa, int shift) : mantissa_(mantissa) {
    if (!quantized_multiplier_in_range(mantissa, shift)) {
      throw std::invalid_argument("QuantizedMultiplier: mantissa must be > 0 and shift in "
                                  "[-31, 31]");
    }
    left_shift_ = shift > 0 ? shift : 0;
    right_shift_ = shift > 0 ? 0 : -shift;
    mask_ = static_cast<std::int32_t>((std::int64_t{1} << right_shift_) - 1);
    half_mask_ = mask_ >> 1;
  }

  std::int32_t apply(std::int32_t x) const {
    const auto shifted = static_cast<std::int32_t>(static_cast<std::uint32_t>(x) << left_shift_);
    // The high mul without its branches: with mantissa > 0 the
    // INT32_MIN * INT32_MIN saturation cannot occur, and the reference's
    // sign-dependent nudge followed by a truncating division by 2^31 is
    // exactly floor((ab + 2^30) / 2^31). The result fits in 32 bits, so
    // the low word of a logical 64-bit shift is that floor.
    const std::int64_t ab = static_cast<std::int64_t>(shifted) * mantissa_;
    const auto high = static_cast<std::int32_t>(
        static_cast<std::uint64_t>(ab + (std::int64_t{1} << 30)) >> 31);
    // rounding_divide_by_pot: ties away from zero (right_shift_ == 0
    // gives mask 0, so nothing rounds).
    const std::int32_t remainder = high & mask_;
    const std::int32_t threshold = half_mask_ + static_cast<std::int32_t>(high < 0);
    return (high >> right_shift_) + static_cast<std::int32_t>(remainder > threshold);
  }

 private:
  std::int32_t mantissa_;
  int left_shift_ = 0;
  int right_shift_ = 0;
  std::int32_t mask_ = 0;
  std::int32_t half_mask_ = 0;
};

/// The int8 kernels' output stage over one row of accumulators that
/// share a multiplier: out[j * stride] = clamp(m.apply(acc[j] + base) +
/// out_zp, lo, 127) for j in [0, n), with out_zp and lo on the int8
/// grid. Inline so each kernel's SIMD clones vectorize it in place. `m`
/// is taken by value: a local copy cannot alias the int8 stores, so its
/// fields stay in registers.
inline void requantize_row(const std::int32_t* acc, int n, std::int32_t base,
                           QuantizedMultiplier m, int out_zp, int lo, std::int8_t* out,
                           std::ptrdiff_t stride = 1) {
  // Clamp before adding the zero point: apply() spans all of int32, so
  // apply() + out_zp could overflow.
  const std::int32_t v_lo = lo - out_zp;
  const std::int32_t v_hi = kInt8Max - out_zp;
  for (int j = 0; j < n; ++j) {
    const std::int32_t v = std::min(std::max(m.apply(acc[j] + base), v_lo), v_hi);
    out[j * stride] = static_cast<std::int8_t>(v + out_zp);
  }
}

/// Round-to-nearest quantization with saturation to [-128, 127].
std::int8_t quantize_one(float v, const AffineParams& p);
float dequantize_one(std::int8_t q, const AffineParams& p);

}  // namespace micronas
