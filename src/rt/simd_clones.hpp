// The function-multiversioning attribute of the int8 kernels' hot loops
// (src/rt), also used by the bench case that times their output stage.
//
// The build stays baseline x86-64 (runs anywhere), but an annotated
// kernel is additionally compiled for wider SIMD levels and dispatched
// once at load time via the ELF ifunc mechanism — vectorization without
// making the binary ISA-specific. The attribute only affects code
// generation of the annotated function (inlined callees included, such
// as QuantizedMultiplier::apply); the arithmetic is the same exact
// integer arithmetic in every clone, so outputs are bit-identical across
// ISA levels. Off under MICRONAS_PORTABLE and on toolchains/targets
// without the feature. (GCC spells AVX-512 targets "arch=x86-64-v4";
// clang spells them as plain features.) Also off under TSan: the ifunc
// resolvers run during relocation, before the TSan runtime initializes,
// and crash at program startup — and the CI tsan job runs the kernels'
// property suites.
#pragma once

#if defined(__SANITIZE_THREAD__)
#define MICRONAS_NO_SIMD_CLONES 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define MICRONAS_NO_SIMD_CLONES 1
#endif
#endif

#if defined(MICRONAS_NO_SIMD_CLONES) || defined(MICRONAS_PORTABLE)
#define MICRONAS_SIMD_CLONES
#elif defined(__x86_64__) && defined(__ELF__) && defined(__clang__)
#define MICRONAS_SIMD_CLONES __attribute__((target_clones("default", "avx2", "avx512bw")))
#elif defined(__x86_64__) && defined(__ELF__) && defined(__GNUC__)
#define MICRONAS_SIMD_CLONES \
  __attribute__((target_clones("default", "arch=x86-64-v3", "arch=x86-64-v4")))
#else
#define MICRONAS_SIMD_CLONES
#endif
