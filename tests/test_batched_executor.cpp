// BatchedExecutor: one coalesced batch is ONE executor invocation, and
// batching must be invisible in the numbers — sample i of any
// run_batch is bit-identical to a serial Executor::run of the same
// input, across sampled genotypes, batch sizes (incl. ragged final
// batches), slot positions and thread counts.
#include <gtest/gtest.h>

#include <algorithm>
#include <span>
#include <string>
#include <vector>

#include "src/compile/compiler.hpp"
#include "src/data/synthetic.hpp"
#include "src/nb201/space.hpp"
#include "src/rt/memory_planner.hpp"
#include "src/rt/runtime.hpp"

namespace micronas {
namespace {

constexpr int kCapacity = 4;

compile::CompiledModel compile_small(const nb201::Genotype& g, bool quantize = true,
                                     int input_size = 8) {
  compile::CompilerOptions options;
  options.macro.cells_per_stage = 1;
  options.macro.input_size = input_size;
  options.calibration_batches = 1;
  options.quantize = quantize;
  options.seed = 13;
  return compile::compile_genotype(g, options);
}

std::vector<Tensor> sample_inputs(int n, std::uint64_t seed, int input_size = 8) {
  DatasetSpec spec;
  spec.height = spec.width = input_size;
  Rng rng(seed);
  SyntheticDataset data(spec, rng);
  std::vector<Tensor> inputs;
  inputs.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) inputs.push_back(data.sample_batch(1, rng).images);
  return inputs;
}

void expect_bit_identical(const Tensor& got, const Tensor& want, const std::string& what) {
  ASSERT_EQ(got.numel(), want.numel()) << what;
  for (std::size_t i = 0; i < got.numel(); ++i) {
    ASSERT_EQ(got[i], want[i]) << what << " diverges at logit " << i;
  }
}

/// Feed `inputs` through a BatchedExecutor in chunks of at most
/// `chunk` (the final batch is ragged when chunk does not divide the
/// count) and assert every sample against the serial expectation.
void check_chunked(rt::BatchedExecutor& batched, const std::vector<Tensor>& inputs,
                   const std::vector<Tensor>& expected, int chunk, const std::string& what) {
  std::size_t done = 0;
  while (done < inputs.size()) {
    const std::size_t take = std::min(static_cast<std::size_t>(chunk), inputs.size() - done);
    const std::vector<Tensor> logits =
        batched.run_batch(std::span<const Tensor>(inputs.data() + done, take));
    ASSERT_EQ(logits.size(), take);
    for (std::size_t i = 0; i < take; ++i) {
      expect_bit_identical(logits[i], expected[done + i],
                           what + ": input " + std::to_string(done + i) + " in a batch of " +
                               std::to_string(take) + " at slot " + std::to_string(i));
    }
    done += take;
  }
}

// The headline property: over ~25 sampled genotypes, batched logits
// are bit-identical to serial per-input for batch sizes {1, 3, N,
// N+ragged} and thread counts {1, 3} — partial final batches included.
TEST(BatchedExecutor, BatchedLogitsBitIdenticalToSerialOnSampledGenotypes) {
  Rng rng(101);
  const std::vector<nb201::Genotype> genotypes = nb201::sample_genotypes(rng, 25);
  // kCapacity + 3 inputs: chunk kCapacity leaves a ragged final batch
  // of 3; chunk 3 leaves a ragged final batch of 1.
  const int kInputs = kCapacity + 3;

  int arch = 0;
  for (const auto& g : genotypes) {
    const compile::CompiledModel model = compile_small(g);
    const std::vector<Tensor> inputs =
        sample_inputs(kInputs, 900 + static_cast<std::uint64_t>(arch));

    rt::Executor serial(model.graph, model.plan, rt::ExecOptions{1});
    std::vector<Tensor> expected;
    expected.reserve(inputs.size());
    for (const Tensor& in : inputs) expected.push_back(serial.run(in));

    for (const int threads : {1, 3}) {
      rt::BatchedExecutor batched(model.graph, kCapacity, rt::ExecOptions{threads});
      const std::string what =
          "arch " + std::to_string(arch) + " (" + g.to_string() + ") threads " +
          std::to_string(threads);
      for (const int chunk : {1, 3, kCapacity}) {
        check_chunked(batched, inputs, expected, chunk, what);
      }
    }
    ++arch;
  }
}

// Batch 1 splits every op over the pool: convs over (sample x 64-pixel
// tile x channel block), pools over (sample x channel), elementwise ops
// over (sample x element chunk). At 32x32 input the stages' planes are
// 1024, 256 and 64 pixels — multi-tile grids, and at 64 pixels one tile
// split over channel blocks only; at 20x20 they are 400, 100 and 25
// pixels, so every plane ends in a partial tile. Batch-1 and ragged
// batches must stay bit-identical to serial at every lane count,
// including counts that do not divide any grid.
TEST(BatchedExecutor, BatchOneAndRaggedBitIdenticalAcrossThreadCounts) {
  // The golden arch (every op kind: 3x3 and 1x1 conv, pool, skip, add)
  // plus sampled genotypes; 20x20 reruns the first two.
  Rng rng(202);
  std::vector<nb201::Genotype> genotypes{nb201::Genotype::from_string(
      "|nor_conv_3x3~0|+|none~0|skip_connect~1|+|avg_pool_3x3~0|nor_conv_1x1~1|nor_conv_3x3~2|")};
  for (const nb201::Genotype& g : nb201::sample_genotypes(rng, 3)) genotypes.push_back(g);
  const int kInputs = kCapacity + 1;  // chunk 3 leaves a ragged final batch of 2
  int arch = 0;
  for (const int input_size : {32, 20}) {
    const std::size_t count = input_size == 32 ? genotypes.size() : 2;
    for (std::size_t i = 0; i < count; ++i) {
      const nb201::Genotype& g = genotypes[i];
      const compile::CompiledModel model = compile_small(g, /*quantize=*/true, input_size);
      const std::vector<Tensor> inputs =
          sample_inputs(kInputs, 1700 + static_cast<std::uint64_t>(arch), input_size);

      rt::Executor serial(model.graph, model.plan, rt::ExecOptions{1});
      std::vector<Tensor> expected;
      expected.reserve(inputs.size());
      for (const Tensor& in : inputs) expected.push_back(serial.run(in));

      for (const int threads : {1, 2, 3, 4, 7}) {
        rt::BatchedExecutor batched(model.graph, kCapacity, rt::ExecOptions{threads});
        const std::string what = std::to_string(input_size) + "x" + std::to_string(input_size) +
                                 " arch " + std::to_string(arch) + " (" + g.to_string() +
                                 ") threads " + std::to_string(threads);
        for (const int chunk : {1, 3}) check_chunked(batched, inputs, expected, chunk, what);
      }
      ++arch;
    }
  }
}

// Slot position must not matter: the same input run at every slot of a
// full batch (alongside different neighbors) yields the same logits.
TEST(BatchedExecutor, SlotPositionDoesNotChangeLogits) {
  const compile::CompiledModel model = compile_small(nb201::Genotype::from_index(7777));
  const std::vector<Tensor> inputs = sample_inputs(kCapacity, 31);

  rt::Executor serial(model.graph, model.plan, rt::ExecOptions{1});
  const Tensor expected = serial.run(inputs[0]);

  rt::BatchedExecutor batched(model.graph, kCapacity, rt::ExecOptions{2});
  for (int slot = 0; slot < kCapacity; ++slot) {
    std::vector<Tensor> batch = inputs;
    std::swap(batch[0], batch[static_cast<std::size_t>(slot)]);
    const std::vector<Tensor> logits = batched.run_batch(std::span<const Tensor>(batch));
    expect_bit_identical(logits[static_cast<std::size_t>(slot)], expected,
                         "slot " + std::to_string(slot));
  }
}

// The arena really is compiled at batch capacity: N times the batch-1
// arena's liveness (same schedule, scaled buffers), and the
// CompiledModel::plan_for_batch plumbing agrees with what the executor
// plans for itself.
TEST(BatchedExecutor, ArenaScalesWithBatchCapacity) {
  const compile::CompiledModel model = compile_small(nb201::Genotype::from_index(42));
  const rt::MemoryPlan batch_plan = model.plan_for_batch(kCapacity);
  ASSERT_EQ(batch_plan.buffers.size(), model.plan.buffers.size());
  EXPECT_EQ(batch_plan.schedule, model.plan.schedule);
  for (std::size_t i = 0; i < batch_plan.buffers.size(); ++i) {
    EXPECT_EQ(batch_plan.buffers[i].size, model.plan.buffers[i].size * kCapacity);
    EXPECT_EQ(batch_plan.buffers[i].def_step, model.plan.buffers[i].def_step);
    EXPECT_EQ(batch_plan.buffers[i].last_use_step, model.plan.buffers[i].last_use_step);
  }
  // The arena itself re-packs the scaled buffers (alignment padding
  // amortizes), so only a lower bound is exact: it must at least hold
  // kCapacity copies of the largest value.
  long long largest = 0;
  for (const auto& b : model.plan.buffers) largest = std::max(largest, b.size);
  EXPECT_GE(batch_plan.arena_bytes, largest * kCapacity);

  rt::BatchedExecutor from_plan(model.graph, batch_plan, kCapacity, rt::ExecOptions{1});
  rt::BatchedExecutor self_planned(model.graph, kCapacity, rt::ExecOptions{1});
  EXPECT_EQ(from_plan.arena_bytes(), self_planned.arena_bytes());
  EXPECT_EQ(from_plan.batch_capacity(), kCapacity);

  const std::vector<Tensor> inputs = sample_inputs(kCapacity, 77);
  const std::vector<Tensor> a = from_plan.run_batch(std::span<const Tensor>(inputs));
  const std::vector<Tensor> b = self_planned.run_batch(std::span<const Tensor>(inputs));
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    expect_bit_identical(a[i], b[i], "plan provenance, input " + std::to_string(i));
  }
}

// A float pipeline (quantize=false) batches the same way — the same
// partition over the f32 reference kernels, the f32 conv included (it
// splits each sample's channels over the pool, like Executor's).
TEST(BatchedExecutor, FloatPipelineBatchesBitIdentically) {
  const compile::CompiledModel model =
      compile_small(nb201::Genotype::from_index(1234), /*quantize=*/false);
  const std::vector<Tensor> inputs = sample_inputs(kCapacity + 1, 55);

  rt::Executor serial(model.graph, model.plan, rt::ExecOptions{1});
  std::vector<Tensor> expected;
  for (const Tensor& in : inputs) expected.push_back(serial.run(in));

  for (const int threads : {1, 2, 3}) {
    rt::BatchedExecutor batched(model.graph, kCapacity, rt::ExecOptions{threads});
    for (const int chunk : {1, kCapacity}) {
      check_chunked(batched, inputs, expected, chunk,
                    "float pipeline, threads " + std::to_string(threads));
    }
  }
}

// A fully folded graph (all-`none` genotype, output is a constant)
// still serves every sample of a batch that constant.
TEST(BatchedExecutor, FullyFoldedConstOutputBroadcasts) {
  const compile::CompiledModel model = compile_small(nb201::Genotype(), /*quantize=*/false);
  ASSERT_TRUE(model.graph.node(model.graph.output()).is_const());

  rt::BatchedExecutor batched(model.graph, 3, rt::ExecOptions{1});
  const std::vector<Tensor> inputs = sample_inputs(3, 9);
  const std::vector<Tensor> logits = batched.run_batch(std::span<const Tensor>(inputs));
  ASSERT_EQ(logits.size(), 3u);
  expect_bit_identical(logits[1], logits[0], "const output, sample 1");
  expect_bit_identical(logits[2], logits[0], "const output, sample 2");
}

TEST(BatchedExecutor, RejectsBadBatchesAndPlans) {
  const compile::CompiledModel model = compile_small(nb201::Genotype::from_index(5));
  rt::BatchedExecutor batched(model.graph, 2, rt::ExecOptions{1});

  // Empty and over-capacity batches.
  EXPECT_THROW(batched.run_batch(std::span<const Tensor>()), std::invalid_argument);
  const std::vector<Tensor> three = sample_inputs(3, 1);
  EXPECT_THROW(batched.run_batch(std::span<const Tensor>(three)), std::invalid_argument);

  // Wrong input shape, at any slot.
  std::vector<Tensor> mixed = sample_inputs(2, 2);
  mixed[1] = Tensor(Shape{1, 3, 4, 4});
  EXPECT_THROW(batched.run_batch(std::span<const Tensor>(mixed)), std::invalid_argument);

  // Capacity must be positive, and a batch-1 plan is not a batch-4 plan.
  EXPECT_THROW(rt::BatchedExecutor(model.graph, 0, rt::ExecOptions{1}), std::invalid_argument);
  EXPECT_THROW(rt::BatchedExecutor(model.graph, model.plan, 4, rt::ExecOptions{1}),
               std::invalid_argument);
}

}  // namespace
}  // namespace micronas
