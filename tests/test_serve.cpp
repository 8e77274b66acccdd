// ModelServer: batching must be a pure throughput optimization — every
// request's logits bit-identical to a serial Executor run — across
// batch sizes, thread counts, and a save/load round trip of the model.
#include <gtest/gtest.h>

#include <future>
#include <thread>
#include <vector>

#include "src/data/synthetic.hpp"
#include "src/rt/runtime.hpp"
#include "src/serialize/serialize.hpp"
#include "src/serve/model_server.hpp"

namespace micronas {
namespace {

compile::CompiledModel compiled_small() {
  compile::CompilerOptions options;
  options.macro.cells_per_stage = 1;
  options.macro.input_size = 8;
  options.seed = 5;
  return compile::compile_genotype(
      nb201::Genotype::from_string("|nor_conv_3x3~0|+|skip_connect~0|nor_conv_1x1~1|+"
                                   "|avg_pool_3x3~0|none~1|nor_conv_3x3~2|"),
      options);
}

std::vector<Tensor> sample_inputs(int n, std::uint64_t seed) {
  DatasetSpec spec;
  spec.height = spec.width = 8;
  Rng rng(seed);
  SyntheticDataset data(spec, rng);
  std::vector<Tensor> inputs;
  inputs.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) inputs.push_back(data.sample_batch(1, rng).images);
  return inputs;
}

void expect_bit_identical(const Tensor& a, const Tensor& b, const std::string& what) {
  ASSERT_EQ(a.numel(), b.numel()) << what;
  for (std::size_t i = 0; i < a.numel(); ++i) {
    ASSERT_EQ(a[i], b[i]) << what << " diverges at logit " << i;
  }
}

TEST(ModelServer, BatchedLogitsEqualSerialLogits) {
  const compile::CompiledModel model = compiled_small();
  const std::vector<Tensor> inputs = sample_inputs(24, 11);

  rt::Executor serial(model.graph, model.plan, rt::ExecOptions{1});
  std::vector<Tensor> expected;
  for (const Tensor& in : inputs) expected.push_back(serial.run(in));

  serve::ServerOptions options;
  options.max_batch = 6;
  options.max_wait_us = 200;
  options.threads = 3;
  serve::ModelServer server(compiled_small(), options);
  std::vector<std::future<serve::Response>> futures;
  for (const Tensor& in : inputs) futures.push_back(server.submit({.input = in}));
  for (std::size_t i = 0; i < futures.size(); ++i) {
    expect_bit_identical(futures[i].get().logits, expected[i],
                         "request " + std::to_string(i) + " (batched vs serial)");
  }

  const serve::ServerStats stats = server.stats();
  EXPECT_EQ(stats.requests, static_cast<long long>(inputs.size()));
  EXPECT_GE(stats.batches, 1);
  EXPECT_LE(stats.batches, stats.requests);
  EXPECT_GE(stats.mean_batch, 1.0);
  EXPECT_LE(stats.p50_ms, stats.p90_ms);
  EXPECT_LE(stats.p90_ms, stats.p99_ms);
  EXPECT_LE(stats.p99_ms, stats.max_ms);
  EXPECT_GT(stats.throughput_rps, 0.0);
}

TEST(ModelServer, ServesAReloadedPackageBitExactly) {
  const compile::CompiledModel model = compiled_small();
  const std::vector<Tensor> inputs = sample_inputs(10, 29);

  rt::Executor serial(model.graph, model.plan, rt::ExecOptions{1});
  std::vector<Tensor> expected;
  for (const Tensor& in : inputs) expected.push_back(serial.run(in));

  // Round-trip the model through the package format, then serve it.
  const std::vector<std::byte> bytes = serialize::save_model_bytes(model);
  serve::ServerOptions options;
  options.max_batch = 4;
  options.threads = 2;
  serve::ModelServer server(serialize::load_model_bytes(bytes), options);
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    expect_bit_identical(server.infer({.input = inputs[i]}).logits, expected[i],
                         "reloaded request " + std::to_string(i));
  }
}

TEST(ModelServer, CoalescesConcurrentClientsIntoBatches) {
  serve::ServerOptions options;
  options.max_batch = 8;
  options.max_wait_us = 200'000;  // generous: coalescing must win over timing noise
  options.threads = 2;
  serve::ModelServer server(compiled_small(), options);

  const std::vector<Tensor> inputs = sample_inputs(16, 3);
  std::vector<std::future<serve::Response>> futures;
  for (const Tensor& in : inputs) futures.push_back(server.submit({.input = in}));
  for (std::future<serve::Response>& f : futures) f.get();

  const serve::ServerStats stats = server.stats();
  EXPECT_EQ(stats.requests, 16);
  // 16 requests enqueued faster than they run must coalesce: strictly
  // fewer invocations than requests, batches capped by max_batch.
  EXPECT_LT(stats.batches, stats.requests);
  EXPECT_GE(stats.batches, 2);  // 16 requests cannot fit one batch of 8
  EXPECT_GT(stats.mean_batch, 1.0);
}

TEST(ModelServer, RejectsWrongInputShape) {
  serve::ModelServer server(compiled_small(), {});
  std::future<serve::Response> bad = server.submit({.input = Tensor(Shape{1, 3, 4, 4})});
  EXPECT_THROW(bad.get(), std::invalid_argument);
}

TEST(ModelServer, EveryConcurrentStopWaitsForTheDrain) {
  // Racing stop() calls: only one wins the dispatcher join, but every
  // caller must block until the dispatcher has exited — a loser that
  // returned early would observe incomplete stats(), and a stop()
  // racing the destructor would leave the dispatcher touching freed
  // state. Each thread therefore checks the postcondition right after
  // its own stop() returns.
  serve::ServerOptions options;
  options.max_batch = 2;
  options.max_wait_us = 1'000'000;  // stop() must cut the wait short
  serve::ModelServer server(compiled_small(), options);
  const std::vector<Tensor> inputs = sample_inputs(6, 23);
  std::vector<std::future<serve::Response>> futures;
  for (const Tensor& in : inputs) futures.push_back(server.submit({.input = in}));

  std::vector<long long> seen(4, -1);
  std::vector<std::thread> stoppers;
  for (std::size_t t = 0; t < seen.size(); ++t) {
    stoppers.emplace_back([&server, &seen, t] {
      server.stop();
      seen[t] = server.stats().requests;
    });
  }
  for (std::thread& th : stoppers) th.join();
  for (std::size_t t = 0; t < seen.size(); ++t) {
    EXPECT_EQ(seen[t], 6) << "stop() caller " << t << " returned before the queue drained";
  }
  for (std::future<serve::Response>& f : futures) EXPECT_GT(f.get().logits.numel(), 0u);
}

TEST(ModelServer, StopDrainsPendingRequests) {
  serve::ServerOptions options;
  options.max_batch = 4;
  options.max_wait_us = 1'000'000;  // stop() must cut the wait short
  serve::ModelServer server(compiled_small(), options);
  const std::vector<Tensor> inputs = sample_inputs(3, 17);
  std::vector<std::future<serve::Response>> futures;
  for (const Tensor& in : inputs) futures.push_back(server.submit({.input = in}));
  server.stop();
  for (std::future<serve::Response>& f : futures) EXPECT_GT(f.get().logits.numel(), 0u);
  EXPECT_THROW(server.submit({.input = inputs[0]}), std::runtime_error);
  EXPECT_EQ(server.stats().requests, 3);
}

}  // namespace
}  // namespace micronas
