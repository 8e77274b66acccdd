// Persistence + serving bench suite (tier 1): the cost of the .mnpkg
// round trip, the load-vs-recompile speedup the package format exists
// to deliver (acceptance bar: >= 5x — loading parses bytes while
// recompiling re-lowers, re-folds and re-runs PTQ calibration
// inference), the batching server's throughput against a serial
// request loop on the same model and inputs, and the executor-level
// one-invocation vs per-slot fan-out comparison behind its design.
#include <chrono>
#include <cstdio>
#include <span>
#include <thread>

#include "bench/suites/common.hpp"
#include "src/common/thread_pool.hpp"
#include "src/compile/compiler.hpp"
#include "src/rt/runtime.hpp"
#include "src/serialize/serialize.hpp"
#include "src/serve/model_registry.hpp"
#include "src/serve/model_server.hpp"
#include "src/stats/summary.hpp"

namespace micronas {
namespace {

nb201::Genotype serve_genotype() {
  return nb201::Genotype::from_string(
      "|nor_conv_3x3~0|+|skip_connect~0|nor_conv_3x3~1|+"
      "|avg_pool_3x3~0|nor_conv_1x1~1|nor_conv_3x3~2|");
}

compile::CompilerOptions serve_options(bench::State& state, int default_input = 16) {
  compile::CompilerOptions options;
  options.macro.cells_per_stage = state.param_int("cells", 1);
  options.macro.input_size = state.param_int("input", default_input);
  return options;
}

double min_ms_of(int reps, const std::function<void()>& fn) {
  double best = 1e300;
  for (int i = 0; i < reps; ++i) {
    const auto t0 = std::chrono::steady_clock::now();
    fn();
    const auto t1 = std::chrono::steady_clock::now();
    best = std::min(best, std::chrono::duration<double, std::milli>(t1 - t0).count());
  }
  return best;
}

// save -> load round trip; wall time of the case tracks one full
// round trip, and the counters break out the halves plus the headline
// load_vs_recompile_speedup (compile wall / load wall, both min-of-3).
BENCH_CASE_OPTS(serve, save_load,
                bench::CaseOptions{.warmup = 1, .min_reps = 3, .max_reps = 8, .tier = 1}) {
  const nb201::Genotype g = serve_genotype();
  const compile::CompilerOptions options = serve_options(state);
  const compile::CompiledModel model = compile::compile_genotype(g, options);

  const double compile_ms = min_ms_of(3, [&] {
    bench::do_not_optimize(compile::compile_genotype(g, options).graph.size());
  });
  std::vector<std::byte> bytes = serialize::save_model_bytes(model);
  const double save_ms = min_ms_of(3, [&] {
    bench::do_not_optimize(serialize::save_model_bytes(model).size());
  });
  const double load_ms = min_ms_of(3, [&] {
    bench::do_not_optimize(serialize::load_model_bytes(bytes).graph.size());
  });

  for (auto _ : state) {
    std::vector<std::byte> packed = serialize::save_model_bytes(model);
    const compile::CompiledModel loaded = serialize::load_model_bytes(packed);
    bench::do_not_optimize(loaded.graph.size());
  }
  state.counter("package_kb", static_cast<double>(bytes.size()) / 1024.0);
  state.counter("compile_ms", compile_ms);
  state.counter("save_ms", save_ms);
  state.counter("load_ms", load_ms);
  state.counter("load_vs_recompile_speedup", compile_ms / load_ms);
  state.set_items_processed(1);
  state.set_bytes_processed(static_cast<double>(bytes.size()));
}

// Registry loading: the mmap-backed MappedPackage path vs the copying
// load_model() path, same .mnpkg file (written to a scratch path and
// removed at the end). Both halves validate every section checksum;
// what the mapped path removes is reading + copying the weight
// payload, so mapped_vs_copy is the zero-copy dividend at load time.
// The shared-weight story is counted, not sampled: resident_weight_kb
// is what N registry loads of the same package keep resident (one
// mapping) vs copied_weight_kb for N copy-loads (N arenas) —
// deterministic byte accounting instead of RSS noise. Wall time of
// the case tracks one mapped load.
BENCH_CASE_OPTS(serve, registry_load,
                bench::CaseOptions{.warmup = 1, .min_reps = 3, .max_reps = 8, .tier = 1}) {
  const compile::CompilerOptions options = serve_options(state);
  const int loads = state.param_int("loads", 4);
  const std::string path = "bench_registry_load.mnpkg";
  serialize::save_model(compile::compile_genotype(serve_genotype(), options), path);

  const double copy_load_ms = min_ms_of(3, [&] {
    bench::do_not_optimize(serialize::load_model(path).graph.size());
  });
  const double mapped_load_ms = min_ms_of(3, [&] {
    bench::do_not_optimize(serialize::MappedPackage::map(path)->zero_copy_bytes());
  });

  // N loads through one registry: first maps, the rest dedupe to the
  // same mapping (registry_hit_us prices the hit — a map + validate +
  // table probe, no second copy of anything).
  serve::ModelRegistry registry;
  const serve::ModelRegistry::Entry first = registry.load(path);
  const double hit_ms = min_ms_of(loads - 1 > 0 ? loads - 1 : 1, [&] {
    bench::do_not_optimize(registry.load(path).model.get());
  });
  const double weight_kb = static_cast<double>(first.package->zero_copy_bytes()) / 1024.0;

  for (auto _ : state) {
    bench::do_not_optimize(serialize::MappedPackage::map(path)->zero_copy_bytes());
  }
  std::remove(path.c_str());

  state.counter("copy_load_ms", copy_load_ms);
  state.counter("mapped_load_ms", mapped_load_ms);
  state.counter("mapped_vs_copy", copy_load_ms / mapped_load_ms);
  state.counter("registry_hit_us", hit_ms * 1000.0);
  state.counter("zero_copy_kb", weight_kb);
  state.counter("resident_weight_kb", weight_kb);  // N loads, ONE mapping
  state.counter("copied_weight_kb", weight_kb * loads);
  state.set_items_processed(1);
  state.set_bytes_processed(static_cast<double>(first.package->file_bytes()));
}

std::vector<Tensor> serve_inputs(int requests, int input_size) {
  DatasetSpec spec;
  spec.height = spec.width = input_size;
  Rng rng(7);
  SyntheticDataset data(spec, rng);
  std::vector<Tensor> inputs;
  inputs.reserve(static_cast<std::size_t>(requests));
  for (int i = 0; i < requests; ++i) inputs.push_back(data.sample_batch(1, rng).images);
  return inputs;
}

/// One burst: submit every input, then drain every future. Returns the
/// min wall ms over `reps` bursts.
double burst_ms(serve::ModelServer& server, const std::vector<Tensor>& inputs, int reps) {
  return min_ms_of(reps, [&] {
    std::vector<std::future<serve::Response>> futures;
    futures.reserve(inputs.size());
    for (const Tensor& in : inputs) futures.push_back(server.submit({.input = in}));
    for (std::future<serve::Response>& f : futures) {
      bench::do_not_optimize(f.get().logits.numel());
    }
  });
}

// Batched server vs a serial request loop, same loaded model and
// inputs; wall time of the case tracks the batched pass
// (items_processed counts its requests). The server runs one
// Executor::run_batch per coalesced batch.
// The batched logits are asserted bit-identical to serial in
// tests/test_serve.cpp and tests/test_batched_executor.cpp; here only
// the throughput race is measured.
BENCH_CASE_OPTS(serve, batched_vs_serial,
                bench::CaseOptions{.warmup = 1, .min_reps = 3, .max_reps = 8, .tier = 1}) {
  const compile::CompilerOptions options = serve_options(state);
  const int requests = state.param_int("requests", 32);
  const int max_batch = state.param_int("max_batch", 8);
  const int threads = state.param_int("threads", 0);

  const std::vector<std::byte> bytes =
      serialize::save_model_bytes(compile::compile_genotype(serve_genotype(), options));
  const std::vector<Tensor> inputs = serve_inputs(requests, options.macro.input_size);

  compile::CompiledModel serial_model = serialize::load_model_bytes(bytes);
  rt::Executor serial(serial_model.graph, serial_model.plan, rt::ExecOptions{1});
  serial.run(inputs[0]);  // warm
  const double serial_ms = min_ms_of(2, [&] {
    for (const Tensor& in : inputs) bench::do_not_optimize(serial.run(in).numel());
  });

  serve::ServerOptions sopts;
  sopts.max_batch = max_batch;
  sopts.max_wait_us = 2000;
  sopts.threads = threads;
  serve::ModelServer server(serialize::load_model_bytes(bytes), sopts);

  double batched_ms = 1e300;
  for (auto _ : state) {
    batched_ms = std::min(batched_ms, burst_ms(server, inputs, 1));
  }
  const serve::ServerStats stats = server.stats();
  state.counter("serial_rps", 1000.0 * requests / serial_ms);
  state.counter("batched_rps", 1000.0 * requests / batched_ms);
  state.counter("batch_speedup", serial_ms / batched_ms);
  state.counter("mean_batch", stats.mean_batch);
  state.set_items_processed(requests);
}

// Executor-level head-to-head, no server on either side: one-invocation
// batching (each chunk of max_batch inputs = ONE capacity-max_batch
// Executor::run_batch, int8-GEMM M widened to the whole chunk) vs
// per-slot fan-out (max_batch capacity-1 Executors sharing the packed
// weights, one ThreadPool::parallel_for per chunk, slot i on executor
// i) on the same model, inputs, chunking and thread budget. The server
// runs the first; the second is what a serving lane would do instead.
// batch_speedup = fanout wall / one-invocation wall; > 1 means one
// widened invocation beats running the graph max_batch times. The
// default model is deliberately small (input=8): what one-invocation
// removes is the per-invocation cost (graph walks, kernel launches,
// pool dispatches), so the case measures the overhead-bound serving
// regime; on multi-core hosts the margin additionally includes how
// well each side splits its work over the threads. Each timed rep
// runs one pass of BOTH contestants, so the case's wall time is their
// sum; only the counters compare them.
BENCH_CASE_OPTS(serve, batched_one_invocation,
                bench::CaseOptions{.warmup = 1, .min_reps = 6, .max_reps = 12, .tier = 1}) {
  const compile::CompilerOptions options = serve_options(state, /*default_input=*/8);
  const int requests = state.param_int("requests", 128);
  const int max_batch = state.param_int("max_batch", 8);
  const int threads = state.param_int("threads", 0);

  const compile::CompiledModel model = compile::compile_genotype(serve_genotype(), options);
  const std::vector<Tensor> inputs = serve_inputs(requests, options.macro.input_size);
  const std::size_t chunk = static_cast<std::size_t>(max_batch);
  const std::size_t chunks = (inputs.size() + chunk - 1) / chunk;

  std::vector<std::unique_ptr<rt::Executor>> slots;
  for (int i = 0; i < max_batch; ++i) {
    slots.push_back(std::make_unique<rt::Executor>(model.graph, model.plan,
                                                   rt::ExecOptions{1, &model.packed}));
  }
  ThreadPool pool(threads);
  rt::Executor batched(model.graph, model.plan_for_batch(max_batch), max_batch,
                       rt::ExecOptions{threads, &model.packed});

  const auto fanout_pass = [&] {
    for (std::size_t base = 0; base < inputs.size(); base += chunk) {
      pool.parallel_for(std::min(chunk, inputs.size() - base), [&](std::size_t i) {
        bench::do_not_optimize(slots[i]->run(inputs[base + i]).numel());
      });
    }
  };
  const auto batched_pass = [&] {
    for (std::size_t base = 0; base < inputs.size(); base += chunk) {
      const std::size_t n = std::min(chunk, inputs.size() - base);
      bench::do_not_optimize(batched.run_batch(std::span(inputs.data() + base, n)).size());
    }
  };
  fanout_pass();  // warm
  batched_pass();

  // Interleave the contestants inside each rep (min-of-pairs): both
  // sides see the same share of ambient machine noise, so slow drift
  // between two separate measurement phases cannot fake a winner
  // either way.
  double fanout_ms = 1e300;
  double batched_ms = 1e300;
  for (auto _ : state) {
    fanout_ms = std::min(fanout_ms, min_ms_of(1, fanout_pass));
    batched_ms = std::min(batched_ms, min_ms_of(1, batched_pass));
  }

  state.counter("fanout_rps", 1000.0 * requests / fanout_ms);
  state.counter("one_invocation_rps", 1000.0 * requests / batched_ms);
  state.counter("batch_speedup", fanout_ms / batched_ms);
  state.counter("mean_batch", static_cast<double>(requests) / static_cast<double>(chunks));
  state.set_items_processed(requests);
}

// Batch-1 thread scaling on the serve-heavy model shape (the golden
// arch at 32x32 input, 2 cells per stage, weight seed 7, executor at
// batch capacity max_batch as a server lane builds it): one request
// through Executor::run_batch at threads=1 and at threads=4,
// interleaved run by run so both see the same ambient noise.
// b1_speedup_4t = median 1-thread ms / median 4-thread ms is the
// machine-independent ratio; it only means something next to
// hardware_threads (a 1-core host cannot exceed ~1). Wall time of the
// case tracks one 4-thread request.
BENCH_CASE_OPTS(serve, batch1_scaling,
                bench::CaseOptions{.warmup = 1, .min_reps = 5, .max_reps = 10, .tier = 1}) {
  compile::CompilerOptions options;
  options.macro.cells_per_stage = state.param_int("cells", 2);
  options.macro.input_size = state.param_int("input", 32);
  options.seed = 7;
  const int max_batch = state.param_int("max_batch", 8);
  const int runs = state.param_int("runs", 40);

  const compile::CompiledModel model = compile::compile_genotype(
      nb201::Genotype::from_string("|nor_conv_3x3~0|+|none~0|skip_connect~1|+"
                                   "|avg_pool_3x3~0|nor_conv_1x1~1|nor_conv_3x3~2|"),
      options);
  const Tensor input = serve_inputs(1, options.macro.input_size).front();
  rt::Executor one(model.graph, model.plan_for_batch(max_batch), max_batch,
                   rt::ExecOptions{1, &model.packed});
  rt::Executor four(model.graph, model.plan_for_batch(max_batch), max_batch,
                    rt::ExecOptions{4, &model.packed});
  one.run(input);  // warm
  four.run(input);

  std::vector<double> ms_1t;
  std::vector<double> ms_4t;
  for (int i = 0; i < runs; ++i) {
    ms_1t.push_back(min_ms_of(1, [&] { bench::do_not_optimize(one.run(input).numel()); }));
    ms_4t.push_back(min_ms_of(1, [&] { bench::do_not_optimize(four.run(input).numel()); }));
  }
  for (auto _ : state) {
    bench::do_not_optimize(four.run(input).numel());
  }
  const double b1_1t = stats::percentile(ms_1t, 50.0);
  const double b1_4t = stats::percentile(ms_4t, 50.0);
  state.counter("b1_ms_1t", b1_1t);
  state.counter("b1_ms_4t", b1_4t);
  state.counter("b1_speedup_4t", b1_1t / b1_4t);
  state.counter("hardware_threads", std::thread::hardware_concurrency());
  state.set_items_processed(1);
}

// Overload behavior: a burst far past the bounded queue against a
// server with tight deadlines. Wall time tracks one overload burst
// (submit everything, drain every future — logits or admission
// error); the counters expose how the load split. The admission
// ledger itself (accepted == completed + dropped, submitted ==
// accepted + rejected) is asserted in tests/test_serve_overload.cpp;
// here the cost of saying no is measured: rejection is synchronous
// and must stay cheap.
BENCH_CASE_OPTS(serve, serve_overload,
                bench::CaseOptions{.warmup = 1, .min_reps = 3, .max_reps = 8, .tier = 1}) {
  const compile::CompilerOptions options = serve_options(state);
  const int requests = state.param_int("requests", 256);
  const int max_batch = state.param_int("max_batch", 8);

  serve::ServerOptions sopts;
  sopts.max_batch = max_batch;
  sopts.max_wait_us = 200;
  sopts.threads = state.param_int("threads", 0);
  sopts.max_queue = static_cast<std::size_t>(state.param_int("max_queue", 16));
  serve::ModelServer server(
      compile::compile_genotype(serve_genotype(), options), sopts);
  const std::vector<Tensor> inputs = serve_inputs(requests, options.macro.input_size);

  long long rejected = 0;
  long long served = 0;
  for (auto _ : state) {
    std::vector<std::future<serve::Response>> futures;
    futures.reserve(inputs.size());
    for (const Tensor& in : inputs) {
      try {
        futures.push_back(server.submit({.input = in}));
      } catch (const serve::QueueFullError&) {
        ++rejected;
      }
    }
    for (std::future<serve::Response>& f : futures) {
      try {
        bench::do_not_optimize(f.get().logits.numel());
        ++served;
      } catch (const serve::DeadlineExpiredError&) {
      }
    }
  }
  const serve::ServerStats stats = server.stats();
  const long long offered = served + rejected + (stats.dropped);
  state.counter("served", static_cast<double>(served));
  state.counter("rejected", static_cast<double>(rejected));
  state.counter("dropped", static_cast<double>(stats.dropped));
  state.counter("rejected_fraction",
                offered > 0 ? static_cast<double>(rejected) / static_cast<double>(offered) : 0.0);
  state.set_items_processed(requests);
}

}  // namespace
}  // namespace micronas
