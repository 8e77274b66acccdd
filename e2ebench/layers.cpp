// Per-layer measurements shared by the workloads: the host roofline,
// the rt executor / kernel breakdown, the package load path, and the
// summaries read back from obs spans.
#include "e2ebench/layers.hpp"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "src/rt/runtime.hpp"
#include "src/serialize/serialize.hpp"
#include "src/serve/model_registry.hpp"
#include "src/serve/multi_model_server.hpp"
#include "src/stats/summary.hpp"

// The same multiversioning the int8 GEMM kernels use (the condition is
// theirs, clause for clause), so the measured peak is what those kernels
// could reach on this host. Off under TSan (ifunc resolvers run before
// its runtime starts) and in the portable build, as for those kernels.
#if defined(__SANITIZE_THREAD__)
#define E2E_NO_SIMD_CLONES 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define E2E_NO_SIMD_CLONES 1
#endif
#endif

#if defined(E2E_NO_SIMD_CLONES) || defined(MICRONAS_PORTABLE)
#define E2E_SIMD_CLONES
#elif defined(__x86_64__) && defined(__ELF__) && defined(__clang__)
#define E2E_SIMD_CLONES __attribute__((target_clones("default", "avx2", "avx512bw")))
#elif defined(__x86_64__) && defined(__ELF__) && defined(__GNUC__)
#define E2E_SIMD_CLONES \
  __attribute__((target_clones("default", "arch=x86-64-v3", "arch=x86-64-v4")))
#else
#define E2E_SIMD_CLONES
#endif

namespace e2e {

using namespace micronas;

namespace {

constexpr int kMacK = 512;   // dot-product length (int16 lanes)
constexpr int kMacRows = 8;  // weight rows; panels stay in L1

/// int16 x int16 -> int32 multiply-accumulate over L1-resident panels,
/// four independent rows at a time: the packed int8 GEMM's inner
/// operation with no memory traffic. Returns a checksum so the work
/// cannot be elided.
E2E_SIMD_CLONES
std::int64_t mac_kernel(const std::int16_t* a, const std::int16_t* b, long long reps) {
  std::int64_t sink = 0;
  for (long long r = 0; r < reps; ++r) {
    for (int row = 0; row < kMacRows; row += 4) {
      const std::int16_t* b0 = b + static_cast<std::ptrdiff_t>(row) * kMacK;
      const std::int16_t* b1 = b0 + kMacK;
      const std::int16_t* b2 = b1 + kMacK;
      const std::int16_t* b3 = b2 + kMacK;
      std::int32_t s0 = 0, s1 = 0, s2 = 0, s3 = 0;
      for (int i = 0; i < kMacK; ++i) {
        s0 += a[i] * b0[i];
        s1 += a[i] * b1[i];
        s2 += a[i] * b2[i];
        s3 += a[i] * b3[i];
      }
      sink += s0 ^ s1 ^ s2 ^ s3;
    }
  }
  return sink;
}

/// Aggregate GOP/s (2 ops per MAC) of `threads` concurrent mac_kernels.
double mac_gops(int threads) {
  constexpr long long kReps = 40000;
  std::vector<std::int64_t> sinks(static_cast<std::size_t>(threads));
  const auto body = [&](int t) {
    std::vector<std::int16_t> a(kMacK), b(static_cast<std::size_t>(kMacK) * kMacRows);
    for (std::size_t i = 0; i < a.size(); ++i) a[i] = static_cast<std::int16_t>((i * 7 + t) % 255 - 127);
    for (std::size_t i = 0; i < b.size(); ++i) b[i] = static_cast<std::int16_t>((i * 13 + t) % 255 - 127);
    sinks[static_cast<std::size_t>(t)] = mac_kernel(a.data(), b.data(), kReps);
  };
  const auto t0 = Clock::now();
  std::vector<std::thread> pool;
  for (int t = 1; t < threads; ++t) pool.emplace_back(body, t);
  body(0);
  for (auto& th : pool) th.join();
  const double s = ms_between(t0, Clock::now()) / 1000.0;
  volatile std::int64_t keep = 0;
  for (auto v : sinks) keep = keep + v;
  (void)keep;
  const double ops = 2.0 * static_cast<double>(kReps) * kMacRows * kMacK * threads;
  return ops / s / 1e9;
}

/// Aggregate copy GB/s (bytes read + written) of `threads` concurrent
/// memcpy streams over a buffer far larger than the caches.
double stream_gbs(int threads, std::vector<std::byte>& src, std::vector<std::byte>& dst) {
  const std::size_t slice = src.size() / static_cast<std::size_t>(threads);
  const auto body = [&](int t) {
    const std::size_t off = slice * static_cast<std::size_t>(t);
    std::memcpy(dst.data() + off, src.data() + off, slice);
  };
  const auto t0 = Clock::now();
  std::vector<std::thread> pool;
  for (int t = 1; t < threads; ++t) pool.emplace_back(body, t);
  body(0);
  for (auto& th : pool) th.join();
  const double s = ms_between(t0, Clock::now()) / 1000.0;
  return 2.0 * static_cast<double>(slice) * threads / s / 1e9;
}

/// Output numel of a node divided by its batch dimension (per sample).
double per_sample_numel(const ir::Node& node) {
  const Shape& s = node.type.shape;
  return static_cast<double>(s.numel()) / static_cast<double>(std::max(1, s[0]));
}

}  // namespace

Roofline measure_roofline() {
  Roofline r;
  r.threads = static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
  std::vector<std::byte> src(std::size_t{32} << 20, std::byte{1});
  std::vector<std::byte> dst(src.size(), std::byte{0});
  // Best of three: the peak is what the host can do, not its average.
  for (int rep = 0; rep < 3; ++rep) {
    r.peak_gops_1 = std::max(r.peak_gops_1, mac_gops(1));
    r.peak_gops_n = std::max(r.peak_gops_n, mac_gops(r.threads));
    r.stream_gbs_1 = std::max(r.stream_gbs_1, stream_gbs(1, src, dst));
    r.stream_gbs_n = std::max(r.stream_gbs_n, stream_gbs(r.threads, src, dst));
  }
  return r;
}

void add_roofline_metrics(const Roofline& roof, Metrics& m) {
  m["host.peak_gops.1t"] = roof.peak_gops_1;
  m["host.peak_gops"] = roof.peak_gops_n;
  m["host.stream_gbs.1t"] = roof.stream_gbs_1;
  m["host.stream_gbs"] = roof.stream_gbs_n;
}

void add_rt_metrics(const compile::CompiledModel& model, int threads,
                    const std::vector<Tensor>& inputs, const Roofline& roof, int reps,
                    Metrics& m) {
  constexpr int kBatch = 8;
  if (inputs.size() < static_cast<std::size_t>(kBatch)) {
    throw std::invalid_argument("add_rt_metrics: need 8 inputs");
  }
  const std::span<const Tensor> one(inputs.data(), 1);
  const std::span<const Tensor> eight(inputs.data(), kBatch);

  rt::ExecOptions plain{threads, &model.packed, false};
  rt::BatchedExecutor exec(model.graph, model.plan_for_batch(kBatch), kBatch, plain);
  const auto median_ms = [&](std::span<const Tensor> batch) {
    exec.run_batch(batch);
    std::vector<double> t;
    for (int r = 0; r < reps; ++r) {
      t.push_back(timed_ms("bench.run_batch", [&] { exec.run_batch(batch); }));
    }
    return stats::percentile(t, 50.0);
  };
  m["rt.batch_ms.b1"] = median_ms(one);
  m["rt.batch_ms.b8"] = median_ms(eight);

  // Per-op attribution from the executor's own profile (ExecOptions::
  // profile): accumulated op time over `reps` batches of 8, after one
  // warm-up batch whose times are subtracted.
  rt::ExecOptions profiled = plain;
  profiled.profile = true;
  rt::BatchedExecutor prof(model.graph, model.plan_for_batch(kBatch), kBatch, profiled);
  prof.run_batch(eight);
  const std::vector<rt::OpProfileEntry> before = prof.op_profile();
  const double wall = timed_ms("bench.run_batch_profiled", [&] {
    for (int r = 0; r < reps; ++r) prof.run_batch(eight);
  });
  const std::vector<rt::OpProfileEntry>& after = prof.op_profile();

  std::map<std::string, double> op_ms;
  double ops_total = 0.0;
  double qconv_ops = 0.0, qconv_bytes = 0.0, qconv_ms = 0.0;
  double qlinear_ops = 0.0, qlinear_ms = 0.0;
  for (std::size_t i = 0; i < after.size(); ++i) {
    if (after[i].node_id < 0) continue;
    const double ms = (after[i].total_ms - before[i].total_ms) / reps;
    op_ms[after[i].op] += ms;
    ops_total += ms;
    const ir::Node& node = model.graph.node(after[i].node_id);
    if (node.op != ir::OpKind::kQConv2d && node.op != ir::OpKind::kQLinear) continue;
    // Work computed from tensor shapes: 2 ops per weight use per output
    // position; bytes = int8 activations in and out for the whole batch
    // plus the int8 weights once per invocation.
    double weight_numel = 0.0;
    double in_numel = 0.0;
    for (int id : node.inputs) {
      const ir::Node& in = model.graph.node(id);
      if (in.is_const() && in.type.dtype == ir::DType::kI8) {
        weight_numel += static_cast<double>(in.type.shape.numel());
      } else if (!in.is_const()) {
        in_numel += per_sample_numel(in);
      }
    }
    const double out_numel = per_sample_numel(node);
    if (node.op == ir::OpKind::kQConv2d) {
      const Shape& w = model.graph.node(node.inputs[1]).type.shape;
      const double positions = out_numel / static_cast<double>(w[0]);
      qconv_ops += kBatch * 2.0 * positions * weight_numel;
      qconv_bytes += kBatch * (in_numel + out_numel) + weight_numel;
      qconv_ms += ms;
    } else {
      qlinear_ops += kBatch * 2.0 * weight_numel;
      qlinear_ms += ms;
    }
  }
  for (const char* op : kInt8Ops) {
    m[std::string("rt.op_ms.") + op] = op_ms.count(op) ? op_ms[op] : 0.0;
  }
  m["rt.walk_ms"] = wall / reps - ops_total;

  const double peak = threads == 1 ? roof.peak_gops_1 : roof.peak_gops_n;
  const double bw = threads == 1 ? roof.stream_gbs_1 : roof.stream_gbs_n;
  if (qconv_ms > 0.0) {
    const double gops = qconv_ops / (qconv_ms / 1000.0) / 1e9;
    m["kern.qconv.gops"] = gops;
    m["kern.qconv.gbs"] = qconv_bytes / (qconv_ms / 1000.0) / 1e9;
    const double attainable = std::min(peak, bw * (qconv_ops / qconv_bytes));
    m["kern.roofline_frac"] = attainable > 0.0 ? gops / attainable : 0.0;
  }
  if (qlinear_ms > 0.0) m["kern.qlinear.gops"] = qlinear_ops / (qlinear_ms / 1000.0) / 1e9;
}

void add_load_metrics(const compile::CompiledModel& model, const std::string& dir,
                      const serve::ServerOptions& options, int reps, Metrics& m) {
  std::vector<double> save, map, fresh, hit, lane, drain;
  for (int r = 0; r < reps; ++r) {
    const std::string path = dir + "/load_probe_" + std::to_string(r) + ".mnpkg";
    save.push_back(timed_ms("bench.save_model", [&] { serialize::save_model(model, path); }));
    map.push_back(timed_ms("bench.map", [&] { serialize::MappedPackage::map(path); }));
    serve::ModelRegistry registry;
    const double registry_ms = timed_ms("bench.registry_load", [&] { registry.load(path); });
    fresh.push_back(registry_ms);
    hit.push_back(timed_ms("bench.registry_hit", [&] { registry.load(path); }));
    serve::MultiModelServer server(options);
    std::string key;
    const double load_ms = timed_ms("bench.server_load", [&] { key = server.load(path); });
    lane.push_back(load_ms - registry_ms);
    drain.push_back(timed_ms("bench.server_unload", [&] { server.unload(key); }));
    std::remove(path.c_str());
  }
  m["save.ms"] = stats::percentile(save, 50.0);
  m["load.map_ms"] = stats::percentile(map, 50.0);
  m["load.registry_ms"] = stats::percentile(fresh, 50.0);
  m["load.hit_ms"] = stats::percentile(hit, 50.0);
  m["load.lane_ms"] = stats::percentile(lane, 50.0);
  m["unload.drain_ms"] = stats::percentile(drain, 50.0);
}

double span_mean_ms(const std::vector<obs::TraceEvent>& events, const char* name) {
  double sum = 0.0;
  long long n = 0;
  for (const auto& e : events) {
    if (std::strcmp(e.name, name) == 0) {
      sum += e.dur_us;
      ++n;
    }
  }
  return n > 0 ? sum / 1000.0 / static_cast<double>(n) : 0.0;
}

void add_compile_metrics(const std::vector<obs::TraceEvent>& events, Metrics& m) {
  // Per compile: each stage span's total divided by the compiles seen
  // (bench.compile spans wrap compile_genotype / compile_winner).
  long long compiles = 0;
  double total = 0.0;
  std::map<std::string, double> stage;
  for (const auto& e : events) {
    if (std::strcmp(e.name, "bench.compile") == 0) {
      ++compiles;
      total += e.dur_us;
    } else if (std::strncmp(e.name, "compile.", 8) == 0) {
      stage[e.name] += e.dur_us;
    }
  }
  if (compiles == 0) throw std::runtime_error("traced run recorded no compile spans");
  const auto per = [&](double us) { return us / 1000.0 / static_cast<double>(compiles); };
  m["compile.total_ms"] = per(total);
  m["compile.lower_ms"] = per(stage["compile.lower"]);
  m["compile.passes_ms"] = per(stage["compile.passes"]);
  m["compile.pack_ms"] = per(stage["compile.pack_weights"]);
  m["compile.plan_ms"] = per(stage["compile.plan_memory"]);
}

std::size_t write_checked_trace(const std::string& path) {
  obs::write_chrome_trace(path);
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read back trace " + path);
  std::stringstream text;
  text << in.rdbuf();
  const json::Json doc = json::Json::parse(text.str());  // strict: throws on any defect
  const std::size_t events = doc.at("traceEvents").as_array().size();
  if (events == 0) throw std::runtime_error("trace " + path + " holds no events");
  return events;
}

}  // namespace e2e
