// Per-layer measurements shared by the workloads (see layers.cpp).
#pragma once

#include <string>
#include <vector>

#include "e2ebench/bench.hpp"
#include "src/compile/compiler.hpp"
#include "src/obs/trace.hpp"
#include "src/serve/model_server.hpp"

namespace e2e {

/// The int8 op kinds a compiled model executes; each gets an
/// rt.op_ms.<kind> metric.
inline constexpr const char* kInt8Ops[] = {"quantize", "qconv2d",   "qavg_pool", "qadd",
                                           "qgap",     "qlinear",   "qrelu",     "dequantize"};

/// Host roofline, measured: peak int16xint16->int32 multiply-accumulate
/// throughput on L1-resident panels (the packed int8 GEMM's inner
/// operation, same multiversioning) and memcpy stream bandwidth, for
/// one thread and for every hardware thread.
struct Roofline {
  int threads = 1;
  double peak_gops_1 = 0.0;
  double peak_gops_n = 0.0;
  double stream_gbs_1 = 0.0;
  double stream_gbs_n = 0.0;
};
Roofline measure_roofline();
void add_roofline_metrics(const Roofline& roof, Metrics& m);

/// rt.batch_ms.{b1,b8} (BatchedExecutor::run_batch at capacity 8 on
/// `threads`), rt.op_ms.<kind> and rt.walk_ms from ExecOptions::profile,
/// and kern.* — GOP/s and GB/s computed from tensor shapes over the
/// profiled op time, and the share of the measured roofline reached.
void add_rt_metrics(const micronas::compile::CompiledModel& model, int threads,
                    const std::vector<micronas::Tensor>& inputs, const Roofline& roof, int reps,
                    Metrics& m);

/// The package load path, one stage at a time, median of `reps`:
/// save_model, MappedPackage::map, a fresh ModelRegistry::load, a dedup
/// hit, MultiModelServer::load minus the registry load (the lane), and
/// unload of an idle lane.
void add_load_metrics(const micronas::compile::CompiledModel& model, const std::string& dir,
                      const micronas::serve::ServerOptions& options, int reps, Metrics& m);

/// Mean duration in ms of the spans called `name` (0 when none).
double span_mean_ms(const std::vector<micronas::obs::TraceEvent>& events, const char* name);

/// compile.{total,lower,passes,pack,plan}_ms per compile, from the
/// library's compile.* spans and the benchmark's bench.compile spans.
void add_compile_metrics(const std::vector<micronas::obs::TraceEvent>& events, Metrics& m);

/// Write the Chrome trace to `path`, read it back through the strict
/// JSON parser (throws on any defect) and return its event count.
std::size_t write_checked_trace(const std::string& path);

}  // namespace e2e
