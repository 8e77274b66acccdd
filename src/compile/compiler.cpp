#include "src/compile/compiler.hpp"

#include <chrono>
#include <cstdio>
#include <sstream>
#include <stdexcept>

#include "src/compile/passes.hpp"
#include "src/compile/quantize.hpp"
#include "src/data/synthetic.hpp"
#include "src/obs/trace.hpp"

namespace micronas::compile {

namespace {

std::vector<Tensor> make_calibration_batches(const CompilerOptions& options) {
  DatasetSpec spec;
  spec.channels = options.macro.input_channels;
  spec.height = options.macro.input_size;
  spec.width = options.macro.input_size;
  spec.num_classes = options.macro.num_classes;
  Rng rng(splitmix64(options.seed ^ 0x5EED5EEDULL));
  SyntheticDataset data(spec, rng);
  std::vector<Tensor> batches;
  batches.reserve(static_cast<std::size_t>(options.calibration_batches));
  for (int i = 0; i < options.calibration_batches; ++i) {
    batches.push_back(data.sample_batch(1, rng).images);
  }
  return batches;
}

}  // namespace

rt::MemoryPlan CompiledModel::plan_for_batch(int batch_capacity,
                                             rt::MemoryPlanOptions options) const {
  options.batch = batch_capacity;
  return rt::plan_memory(graph, options);
}

CompiledModel compile_genotype(const nb201::Genotype& genotype, const CompilerOptions& options) {
  if (options.quantize && !(options.fold && options.fuse)) {
    throw std::invalid_argument(
        "compile_genotype: int8 quantization requires fold and fuse enabled");
  }

  CompiledModel model;
  CompileReport& report = model.report;
  report.arch = genotype.to_string();

  ir::LowerOptions lower;
  lower.macro = options.macro;
  lower.seed = options.seed;
  {
    OBS_SPAN("compile.lower");
    model.graph = ir::lower_genotype(genotype, lower);
  }
  report.lowered_nodes = model.graph.size();
  report.lowered_executed = model.graph.executed_node_count();

  PassManager pm;
  if (options.fold) pm.add(std::make_unique<ConstantFoldPass>());
  if (options.fuse) pm.add(std::make_unique<FuseConvBnReluPass>());
  if (options.fold || options.fuse) pm.add(std::make_unique<DeadCodeElimPass>());
  if (options.quantize) {
    QuantizePassOptions qopts;
    qopts.spec = options.quant;
    pm.add(std::make_unique<QuantizePass>(make_calibration_batches(options), qopts));
    pm.add(std::make_unique<DeadCodeElimPass>());
  }
  // Last graph rewrite: reordering renumbers node ids, so it must run
  // before anything keyed by them (weight packing, the memory plan).
  if (options.reorder) pm.add(std::make_unique<ScheduleReorderPass>(options.plan));
  {
    OBS_SPAN("compile.passes");
    report.passes = pm.run(model.graph);
  }
  report.final_nodes = model.graph.size();
  report.final_executed = model.graph.executed_node_count();
  report.const_bytes = model.graph.const_bytes();

  // Pack-weights pass: choose the int8 GEMM weight layout now, at
  // package-build time, so executors (and every server that loads the
  // serialized package) skip the repack. Runs outside the PassManager
  // because it produces sidecar data rather than rewriting the graph —
  // the padded panels must not widen the IR consts the quantized graph
  // type-checks against — but is reported like any other pass.
  {
    OBS_SPAN("compile.pack_weights");
    const auto t0 = std::chrono::steady_clock::now();
    model.packed = rt::pack_graph_weights(model.graph);
    PassStat stat;
    stat.name = "pack-weights";
    stat.changed = false;  // graph untouched; layout sidecar only
    stat.nodes_before = model.graph.size();
    stat.nodes_after = model.graph.size();
    stat.wall_ms =
        std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - t0)
            .count();
    report.passes.push_back(std::move(stat));
  }

  {
    OBS_SPAN("compile.plan_memory");
    model.plan = rt::plan_memory(model.graph, options.plan);
  }
  report.arena_bytes = model.plan.arena_bytes;
  report.naive_arena_bytes = model.plan.naive_bytes;
  report.memory_plan = model.plan.to_string(model.graph);

  // Validate the plan against the analytic memory model's prediction
  // for the same (possibly quantized) deployment model.
  const MacroModel macro = build_macro_model(genotype, options.macro);
  const MemoryReport predicted = options.quantize
                                     ? analyze_quantized_memory(quantize_model(macro, options.quant),
                                                                options.quant)
                                     : analyze_memory(macro);
  report.model_peak_sram_bytes = predicted.peak_sram_bytes;
  report.arena_to_model_ratio =
      predicted.peak_sram_bytes > 0
          ? static_cast<double>(report.arena_bytes) / static_cast<double>(predicted.peak_sram_bytes)
          : 0.0;
  return model;
}

std::string CompileReport::to_string(bool include_timing) const {
  std::ostringstream ss;
  char buf[160];
  ss << "compile report: " << arch << "\n";
  std::snprintf(buf, sizeof(buf), "nodes: %d -> %d (executed %d -> %d), flash %lld B\n",
                lowered_nodes, final_nodes, lowered_executed, final_executed, const_bytes);
  ss << buf;
  for (const auto& p : passes) {
    if (include_timing) {
      std::snprintf(buf, sizeof(buf), "  pass %-18s %4d -> %4d nodes%s  (%.2f ms)\n",
                    p.name.c_str(), p.nodes_before, p.nodes_after,
                    p.changed ? "  [changed]" : "", p.wall_ms);
    } else {
      std::snprintf(buf, sizeof(buf), "  pass %-18s %4d -> %4d nodes%s\n", p.name.c_str(),
                    p.nodes_before, p.nodes_after, p.changed ? "  [changed]" : "");
    }
    ss << buf;
  }
  std::snprintf(buf, sizeof(buf),
                "arena: %lld B planned (naive %lld B), model-predicted peak %lld B, ratio %.4f\n",
                arena_bytes, naive_arena_bytes, model_peak_sram_bytes, arena_to_model_ratio);
  ss << buf;
  if (predicted_latency_ms > 0.0 || executed_latency_ms > 0.0) {
    std::snprintf(buf, sizeof(buf),
                  "latency: predicted %.3f ms (LUT estimator), executed %.3f ms (mcusim on "
                  "compiled schedule)\n",
                  predicted_latency_ms, executed_latency_ms);
    ss << buf;
  }
  ss << "memory plan:\n" << memory_plan;
  return ss.str();
}

}  // namespace micronas::compile
