// Deterministic interpreter runtime for compiled ir::Graphs.
//
// One Executor walks the node list (which is the schedule) and
// dispatches one kernel per node over a batch of samples: capacity 1
// for a single request or calibration, capacity N for a coalesced
// serving batch. Its buffers follow a memory plan (the deployment
// arena) or, unplanned, give every value its own storage (the
// reference layout calibration runs and the planned arena is checked
// against).
//
// Float kernels are deliberately naive direct loops (the reference
// semantics); the int8 kernels (kernels_int8.hpp) are the optimized
// deployment path. Inference is bit-identical across repeated runs,
// batch sizes, buffer layouts and thread counts: the thread pool only
// ever splits work into independent (sample, pixel tile, channel) or
// (sample, element chunk) pieces, each computed exactly as the serial
// loop computes it.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "src/common/thread_pool.hpp"
#include "src/ir/graph.hpp"
#include "src/rt/kernels_int8_gemm.hpp"
#include "src/rt/memory_planner.hpp"

namespace micronas::rt {

struct ExecOptions {
  /// Lanes of the executor's thread pool (1 = serial, 0 = one per
  /// hardware thread). The executor splits every op over them (see its
  /// class comment). Results are bit-identical for every setting.
  int threads = 1;
  /// Pre-packed qconv/qlinear weights keyed by this graph's node ids
  /// (compile::CompiledModel::packed, or a package's PACK section) —
  /// must outlive the executor, like the graph. nullptr: the executor
  /// packs on the fly at construction (skipped under MICRONAS_PORTABLE,
  /// where the kernel selector only ever picks the scalar reference).
  const PackedWeightSet* packed = nullptr;
  /// Accumulate per-node wall time into op_profile(). Off by default:
  /// profiling adds two clock reads per node dispatch. Independent of
  /// obs tracing — spans fire whenever tracing is enabled, profiling
  /// only when this is set.
  bool profile = false;
};

/// Per-node runtime attribution. The static facts (op, kernel variant,
/// bytes, strip height) are resolved once at executor construction and
/// double as obs span tags; calls/total_ms accumulate across run()s
/// when ExecOptions::profile is set.
struct OpProfileEntry {
  int node_id = -1;        // -1: node not executed (const/input)
  const char* op = "";     // op_kind_name, static storage
  const char* kernel = ""; // selected kernel variant ("" = fixed-function op)
  long long bytes = 0;     // output + non-const input bytes, per sample
  int strip_h = 0;         // row-strip height when stream-scheduled, else 0
  std::uint64_t calls = 0;
  double total_ms = 0.0;
};

/// The interpreter: one graph walk per call over a batch of
/// 1..batch_capacity() samples, dispatching one kernel per node.
///
/// The graph is compiled at batch 1 (construction throws
/// std::invalid_argument otherwise); the capacity N supplies the sample
/// axis. Every activation buffer holds N samples, and batched
/// qconv/qlinear widen the int8-GEMM M dimension instead of looping the
/// graph. A partial batch of n < N runs the same buffers with a smaller
/// effective M — each buffer simply uses its first n sample slots.
///
/// Two buffer layouts, one walk:
///
///   * planned — all activations live in a single static arena laid out
///     by rt/memory_planner.hpp (at MemoryPlanOptions::batch = N); this
///     is the deployment configuration whose peak the compile report
///     compares against hw/memory_model.
///   * unplanned (capacity 1) — every value gets its own storage; the
///     reference layout calibration runs, with an optional observer.
///
/// Every op splits over the thread pool, batch 1 included: convolutions
/// over (sample x 64-pixel tile x channel block), pools and per-channel
/// ops over (sample x channel), elementwise ops over (sample x
/// kElementChunk elements), linear layers over samples. An op
/// whose whole dispatch touches fewer than kMinParallelBytes runs on
/// the calling thread instead.
///
/// Bit-identity guarantee: sample i of run_batch({x0.., xi, ..}) is
/// bit-identical to a capacity-1 run(xi) for every batch size, thread
/// count, slot position and buffer layout, because every per-sample
/// accumulation order is the same (asserted by
/// tests/test_batched_executor.cpp and tests/test_runtime_int8.cpp).
class Executor {
 public:
  /// Planned, capacity 1: activations at `plan`'s arena offsets.
  Executor(const ir::Graph& graph, MemoryPlan plan, ExecOptions options = {});
  /// Unplanned, capacity 1: one private buffer per value.
  explicit Executor(const ir::Graph& graph, ExecOptions options = {});
  /// Plans its own arena at `batch_capacity` (batch-scaled liveness).
  Executor(const ir::Graph& graph, int batch_capacity, ExecOptions options = {},
           MemoryPlanOptions plan_options = {});
  /// Uses a caller-provided batch-capacity plan (typically
  /// compile::CompiledModel::plan_for_batch). Throws
  /// std::invalid_argument if any placement is not batch_capacity
  /// times its per-sample value size.
  Executor(const ir::Graph& graph, MemoryPlan plan, int batch_capacity, ExecOptions options = {});

  /// Execute 1..batch_capacity() inputs (each of the graph's f32 input
  /// shape) in one graph walk; result i is the f32 logits of input i.
  std::vector<Tensor> run_batch(std::span<const Tensor* const> inputs);
  std::vector<Tensor> run_batch(std::span<const Tensor> inputs);
  /// Single-sample convenience (a batch of one).
  Tensor run(const Tensor& input);

  /// Calibration hook: called for the input and after each
  /// f32-producing step with the node id and its values for every
  /// sample of the batch.
  using Observer = std::function<void(int node_id, std::span<const float>)>;
  void set_observer(Observer observer) { observer_ = std::move(observer); }

  int batch_capacity() const { return capacity_; }
  /// Activation bytes allocated: the planned arena, or in unplanned
  /// mode every value's private storage.
  long long arena_bytes() const { return static_cast<long long>(arena_.size()); }

  /// Per-node attribution + accumulated times across runs, indexed by
  /// node id (entries with node_id == -1 were not executed; bytes are
  /// per sample). Times are only accumulated when ExecOptions::profile
  /// is set.
  const std::vector<OpProfileEntry>& op_profile() const { return profile_; }

  /// Bytes an op's dispatch actually touches per sample: output bytes
  /// plus every non-const input's bytes, in the op's real dtype (an
  /// int8 op of N elements is N bytes, a f32 op 4N). Times the batch,
  /// it is what the split gate compares against kMinParallelBytes.
  /// Compute-bound ops (f32 conv / linear) report kHeavySample: their
  /// per-element cost dwarfs the memory traffic, so they always cross
  /// the gate.
  static std::size_t sample_io_bytes(const ir::Graph& graph, const ir::Node& node);
  /// Split gate: below this many bytes touched by the whole dispatch
  /// (all samples) the calling thread runs the op alone.
  static constexpr std::size_t kMinParallelBytes = 8u * 1024u;
  /// sample_io_bytes result for compute-bound ops: always parallelize.
  static constexpr std::size_t kHeavySample = ~std::size_t{0};

 private:
  /// Elements per unit of the elementwise split: a whole number of
  /// 64-byte lines in int8 and in f32, so no two lanes write one line.
  static constexpr std::size_t kElementChunk = 1024;

  void prepare();
  std::byte* buffer(int node_id);
  const std::byte* read_buffer(int node_id) const;
  void dispatch(const ir::Node& node, int n);
  /// The pool when `node`'s dispatch over n samples crosses the split
  /// gate (kMinParallelBytes or a compute-bound op), else nullptr.
  ThreadPool* split_pool(const ir::Node& node, int n) const;

  const ir::Graph& graph_;
  MemoryPlan plan_;  // unplanned mode: one disjoint slot per value
  int capacity_;
  ExecOptions options_;
  std::unique_ptr<ThreadPool> pool_;
  Observer observer_;
  std::vector<std::byte> arena_;
  std::vector<std::int8_t> columns_;  // im2col scratch at batch capacity
  std::vector<std::int8_t> stream_scratch_;  // row-strip gather + stage (one sample)
  // Per-node Σ_k w[c,k] for kQConv2d / kQLinear, computed once.
  std::vector<std::vector<std::int32_t>> weight_sums_;
  // Packed weights the kernel selector dispatches on: the caller's set
  // (options.packed) or `owned_packed_` built at construction.
  PackedWeightSet owned_packed_;
  const PackedWeightSet* packed_ = nullptr;
  std::vector<OpProfileEntry> profile_;  // indexed by node id
};

/// The batch-capacity constructors' former class name, kept as an
/// alias because the e2ebench/ harness still spells it.
using BatchedExecutor = Executor;

}  // namespace micronas::rt
