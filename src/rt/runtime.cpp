#include "src/rt/runtime.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <stdexcept>
#include <string>

#include "src/hw/quant.hpp"
#include "src/obs/trace.hpp"
#include "src/rt/kernels_f32.hpp"
#include "src/rt/kernels_int8.hpp"
#include "src/rt/kernels_int8_gemm.hpp"

namespace micronas::rt {

namespace {

/// Per-node Σ_k w[c,k] for kQConv2d / kQLinear (the kernels'
/// zero-point correction term).
std::vector<std::vector<std::int32_t>> compute_weight_sums(const ir::Graph& graph) {
  std::vector<std::vector<std::int32_t>> sums_by_node(static_cast<std::size_t>(graph.size()));
  for (const auto& node : graph.nodes()) {
    if (node.op != ir::OpKind::kQConv2d && node.op != ir::OpKind::kQLinear) continue;
    const ir::Node& w = graph.node(node.inputs[1]);
    const int cout = w.type.shape[0];
    const auto patch = w.type.shape.numel() / static_cast<std::size_t>(cout);
    std::vector<std::int32_t> sums(static_cast<std::size_t>(cout), 0);
    for (int c = 0; c < cout; ++c) {
      std::int32_t s = 0;
      for (std::size_t k = 0; k < patch; ++k) {
        s += w.i8_data[static_cast<std::size_t>(c) * patch + k];
      }
      sums[static_cast<std::size_t>(c)] = s;
    }
    sums_by_node[static_cast<std::size_t>(node.id)] = std::move(sums);
  }
  return sums_by_node;
}

/// Conv scratch high-water in BYTES across the graph's kQConv2d nodes:
/// whichever of the scalar kernel's int8 im2col and the dot16 GEMM's
/// int16 image + operand (qconv_gemm_scratch_bytes) is larger, since
/// kernel selection happens per dispatch. Scales with the executor's
/// batch capacity (the graph itself is at batch 1).
std::size_t max_qconv_scratch_bytes(const ir::Graph& graph, int capacity) {
  std::size_t max_bytes = 0;
  for (const auto& node : graph.nodes()) {
    if (node.op != ir::OpKind::kQConv2d) continue;
    const ir::Node& x = graph.node(node.inputs[0]);
    const std::size_t batch = static_cast<std::size_t>(capacity);
    const std::size_t scalar_bytes = batch * static_cast<std::size_t>(node.type.shape[2]) *
                                     static_cast<std::size_t>(node.type.shape[3]) *
                                     static_cast<std::size_t>(x.type.shape[1]) *
                                     static_cast<std::size_t>(node.conv.kernel * node.conv.kernel);
    const std::size_t gemm_bytes =
        batch * qconv_gemm_scratch_bytes(x.type.shape[1], x.type.shape[2], x.type.shape[3],
                                         node.conv.kernel, node.conv.pad, node.type.shape[2],
                                         node.type.shape[3]);
    max_bytes = std::max({max_bytes, scalar_bytes, gemm_bytes});
  }
  return max_bytes;
}

/// Row-strip streamed qconv2d / qavg_pool over ONE sample whose output
/// plane overlays its input plane (the planner placed both at one
/// offset). Strips of `strip_h` output rows run bottom-up; each
/// iteration first gathers strip si's input rows (halo included, with
/// padding materialized as the input zero point — bit-identical to the
/// padded kernel, whose pad cells contribute zero after the zero-point
/// correction), then scatters the previously computed strip from the
/// staging area, then computes strip si into staging. Scattered rows
/// start at least `strip_h >= pad` rows below anything a future gather
/// still reads, so the overlay never clobbers live input. The partial
/// strip, if any, is strip 0 (the top), keeping every in-loop scatter
/// at full strip height.
void run_strip_streamed(const ir::Node& node, const Shape& xs, int strip_h,
                        const std::int8_t* x, std::int8_t* y, std::int8_t* scratch,
                        std::int8_t* columns, const std::int32_t* weight_sum,
                        const std::int8_t* weight, const std::int32_t* bias,
                        const PackedWeights* packed, ThreadPool* pool) {
  const int cin = xs[1];
  const int in_h = xs[2];
  const int in_w = xs[3];
  const int cout = node.type.shape[1];
  const int out_h = node.type.shape[2];
  const int out_w = node.type.shape[3];
  const int k = node.conv.kernel;
  const int pad = node.conv.pad;
  const int wp = in_w + 2 * pad;
  const int in_zp = node.quant.in_q.zero_point;
  // Same split as strip_scratch_bytes: gather block (aligned), then stage.
  const long long gather_cap = static_cast<long long>(cin) * (strip_h - 1 + k) * wp;
  std::int8_t* gather = scratch;
  std::int8_t* stage =
      scratch + (gather_cap + kMaxPlanAlignment - 1) / kMaxPlanAlignment * kMaxPlanAlignment;
  const int zp_byte = static_cast<int>(static_cast<std::int8_t>(in_zp));

  const int strips = (out_h + strip_h - 1) / strip_h;
  int prev_a = -1;
  int prev_h = 0;
  for (int si = strips - 1; si >= 0; --si) {
    const int end = out_h - (strips - 1 - si) * strip_h;
    const int a = std::max(0, end - strip_h);
    const int h = end - a;
    const int in_rows = h - 1 + k;  // h + 2*pad: the strip plus its halo
    for (int c = 0; c < cin; ++c) {
      std::int8_t* plane = gather + static_cast<std::ptrdiff_t>(c) * in_rows * wp;
      for (int r = 0; r < in_rows; ++r) {
        const int iy = a - pad + r;
        std::int8_t* row = plane + static_cast<std::ptrdiff_t>(r) * wp;
        if (iy < 0 || iy >= in_h) {
          std::memset(row, zp_byte, static_cast<std::size_t>(wp));
          continue;
        }
        if (pad > 0) {
          std::memset(row, zp_byte, static_cast<std::size_t>(pad));
          std::memset(row + pad + in_w, zp_byte, static_cast<std::size_t>(pad));
        }
        std::memcpy(row + pad, x + (static_cast<std::ptrdiff_t>(c) * in_h + iy) * in_w,
                    static_cast<std::size_t>(in_w));
      }
    }
    if (prev_a >= 0) {
      for (int c = 0; c < cout; ++c) {
        std::memcpy(y + (static_cast<std::ptrdiff_t>(c) * out_h + prev_a) * out_w,
                    stage + static_cast<std::ptrdiff_t>(c) * prev_h * out_w,
                    static_cast<std::size_t>(prev_h) * static_cast<std::size_t>(out_w));
      }
    }
    if (node.op == ir::OpKind::kQConv2d) {
      QConv2dArgs ar;
      ar.batch = 1;
      ar.cin = cin;
      ar.h = in_rows;
      ar.w = wp;
      ar.cout = cout;
      ar.kernel = k;
      ar.stride = 1;
      ar.pad = 0;  // padding is already materialized in the gather
      ar.out_h = h;
      ar.out_w = out_w;
      ar.in_zp = in_zp;
      ar.out_zp = node.quant.out_q.zero_point;
      ar.fused_relu = node.conv.fused_relu;
      ar.input = gather;
      ar.weight = weight;
      ar.bias = bias;
      ar.weight_sum = weight_sum;
      ar.mantissa = node.quant.mantissa.data();
      ar.shift = node.quant.shift.data();
      ar.columns = columns;
      ar.output = stage;
      qconv2d_auto(ar, packed, pool);
    } else {
      qavg_pool(gather, stage, 1, cin, in_rows, wp, k, 1, 0, h, out_w, in_zp,
                node.quant.mantissa[0], node.quant.shift[0], node.quant.out_q.zero_point);
    }
    prev_a = a;
    prev_h = h;
  }
  for (int c = 0; c < cout; ++c) {
    std::memcpy(y + (static_cast<std::ptrdiff_t>(c) * out_h + prev_a) * out_w,
                stage + static_cast<std::ptrdiff_t>(c) * prev_h * out_w,
                static_cast<std::size_t>(prev_h) * static_cast<std::size_t>(out_w));
  }
}

/// Static per-node attribution (op name, selected kernel variant,
/// bytes touched, strip height) resolved once at executor
/// construction. The same facts feed obs span tags and the profile
/// accumulator, so the hot loop only reads this table.
std::vector<OpProfileEntry> build_profile_table(const ir::Graph& graph, const MemoryPlan& plan,
                                                const PackedWeightSet* packed) {
  std::vector<OpProfileEntry> table(static_cast<std::size_t>(graph.size()));
  for (const auto& node : graph.nodes()) {
    if (node.is_const() || node.op == ir::OpKind::kInput) continue;
    OpProfileEntry& e = table[static_cast<std::size_t>(node.id)];
    e.node_id = node.id;
    e.op = op_kind_name(node.op).c_str();  // static storage in op_kind_name
    e.bytes = node.type.bytes();
    for (const int id : node.inputs) {
      const ir::Node& in = graph.node(id);
      if (!in.is_const()) e.bytes += in.type.bytes();
    }
    if (const StripStream* strip = plan.find_strip(node.id)) e.strip_h = strip->strip_h;
    if (node.op == ir::OpKind::kQConv2d) {
      const Shape& x = graph.node(node.inputs[0]).type.shape;
      QConv2dArgs a{};
      a.batch = x[0];
      a.cin = x[1];
      a.h = x[2];
      a.w = x[3];
      a.cout = node.type.shape[1];
      a.kernel = node.conv.kernel;
      a.stride = node.conv.stride;
      a.pad = node.conv.pad;
      a.out_h = node.type.shape[2];
      a.out_w = node.type.shape[3];
      e.kernel = qconv_kernel_name(
          select_qconv_kernel(a, packed ? packed->find(node.id) : nullptr));
    } else if (node.op == ir::OpKind::kQLinear) {
      const Shape& x = graph.node(node.inputs[0]).type.shape;
      QLinearArgs a{};
      a.batch = x[0];
      a.in_features = x[1];
      a.out_features = node.type.shape[1];
      e.kernel = qlinear_kernel_name(
          select_qlinear_kernel(a, packed ? packed->find(node.id) : nullptr));
    }
  }
  return table;
}

/// Span + optional timing around one node dispatch in the executor's
/// walk loop. Disabled tracing and profiling cost one predicted branch
/// each.
class NodeScope {
 public:
  NodeScope(OpProfileEntry& entry, bool profile)
      : entry_(entry), span_(entry.op), profile_(profile) {
    if (span_.active()) {
      span_.tag("node", static_cast<long long>(entry_.node_id));
      if (entry_.kernel[0] != '\0') span_.tag("kernel", entry_.kernel);
      span_.tag("bytes", entry_.bytes);
      if (entry_.strip_h > 0) span_.tag("strip_h", static_cast<long long>(entry_.strip_h));
    }
    if (profile_) start_us_ = obs::now_us();
  }
  ~NodeScope() {
    if (profile_) {
      entry_.calls += 1;
      entry_.total_ms += (obs::now_us() - start_us_) / 1000.0;
    }
  }
  NodeScope(const NodeScope&) = delete;
  NodeScope& operator=(const NodeScope&) = delete;

 private:
  OpProfileEntry& entry_;
  obs::Span span_;
  bool profile_;
  double start_us_ = 0.0;
};

/// The unplanned layout: every non-const value in its own
/// cache-line-aligned slot, no lifetime reuse — the naive reference
/// the planned arena is checked against.
MemoryPlan private_layout(const ir::Graph& graph) {
  MemoryPlan plan;
  for (const auto& node : graph.nodes()) {
    if (node.is_const()) continue;
    BufferPlacement b;
    b.node_id = node.id;
    b.offset = plan.arena_bytes;
    b.size = node.type.bytes();
    plan.buffers.push_back(b);
    plan.arena_bytes += (b.size + kMaxPlanAlignment - 1) / kMaxPlanAlignment * kMaxPlanAlignment;
  }
  plan.naive_bytes = plan.arena_bytes;
  return plan;
}

}  // namespace

Executor::Executor(const ir::Graph& graph, MemoryPlan plan, ExecOptions options)
    : Executor(graph, std::move(plan), 1, options) {}

Executor::Executor(const ir::Graph& graph, ExecOptions options)
    : Executor(graph, private_layout(graph), 1, options) {}

Executor::Executor(const ir::Graph& graph, int batch_capacity, ExecOptions options,
                   MemoryPlanOptions plan_options)
    : graph_(graph), capacity_(batch_capacity), options_(options) {
  if (capacity_ < 1) {
    throw std::invalid_argument("Executor: batch capacity must be >= 1");
  }
  plan_options.batch = capacity_;
  plan_ = plan_memory(graph_, plan_options);
  prepare();
}

Executor::Executor(const ir::Graph& graph, MemoryPlan plan, int batch_capacity,
                   ExecOptions options)
    : graph_(graph), plan_(std::move(plan)), capacity_(batch_capacity), options_(options) {
  if (capacity_ < 1) {
    throw std::invalid_argument("Executor: batch capacity must be >= 1");
  }
  // The plan must be a batch-capacity plan of this graph: every
  // placement holds capacity_ samples of its value.
  for (const BufferPlacement& b : plan_.buffers) {
    const long long want = graph_.node(b.node_id).type.bytes() * capacity_;
    if (b.size != want) {
      throw std::invalid_argument("Executor: plan holds " + std::to_string(b.size) +
                                  " B for node %" + std::to_string(b.node_id) + ", want " +
                                  std::to_string(want) + " B at batch capacity " +
                                  std::to_string(capacity_));
    }
    // At capacity > 1 the per-sample slot strides of an in-place pair
    // only line up when the two buffers are the same size (plan_memory
    // enforces this; a hand-built plan must not bypass it).
    if (capacity_ > 1 && b.alias_of >= 0) {
      const BufferPlacement* target = plan_.find(b.alias_of);
      if (target == nullptr || target->size != b.size) {
        throw std::invalid_argument(
            "Executor: aliased placement %" + std::to_string(b.node_id) +
            " must match its target's size at batch capacity > 1");
      }
    }
  }
  for (const StripStream& s : plan_.strips) {
    const BufferPlacement* y = plan_.find(s.node_id);
    const BufferPlacement* x = plan_.find(graph_.node(s.node_id).inputs[0]);
    if (capacity_ > 1 && (y == nullptr || x == nullptr || y->size != x->size)) {
      throw std::invalid_argument(
          "Executor: streamed placement %" + std::to_string(s.node_id) +
          " must match its input's size at batch capacity > 1");
    }
  }
  prepare();
}

void check_quant_params(const ir::Graph& graph) {
  for (const ir::Node& node : graph.nodes()) {
    std::size_t want = 1;
    switch (node.op) {
      case ir::OpKind::kQConv2d:
      case ir::OpKind::kQLinear:
        want = static_cast<std::size_t>(node.type.shape[1]);
        break;
      case ir::OpKind::kQAvgPool:
      case ir::OpKind::kQGlobalAvgPool:
      case ir::OpKind::kQAdd:
        break;
      default:
        continue;
    }
    const ir::QuantAttrs& q = node.quant;
    const std::string where = " on " + op_kind_name(node.op) + " node %" + std::to_string(node.id);
    if (q.mantissa.size() != want || q.shift.size() != want) {
      throw std::invalid_argument("requant: " + std::to_string(q.mantissa.size()) +
                                  " mantissas and " + std::to_string(q.shift.size()) +
                                  " shifts, want " + std::to_string(want) + where);
    }
    for (std::size_t c = 0; c < want; ++c) {
      if (!quantized_multiplier_in_range(q.mantissa[c], q.shift[c])) {
        throw std::invalid_argument("requant: multiplier " + std::to_string(c) +
                                    " (mantissa " + std::to_string(q.mantissa[c]) + ", shift " +
                                    std::to_string(q.shift[c]) + ") out of range" + where);
      }
    }
    if (node.op == ir::OpKind::kQAdd && !quantized_multiplier_in_range(q.mantissa2, q.shift2)) {
      throw std::invalid_argument("requant: second-operand multiplier (mantissa " +
                                  std::to_string(q.mantissa2) + ", shift " +
                                  std::to_string(q.shift2) + ") out of range" + where);
    }
  }
}

void Executor::prepare() {
  graph_.validate();
  check_quant_params(graph_);
  const ir::Node& in = graph_.node(graph_.input());
  const ir::Node& out = graph_.node(graph_.output());
  if (in.type.dtype != ir::DType::kF32 || out.type.dtype != ir::DType::kF32) {
    throw std::invalid_argument("Executor: graph must start and end in f32 nodes");
  }
  if (in.type.shape[0] != 1) {
    throw std::invalid_argument(
        "Executor: graph must be compiled at batch 1 — the input batch dim is the "
        "sample axis the executor widens; got input " +
        in.type.shape.to_string());
  }
  if (options_.threads != 1) pool_ = std::make_unique<ThreadPool>(options_.threads);
  arena_.resize(static_cast<std::size_t>(plan_.arena_bytes));
  weight_sums_ = compute_weight_sums(graph_);
  columns_.resize(max_qconv_scratch_bytes(graph_, capacity_));
  stream_scratch_.resize(static_cast<std::size_t>(plan_.stream_scratch_bytes));
  if (options_.packed != nullptr) {
    packed_ = options_.packed;
  } else if (fast_kernels_enabled()) {
    owned_packed_ = pack_graph_weights(graph_);
    packed_ = &owned_packed_;
  }
  profile_ = build_profile_table(graph_, plan_, packed_);
}

std::size_t Executor::sample_io_bytes(const ir::Graph& graph, const ir::Node& node) {
  // f32 conv/linear cost is dominated by per-element arithmetic, not
  // the bytes moved — always worth a pool dispatch.
  if (node.op == ir::OpKind::kConv2d || node.op == ir::OpKind::kLinear) return kHeavySample;
  std::size_t bytes = static_cast<std::size_t>(node.type.bytes());
  for (const int id : node.inputs) {
    const ir::Node& in = graph.node(id);
    if (in.is_const()) continue;  // weights/params are shared, not per-sample
    bytes += static_cast<std::size_t>(in.type.bytes());
  }
  return bytes;
}

std::byte* Executor::buffer(int node_id) {
  return const_cast<std::byte*>(read_buffer(node_id));
}

const std::byte* Executor::read_buffer(int node_id) const {
  const ir::Node& node = graph_.node(node_id);
  if (node.is_const()) {
    switch (node.type.dtype) {
      case ir::DType::kF32:
        return reinterpret_cast<const std::byte*>(node.f32_data.data().data());
      case ir::DType::kI8:
        return reinterpret_cast<const std::byte*>(node.i8_data.data());
      case ir::DType::kI32:
        return reinterpret_cast<const std::byte*>(node.i32_data.data());
    }
  }
  const BufferPlacement* b = plan_.find(node_id);
  if (!b) throw std::logic_error("Executor: node has no arena placement");
  return arena_.data() + b->offset;
}

ThreadPool* Executor::split_pool(const ir::Node& node, int n) const {
  // A dispatch into a spinning pool costs a few µs, which only pays off
  // once the op touches kMinParallelBytes in total (all samples, in
  // sample_io_bytes' real-byte unit); below that the caller runs it
  // alone. Samples, channels and element chunks are all independent,
  // so the split cannot change results.
  if (!pool_) return nullptr;
  // An in-place pair whose buffers differ in size (quantize and the
  // global avg pools at capacity 1; the constructor rejects them at
  // capacity > 1) is safe only in the serial order: one unit's writes
  // land in input bytes another unit has yet to read.
  if (const BufferPlacement* b = plan_.find(node.id); b != nullptr && b->alias_of >= 0) {
    const BufferPlacement* target = plan_.find(b->alias_of);
    if (target == nullptr || target->size != b->size) return nullptr;
  }
  const std::size_t per_sample = sample_io_bytes(graph_, node);
  if (per_sample == kHeavySample) return pool_.get();
  return per_sample * static_cast<std::size_t>(n) >= kMinParallelBytes ? pool_.get() : nullptr;
}

std::vector<Tensor> Executor::run_batch(std::span<const Tensor* const> inputs) {
  const int n = static_cast<int>(inputs.size());
  if (n < 1 || n > capacity_) {
    throw std::invalid_argument("Executor::run_batch: batch of " + std::to_string(n) +
                                " outside [1, capacity " + std::to_string(capacity_) + "]");
  }
  const ir::Node& in_node = graph_.node(graph_.input());
  for (int i = 0; i < n; ++i) {
    if (!(inputs[static_cast<std::size_t>(i)]->shape() == in_node.type.shape)) {
      throw std::invalid_argument(
          "Executor::run_batch: input " + std::to_string(i) + " shape " +
          inputs[static_cast<std::size_t>(i)]->shape().to_string() + " != graph input " +
          in_node.type.shape.to_string());
    }
  }

  const std::size_t in_per = in_node.type.shape.numel();
  float* in_buf = reinterpret_cast<float*>(buffer(in_node.id));
  for (int i = 0; i < n; ++i) {
    std::memcpy(in_buf + static_cast<std::ptrdiff_t>(i) * in_per,
                inputs[static_cast<std::size_t>(i)]->data().data(), in_per * sizeof(float));
  }
  if (observer_) {
    observer_(in_node.id, std::span<const float>(in_buf, static_cast<std::size_t>(n) * in_per));
  }

  obs::Span batch_span("rt.run_batch");
  batch_span.tag("batch", static_cast<long long>(n));
  for (const auto& node : graph_.nodes()) {
    if (node.is_const() || node.op == ir::OpKind::kInput) continue;
    {
      NodeScope scope(profile_[static_cast<std::size_t>(node.id)], options_.profile);
      dispatch(node, n);
    }
    if (observer_ && node.type.dtype == ir::DType::kF32) {
      observer_(node.id,
                std::span<const float>(reinterpret_cast<const float*>(read_buffer(node.id)),
                                       static_cast<std::size_t>(n) * node.type.shape.numel()));
    }
  }

  const ir::Node& out = graph_.node(graph_.output());
  const std::size_t out_per = out.type.shape.numel();
  const float* out_buf = reinterpret_cast<const float*>(read_buffer(out.id));
  std::vector<Tensor> results;
  results.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    Tensor r(out.type.shape);
    // A fully folded graph ends in a constant: every sample's logits
    // are that constant (no per-sample slot to read).
    const float* src =
        out.is_const() ? out_buf : out_buf + static_cast<std::ptrdiff_t>(i) * out_per;
    std::memcpy(r.data().data(), src, out_per * sizeof(float));
    results.push_back(std::move(r));
  }
  return results;
}

std::vector<Tensor> Executor::run_batch(std::span<const Tensor> inputs) {
  std::vector<const Tensor*> ptrs;
  ptrs.reserve(inputs.size());
  for (const Tensor& t : inputs) ptrs.push_back(&t);
  return run_batch(std::span<const Tensor* const>(ptrs.data(), ptrs.size()));
}

Tensor Executor::run(const Tensor& input) {
  const Tensor* p = &input;
  return std::move(run_batch(std::span<const Tensor* const>(&p, 1)).front());
}

void Executor::dispatch(const ir::Node& node, int n) {
  const auto& shape = node.type.shape;
  const std::size_t per_out = shape.numel();  // per-sample elements: graph batch is 1
  ThreadPool* const pool = split_pool(node, n);
  const auto in_shape = [&](std::size_t i) -> const Shape& {
    return graph_.node(node.inputs[i]).type.shape;
  };
  // Per-sample operand pointer: constants (weights, quant params) are
  // shared across samples, activations hold capacity_ sample slots.
  const auto f32_s = [&](int id, int s) -> const float* {
    const ir::Node& nd = graph_.node(id);
    const float* p = reinterpret_cast<const float*>(read_buffer(id));
    return nd.is_const() ? p : p + static_cast<std::ptrdiff_t>(s) * nd.type.shape.numel();
  };
  const auto i8_s = [&](int id, int s) -> const std::int8_t* {
    const ir::Node& nd = graph_.node(id);
    const std::int8_t* p = reinterpret_cast<const std::int8_t*>(read_buffer(id));
    return nd.is_const() ? p : p + static_cast<std::ptrdiff_t>(s) * nd.type.shape.numel();
  };
  // Elementwise ops split over (sample x element chunk): fn(s, lo, hi)
  // covers elements [lo, hi) of sample s.
  const auto each_chunk = [&](const auto& fn) {
    const int chunks = static_cast<int>((per_out + kElementChunk - 1) / kElementChunk);
    for_sample_units(n, chunks, pool, [&](int s, int c_begin, int c_end) {
      fn(s, static_cast<std::size_t>(c_begin) * kElementChunk,
         std::min(per_out, static_cast<std::size_t>(c_end) * kElementChunk));
    });
  };

  switch (node.op) {
    case ir::OpKind::kConv2d: {
      // One call over all n samples; conv2d_f32 splits each sample's
      // output channels over the pool.
      const Shape& x = in_shape(0);
      const float* bias = node.inputs.size() == 3 ? f32_s(node.inputs[2], 0) : nullptr;
      conv2d_f32(f32_s(node.inputs[0], 0), f32_s(node.inputs[1], 0), bias,
                 reinterpret_cast<float*>(buffer(node.id)), n, x[1], x[2], x[3], shape[1],
                 node.conv.kernel, node.conv.stride, node.conv.pad, shape[2], shape[3],
                 node.conv.fused_relu, pool);
      return;
    }
    case ir::OpKind::kBatchNorm: {
      const Shape& x = in_shape(0);
      const std::ptrdiff_t hw = static_cast<std::ptrdiff_t>(x[2]) * x[3];
      float* out = reinterpret_cast<float*>(buffer(node.id));
      for_sample_units(n, x[1], pool, [&](int s, int c0, int c1) {
        batch_norm_f32(f32_s(node.inputs[0], s) + c0 * hw, f32_s(node.inputs[1], s) + c0,
                       f32_s(node.inputs[2], s) + c0, f32_s(node.inputs[3], s) + c0,
                       f32_s(node.inputs[4], s) + c0,
                       out + static_cast<std::ptrdiff_t>(s) * per_out + c0 * hw, 1, c1 - c0,
                       static_cast<int>(hw), node.conv.bn_eps);
      });
      return;
    }
    case ir::OpKind::kChannelAffine: {
      const Shape& x = in_shape(0);
      const std::ptrdiff_t hw = static_cast<std::ptrdiff_t>(x[2]) * x[3];
      float* out = reinterpret_cast<float*>(buffer(node.id));
      for_sample_units(n, x[1], pool, [&](int s, int c0, int c1) {
        channel_affine_f32(f32_s(node.inputs[0], s) + c0 * hw, f32_s(node.inputs[1], s) + c0,
                           f32_s(node.inputs[2], s) + c0,
                           out + static_cast<std::ptrdiff_t>(s) * per_out + c0 * hw, 1, c1 - c0,
                           static_cast<int>(hw));
      });
      return;
    }
    case ir::OpKind::kRelu: {
      float* out = reinterpret_cast<float*>(buffer(node.id));
      each_chunk([&](int s, std::size_t lo, std::size_t hi) {
        relu_f32(f32_s(node.inputs[0], s) + lo, out + s * per_out + lo, hi - lo);
      });
      return;
    }
    case ir::OpKind::kAvgPool: {
      const Shape& x = in_shape(0);
      const std::ptrdiff_t in_hw = static_cast<std::ptrdiff_t>(x[2]) * x[3];
      const std::ptrdiff_t out_hw = static_cast<std::ptrdiff_t>(shape[2]) * shape[3];
      float* out = reinterpret_cast<float*>(buffer(node.id));
      for_sample_units(n, x[1], pool, [&](int s, int c0, int c1) {
        avg_pool_f32(f32_s(node.inputs[0], s) + c0 * in_hw,
                     out + static_cast<std::ptrdiff_t>(s) * per_out + c0 * out_hw, 1, c1 - c0,
                     x[2], x[3], node.conv.kernel, node.conv.stride, node.conv.pad, shape[2],
                     shape[3]);
      });
      return;
    }
    case ir::OpKind::kAdd: {
      float* out = reinterpret_cast<float*>(buffer(node.id));
      each_chunk([&](int s, std::size_t lo, std::size_t hi) {
        add_f32(f32_s(node.inputs[0], s) + lo, f32_s(node.inputs[1], s) + lo,
                out + s * per_out + lo, hi - lo);
      });
      return;
    }
    case ir::OpKind::kGlobalAvgPool: {
      const Shape& x = in_shape(0);
      const std::ptrdiff_t hw = static_cast<std::ptrdiff_t>(x[2]) * x[3];
      float* out = reinterpret_cast<float*>(buffer(node.id));
      for_sample_units(n, x[1], pool, [&](int s, int c0, int c1) {
        global_avg_pool_f32(f32_s(node.inputs[0], s) + c0 * hw,
                            out + static_cast<std::ptrdiff_t>(s) * per_out + c0, 1, c1 - c0,
                            static_cast<int>(hw));
      });
      return;
    }
    case ir::OpKind::kLinear: {
      const Shape& x = in_shape(0);
      float* out = reinterpret_cast<float*>(buffer(node.id));
      for_sample_units(n, 1, pool, [&](int s, int, int) {
        const float* bias = node.inputs.size() == 3 ? f32_s(node.inputs[2], s) : nullptr;
        linear_f32(f32_s(node.inputs[0], s), f32_s(node.inputs[1], s), bias,
                   out + static_cast<std::ptrdiff_t>(s) * per_out, 1, x[1], shape[1]);
      });
      return;
    }
    case ir::OpKind::kQuantize: {
      std::int8_t* out = reinterpret_cast<std::int8_t*>(buffer(node.id));
      each_chunk([&](int s, std::size_t lo, std::size_t hi) {
        quantize_buffer(f32_s(node.inputs[0], s) + lo, out + s * per_out + lo, hi - lo,
                        node.quant.out_q.scale, node.quant.out_q.zero_point);
      });
      return;
    }
    case ir::OpKind::kDequantize: {
      float* out = reinterpret_cast<float*>(buffer(node.id));
      each_chunk([&](int s, std::size_t lo, std::size_t hi) {
        dequantize_buffer(i8_s(node.inputs[0], s) + lo, out + s * per_out + lo, hi - lo,
                          node.quant.in_q.scale, node.quant.in_q.zero_point);
      });
      return;
    }
    case ir::OpKind::kQConv2d: {
      const Shape& x = in_shape(0);
      if (const StripStream* strip = plan_.find_strip(node.id)) {
        // Streamed: one shared strip scratch, so samples run serially.
        // The ctor guaranteed |x| == |y| at capacity > 1, so the
        // per-sample overlay bases coincide.
        std::int8_t* yb = reinterpret_cast<std::int8_t*>(buffer(node.id));
        for (int s = 0; s < n; ++s) {
          run_strip_streamed(node, x, strip->strip_h, i8_s(node.inputs[0], s),
                             yb + static_cast<std::ptrdiff_t>(s) * per_out,
                             stream_scratch_.data(), columns_.data(),
                             weight_sums_[static_cast<std::size_t>(node.id)].data(),
                             i8_s(node.inputs[1], 0),
                             reinterpret_cast<const std::int32_t*>(read_buffer(node.inputs[2])),
                             packed_ ? packed_->find(node.id) : nullptr, pool_.get());
        }
        return;
      }
      // The widened-M path: n samples, ONE conv invocation whose kernel
      // partitions the (sample x pixel tile x channel block) grid.
      QConv2dArgs a;
      a.batch = n;
      a.cin = x[1];
      a.h = x[2];
      a.w = x[3];
      a.cout = shape[1];
      a.kernel = node.conv.kernel;
      a.stride = node.conv.stride;
      a.pad = node.conv.pad;
      a.out_h = shape[2];
      a.out_w = shape[3];
      a.in_zp = node.quant.in_q.zero_point;
      a.out_zp = node.quant.out_q.zero_point;
      a.fused_relu = node.conv.fused_relu;
      a.input = i8_s(node.inputs[0], 0);
      a.weight = i8_s(node.inputs[1], 0);
      a.bias = reinterpret_cast<const std::int32_t*>(read_buffer(node.inputs[2]));
      a.weight_sum = weight_sums_[static_cast<std::size_t>(node.id)].data();
      a.mantissa = node.quant.mantissa.data();
      a.shift = node.quant.shift.data();
      a.columns = columns_.data();
      a.output = reinterpret_cast<std::int8_t*>(buffer(node.id));
      qconv2d_auto(a, packed_ ? packed_->find(node.id) : nullptr, pool_.get());
      return;
    }
    case ir::OpKind::kQAvgPool: {
      const Shape& x = in_shape(0);
      if (const StripStream* strip = plan_.find_strip(node.id)) {
        std::int8_t* yb = reinterpret_cast<std::int8_t*>(buffer(node.id));
        for (int s = 0; s < n; ++s) {
          run_strip_streamed(node, x, strip->strip_h, i8_s(node.inputs[0], s),
                             yb + static_cast<std::ptrdiff_t>(s) * per_out,
                             stream_scratch_.data(), columns_.data(), nullptr, nullptr, nullptr,
                             nullptr, nullptr);
        }
        return;
      }
      const std::ptrdiff_t in_hw = static_cast<std::ptrdiff_t>(x[2]) * x[3];
      const std::ptrdiff_t out_hw = static_cast<std::ptrdiff_t>(shape[2]) * shape[3];
      std::int8_t* out = reinterpret_cast<std::int8_t*>(buffer(node.id));
      for_sample_units(n, x[1], pool, [&](int s, int c0, int c1) {
        qavg_pool(i8_s(node.inputs[0], s) + c0 * in_hw,
                  out + static_cast<std::ptrdiff_t>(s) * per_out + c0 * out_hw, 1, c1 - c0,
                  x[2], x[3], node.conv.kernel, node.conv.stride, node.conv.pad, shape[2],
                  shape[3], node.quant.in_q.zero_point, node.quant.mantissa[0],
                  node.quant.shift[0], node.quant.out_q.zero_point);
      });
      return;
    }
    case ir::OpKind::kQAdd: {
      std::int8_t* out = reinterpret_cast<std::int8_t*>(buffer(node.id));
      each_chunk([&](int s, std::size_t lo, std::size_t hi) {
        qadd(i8_s(node.inputs[0], s) + lo, i8_s(node.inputs[1], s) + lo, out + s * per_out + lo,
             hi - lo, node.quant.in_q.zero_point, node.quant.mantissa[0], node.quant.shift[0],
             node.quant.in2_q.zero_point, node.quant.mantissa2, node.quant.shift2,
             node.quant.out_q.zero_point);
      });
      return;
    }
    case ir::OpKind::kQGlobalAvgPool: {
      const Shape& x = in_shape(0);
      const std::ptrdiff_t hw = static_cast<std::ptrdiff_t>(x[2]) * x[3];
      std::int8_t* out = reinterpret_cast<std::int8_t*>(buffer(node.id));
      for_sample_units(n, x[1], pool, [&](int s, int c0, int c1) {
        qglobal_avg_pool(i8_s(node.inputs[0], s) + c0 * hw,
                         out + static_cast<std::ptrdiff_t>(s) * per_out + c0, 1, c1 - c0, x[2],
                         x[3], node.quant.in_q.zero_point, node.quant.mantissa[0],
                         node.quant.shift[0], node.quant.out_q.zero_point);
      });
      return;
    }
    case ir::OpKind::kQLinear: {
      // qlinear is already an M-widened GEMM: batch rows, one call.
      const Shape& x = in_shape(0);
      QLinearArgs a;
      a.batch = n;
      a.in_features = x[1];
      a.out_features = shape[1];
      a.in_zp = node.quant.in_q.zero_point;
      a.out_zp = node.quant.out_q.zero_point;
      a.input = i8_s(node.inputs[0], 0);
      a.weight = i8_s(node.inputs[1], 0);
      a.bias = reinterpret_cast<const std::int32_t*>(read_buffer(node.inputs[2]));
      a.weight_sum = weight_sums_[static_cast<std::size_t>(node.id)].data();
      a.mantissa = node.quant.mantissa.data();
      a.shift = node.quant.shift.data();
      a.output = reinterpret_cast<std::int8_t*>(buffer(node.id));
      qlinear_auto(a, packed_ ? packed_->find(node.id) : nullptr, pool_.get());
      return;
    }
    case ir::OpKind::kQRelu: {
      std::int8_t* out = reinterpret_cast<std::int8_t*>(buffer(node.id));
      each_chunk([&](int s, std::size_t lo, std::size_t hi) {
        qrelu(i8_s(node.inputs[0], s) + lo, out + s * per_out + lo, hi - lo,
              node.quant.out_q.zero_point);
      });
      return;
    }
    case ir::OpKind::kInput:
    case ir::OpKind::kConst:
      return;  // handled by the caller
  }
  throw std::logic_error("Executor::dispatch: unhandled op kind");
}

}  // namespace micronas::rt
