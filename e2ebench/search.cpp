// search-deploy: MicroNas::search() runs, each winner deployed.
//
// Searches alternate between a loose latency budget (one pruning
// round, nothing revisited) and a tight one (adaptive rounds that
// revisit supernets, so the eval engine's supernet cache does real
// work). Each search gets a fresh MicroNas on a seed from a fixed pool
// of kSearchPool loose/tight pairs, which a run cycles through starting
// at a pair the workload seed picks; its construction (MCU profiling,
// LUT, probe batch) is the workload's set-up. Each winner then goes through
// compile_winner -> save_model -> ModelRegistry::load, and one
// inference on the registry's model is checked bit for bit against the
// in-memory compiled model.
#include <cstdio>
#include <cstring>
#include <memory>
#include <stdexcept>

#include "e2ebench/bench.hpp"
#include "e2ebench/layers.hpp"
#include "src/common/rng.hpp"
#include "src/core/micronas.hpp"
#include "src/data/synthetic.hpp"
#include "src/mcusim/profiler.hpp"
#include "src/net/macro_net.hpp"
#include "src/nb201/canonical.hpp"
#include "src/proxies/linear_regions.hpp"
#include "src/proxies/ntk.hpp"
#include "src/rt/runtime.hpp"
#include "src/serialize/serialize.hpp"
#include "src/serve/model_registry.hpp"
#include "src/stats/summary.hpp"

namespace e2e {

using namespace micronas;

namespace {

/// The search configuration of examples/search_under_latency: the
/// paper's small proxy network on the NB201 deployment skeleton.
/// Loose/tight search pairs in the pool a run cycles through: a 30 s
/// run on 4 vCPUs makes about 12 pairs, so each pair about three times.
constexpr std::uint64_t kSearchPool = 4;

MicroNasConfig search_config(std::uint64_t seed, double budget_ms, int threads) {
  MicroNasConfig cfg;
  cfg.seed = seed;
  cfg.batch_size = 16;
  cfg.proxy_net.input_size = 8;
  cfg.proxy_net.base_channels = 4;
  cfg.lr.grid = 10;
  cfg.lr.input_size = 8;
  cfg.threads = threads;
  cfg.constraints.max_latency_ms = budget_ms;
  return cfg;
}

/// proxy.ntk_ms / proxy.lr_ms: one NTK and one linear-region scoring of
/// each first-round candidate (the full supernet with one op removed
/// from one edge), serially, with the suite's own settings.
void add_proxy_metrics(const MicroNas& nas, std::uint64_t seed, Metrics& m) {
  const ProxySuiteConfig& sc = nas.suite().config();
  std::vector<double> ntk, lr;
  for (int edge = 0; edge < nb201::kNumEdges; ++edge) {
    for (nb201::Op op : nb201::kAllOps) {
      EdgeOps ops;
      for (int e = 0; e < nb201::kNumEdges; ++e) {
        for (nb201::Op o : nb201::kAllOps) {
          if (e != edge || o != op) ops[static_cast<std::size_t>(e)].push_back(o);
        }
      }
      Rng rng(mix_seed(seed, static_cast<std::uint64_t>(edge * 16 + static_cast<int>(op))));
      ntk.push_back(timed_ms("bench.ntk_condition", [&] {
        ntk_condition(ops, sc.proxy_net, nas.suite().probe_images(), rng, sc.ntk);
      }));
      lr.push_back(timed_ms("bench.count_linear_regions", [&] {
        count_linear_regions(ops, sc.proxy_net, rng, sc.lr);
      }));
    }
  }
  m["proxy.ntk_ms"] = stats::percentile(ntk, 50.0);
  m["proxy.lr_ms"] = stats::percentile(lr, 50.0);
}

/// hw.*: profiling the MCU into a latency LUT, one LUT estimate of the
/// winner's deployment model, and the MCU simulator's measurement of
/// the compiled winner.
void add_hw_metrics(const MicroNas& nas, const DiscoveredModel& winner,
                    const compile::CompiledModel& compiled, Metrics& m) {
  const MicroNasConfig& cfg = nas.config();
  std::vector<double> lut, sim;
  for (int r = 0; r < 3; ++r) {
    Rng rng(mix_seed(cfg.seed, 0xBEEF + r));
    lut.push_back(timed_ms("bench.build_latency_table", [&] {
      build_latency_table(cfg.mcu, rng, cfg.deploy_net, cfg.profiler);
    }));
    sim.push_back(timed_ms("bench.mcusim", [&] {
      measure_compiled_latency_ms(compiled, cfg.mcu, rng);
    }));
  }
  const MacroModel macro = build_macro_model(nb201::canonicalize(winner.genotype), cfg.deploy_net);
  constexpr int kEstimates = 200;
  volatile double sink = 0.0;
  const double est_ms = timed_ms("bench.latency_estimate", [&] {
    for (int i = 0; i < kEstimates; ++i) sink = sink + nas.estimator().estimate_ms(macro);
  });
  m["hw.lut_profile_ms"] = stats::percentile(lut, 50.0);
  m["hw.mcusim_ms"] = stats::percentile(sim, 50.0);
  m["hw.latency_est_us"] = est_ms * 1000.0 / kEstimates;
}

struct SearchRecord {
  bool tight = false;
  Clock::time_point started, ended;  // construction start, deploy end
  double construct_ms = 0.0;
  double search_ms = 0.0;
  double compile_ms = 0.0;  // compile_winner
  double deploy_ms = 0.0;   // save_model + ModelRegistry::load
  DiscoveredModel winner;
};

}  // namespace

Outcome run_search(const Options& opt) {
  Outcome out;
  out.not_applicable = {"serve.", "rt.", "kern.", "gen.", "req.", "rollover."};
  const double budgets[2] = {opt.config.at("loose_budget_ms").as_number(),
                             opt.config.at("tight_budget_ms").as_number()};
  // A fixed pool, not seeds drawn per run: a winner's deploy costs
  // 30-450 ms depending on its ops, and with the ~22 winners of a run
  // drawn afresh from each seed, the mean deploy time of a run moved by
  // a quarter between seeds. Cycling one pool, every run deploys nearly
  // the same winners; the seed picks where in the pool a run starts and
  // the input of the checked inference.
  const std::uint64_t first_pair = mix_seed(opt.seed, 0x5EA2C) % kSearchPool;
  const auto seed_of = [&](int i) {
    const std::uint64_t pair = (first_pair + static_cast<std::uint64_t>(i / 2)) % kSearchPool;
    return mix_seed(0x5EA2C000u, 2 * pair + static_cast<std::uint64_t>(i % 2));
  };
  Metrics& m = out.metrics;

  if (opt.trace) {
    // The first search once untraced; the loop below repeats it traced.
    MicroNas nas(search_config(seed_of(0), budgets[0], 0));
    const double untraced = timed_ms("bench.search", [&] { nas.search(); });
    obs::enable_tracing();
    MicroNas traced_nas(search_config(seed_of(0), budgets[0], 0));
    const double traced = timed_ms("bench.search", [&] { traced_nas.search(); });
    m["obs.trace_overhead_frac"] = 1.0 - untraced / traced;
  }

  // Input of the checked inference: one image at the deployment size.
  Rng data_rng(mix_seed(opt.seed, 0xDA7A));
  SyntheticDataset data(DatasetSpec{}, data_rng);
  const Tensor input = data.sample_batch(1, data_rng).images;

  std::vector<SearchRecord> runs;
  const auto start = Clock::now();
  for (int i = 0;; ++i) {
    SearchRecord rec;
    rec.tight = i % 2 == 1;
    const MicroNasConfig cfg = search_config(seed_of(i), budgets[rec.tight ? 1 : 0], 0);
    std::unique_ptr<MicroNas> nas;
    rec.started = Clock::now();
    rec.construct_ms = timed_ms("bench.micronas", [&] { nas = std::make_unique<MicroNas>(cfg); });
    rec.search_ms = timed_ms("bench.search", [&] { rec.winner = nas->search(); });
    ++out.attempted;

    // Deploy: compile_winner -> save_model -> registry load.
    const std::string path = opt.work_dir + "/winner" + std::to_string(i) + ".mnpkg";
    compile::CompiledModel compiled;
    serve::ModelRegistry registry;
    serve::ModelRegistry::Entry entry;
    rec.compile_ms =
        timed_ms("bench.compile", [&] { compiled = nas->compile_winner(rec.winner); });
    const double save_ms = timed_ms("bench.save_model", [&] { serialize::save_model(compiled, path); });
    const double load_ms = timed_ms("bench.registry_load", [&] { entry = registry.load(path); });
    rec.deploy_ms = save_ms + load_ms;
    rec.ended = Clock::now();

    // One checked inference: the registry's (mapped) model against the
    // in-memory compiled model, serial executors on both.
    Tensor want = rt::Executor(compiled.graph, compiled.plan, rt::ExecOptions{1}).run(input);
    if (opt.perturb_reference) {
      std::uint32_t bits;
      std::memcpy(&bits, &want.data()[0], sizeof bits);
      bits ^= 1u;
      std::memcpy(&want.data()[0], &bits, sizeof bits);
    }
    const compile::CompiledModel& served = *entry.model;
    const Tensor got =
        rt::Executor(served.graph, served.plan, rt::ExecOptions{1, &served.packed}).run(input);
    ++out.attempted;
    if (!same_bits(got, want)) {
      out.mismatch("deployed winner " + std::to_string(i) + " (" + rec.winner.genotype.to_string() +
                   ") logits differ from the compiled model's");
    }

    if (opt.trace && i == 0) {
      add_proxy_metrics(*nas, cfg.seed, m);
      add_hw_metrics(*nas, rec.winner, compiled, m);
      serve::ServerOptions lane;
      lane.max_batch = 8;
      add_load_metrics(compiled, opt.work_dir, lane, 5, m);
    }
    std::remove(path.c_str());
    const bool pair_done = rec.tight;
    runs.push_back(std::move(rec));
    // Whole loose/tight pairs only, so both classes have equal counts.
    if (pair_done && ms_between(start, Clock::now()) >= opt.seconds * 1000.0) break;
  }

  // Scored over the loose/tight pairs steal left clean (bench.hpp).
  std::vector<TimeSpan> pair_spans;
  for (std::size_t i = 0; i + 1 < runs.size(); i += 2) {
    pair_spans.emplace_back(runs[i].started, runs[i + 1].ended);
  }
  std::vector<const SearchRecord*> scored;
  for (std::size_t p : score_spans(opt, pair_spans, "search pairs", out)) {
    scored.push_back(&runs[2 * p]);
    scored.push_back(&runs[2 * p + 1]);
  }
  std::vector<double> setup, loose, tight, deploy, rounds;
  double search_s = 0.0, deploy_s = 0.0, tight_req = 0.0, tight_hits = 0.0;
  long long requests = 0, hits = 0;
  for (const SearchRecord* rp : scored) {
    const SearchRecord& r = *rp;
    setup.push_back(r.construct_ms / 1000.0);
    (r.tight ? tight : loose).push_back(r.search_ms);
    deploy.push_back(r.deploy_ms);
    search_s += r.search_ms / 1000.0;
    deploy_s += (r.compile_ms + r.deploy_ms) / 1000.0;
    requests += r.winner.eval_stats.supernet_requests;
    hits += r.winner.eval_stats.supernet_hits;
    if (r.tight) {
      tight_req += static_cast<double>(r.winner.eval_stats.supernet_requests);
      tight_hits += static_cast<double>(r.winner.eval_stats.supernet_hits);
      rounds.push_back(r.winner.adapt_rounds_used);
    }
  }
  // Search times as interquartile means rather than medians: the
  // searches of a run fall on both of the host's speeds (serve.cpp,
  // kInterludes), and a median would jump between them.
  m["setup_s"] = stats::percentile(setup, 50.0);
  m["p50_ms"] = interquartile_mean(loose);
  m["tail_ms"] = interquartile_mean(tight);
  m["peak_per_s"] = static_cast<double>(requests) / search_s;
  m["goodput_per_s"] = static_cast<double>(scored.size()) / (search_s + deploy_s);
  // Compiling is left out of deploy_ms (it stays in goodput_per_s and
  // compile.total_ms): the same winner's compile took 80 or 180 ms with
  // the host's speed level, so a run's median moved with the share of
  // time the host spent at each.
  m["deploy_ms"] = stats::percentile(deploy, 50.0);
  m["eval.supernet_requests"] = static_cast<double>(requests) / static_cast<double>(scored.size());
  m["eval.supernet_hit_rate"] = requests > 0 ? static_cast<double>(hits) / requests : 0.0;
  m["eval.supernet_hit_rate.tight"] = tight_req > 0.0 ? tight_hits / tight_req : 0.0;
  m["search.adapt_rounds"] = stats::summarize(rounds).mean;
  m["fail_frac"] = static_cast<double>(out.failed) / static_cast<double>(out.attempted);

  if (opt.trace) {
    const std::vector<obs::TraceEvent> events = obs::snapshot_trace();
    m["eval.round_ms"] = span_mean_ms(events, "eval.evaluate_supernets");
    add_compile_metrics(events, m);
    obs::enable_tracing();
    add_roofline_metrics(measure_roofline(), m);
  }

  // Determinism: the first search again, untimed, on one thread; the
  // eval engine promises the same winner for every thread count.
  MicroNas serial(search_config(seed_of(0), budgets[0], 1));
  const std::string again = serial.search().genotype.to_string();
  const std::string first = runs.front().winner.genotype.to_string();
  ++out.attempted;
  if (again != first) out.mismatch("threads=1 re-run found " + again + ", threads=0 found " + first);

  micronas::json::JsonArray searches;
  for (const SearchRecord& r : runs) {
    micronas::json::JsonObject o;
    o["budget"] = r.tight ? "tight" : "loose";
    o["search_ms"] = r.search_ms;
    o["compile_ms"] = r.compile_ms;
    o["deploy_ms"] = r.deploy_ms;
    o["construct_ms"] = r.construct_ms;
    o["adapt_rounds"] = r.winner.adapt_rounds_used;
    o["supernet_requests"] = r.winner.eval_stats.supernet_requests;
    o["supernet_hits"] = r.winner.eval_stats.supernet_hits;
    o["winner"] = r.winner.genotype.to_string();
    searches.push_back(o);
  }
  out.info["searches"] = searches;
  out.info["threads1_rerun_winner"] = again;
  return out;
}

}  // namespace e2e
