// serve-fleet and serve-heavy: requests through one MultiModelServer.
//
// One process drives the server the way independent users would: an
// open-loop sender submits on a Poisson schedule fixed by the seed, a
// completion collector takes each response as soon as it is ready and
// checks it bit for bit against a serial rt::Executor reference, and
// (serve-fleet) a rollover controller puts a new version of one model
// into service at a fixed interval. A closed-loop phase with a fixed
// number of requests outstanding measures the peak.
//
// Every request is timed from when it was due to be sent, so a stall
// in the server also charges the requests that queue behind it; how
// late the sender itself ran is reported (gen.lag_p99_ms) and a run
// whose sender fell behind (its median lateness over a rung above the
// limit) is marked invalid rather than scored. The median, because on a
// shared host a preempted vCPU makes the sender late now and then
// without it falling behind.
#include <algorithm>
#include <array>
#include <atomic>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstring>
#include <deque>
#include <exception>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <numeric>
#include <shared_mutex>
#include <stdexcept>
#include <thread>

#include "e2ebench/bench.hpp"
#include "e2ebench/layers.hpp"
#include "src/common/rng.hpp"
#include "src/compile/compiler.hpp"
#include "src/data/synthetic.hpp"
#include "src/nb201/canonical.hpp"
#include "src/rt/runtime.hpp"
#include "src/serialize/serialize.hpp"
#include "src/serve/multi_model_server.hpp"
#include "src/stats/summary.hpp"

namespace e2e {

using namespace micronas;

namespace {

/// The golden compile scenario (tests/golden/compile_report.golden):
/// this arch at 16x16 input, 1 cell per stage, weight seed 7.
constexpr const char* kGoldenArch =
    "|nor_conv_3x3~0|+|none~0|skip_connect~1|+|avg_pool_3x3~0|nor_conv_1x1~1|nor_conv_3x3~2|";
constexpr std::uint64_t kGoldenSeed = 7;
constexpr int kPool = 16;       // distinct inputs per model
/// A run is five interludes around four open-loop segments (the first
/// rung, the middle rung in two halves, the last rung). Each interlude
/// holds kSetupsPerGroup set-ups and a fifth of the closed loop. They are
/// spread over the run because on a 4-vCPU VM the host's speed at
/// compile-heavy and saturating work switched by up to 1.6x every few
/// seconds, with no steal to show for it: set-ups or a closed loop all in
/// one burst took whichever speed that moment had, and the run's number
/// jumped between the two. Spread out, a run averages over the switches.
constexpr int kInterludes = 5;
constexpr int kSetupsPerGroup = 2;
constexpr int kFleetDrawn = 3;  // NB201 models beside the golden one
constexpr double kZipfExponent = 1.0;
constexpr double kWarmupSeconds = 0.5;
/// Closed-loop bin length: the unit steal is judged by.
constexpr double kClosedBin = 0.25;
/// The percentile tail_ms reports. On a 4-vCPU VM the p99 measured the
/// hypervisor rather than the server: a steal share of 0.5% moved
/// serve-fleet's p99 by half, since one preempted 10-20 ms slice delays
/// as many requests as a 1000-request window has beyond its p99. A
/// slice stays far below the 10 of every 100 that lie beyond a p90.
constexpr double kTailPct = 90.0;

/// How a serve workload is built; the traffic numbers come from
/// workloads.json.
struct Spec {
  bool fleet = false;
  int input_size = 16;
  int cells = 1;
  serve::ServerOptions server;
};

Spec spec_of(const std::string& workload) {
  Spec s;
  s.server.max_batch = 8;
  if (workload == "serve-fleet") {
    s.fleet = true;
    s.input_size = 16;
    s.cells = 1;
    s.server.threads = 1;
  } else {
    s.input_size = 32;
    s.cells = 2;
    s.server.threads = 0;
  }
  return s;
}

compile::CompilerOptions compile_options(const Spec& spec, std::uint64_t weight_seed) {
  compile::CompilerOptions o;
  o.macro.cells_per_stage = spec.cells;
  o.macro.input_size = spec.input_size;
  o.seed = weight_seed;
  return o;
}

struct Version {
  std::shared_ptr<const compile::CompiledModel> model;
  std::vector<Tensor> refs;  // serial rt::Executor logits, one per pool input
};

/// One model the clients ask for. Fleet slots 1..3 hold two versions
/// (different weights) that the rollover alternates between.
struct Slot {
  nb201::Genotype genotype;
  std::vector<Version> versions;
  std::vector<Tensor> inputs;
};

/// The benchmark's routing table: slot -> serving lane. Senders read it
/// under a shared lock held across submit(), so the rollover can never
/// unload a lane between a sender's lookup and its submit.
struct Router {
  struct Route {
    std::string key;
    int version = 0;
    std::string path;
  };
  std::shared_mutex mutex;
  std::vector<Route> routes;
};

/// Slot genotypes: the golden arch, plus (fleet) three archs drawn from
/// the seed as shuffles of the golden arch's six edge ops, kept only
/// when no edge goes dead (canonical form keeps every op) and distinct
/// up to canonical form. Same ops on same-shaped edges: every seed
/// offers the server the same compute per request, in different graphs.
std::vector<nb201::Genotype> draw_genotypes(const Spec& spec, std::uint64_t seed) {
  const nb201::Genotype golden = nb201::Genotype::from_string(kGoldenArch);
  std::vector<nb201::Genotype> out{golden};
  if (!spec.fleet) return out;
  const auto sorted_ops = [](const nb201::Genotype& g) {
    std::array<nb201::Op, nb201::kNumEdges> ops = g.ops();
    std::sort(ops.begin(), ops.end());
    return ops;
  };
  Rng rng(mix_seed(seed, 0xF1EE7));
  std::vector<std::string> seen{nb201::canonicalize(golden).to_string()};
  while (static_cast<int>(out.size()) < 1 + kFleetDrawn) {
    std::array<nb201::Op, nb201::kNumEdges> ops = golden.ops();
    for (std::size_t i = ops.size(); i > 1; --i) std::swap(ops[i - 1], ops[rng.index(i)]);
    const nb201::Genotype g(ops);
    const nb201::Genotype canon = nb201::canonicalize(g);
    if (sorted_ops(canon) != sorted_ops(golden)) continue;
    if (std::find(seen.begin(), seen.end(), canon.to_string()) != seen.end()) continue;
    seen.push_back(canon.to_string());
    out.push_back(g);
  }
  return out;
}

/// Everything set-up builds: compiled versions, the first version of
/// each slot saved and loaded through a fresh server.
struct Setup {
  std::vector<Slot> slots;
  std::unique_ptr<serve::MultiModelServer> server;
  std::vector<Router::Route> routes;
  std::vector<double> deploy_ms;  // save + load, per served package
  double seconds = 0.0;
};

Setup set_up(const Spec& spec, const std::vector<nb201::Genotype>& genotypes,
             const std::string& dir, int rep) {
  Setup s;
  const auto t0 = Clock::now();
  s.server = std::make_unique<serve::MultiModelServer>(spec.server);
  for (std::size_t i = 0; i < genotypes.size(); ++i) {
    Slot slot;
    slot.genotype = genotypes[i];
    const int versions = (spec.fleet && i > 0) ? 2 : 1;
    for (int v = 0; v < versions; ++v) {
      Version ver;
      const std::uint64_t weight_seed = i == 0 ? kGoldenSeed : 100 * static_cast<std::uint64_t>(v + 1) + i;
      timed_ms("bench.compile", [&] {
        ver.model = std::make_shared<const compile::CompiledModel>(
            compile::compile_genotype(genotypes[i], compile_options(spec, weight_seed)));
      });
      if (v == 0) {
        const std::string path =
            dir + "/slot" + std::to_string(i) + "_setup" + std::to_string(rep) + ".mnpkg";
        std::string key;
        const double save_ms =
            timed_ms("bench.save_model", [&] { serialize::save_model(*ver.model, path); });
        const double load_ms = timed_ms("bench.server_load", [&] { key = s.server->load(path); });
        s.deploy_ms.push_back(save_ms + load_ms);
        s.routes.push_back({key, 0, path});
      }
      slot.versions.push_back(std::move(ver));
    }
    s.slots.push_back(std::move(slot));
  }
  s.seconds = ms_between(t0, Clock::now()) / 1000.0;
  return s;
}

/// One request's client-side record.
struct Done {
  int rung = -1;
  bool ok = false;
  double client_ms = 0.0;   // scheduled send -> logits in hand
  double lag_ms = 0.0;      // scheduled send -> submit() called
  double queue_ms = 0.0;    // Response::queue_ms
  double total_ms = 0.0;    // Response::total_ms
  double deliver_ms = 0.0;  // in hand - submit() called - total_ms
  Clock::time_point dispatched;  // submit() called + queue_ms
  int batch = 0;
  Clock::time_point in_hand;     // logits in the collector's hand
};

/// One closed-loop bin: completions per second over [from, to).
struct Bin {
  double rate = 0.0;
  Clock::time_point from, to;
};

/// One scheduled request of an open-loop rung.
struct Send {
  double at_ms = 0.0;  // since the rung's start
  int slot = 0;
  int input = 0;
};

/// Sender + collector over one server. The calling thread sends; the
/// collector runs on its own thread for the duration of each phase.
class LoadGen {
 public:
  LoadGen(serve::MultiModelServer& server, const std::vector<Slot>& slots, Router& router,
          Outcome& out)
      : server_(server), slots_(slots), router_(router), out_(out) {}

  LoadGen(const LoadGen&) = delete;
  LoadGen& operator=(const LoadGen&) = delete;

  /// Open loop: submit `plan` on schedule, then wait for every answer.
  /// Returns (seconds since start, requests outstanding) at each send.
  std::vector<std::pair<double, double>> open_loop(int rung, const std::vector<Send>& plan) {
    std::vector<std::pair<double, double>> backlog;
    backlog.reserve(plan.size());
    {
      Phase phase(*this);
      for (const Send& send : plan) {
        const auto due = phase_start_ + std::chrono::duration_cast<Clock::duration>(
                                            std::chrono::duration<double, std::milli>(send.at_ms));
        std::this_thread::sleep_until(due);
        submit(rung, send.slot, send.input, due);
        backlog.emplace_back(send.at_ms / 1000.0, static_cast<double>(sent_ - completed_.load()));
      }
    }
    rethrow_collector_error();
    return backlog;
  }

  /// Closed loop: keep `window` requests outstanding for `seconds`.
  /// Returns each kClosedBin-long bin.
  std::vector<Bin> closed_loop(int window, double seconds, const std::vector<double>& cdf,
                               Rng& rng) {
    std::vector<Bin> bins;
    {
      Phase phase(*this);
      const int n_bins = std::max(1, static_cast<int>(std::lround(seconds / kClosedBin)));
      const auto bin = std::chrono::duration_cast<Clock::duration>(
          std::chrono::duration<double>(seconds / n_bins));
      std::this_thread::sleep_until(phase_start_);
      auto bin_end = phase_start_ + bin;
      long long bin_first = 0;
      for (;;) {
        {
          std::unique_lock<std::mutex> lock(room_mutex_);
          room_.wait_until(lock, bin_end, [&] { return sent_ - completed_.load() < window; });
        }
        const auto now = Clock::now();
        if (now >= bin_end) {
          const long long done = completed_.load();
          bins.push_back({static_cast<double>(done - bin_first) /
                              std::chrono::duration<double>(bin).count(),
                          bin_end - bin, bin_end});
          bin_first = done;
          if (static_cast<int>(bins.size()) == n_bins) break;
          bin_end += bin;
          continue;
        }
        submit(-1, pick(cdf, rng), static_cast<int>(rng.index(kPool)), now);
      }
    }
    rethrow_collector_error();
    return bins;
  }

  static int pick(const std::vector<double>& cdf, Rng& rng) {
    const double u = rng.uniform();
    for (std::size_t i = 0; i < cdf.size(); ++i) {
      if (u < cdf[i]) return static_cast<int>(i);
    }
    return static_cast<int>(cdf.size()) - 1;
  }

  Clock::time_point phase_start() const { return phase_start_; }

  std::vector<Done> done;  // every ladder request (rung >= 0), in completion order
  long long attempted = 0;  // sender thread only
  // Counted by the sender (refusals) and by the collector (failed
  // responses), possibly at once.
  std::atomic<long long> failed{0};
  std::atomic<long long> rejected{0};  // QueueFullError at submit()
  std::atomic<long long> dropped{0};   // DeadlineExpiredError from the future

 private:
  struct InFlight {
    std::future<serve::Response> future;
    Clock::time_point due;
    Clock::time_point submitted;
    int rung = -1;
    int slot = 0;
    int version = 0;
    int input = 0;
  };

  /// Runs the collector for one phase: resets the counters, starts the
  /// collector thread, and on scope exit marks sending done and joins it
  /// (exception paths too).
  class Phase {
   public:
    explicit Phase(LoadGen& gen) : gen_(gen) {
      gen_.sent_ = 0;
      gen_.completed_ = 0;
      gen_.sending_done_ = false;
      gen_.phase_start_ = Clock::now() + std::chrono::milliseconds(1);
      gen_.collector_ = std::thread([this] { gen_.collect(); });
    }
    ~Phase() {
      {
        std::lock_guard<std::mutex> lock(gen_.inbox_mutex_);
        gen_.sending_done_ = true;
      }
      gen_.inbox_ready_.notify_one();
      gen_.collector_.join();
    }
    Phase(const Phase&) = delete;
    Phase& operator=(const Phase&) = delete;

   private:
    LoadGen& gen_;
  };

  void rethrow_collector_error() {
    if (collector_error_) std::rethrow_exception(std::exchange(collector_error_, nullptr));
  }

  void submit(int rung, int slot, int input, Clock::time_point due) {
    InFlight f;
    f.due = due;
    f.rung = rung;
    f.slot = slot;
    f.input = input;
    ++attempted;
    {
      std::shared_lock<std::shared_mutex> lock(router_.mutex);
      const Router::Route& route = router_.routes[static_cast<std::size_t>(slot)];
      f.version = route.version;
      f.submitted = Clock::now();
      try {
        f.future = server_.submit(serve::Request{
            slots_[static_cast<std::size_t>(slot)].inputs[static_cast<std::size_t>(input)],
            std::nullopt, route.key});
      } catch (const serve::QueueFullError&) {
        ++rejected;
        ++failed;
        return;
      }
    }
    ++sent_;
    {
      std::lock_guard<std::mutex> lock(inbox_mutex_);
      inbox_.push_back(std::move(f));
    }
    inbox_ready_.notify_one();
  }

  void collect() {
    try {
      collect_loop();
    } catch (...) {
      collector_error_ = std::current_exception();
    }
  }

  /// Responses of one lane arrive in submit order, so each (slot,
  /// version) keeps a FIFO and only its head is polled. When no head is
  /// ready the collector blocks briefly on the oldest one.
  void collect_loop() {
    std::map<std::pair<int, int>, std::deque<InFlight>> lanes;
    std::vector<InFlight> incoming;
    std::size_t outstanding = 0;
    for (;;) {
      {
        std::unique_lock<std::mutex> lock(inbox_mutex_);
        if (outstanding == 0) {
          inbox_ready_.wait(lock, [&] { return !inbox_.empty() || sending_done_; });
          if (inbox_.empty()) return;  // sending done and every answer taken
        }
        incoming.swap(inbox_);
      }
      for (InFlight& f : incoming) lanes[{f.slot, f.version}].push_back(std::move(f));
      outstanding += incoming.size();
      incoming.clear();

      bool progress = false;
      InFlight* oldest = nullptr;
      for (auto& [lane, queue] : lanes) {
        while (!queue.empty() &&
               queue.front().future.wait_for(std::chrono::seconds(0)) == std::future_status::ready) {
          finish(queue.front());
          queue.pop_front();
          --outstanding;
          progress = true;
        }
        if (!queue.empty() && (oldest == nullptr || queue.front().submitted < oldest->submitted)) {
          oldest = &queue.front();
        }
      }
      if (!progress && oldest != nullptr) oldest->future.wait_for(std::chrono::microseconds(100));
    }
  }

  void finish(InFlight& f) {
    const auto in_hand = Clock::now();
    Done d;
    d.rung = f.rung;
    d.in_hand = in_hand;
    d.client_ms = ms_between(f.due, in_hand);
    d.lag_ms = ms_between(f.due, f.submitted);
    try {
      serve::Response r = f.future.get();
      const Slot& slot = slots_[static_cast<std::size_t>(f.slot)];
      const Tensor& ref = slot.versions[static_cast<std::size_t>(f.version)]
                              .refs[static_cast<std::size_t>(f.input)];
      if (!same_bits(r.logits, ref)) {
        out_.mismatch("served logits differ from the serial reference: slot " +
                      std::to_string(f.slot) + " version " + std::to_string(f.version) +
                      " input " + std::to_string(f.input));
      }
      d.ok = true;
      d.queue_ms = r.queue_ms;
      d.total_ms = r.total_ms;
      d.deliver_ms = ms_between(f.submitted, in_hand) - r.total_ms;
      d.dispatched = f.submitted + std::chrono::duration_cast<Clock::duration>(
                                       std::chrono::duration<double, std::milli>(r.queue_ms));
      d.batch = r.batch_size;
    } catch (const serve::DeadlineExpiredError&) {
      ++dropped;
      ++failed;
    } catch (const std::exception& e) {
      ++failed;
      if (out_.errors.size() < 8) out_.errors.push_back(std::string("request failed: ") + e.what());
    }
    if (d.rung >= 0) done.push_back(d);
    completed_.fetch_add(1);
    { std::lock_guard<std::mutex> lock(room_mutex_); }
    room_.notify_one();
  }

  serve::MultiModelServer& server_;
  const std::vector<Slot>& slots_;
  Router& router_;
  Outcome& out_;

  long long sent_ = 0;  // sender thread only
  std::atomic<long long> completed_{0};
  std::mutex room_mutex_;  // closed loop: sender waits for a free slot
  std::condition_variable room_;

  std::mutex inbox_mutex_;  // guards inbox_ and sending_done_
  std::condition_variable inbox_ready_;
  std::vector<InFlight> inbox_;
  bool sending_done_ = false;

  Clock::time_point phase_start_;
  std::exception_ptr collector_error_;
  std::thread collector_;
};

/// Every rollover's timings, over all the rungs it ran in.
struct RolloverLog {
  std::vector<double> total_ms, save_ms, load_ms, drain_ms;
};

/// serve-fleet's rollover controller, one per rung: every `interval_ms`,
/// one drawn model (round robin) switches to its other version. The new
/// version is saved to a fresh path, load()ed, routed to, and the old
/// lane is unload()ed (which drains it). A fresh path, because rewriting
/// a served package in place changes the bytes under its live mapping;
/// the log's count numbers the paths across rungs.
class Rollover {
 public:
  Rollover(serve::MultiModelServer& server, const std::vector<Slot>& slots, Router& router,
           std::string dir, double interval_ms, RolloverLog& log)
      : server_(server), slots_(slots), router_(router), dir_(std::move(dir)), log_(log),
        interval_(std::chrono::duration_cast<Clock::duration>(
            std::chrono::duration<double, std::milli>(interval_ms))) {
    thread_ = std::thread([this] { loop(); });
  }
  ~Rollover() { join(); }
  Rollover(const Rollover&) = delete;
  Rollover& operator=(const Rollover&) = delete;

  /// Stops and joins the controller; rethrows its failure, if any.
  void stop() {
    join();
    if (error_) std::rethrow_exception(std::exchange(error_, nullptr));
  }

 private:
  void join() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      stopping_ = true;
    }
    wake_.notify_one();
    if (thread_.joinable()) thread_.join();
  }

  void loop() {
    try {
      auto next = Clock::now() + interval_;
      for (;;) {
        {
          std::unique_lock<std::mutex> lock(mutex_);
          if (wake_.wait_until(lock, next, [&] { return stopping_; })) return;
        }
        const int k = static_cast<int>(log_.total_ms.size());
        roll(1 + k % (static_cast<int>(slots_.size()) - 1), k);
        next += interval_;
      }
    } catch (...) {
      error_ = std::current_exception();
    }
  }

  void roll(int slot, int k) {
    const auto t0 = Clock::now();
    const Router::Route old = [&] {
      std::shared_lock<std::shared_mutex> lock(router_.mutex);
      return router_.routes[static_cast<std::size_t>(slot)];
    }();
    const int next = 1 - old.version;
    const std::string path =
        dir_ + "/slot" + std::to_string(slot) + "_roll" + std::to_string(k) + ".mnpkg";
    const compile::CompiledModel& model =
        *slots_[static_cast<std::size_t>(slot)].versions[static_cast<std::size_t>(next)].model;
    log_.save_ms.push_back(timed_ms("bench.save_model", [&] { serialize::save_model(model, path); }));
    std::string key;
    log_.load_ms.push_back(timed_ms("bench.server_load", [&] { key = server_.load(path); }));
    {
      std::unique_lock<std::shared_mutex> lock(router_.mutex);
      router_.routes[static_cast<std::size_t>(slot)] = {key, next, path};
    }
    log_.drain_ms.push_back(timed_ms("bench.server_unload", [&] { server_.unload(old.key); }));
    std::remove(old.path.c_str());
    log_.total_ms.push_back(ms_between(t0, Clock::now()));
  }

  serve::MultiModelServer& server_;
  const std::vector<Slot>& slots_;
  Router& router_;
  std::string dir_;
  RolloverLog& log_;
  Clock::duration interval_;
  std::mutex mutex_;
  std::condition_variable wake_;
  bool stopping_ = false;
  std::exception_ptr error_;
  std::thread thread_;  // last: starts after every member it uses
};

/// Least-squares slope of y over x.
double slope(const std::vector<std::pair<double, double>>& xy) {
  if (xy.size() < 2) return 0.0;
  double sx = 0, sy = 0, sxx = 0, sxy = 0;
  for (const auto& [x, y] : xy) {
    sx += x;
    sy += y;
    sxx += x * x;
    sxy += x * y;
  }
  const double n = static_cast<double>(xy.size());
  const double den = n * sxx - sx * sx;
  return den > 0.0 ? (n * sxy - sx * sy) / den : 0.0;
}

struct Rung {
  double rate = 0.0;
  double seconds = 0.0;
  long long sent = 0;
  long long failed = 0;
  std::vector<Done> done;
  std::vector<double> client;              // ok requests only, in completion order
  std::vector<Clock::time_point> client_at; // when each was in hand
  double p50 = 0.0;
  double p99 = 0.0;
  long long p99_windows = 0;
  long long p99_beyond = 0;   // fewest samples beyond a window's p99
  double lag_p50 = 0.0;
  double lag_p99 = 0.0;
  double backlog_slope = 0.0;   // requests outstanding per second of the rung
  double backlog_growth = 0.0;  // slope x rung length
  bool passes = false;
  double good_per_s = 0.0;
  double obs_start_us = 0.0;  // its last segment's start on the obs trace clock
};

micronas::json::Json rung_json(const Rung& r) {
  micronas::json::JsonObject o;
  o["rate_rps"] = r.rate;
  o["seconds"] = r.seconds;
  o["sent"] = r.sent;
  o["failed"] = r.failed;
  o["ok"] = static_cast<long long>(r.client.size());
  o["p50_ms"] = r.p50;
  o["p99_ms"] = r.p99;
  o["p99_windows"] = r.p99_windows;
  o["p99_beyond"] = r.p99_beyond;
  // The highest percentile this rung's sample supports (>= 10 beyond it).
  const Tail tail = tail_of(r.client);
  o["supported_tail_q"] = tail.q;
  o["supported_tail_ms"] = tail.value;
  o["lag_p50_ms"] = r.lag_p50;
  o["lag_p99_ms"] = r.lag_p99;
  o["backlog_slope_rps"] = r.backlog_slope;
  o["backlog_growth"] = r.backlog_growth;
  o["passes"] = r.passes;
  o["good_per_s"] = r.good_per_s;
  return o;
}

}  // namespace

Outcome run_serve(const Options& opt) {
  Outcome out;
  const Spec spec = spec_of(opt.workload);
  out.not_applicable = {"eval.", "search.", "proxy.", "hw."};
  if (!spec.fleet) out.not_applicable.push_back("rollover.");
  const auto& cfg = opt.config;
  const double limit_ms = cfg.at("latency_limit_ms").as_number();
  const int window = static_cast<int>(cfg.at("closed_window").as_number());
  const double lag_limit_ms = cfg.at("lag_p50_limit_ms").as_number();
  const double rollover_ms = spec.fleet ? cfg.at("rollover_interval_ms").as_number() : 0.0;
  std::vector<double> rates;
  for (const auto& r : cfg.at("rates_rps").as_array()) rates.push_back(r.as_number());
  if (rates.size() != 3) throw std::runtime_error("workloads.json: three ladder rates expected");

  // Phase lengths as shares of --seconds: the closed loop (in five
  // chunks, one per interlude) and the three rungs. The middle rung is
  // half the run: its latencies are the headline ones, and its windows
  // need >= 10 samples beyond their tail.
  const double chunk_s = 0.2 * opt.seconds / kInterludes;
  const double rung_s[3] = {0.15 * opt.seconds, 0.5 * opt.seconds, 0.15 * opt.seconds};

  if (opt.trace) obs::enable_tracing();

  // ---- set-up (timed), one group per interlude; the last set-up of the
  // first group serves.
  const std::vector<nb201::Genotype> genotypes = draw_genotypes(spec, opt.seed);
  std::vector<double> setup_s;
  std::vector<std::vector<double>> deploy_of_rep;
  std::vector<TimeSpan> setup_spans;
  Setup setup;
  const auto set_up_group = [&](int group) {
    for (int i = 0; i < kSetupsPerGroup; ++i) {
      const auto t0 = Clock::now();
      Setup s = set_up(spec, genotypes, opt.work_dir, group * kSetupsPerGroup + i);
      setup_spans.emplace_back(t0, Clock::now());
      setup_s.push_back(s.seconds);
      deploy_of_rep.push_back(s.deploy_ms);
      if (group == 0 && i == kSetupsPerGroup - 1) {
        setup = std::move(s);
      } else {
        s.server->stop();
        for (const auto& r : s.routes) std::remove(r.path.c_str());
      }
    }
  };
  set_up_group(0);
  if (opt.trace) {
    add_compile_metrics(obs::snapshot_trace(), out.metrics);
    obs::enable_tracing();
  }

  // ---- inputs and references (untimed).
  std::vector<Slot>& slots = setup.slots;
  {
    DatasetSpec ds;
    ds.height = ds.width = spec.input_size;
    Rng data_rng(mix_seed(opt.seed, 0xDA7A));
    SyntheticDataset data(ds, data_rng);
    for (Slot& slot : slots) {
      for (int i = 0; i < kPool; ++i) slot.inputs.push_back(data.sample_batch(1, data_rng).images);
    }
  }
  if (spec.fleet) {
    // Pool input 0 of the golden slot is the golden scenario's input.
    DatasetSpec ds;
    ds.height = ds.width = spec.input_size;
    Rng golden_rng(kGoldenSeed);
    SyntheticDataset data(ds, golden_rng);
    slots[0].inputs[0] = data.sample_batch(1, golden_rng).images;
  }
  for (Slot& slot : slots) {
    for (Version& v : slot.versions) {
      rt::Executor exec(v.model->graph, v.model->plan, rt::ExecOptions{1});
      for (const Tensor& x : slot.inputs) v.refs.push_back(exec.run(x));
    }
  }
  if (spec.fleet) {
    const std::string want = serialize::read_golden_logits_hash(
        opt.root + "/tests/golden/compile_report.golden");
    const std::string got = serialize::logits_hash_hex(slots[0].versions[0].refs[0]);
    out.info["golden_logits_hash"] = got;
    if (got != want) out.mismatch("golden model logits hash " + got + " != golden " + want);
  }

  // Popularity: Zipf over the slots. The golden model is always the
  // most popular (it never rolls over); the seed orders the others.
  std::vector<double> weight(slots.size());
  {
    std::vector<int> rank(slots.size());
    std::iota(rank.begin(), rank.end(), 1);
    Rng perm(mix_seed(opt.seed, 0x21FF));
    for (std::size_t i = rank.size(); i > 2; --i) std::swap(rank[i - 1], rank[1 + perm.index(i - 1)]);
    for (std::size_t i = 0; i < slots.size(); ++i) weight[i] = 1.0 / std::pow(rank[i], kZipfExponent);
  }
  std::vector<double> cdf(slots.size());
  {
    const double total = std::accumulate(weight.begin(), weight.end(), 0.0);
    double acc = 0.0;
    for (std::size_t i = 0; i < slots.size(); ++i) cdf[i] = (acc += weight[i] / total);
  }
  if (opt.perturb_reference) {
    // Flip the lowest mantissa bit of every reference of the most
    // popular model: the run must then fail its output check.
    const auto hot =
        static_cast<std::size_t>(std::max_element(weight.begin(), weight.end()) - weight.begin());
    for (Version& v : slots[hot].versions) {
      for (Tensor& ref : v.refs) {
        float& x = ref.data()[0];
        std::uint32_t bits;
        std::memcpy(&bits, &x, sizeof bits);
        bits ^= 1u;
        std::memcpy(&x, &bits, sizeof bits);
      }
    }
  }

  Router router;
  router.routes = setup.routes;
  serve::MultiModelServer& server = *setup.server;
  LoadGen gen(server, slots, router, out);
  // Separate streams: the closed loop draws as many requests as the
  // server completes, and must not shift the open-loop plans.
  Rng closed_rng(mix_seed(opt.seed, 0xC105));
  Rng plan_rng(mix_seed(opt.seed, 0x7A4F));

  // ---- the closed loop: the peak, as the mean rate of the bins steal
  // left clean. The mean, because the bins fall on both of the host's
  // speeds (kInterludes) and the run's number should move with the share
  // of each, not jump between them as a median or an interquartile mean
  // does.
  const auto peak_of = [&](const std::vector<Bin>& bins, const std::string& what) {
    std::vector<TimeSpan> spans;
    for (const Bin& b : bins) spans.emplace_back(b.from, b.to);
    std::vector<double> rates;
    for (std::size_t i : score_spans(opt, spans, what, out)) rates.push_back(bins[i].rate);
    return stats::summarize(rates).mean;
  };
  std::vector<Bin> bins;
  const auto closed_chunk = [&] {
    const std::vector<Bin> chunk = gen.closed_loop(window, chunk_s, cdf, closed_rng);
    bins.insert(bins.end(), chunk.begin(), chunk.end());
  };
  gen.closed_loop(window, kWarmupSeconds, cdf, closed_rng);
  if (opt.trace) {
    // Untraced and traced chunks of the same length, alternating so that
    // both fall on the host's speeds alike: the difference is what
    // tracing costs.
    std::vector<Bin> traced;
    for (int i = 0; i < 2; ++i) {
      obs::disable_tracing();
      closed_chunk();
      obs::enable_tracing();
      const std::vector<Bin> chunk = gen.closed_loop(window, chunk_s, cdf, closed_rng);
      traced.insert(traced.end(), chunk.begin(), chunk.end());
    }
    out.metrics["obs.trace_overhead_frac"] =
        1.0 - peak_of(traced, "traced bins") / peak_of(bins, "closed-loop bins");
  } else {
    closed_chunk();
  }

  // ---- the open-loop ladder, in segments, with rollovers (serve-fleet);
  // an interlude after each segment.
  Rung rungs[3];
  std::vector<Send> plans[3];
  for (int r = 0; r < 3; ++r) {
    rungs[r].rate = rates[static_cast<std::size_t>(r)];
    rungs[r].seconds = rung_s[r];
    for (double t = 0.0;;) {
      t += -std::log(1.0 - plan_rng.uniform()) / rungs[r].rate * 1000.0;
      if (t >= rung_s[r] * 1000.0) break;
      const int slot = LoadGen::pick(cdf, plan_rng);
      plans[r].push_back({t, slot, static_cast<int>(plan_rng.index(kPool))});
    }
  }
  struct Segment {
    int rung;
    double from_ms, to_ms;  // the part of the rung's plan it sends
  };
  const Segment segments[kInterludes - 1] = {{0, 0.0, 1000.0 * rung_s[0]},
                                             {1, 0.0, 500.0 * rung_s[1]},
                                             {1, 500.0 * rung_s[1], 1000.0 * rung_s[1]},
                                             {2, 0.0, 1000.0 * rung_s[2]}};
  RolloverLog rolls;
  std::vector<obs::TraceEvent> mid_events;
  std::vector<std::pair<double, double>> backlog[3];
  for (int k = 0; k < kInterludes - 1; ++k) {
    const Segment& seg = segments[k];
    Rung& rung = rungs[seg.rung];
    std::vector<Send> part;
    for (const Send& send : plans[seg.rung]) {
      if (send.at_ms >= seg.from_ms && send.at_ms < seg.to_ms) {
        part.push_back({send.at_ms - seg.from_ms, send.slot, send.input});
      }
    }
    const long long failed_before = gen.failed;
    std::unique_ptr<Rollover> rollover;
    if (spec.fleet) {
      rollover = std::make_unique<Rollover>(server, slots, router, opt.work_dir, rollover_ms, rolls);
    }
    const auto seg_backlog = gen.open_loop(seg.rung, part);
    if (rollover) rollover->stop();
    // The segment's start on the obs trace clock (both are steady clocks).
    rung.obs_start_us = obs::now_us() + 1000.0 * ms_between(Clock::now(), gen.phase_start());
    if (opt.trace && seg.rung == 1 && seg.to_ms == 1000.0 * rung.seconds) {
      mid_events = obs::snapshot_trace();
      obs::enable_tracing();
    }
    rung.sent += static_cast<long long>(part.size());
    rung.failed += gen.failed - failed_before;
    for (const auto& [t, n] : seg_backlog) backlog[seg.rung].emplace_back(t + seg.from_ms / 1000.0, n);

    set_up_group(k + 1);
    closed_chunk();
  }

  for (int r = 0; r < 3; ++r) {
    Rung& rung = rungs[r];
    for (const Done& d : gen.done) {
      if (d.rung == r) rung.done.push_back(d);
    }
    std::vector<double> lag;
    for (const Done& d : rung.done) {
      lag.push_back(d.lag_ms);
      if (d.ok) {
        rung.client.push_back(d.client_ms);
        rung.client_at.push_back(d.in_hand);
      }
    }
    if (!rung.client.empty()) rung.p50 = stats::percentile(rung.client, 50.0);
    const WindowedTail p99 =
        windowed_tail(rung.client, window_bounds(rung.client.size(), window_for(99.0)), 99.0);
    rung.p99 = p99.value;
    rung.p99_windows = p99.windows;
    rung.p99_beyond = p99.min_beyond;
    if (!lag.empty()) {
      rung.lag_p50 = stats::percentile(lag, 50.0);
      rung.lag_p99 = stats::percentile(lag, 99.0);
    }
    rung.backlog_slope = slope(backlog[r]);
    rung.backlog_growth = rung.backlog_slope * rung.seconds;
    // "No growing backlog": over the rung the fitted backlog grows by
    // less than two full batches per model.
    const double growth_limit = 2.0 * spec.server.max_batch * static_cast<double>(slots.size());
    rung.passes = rung.failed == 0 && !rung.client.empty() && rung.p99 <= limit_ms &&
                  rung.backlog_growth <= growth_limit;
    long long good = 0;
    for (double c : rung.client) good += c <= limit_ms ? 1 : 0;
    rung.good_per_s = static_cast<double>(good) / rung.seconds;
  }

  out.metrics["peak_per_s"] = peak_of(bins, "closed-loop bins");
  micronas::json::JsonArray bin_rates;
  for (const Bin& b : bins) bin_rates.push_back(b.rate);
  out.info["closed_loop_bins_per_s"] = bin_rates;
  {
    // Interquartile means: a run's set-ups fall on both of the host's
    // speeds, and a median would jump between them. Compiling, most of a
    // set-up, ran 1.6-1.85x faster on the fast one.
    std::vector<double> kept_s, deploy_ms;
    for (std::size_t i : score_spans(opt, setup_spans, "set-ups", out)) {
      kept_s.push_back(setup_s[i]);
      deploy_ms.insert(deploy_ms.end(), deploy_of_rep[i].begin(), deploy_of_rep[i].end());
    }
    out.metrics["setup_s"] = interquartile_mean(kept_s);
    out.metrics["deploy_ms"] = interquartile_mean(deploy_ms);
    out.info["deploy_ms_samples"] = micronas::json::JsonArray(deploy_ms.begin(), deploy_ms.end());
  }
  out.info["setup_s_samples"] = micronas::json::JsonArray(setup_s.begin(), setup_s.end());

  // ---- end-to-end metrics. The middle rung's latencies are scored in
  // windows of window_for(kTailPct) responses, over the windows steal
  // left clean: p50 over their responses, the tail as the median of their
  // p90s.
  const Rung& mid = rungs[1];
  const Windows mid_windows = window_bounds(mid.client.size(), window_for(kTailPct));
  std::vector<TimeSpan> mid_spans;
  for (const auto& [begin, end] : mid_windows) {
    mid_spans.emplace_back(mid.client_at[begin], mid.client_at[end - 1]);
  }
  Windows scored;
  std::vector<double> scored_client;
  for (std::size_t i : score_spans(opt, mid_spans, "latency windows", out)) {
    const auto [begin, end] = mid_windows[i];
    scored.push_back(mid_windows[i]);
    scored_client.insert(scored_client.end(), mid.client.begin() + static_cast<std::ptrdiff_t>(begin),
                         mid.client.begin() + static_cast<std::ptrdiff_t>(end));
  }
  const WindowedTail tail = windowed_tail(mid.client, scored, kTailPct);
  out.metrics["p50_ms"] = scored_client.empty() ? 0.0 : stats::percentile(scored_client, 50.0);
  out.metrics["tail_ms"] = tail.value;
  // Goodput: responses within the latency limit per second, over the
  // whole ladder. The highest rung that passes outright (p99 within the
  // limit, nothing failed, no growing backlog) is reported beside it; as
  // a metric that rung jumps between ladder steps whenever a p99 sits
  // near the limit, while the count of good responses moves smoothly.
  double good = 0.0, ladder_s = 0.0, passing_rps = 0.0;
  for (const Rung& r : rungs) {
    good += r.good_per_s * r.seconds;
    ladder_s += r.seconds;
    if (r.passes) passing_rps = r.rate;
  }
  out.metrics["goodput_per_s"] = good / ladder_s;
  out.info["highest_passing_rung_rps"] = passing_rps;
  out.attempted = gen.attempted;
  out.failed = gen.failed;

  // ---- validity: every scored window must support its tail, and the
  // sender must have kept to its schedule.
  if (tail.windows == 0 || tail.min_beyond < kTailSamples) {
    out.invalid = "middle rung has " + std::to_string(tail.min_beyond) +
                  " samples beyond a window's tail (need 10): run longer";
  }
  for (const Rung& r : rungs) {
    if (r.lag_p50 > lag_limit_ms) {
      out.invalid = "sender fell behind: lag p50 " + std::to_string(r.lag_p50) + " ms > " +
                    std::to_string(lag_limit_ms) + " ms";
    }
  }

  // ---- per-layer metrics (every run computes the cheap ones; main
  // prints them only for the traced run).
  std::vector<double> queue, exec, deliver;
  double inv_batch = 0.0;
  for (const Done& d : mid.done) {
    if (!d.ok) continue;
    queue.push_back(d.queue_ms);
    exec.push_back(d.total_ms - d.queue_ms);
    deliver.push_back(d.deliver_ms);
    inv_batch += 1.0 / d.batch;
  }
  Metrics& m = out.metrics;
  if (!queue.empty()) {
    m["serve.queue_ms.p50"] = stats::percentile(queue, 50.0);
    m["serve.queue_ms.p99"] = stats::percentile(queue, 99.0);
    m["serve.exec_ms.p50"] = stats::percentile(exec, 50.0);
    m["serve.deliver_ms.p99"] = stats::percentile(deliver, 99.0);
    m["serve.batch_size.mean"] = static_cast<double>(queue.size()) / inv_batch;
  }
  m["serve.rejected"] = static_cast<double>(gen.rejected.load());
  m["serve.dropped"] = static_cast<double>(gen.dropped.load());
  m["req.samples"] = static_cast<double>(mid.client.size());
  m["req.p99_ms"] = mid.p99;
  m["gen.lag_p99_ms"] = mid.lag_p99;
  m["gen.backlog_slope"] = mid.backlog_slope;
  m["fail_frac"] = out.attempted > 0 ? static_cast<double>(out.failed) / out.attempted : 0.0;
  if (!rolls.total_ms.empty()) {
    m["rollover.ms"] = stats::percentile(rolls.total_ms, 50.0);
    out.info["rollovers"] = static_cast<long long>(rolls.total_ms.size());
    out.info["rollover_save_ms_p50"] = stats::percentile(rolls.save_ms, 50.0);
    out.info["rollover_load_ms_p50"] = stats::percentile(rolls.load_ms, 50.0);
    out.info["rollover_drain_ms_p50"] = stats::percentile(rolls.drain_ms, 50.0);
  }

  if (opt.trace) {
    // Latency accounting over the middle rung. Client latency splits
    // into sender lag + queue (Response::queue_ms) + execution +
    // delivery; execution is taken from the server's own serve.batch
    // spans (request-weighted), an instrument independent of the
    // Response timestamps. Only the rung's second half is compared (the
    // interlude before it has batches of its own), and in it only the
    // batches the span rings still hold, with the requests dispatched in
    // the same window.
    std::map<int, double> first_us;
    for (const auto& e : mid_events) {
      if (std::strcmp(e.name, "serve.batch") == 0 && e.start_us >= mid.obs_start_us) {
        auto it = first_us.find(e.tid);
        if (it == first_us.end() || e.start_us < it->second) first_us[e.tid] = e.start_us;
      }
    }
    double window_us = mid.obs_start_us;
    for (const auto& [tid, us] : first_us) window_us = std::max(window_us, us);
    double span_sum = 0.0, span_n = 0.0;
    for (const auto& e : mid_events) {
      if (std::strcmp(e.name, "serve.batch") != 0 || e.start_us < window_us) continue;
      double n = 0.0;
      for (const auto& [k, v] : e.tags) {
        if (std::strcmp(k, "requests") == 0) n = std::stod(v);
      }
      span_sum += n * e.dur_us / 1000.0;
      span_n += n;
    }
    std::vector<double> w_client, w_lag, w_queue, w_deliver;
    for (const Done& d : mid.done) {
      const double dispatched_us = obs::now_us() + 1000.0 * ms_between(Clock::now(), d.dispatched);
      if (!d.ok || dispatched_us < window_us) continue;
      w_client.push_back(d.client_ms);
      w_lag.push_back(d.lag_ms);
      w_queue.push_back(d.queue_ms);
      w_deliver.push_back(d.deliver_ms);
    }
    const auto mean = [](const std::vector<double>& v) {
      return v.empty() ? 0.0 : stats::summarize(v).mean;
    };
    const double span_exec = span_n > 0.0 ? span_sum / span_n : 0.0;
    const double client = mean(w_client);
    const double accounted = mean(w_lag) + mean(w_queue) + span_exec + mean(w_deliver);
    const double unaccounted = client - accounted;
    // Tolerance: 0.05 ms + 5% of the mean client latency.
    const double tolerance = 0.05 + 0.05 * client;
    m["serve.unaccounted_ms"] = unaccounted;
    micronas::json::JsonObject acc;
    acc["window_requests"] = static_cast<long long>(w_client.size());
    acc["window_batches_spans"] = span_n;
    acc["client_ms_mean"] = client;
    acc["lag_ms_mean"] = mean(w_lag);
    acc["queue_ms_mean"] = mean(w_queue);
    acc["exec_ms_mean_span"] = span_exec;
    acc["deliver_ms_mean"] = mean(w_deliver);
    acc["unaccounted_ms"] = unaccounted;
    acc["tolerance_ms"] = tolerance;
    out.info["latency_accounting"] = acc;
    if (w_client.empty() || span_n == 0.0 || std::abs(unaccounted) > tolerance) {
      out.invalid = "serve latency decomposition does not close: " + std::to_string(unaccounted) +
                    " ms unaccounted (tolerance " + std::to_string(tolerance) + " ms)";
    }

    const Roofline roof = measure_roofline();
    add_roofline_metrics(roof, m);
    const Slot& probe = slots[0];
    add_rt_metrics(*probe.versions[0].model, spec.server.threads,
                   std::vector<Tensor>(probe.inputs.begin(), probe.inputs.begin() + 8), roof,
                   spec.fleet ? 60 : 30, m);
    add_load_metrics(*probe.versions[0].model, opt.work_dir, spec.server, 5, m);
  }

  // ServerStats of the lanes still open (rolled-over lanes are gone).
  micronas::json::JsonObject stats;
  for (const std::string& key : server.keys()) {
    const serve::ServerStats s = server.stats(key);
    micronas::json::JsonObject o;
    o["requests"] = s.requests;
    o["batches"] = s.batches;
    o["mean_batch"] = s.mean_batch;
    o["rejected"] = s.rejected;
    o["dropped"] = s.dropped;
    stats[key] = o;
  }
  out.info["server_stats"] = stats;
  server.stop();
  for (const auto& r : router.routes) std::remove(r.path.c_str());

  micronas::json::JsonArray ladder;
  for (const Rung& r : rungs) ladder.push_back(rung_json(r));
  out.info["ladder"] = ladder;
  out.info["latency_limit_ms"] = limit_ms;
  out.info["tail_percentile"] = kTailPct;
  out.info["tail_windows"] = tail.windows;
  out.info["tail_beyond"] = tail.min_beyond;
  out.info["tail_samples"] = static_cast<long long>(mid.client.size());
  micronas::json::JsonArray archs;
  for (const Slot& s : slots) archs.push_back(s.genotype.to_string());
  out.info["models"] = archs;
  return out;
}

}  // namespace e2e
