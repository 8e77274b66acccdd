// Shared pieces of the end-to-end benchmark: timing, percentiles,
// the per-run outcome, and the entry points of each workload.
//
// Every layer is timed from outside, around calls to its public
// functions; `timed_ms` also opens a benchmark-side obs span around
// the call so the traced run's Chrome trace shows each boundary.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "src/common/json.hpp"
#include "src/obs/trace.hpp"
#include "src/tensor/tensor.hpp"

namespace e2e {

using Clock = std::chrono::steady_clock;

inline double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

/// Wall milliseconds of fn(), recorded as obs span `span` when tracing
/// is on. `span` must be a string literal (obs keeps the pointer).
template <class F>
double timed_ms(const char* span, F&& fn) {
  micronas::obs::Span s(span);
  const auto t0 = Clock::now();
  fn();
  return ms_between(t0, Clock::now());
}

// Percentiles are micronas::stats::percentile (linear interpolation
// between closest ranks, as numpy's default); these add what it lacks.

/// Mean of the samples between the first and third quartile (by rank):
/// steadier than the median when samples are coarsely quantized or fall
/// on two levels of host speed.
double interquartile_mean(std::vector<double> v);

/// The tail a sample supports: the highest percentile of a fixed ladder
/// (99.9, 99.5, 99, 98, 95, 90, 75, 50) that still has at least ten
/// samples strictly above it. `q` is 0 when even the median has fewer.
struct Tail {
  double q = 0.0;       // percentile, e.g. 99.0
  double value = 0.0;   // the percentile's value
  long long beyond = 0; // samples strictly above `value`
  long long n = 0;      // sample count
};
inline constexpr long long kTailSamples = 10;
Tail tail_of(std::vector<double> v);

/// Samples strictly above percentile pct (0..100) of a non-empty v.
long long beyond(const std::vector<double>& v, double pct);

/// Consecutive [begin, end) windows of a time-ordered sample of n, each
/// at least `size` long: one window when n is shorter, none when n is 0.
using Windows = std::vector<std::pair<std::size_t, std::size_t>>;
Windows window_bounds(std::size_t n, std::size_t size);

/// The window length at which percentile pct has kTailSamples beyond
/// it: 100 for p90, 1000 for p99.
std::size_t window_for(double pct);

/// Percentile pct of a time-ordered sample, taken in steady-state
/// windows: the median of the windows' percentiles. A short host stall
/// then moves one window's value, not the result. `min_beyond` is the
/// fewest samples beyond any window's percentile: a window of
/// window_for(pct) samples has at least 10.
struct WindowedTail {
  double value = 0.0;
  long long windows = 0;
  long long min_beyond = 0;
};
WindowedTail windowed_tail(const std::vector<double>& ordered, const Windows& windows, double pct);

/// Host CPU steal: the share of CPU time the hypervisor gave to other
/// guests. A thread samples /proc/stat every 20 ms for the monitor's
/// lifetime, so any interval of the run can be asked afterwards. Reads 0
/// where /proc/stat is unreadable.
class StealMonitor {
 public:
  StealMonitor();
  ~StealMonitor();
  StealMonitor(const StealMonitor&) = delete;
  StealMonitor& operator=(const StealMonitor&) = delete;

  double frac(Clock::time_point from, Clock::time_point to) const;

 private:
  struct Sample {
    Clock::time_point at;
    double steal = 0.0;
    double total = 0.0;
  };
  void loop();

  mutable std::mutex mutex_;
  std::condition_variable wake_;
  bool stopping_ = false;
  std::vector<Sample> samples_;
  std::thread thread_;  // last: starts after every member it uses
};

/// A measured window (a latency window, a closed-loop bin, a set-up, a
/// search pair) is clean when the host's steal over it is at most
/// kStealClean. Each phase scores its clean windows, or its least-stolen
/// quarter when fewer than a quarter are clean: a burst of steal then
/// sets no number. If even the kept quarter has a window above
/// kStealInvalid, the host gave a quarter of its CPU time away throughout
/// and the run is invalid. On a 4-vCPU VM, steal bursts of 3-10% tripled
/// serve-fleet's p99 while runs without steal agreed within a few percent.
inline constexpr double kStealClean = 0.02;
inline constexpr double kStealInvalid = 0.25;
/// Indices of the windows to score, in order, given each one's steal.
std::vector<std::size_t> windows_to_score(const std::vector<double>& steal);

using TimeSpan = std::pair<Clock::time_point, Clock::time_point>;
struct Outcome;
struct Options;
/// windows_to_score() over the steal options.steal measured in each
/// span. Marks `out` invalid when a window it keeps was above
/// kStealInvalid, and records in out.info how many it set aside.
std::vector<std::size_t> score_spans(const Options& options, const std::vector<TimeSpan>& spans,
                                     const std::string& what, Outcome& out);

/// Checks the percentile rule, tail_of(), windowed_tail() and
/// windows_to_score() against hand-worked cases; throws
/// std::logic_error on any disagreement. Runs at the start of every run.
void self_test_percentiles();

/// Metric name -> value. Units come from BENCHMARK.json, the one place
/// each metric is declared.
using Metrics = std::map<std::string, double>;

/// What a workload hands back to main.
struct Outcome {
  Metrics metrics;
  long long attempted = 0;
  long long failed = 0;
  bool correct = true;
  std::vector<std::string> errors;  // first few output mismatches
  std::string invalid;              // non-empty: the run is not scored (why)
  micronas::json::JsonObject info;  // details printed beside the result
  /// Metric-name prefixes that do not apply to this workload; the traced
  /// run reports them as 0.
  std::vector<std::string> not_applicable;

  void mismatch(const std::string& what) {
    correct = false;
    if (errors.size() < 8) errors.push_back(what);
  }
};

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string root = ".";          // repository checkout (goldens are read from it)
  std::string work_dir;            // scratch files of this run (packages, trace)
  bool perturb_reference = false;  // flip one reference bit: the run must fail
  const StealMonitor* steal = nullptr;  // the host's steal over the run
  micronas::json::Json config;     // this workload's block of workloads.json
};

Outcome run_serve(const Options& options);
Outcome run_search(const Options& options);

/// Seed mixing (splitmix64): distinct, well-spread streams per purpose.
std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t stream);

/// Bit-identity of two logits tensors (same shape, same float bits).
bool same_bits(const micronas::Tensor& a, const micronas::Tensor& b);

}  // namespace e2e
