// Percentiles, the tail rule and its self-test, and small helpers.
#include <algorithm>
#include <cmath>
#include <cstring>
#include <fstream>
#include <numeric>
#include <stdexcept>
#include <string>

#include "e2ebench/bench.hpp"
#include "src/stats/summary.hpp"

namespace e2e {

namespace stats = micronas::stats;

double interquartile_mean(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t lo = v.size() / 4;
  const std::size_t hi = v.size() - lo;
  return std::accumulate(v.begin() + static_cast<std::ptrdiff_t>(lo),
                         v.begin() + static_cast<std::ptrdiff_t>(hi), 0.0) /
         static_cast<double>(hi - lo);
}

long long beyond(const std::vector<double>& v, double pct) {
  const double cut = stats::percentile(v, pct);
  return static_cast<long long>(std::count_if(v.begin(), v.end(), [&](double x) { return x > cut; }));
}

Windows window_bounds(std::size_t n, std::size_t size) {
  Windows w;
  if (n == 0) return w;
  const std::size_t count = std::max<std::size_t>(1, n / size);
  for (std::size_t i = 0; i < count; ++i) w.emplace_back(n * i / count, n * (i + 1) / count);
  return w;
}

std::size_t window_for(double pct) {
  return static_cast<std::size_t>(std::lround(static_cast<double>(kTailSamples) * 100.0 / (100.0 - pct)));
}

WindowedTail windowed_tail(const std::vector<double>& ordered, const Windows& windows, double pct) {
  WindowedTail w;
  if (windows.empty()) return w;
  std::vector<double> values;
  for (const auto& [begin, end] : windows) {
    const std::vector<double> part(ordered.begin() + static_cast<std::ptrdiff_t>(begin),
                                   ordered.begin() + static_cast<std::ptrdiff_t>(end));
    values.push_back(stats::percentile(part, pct));
    const long long b = beyond(part, pct);
    w.min_beyond = values.size() == 1 ? b : std::min(w.min_beyond, b);
  }
  w.value = stats::percentile(values, 50.0);
  w.windows = static_cast<long long>(windows.size());
  return w;
}

std::vector<std::size_t> windows_to_score(const std::vector<double>& steal) {
  std::vector<std::size_t> order(steal.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) { return steal[a] < steal[b]; });
  std::size_t keep = (steal.size() + 3) / 4;
  while (keep < order.size() && steal[order[keep]] <= kStealClean) ++keep;
  order.resize(keep);
  std::sort(order.begin(), order.end());
  return order;
}

std::vector<std::size_t> score_spans(const Options& options, const std::vector<TimeSpan>& spans,
                                     const std::string& what, Outcome& out) {
  std::vector<double> steal;
  for (const auto& [from, to] : spans) steal.push_back(options.steal ? options.steal->frac(from, to) : 0.0);
  std::vector<std::size_t> kept = windows_to_score(steal);
  double worst = 0.0;
  for (std::size_t i : kept) worst = std::max(worst, steal[i]);
  if (worst > kStealInvalid) {
    out.invalid = "host too busy to measure: the least-stolen quarter of the " + what +
                  " reached a steal share of " + std::to_string(worst);
  }
  out.info["steal." + what] = micronas::json::JsonArray(steal.begin(), steal.end());
  out.info["steal_set_aside." + what] = static_cast<long long>(spans.size() - kept.size());
  return kept;
}

namespace {

/// (steal, total) jiffies of all CPUs from /proc/stat; zeros when unreadable.
std::pair<double, double> cpu_jiffies() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  double v[8] = {};
  in >> cpu >> v[0] >> v[1] >> v[2] >> v[3] >> v[4] >> v[5] >> v[6] >> v[7];
  if (!in || cpu != "cpu") return {0.0, 0.0};
  double total = 0.0;
  for (double x : v) total += x;
  return {v[7], total};
}

}  // namespace

StealMonitor::StealMonitor() { thread_ = std::thread([this] { loop(); }); }

StealMonitor::~StealMonitor() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = true;
  }
  wake_.notify_one();
  thread_.join();
}

void StealMonitor::loop() {
  std::unique_lock<std::mutex> lock(mutex_);
  for (;;) {
    lock.unlock();
    const auto [steal, total] = cpu_jiffies();
    const auto at = Clock::now();
    lock.lock();
    samples_.push_back({at, steal, total});
    if (wake_.wait_for(lock, std::chrono::milliseconds(20), [&] { return stopping_; })) return;
  }
}

double StealMonitor::frac(Clock::time_point from, Clock::time_point to) const {
  std::lock_guard<std::mutex> lock(mutex_);
  if (samples_.size() < 2) return 0.0;
  // The last sample at or before `from` and the first at or after `to`,
  // clamped to the samples taken.
  auto after = std::lower_bound(samples_.begin(), samples_.end(), to,
                                [](const Sample& s, Clock::time_point t) { return s.at < t; });
  if (after == samples_.end()) --after;
  auto before = std::upper_bound(samples_.begin(), samples_.end(), from,
                                 [](Clock::time_point t, const Sample& s) { return t < s.at; });
  if (before != samples_.begin()) --before;
  const double total = after->total - before->total;
  return total > 0.0 ? (after->steal - before->steal) / total : 0.0;
}

Tail tail_of(std::vector<double> v) {
  static constexpr double kLadder[] = {99.9, 99.5, 99.0, 98.0, 95.0, 90.0, 75.0, 50.0};
  Tail t;
  t.n = static_cast<long long>(v.size());
  if (v.empty()) return t;
  for (double q : kLadder) {
    const long long b = beyond(v, q);
    if (b >= kTailSamples) {
      t.q = q;
      t.value = stats::percentile(v, q);
      t.beyond = b;
      return t;
    }
  }
  return t;
}

void self_test_percentiles() {
  const auto expect = [](bool ok, const std::string& what) {
    if (!ok) throw std::logic_error("percentile self-test failed: " + what);
  };
  std::vector<double> v(1000);
  std::iota(v.begin(), v.end(), 1.0);  // 1..1000
  expect(std::abs(stats::percentile(v, 50.0) - 500.5) < 1e-9, "median of 1..1000");
  expect(std::abs(stats::percentile(v, 99.0) - 990.01) < 1e-9, "p99 of 1..1000");
  expect(std::abs(interquartile_mean({9.0, 1.0, 5.0, 6.0, 4.0, 100.0, 5.0, 3.0}) - 5.0) < 1e-12,
         "interquartile mean drops the outer quarters");
  // 1000 samples: p99 (990.01) has exactly 10 above it, p99.5 only 5.
  Tail t = tail_of(v);
  expect(t.q == 99.0 && t.beyond == 10 && t.n == 1000, "tail of 1000 samples is p99");
  // The rule's edge: with 902 samples p99 (892.99) has 10 above it;
  // with 901 it lands on a sample (892) with 9 above, so p98 is used.
  v.resize(902);
  t = tail_of(v);
  expect(t.q == 99.0 && t.beyond == 10 && t.n == 902, "tail of 902 samples is p99");
  v.pop_back();
  t = tail_of(v);
  expect(t.q == 98.0 && t.beyond == 18 && t.n == 901, "tail of 901 samples is p98");
  // 10 000 samples support p99.9 (exactly 10 above).
  std::vector<double> w(10000);
  std::iota(w.begin(), w.end(), 1.0);
  t = tail_of(w);
  expect(t.q == 99.9 && t.beyond == 10, "tail of 10000 samples is p99.9");
  // Windowed p99: 3000 samples make three windows of 1000. A stall that
  // puts 40 samples of the first window above 1e6 sets the plain p99 (40 of
  // 3000 is over 1%) but moves only one of the three window p99s.
  std::vector<double> x;
  for (int k = 0; k < 3; ++k) {
    for (int i = 1; i <= 1000; ++i) x.push_back(k == 0 && i > 960 ? 1e6 + i : i);
  }
  expect(stats::percentile(x, 99.0) > 1e6, "plain p99 with a stalled window");
  expect(window_for(99.0) == 1000 && window_for(90.0) == 100, "window lengths");
  const WindowedTail wp = windowed_tail(x, window_bounds(x.size(), window_for(99.0)), 99.0);
  expect(wp.windows == 3 && std::abs(wp.value - 990.01) < 1e-9 && wp.min_beyond == 10,
         "windowed p99 is the median window's p99");
  // p90 in windows of 100: 1..100 has p90 90.1 with exactly 10 above it.
  std::vector<double> y;
  for (int k = 0; k < 30; ++k) {
    for (int i = 1; i <= 100; ++i) y.push_back(i);
  }
  const WindowedTail w90 = windowed_tail(y, window_bounds(y.size(), window_for(90.0)), 90.0);
  expect(w90.windows == 30 && std::abs(w90.value - 90.1) < 1e-9 && w90.min_beyond == 10,
         "windowed p90 over 30 windows");
  expect(window_bounds(500, 1000).size() == 1 && window_bounds(0, 1000).empty(),
         "a short sample is one window, an empty one none");
  // Windows to score: the clean ones, or the least-stolen quarter.
  expect(windows_to_score({0.0, 0.03, 0.01, 0.02}) == std::vector<std::size_t>{0, 2, 3},
         "every clean window");
  expect(windows_to_score({0.09, 0.03, 0.05, 0.01, 0.2}) == std::vector<std::size_t>{1, 3},
         "the least-stolen quarter when few are clean");
  // Fewer than 20 samples support no percentile of the ladder.
  t = tail_of(std::vector<double>(15, 1.0));
  expect(t.q == 0.0 && t.n == 15, "no tail for 15 equal samples");
}

std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t stream) {
  std::uint64_t z = seed * 0x9E3779B97F4A7C15ULL + stream + 0x632BE59BD9B4E019ULL;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

bool same_bits(const micronas::Tensor& a, const micronas::Tensor& b) {
  if (a.shape() != b.shape()) return false;
  return std::memcmp(a.data().data(), b.data().data(), a.numel() * sizeof(float)) == 0;
}

}  // namespace e2e
