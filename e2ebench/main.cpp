// e2ebench: the end-to-end benchmark's program. run.py builds this
// binary and runs it as
//
//   e2ebench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//            [--root <checkout>] [--git-sha <sha>] [--perturb-reference]
//
// It prints a host record, a details record, and as its last line one
// JSON object: {"correct", "attempted", "failed", "metrics"}. With
// --trace 0 the metrics are BENCHMARK.json's end_to_end list, with
// --trace 1 its per_layer list (a traced run also writes a Chrome
// trace and checks that it parses). Exit codes: 0 scored, 1 error,
// 2 an output check failed, 3 the run is invalid and not scored.
#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <stdexcept>
#include <string>
#include <thread>

#include "e2ebench/bench.hpp"
#include "e2ebench/layers.hpp"

#ifndef E2E_COMPILER
#define E2E_COMPILER "unknown"
#endif
#ifndef E2E_BUILD_TYPE
#define E2E_BUILD_TYPE "unknown"
#endif
#ifndef E2E_CXX_FLAGS
#define E2E_CXX_FLAGS ""
#endif

namespace fs = std::filesystem;
using micronas::json::Json;
using micronas::json::JsonObject;

namespace {

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) return line.substr(line.find_first_not_of(' ', colon + 1));
    }
  }
  return "unknown";
}

bool applies(const e2e::Outcome& out, const std::string& name) {
  for (const std::string& prefix : out.not_applicable) {
    if (name.rfind(prefix, 0) == 0) return false;
  }
  return true;
}

int run(int argc, char** argv) {
  e2e::Options opt;
  std::string git_sha = "unknown";
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) throw std::invalid_argument("missing value for " + a);
      return argv[++i];
    };
    if (a == "--workload") opt.workload = value();
    else if (a == "--seed") opt.seed = std::stoull(value());
    else if (a == "--seconds") opt.seconds = std::stod(value());
    else if (a == "--trace") opt.trace = value() == "1";
    else if (a == "--root") opt.root = value();
    else if (a == "--git-sha") git_sha = value();
    else if (a == "--perturb-reference") opt.perturb_reference = true;
    else throw std::invalid_argument("unknown argument " + a);
  }

  e2e::self_test_percentiles();

  const Json bench = micronas::json::load_json_file(opt.root + "/BENCHMARK.json");
  const Json workloads = micronas::json::load_json_file(opt.root + "/e2ebench/workloads.json");
  bool known = false;
  for (const Json& w : bench.at("workloads").as_array()) {
    known = known || w.at("name").as_string() == opt.workload;
  }
  if (!known) throw std::invalid_argument("unknown workload '" + opt.workload + "'");
  opt.config = workloads.at(opt.workload);
  if (opt.seconds <= 0.0) throw std::invalid_argument("--seconds must be positive");

  const fs::path out_dir = fs::path(opt.root) / ".bench_build" / "e2ebench";
  opt.work_dir = (out_dir / ("run-" + std::to_string(::getpid()))).string();
  fs::create_directories(opt.work_dir);
  micronas::obs::set_ring_capacity(std::size_t{1} << 14);

  const e2e::StealMonitor steal;
  opt.steal = &steal;
  const auto started = e2e::Clock::now();
  e2e::Outcome out = opt.workload == "search-deploy" ? e2e::run_search(opt) : e2e::run_serve(opt);
  const double steal_frac = steal.frac(started, e2e::Clock::now());
  if (opt.trace) {
    const std::string trace = (out_dir / ("trace-" + opt.workload + ".json")).string();
    out.info["trace_file"] = trace;
    out.info["trace_events"] = e2e::write_checked_trace(trace);
  }
  fs::remove_all(opt.work_dir);

  JsonObject host;
  host["hardware_threads"] = static_cast<long long>(std::thread::hardware_concurrency());
  host["cpu_model"] = cpu_model();
  host["compiler"] = E2E_COMPILER;
  host["build_type"] = E2E_BUILD_TYPE;
  host["cxx_flags"] = E2E_CXX_FLAGS;
  host["git_sha"] = git_sha;
  // Share of CPU time the hypervisor gave to other guests during the run:
  // the usual cause when every number of a run is slow at once.
  host["cpu_steal_frac"] = steal_frac;
  host["workload"] = opt.workload;
  host["seed"] = static_cast<long long>(opt.seed);
  host["seconds"] = opt.seconds;
  host["trace"] = opt.trace;
  std::cout << Json(JsonObject{{"host", host}}).dump() << "\n";

  // Every metric of the run's list, with the unit BENCHMARK.json gives
  // it; the rest of what the workload measured goes to the details.
  JsonObject metrics;
  for (const Json& decl : bench.at(opt.trace ? "per_layer" : "end_to_end").as_array()) {
    const std::string& name = decl.at("name").as_string();
    double value = 0.0;
    if (const auto it = out.metrics.find(name); it != out.metrics.end()) {
      value = it->second;
      out.metrics.erase(it);
    } else if (applies(out, name) && out.invalid.empty()) {
      throw std::logic_error("workload " + opt.workload + " did not measure " + name);
    }
    metrics[name] = JsonObject{{"value", value}, {"unit", decl.at("unit").as_string()}};
  }
  JsonObject extra;
  for (const auto& [name, value] : out.metrics) extra[name] = value;
  out.info["other_metrics"] = extra;
  micronas::json::JsonArray errors;
  for (const std::string& e : out.errors) errors.push_back(e);
  out.info["errors"] = errors;
  std::cout << Json(JsonObject{{"info", out.info}}).dump() << "\n";
  for (const std::string& e : out.errors) std::cerr << "e2ebench: " << e << "\n";
  // A failed output check is reported even when the run is also invalid.
  if (out.correct && !out.invalid.empty()) {
    std::cerr << "e2ebench: invalid run, not scored: " << out.invalid << "\n";
    return 3;
  }

  JsonObject result;
  result["correct"] = out.correct;
  result["attempted"] = out.attempted;
  result["failed"] = out.failed;
  result["metrics"] = metrics;
  std::cout << Json(result).dump() << std::endl;
  return out.correct ? 0 : 2;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "e2ebench: " << e.what() << "\n";
    return 1;
  }
}
