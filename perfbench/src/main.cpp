/// \file main.cpp
/// \brief `perfbench`: the repository benchmark.
///
///   perfbench --workload NAME --seed N --seconds S --trace 0|1 [--size full|tiny]
///   perfbench --selftest
///
/// Prints informational `# key: value` lines, one `{"provenance": ...}`
/// line, and as its last line one JSON object with the keys `correct`,
/// `attempted`, `failed` and `metrics`. `--trace 0` reports the
/// end-to-end metrics, `--trace 1` the per-layer metrics (a layer a
/// workload does not exercise reports 0). Refuses to run a build with the
/// invariant checks or sanitizers armed: that is a different program.
#include <sys/utsname.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>
#include <thread>

#include "common.hpp"

namespace perfbench {
namespace {

/// Per-layer metrics (name, unit) of the traced run, in report order.
/// Keep in step with BENCHMARK.json's `per_layer` list.
struct LayerMetric {
  const char* name;
  const char* unit;
};
constexpr LayerMetric kPerLayer[] = {
    {"op_ms_tail", "ms"},
    {"core.aggregate_mis2.ms_p50", "ms"},
    {"core.coarse_graph.ms_p50", "ms"},
    {"core.mis2_rounds", "count"},
    {"parallel.speedup_vs_serial", "ratio"},
    {"core.warm_scratch_grows", "count"},
    {"core.scratch_bytes", "bytes"},
    {"core.aggregates", "count"},
    {"multilevel.aggregation.ms_p50", "ms"},
    {"multilevel.galerkin.ms_p50", "ms"},
    {"solver.prec_setup.ms_p50", "ms"},
    {"graph.spgemm_rows_traversed", "count"},
    {"solver.solve.ms_p50", "ms"},
    {"solver.iterations", "count"},
    {"multilevel.levels", "count"},
    {"multilevel.operator_complexity", "ratio"},
    {"multilevel.coarse_nnz", "count"},
    {"serve.request.ms_p50", "ms"},
    {"serve.request.ms_p99", "ms"},
    {"serve.queue_wait.ms_p99", "ms"},
    {"solver.iterations_mean", "count"},
    {"serve.generator_lag.ms_p99", "ms"},
    {"serve.customize.ms_p50", "ms"},
    {"serve.write_time_frac", "ratio"},
    {"serve.pool.warm_hit_ratio", "ratio"},
    {"serve.pool.acquires", "count"},
    {"serve.pool.level_adoptions", "count"},
    {"serve.pool.prec_builds", "count"},
    {"serve.worker_busy_frac", "ratio"},
    {"serve.batch_wave.ms_p50", "ms"},
    {"serve.batch_wave.ms_p95", "ms"},
    {"serve.wave_width_mean", "count"},
    {"solver.block_iterations_mean", "count"},
    {"bench.trace_overhead_frac", "ratio"},
    {"bench.untimed_frac", "ratio"},
};

/// End-to-end metrics of the untraced run; every workload reports all.
constexpr LayerMetric kEndToEnd[] = {
    {"setup_s", "s"}, {"op_ms_p50", "ms"}, {"ops_per_s", "1/s"}, {"peak_rss_mb", "MiB"},
};

[[noreturn]] void usage(const char* msg) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload NAME --seed N --seconds S --trace 0|1 "
               "[--size full|tiny]\n       perfbench --selftest\n",
               msg);
  std::exit(2);
}

/// Build switches that make this a different program than the one the
/// benchmark measures. Empty when the build is a plain optimized one.
std::string forbidden_build() {
  std::string why;
#ifdef PARMIS_CHECK_INVARIANTS
  why += "PARMIS_CHECK_INVARIANTS ";
#endif
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  why += "sanitizer(compiler) ";
#endif
  if (std::strlen(PERFBENCH_SANITIZE) > 0) {
    why += std::string("PARMIS_SANITIZE=") + PERFBENCH_SANITIZE;
  }
  return why;
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out;
}

std::string provenance_json(const RunConfig& cfg) {
  utsname u{};
  uname(&u);
  const parmis::Context::Validation kv = kernel_context(cfg).validate();
  const bool serving = cfg.workload.rfind("serve_", 0) == 0;
  const char* schedule = "edge_balanced";
  switch (parmis::Context{}.schedule) {
    case parmis::par::Schedule::Static: schedule = "static"; break;
    case parmis::par::Schedule::EdgeBalanced: schedule = "edge_balanced"; break;
    case parmis::par::Schedule::Dynamic: schedule = "dynamic"; break;
  }
  const char* wait_env = std::getenv("OMP_WAIT_POLICY");
  const std::string wait_policy = wait_env ? wait_env : "default";
  char buf[1024];
  std::snprintf(
      buf, sizeof buf,
      "{\"provenance\": {\"nproc\": %u, \"machine\": \"%s\", \"workload\": \"%s\", "
      "\"threads\": %d, \"backend\": \"%s\", \"schedule\": \"%s\", \"compiler\": \"%s\", "
      "\"build_type\": \"%s\", \"check_invariants\": %s, \"sanitize\": \"%s\", "
      "\"omp_wait_policy\": \"%s\", \"size\": \"%s\"}}",
      std::thread::hardware_concurrency(), json_escape(u.machine).c_str(),
      json_escape(cfg.workload).c_str(), serving ? cfg.workers : kv.effective_threads,
      serving ? "serial-per-worker"
              : (kv.effective == parmis::par::Backend::OpenMP ? "openmp" : "serial"),
      schedule, json_escape(PERFBENCH_COMPILER).c_str(), json_escape(PERFBENCH_BUILD_TYPE).c_str(),
#ifdef PARMIS_CHECK_INVARIANTS
      "true",
#else
      "false",
#endif
      json_escape(PERFBENCH_SANITIZE).c_str(), json_escape(wait_policy).c_str(),
      cfg.size == Size::Full ? "full" : "tiny");
  return buf;
}

std::string format_number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

void print_result(const RunConfig& cfg, const Result& res) {
  for (const auto& [k, v] : res.notes) std::printf("# %s: %s\n", k.c_str(), v.c_str());
  std::string metrics;
  auto emit = [&](const LayerMetric& m) {
    double value = 0.0;
    bool found = false;
    for (const Metric& r : res.metrics) {
      if (r.name == m.name) {
        value = r.value;
        found = true;
      }
    }
    // A layer the workload does not exercise reports 0; an end-to-end
    // metric is always measured.
    if (!found && !cfg.trace) {
      std::fprintf(stderr, "perfbench: workload did not report %s\n", m.name);
      std::exit(3);
    }
    if (!metrics.empty()) metrics += ", ";
    metrics += std::string("\"") + m.name + "\": {\"value\": " + format_number(value) +
               ", \"unit\": \"" + m.unit + "\"}";
  };
  if (cfg.trace) {
    for (const LayerMetric& m : kPerLayer) emit(m);
  } else {
    for (const LayerMetric& m : kEndToEnd) emit(m);
  }
  const bool correct = res.checks_ok && res.failed == 0 && res.attempted > 0;
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {%s}}\n",
              correct ? "true" : "false", static_cast<unsigned long long>(res.attempted),
              static_cast<unsigned long long>(res.failed), metrics.c_str());
  std::fflush(stdout);
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  const std::string forbidden = forbidden_build();
  if (!forbidden.empty()) {
    std::fprintf(stderr, "perfbench: refusing to measure a checked/sanitized build (%s)\n",
                 forbidden.c_str());
    return 4;
  }
  RunConfig cfg;
  bool have_workload = false, have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--selftest") return run_selftest() == 0 ? 0 : 1;
    if (i + 1 >= argc) usage(("missing value for " + arg).c_str());
    const std::string val = argv[++i];
    try {
      if (arg == "--workload") {
        cfg.workload = val;
        have_workload = true;
      } else if (arg == "--seed") {
        cfg.seed = std::stoull(val);
        have_seed = true;
      } else if (arg == "--seconds") {
        cfg.seconds = std::stod(val);
        have_seconds = cfg.seconds > 0;
      } else if (arg == "--trace") {
        if (val != "0" && val != "1") usage("--trace takes 0 or 1");
        cfg.trace = val == "1";
        have_trace = true;
      } else if (arg == "--size") {
        if (val != "full" && val != "tiny") usage("--size takes full or tiny");
        cfg.size = val == "full" ? Size::Full : Size::Tiny;
      } else {
        usage(("unknown argument " + arg).c_str());
      }
    } catch (const std::logic_error&) {
      usage(("bad value for " + arg).c_str());
    }
  }
  if (!have_workload || !have_seed || !have_seconds || !have_trace) {
    usage("--workload, --seed, --seconds (> 0) and --trace are required");
  }
  const unsigned hw = std::thread::hardware_concurrency();
  const int nproc = static_cast<int>(hw == 0 ? 1U : hw);
  cfg.kernel_threads = std::clamp(nproc - 1, 1, 3);
  cfg.workers = std::min(nproc, 4);

  Result (*run)(const RunConfig&) = nullptr;
  if (cfg.workload == "coarsen_rgg") run = run_coarsen_rgg;
  else if (cfg.workload == "amg_setup_powerlaw") run = run_amg_setup_powerlaw;
  else if (cfg.workload == "serve_mesh") run = run_serve_mesh;
  else if (cfg.workload == "serve_batched_powerlaw") run = run_serve_batched_powerlaw;
  else usage(("unknown workload " + cfg.workload).c_str());

  std::printf("%s\n", provenance_json(cfg).c_str());
  try {
    const Result res = run(cfg);
    print_result(cfg, res);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: workload %s aborted: %s\n", cfg.workload.c_str(), e.what());
    return 1;
  }
  return 0;
}
