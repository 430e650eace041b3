#pragma once
/// \file common.hpp
/// \brief Shared plumbing of the repository benchmark: run configuration,
/// the result record every workload fills, sample statistics, the
/// benchmark-side trace analysis, and the independent correctness checks.
///
/// The benchmark drives the library only through its public entry points
/// (`core::CoarsenHandle`, `core::coarse_graph`, `solver::SolveHandle`,
/// `multilevel::Builder`, `serve::Service`). Every layer boundary it
/// crosses is wrapped in an `obs::Span` whose name starts with "bench.";
/// the traced run derives per-layer self times from those spans alone, so
/// the library's own spans never enter the metric contract.
#include <chrono>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "core/aggregation.hpp"
#include "graph/crs.hpp"
#include "obs/trace.hpp"
#include "parallel/context.hpp"

namespace perfbench {

using parmis::ordinal_t;
using parmis::scalar_t;

/// Input sizes: `Full` is the measured configuration, `Tiny` the smoke-test
/// configuration the benchmark's own tests run.
enum class Size { Full, Tiny };

struct RunConfig {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  Size size = Size::Full;
  /// OpenMP team size of the kernel workloads: one core short of the
  /// machine (at most 3), so a team thread is not preempted by the harness
  /// or the OS at every barrier of the many short parallel regions of an op.
  int kernel_threads = 3;
  int workers = 4;  ///< serving worker threads (<= nproc)
};

/// Whether to run another cold setup, given the times (s) of those run so
/// far: at least 5, and more (up to 15) until they add up to a second, so a
/// cheap setup's median `setup_s` rests on enough samples.
[[nodiscard]] inline bool more_setups(const std::vector<double>& setup_s) {
  double sum = 0.0;
  for (double s : setup_s) sum += s;
  return setup_s.size() < 5 || (sum < 1.0 && setup_s.size() < 15);
}

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What one workload run reports. `failed` counts ops whose status was not
/// converged, that threw, or whose output failed a correctness check.
struct Result {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  bool checks_ok = true;  ///< run-level checks (determinism, digests)
  std::vector<Metric> metrics;
  /// Informational key/values printed before the result line (digests,
  /// sample counts, resolved configuration).
  std::vector<std::pair<std::string, std::string>> notes;

  void set(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
  void note(const std::string& key, const std::string& value) { notes.emplace_back(key, value); }
  void record(bool ok) {
    ++attempted;
    if (!ok) ++failed;
  }
};

// ------------------------------------------------------------- timing

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}
[[nodiscard]] inline double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

/// Nearest-rank percentile (q in [0, 100]) of `v` by `obs::percentile`; 0
/// for an empty sample.
[[nodiscard]] double percentile(std::vector<double> v, double q);
/// Fewest samples a reported percentile may have beyond it.
constexpr std::size_t kMinBeyond = 10;
/// Report percentile `q` of `v` as metric `name` (unit ms) and note the
/// sample count behind it; warn on stderr when fewer than `kMinBeyond`
/// samples lie beyond it (a run too short for that percentile).
void set_percentile(Result& res, const std::string& name, std::vector<double> v, double q);
[[nodiscard]] double median(std::vector<double> v);
[[nodiscard]] double mean(const std::vector<double>& v);

/// Closed-loop throughput robust to bursts of host noise. `concurrency`
/// callers stay busy and each op completes `work_per_op` units, so the rate
/// is concurrency * work_per_op / (mean op time). `ops` holds (completion
/// time, op ms); the mean is taken over `blocks` consecutive slices in
/// completion order and the median slice mean is used.
[[nodiscard]] double closed_loop_rate(std::vector<std::pair<double, double>> ops,
                                      int concurrency, double work_per_op, int blocks = 5);

/// Peak resident set size of this process, in MiB.
[[nodiscard]] double peak_rss_mb();

/// Deterministic 64-bit mix of (seed, stream, index): the one source of
/// every seeded choice the benchmark makes (graph seeds, rhs seeds,
/// customize scalings).
[[nodiscard]] std::uint64_t mix(std::uint64_t seed, std::uint64_t stream, std::uint64_t index = 0);
/// Uniform double in [0, 1) from `mix`.
[[nodiscard]] double unit_uniform(std::uint64_t seed, std::uint64_t stream, std::uint64_t index);

/// Kernel context of a workload: OpenMP with the resolved thread count.
[[nodiscard]] parmis::Context kernel_context(const RunConfig& cfg);

// ------------------------------------------------------- correctness

/// True residual ||b - A x|| / ||b|| computed with a plain serial loop
/// (independent of `graph::spmv` and the solver's recurrences).
[[nodiscard]] double true_relative_residual(const parmis::graph::CrsMatrix& a,
                                            std::span<const scalar_t> b,
                                            std::span<const scalar_t> x);

/// Order-sensitive digest of an aggregation (labels + aggregate count).
[[nodiscard]] std::uint64_t aggregation_digest(const parmis::core::Aggregation& agg);

/// The coarsening correctness check: a structurally valid aggregation of
/// `g` (`core::verify_aggregation`, run when `full`) whose digest equals
/// the reference digest of a `Context::serial()` run.
[[nodiscard]] bool aggregation_ok(parmis::graph::GraphView g, const parmis::core::Aggregation& agg,
                                  std::uint64_t reference_digest, bool full);

// ------------------------------------------------------------ tracing

/// Self time of one benchmark span: its duration minus the part of it
/// covered by its direct child benchmark spans on the same thread.
struct SpanSelf {
  std::string name;  ///< span name without the "bench." prefix
  double dur_ms = 0.0;
  double self_ms = 0.0;
  bool root = false;  ///< no enclosing benchmark span
};

/// Collect every recorded "bench." span and compute self times. Library
/// spans recorded alongside are ignored.
[[nodiscard]] std::vector<SpanSelf> benchmark_spans();

/// Per-layer view over `benchmark_spans()`.
struct LayerTimes {
  std::vector<SpanSelf> spans;
  /// Self-time samples (ms) of every span named `name`.
  [[nodiscard]] std::vector<double> self_ms(const std::string& name) const;
  /// Share of the summed root-span (op) wall time that no child layer
  /// span covers: the untimed remainder of the per-layer split.
  [[nodiscard]] double untimed_frac() const;
};

/// Scoped process-wide tracing switch used by the traced run.
class TraceScope {
 public:
  explicit TraceScope(bool on) : saved_(parmis::obs::trace_state()) {
    parmis::obs::set_tracing(on, 0);
  }
  ~TraceScope() { parmis::obs::restore_tracing(saved_); }
  TraceScope(const TraceScope&) = delete;
  TraceScope& operator=(const TraceScope&) = delete;

 private:
  parmis::obs::TraceState saved_;
};

/// Benchmark-side span: "bench." + layer name, tagged with an op id.
#define PERFBENCH_SPAN(var, name, id) \
  ::parmis::obs::Span var("bench." name); \
  var.arg("op", static_cast<std::int64_t>(id))

// ---------------------------------------------------------- workloads

Result run_coarsen_rgg(const RunConfig& cfg);
Result run_amg_setup_powerlaw(const RunConfig& cfg);
Result run_serve_mesh(const RunConfig& cfg);
Result run_serve_batched_powerlaw(const RunConfig& cfg);

/// The benchmark's own checks (input digests per seed, corrupted outputs
/// rejected). Returns the number of failed checks; prints one line each.
int run_selftest();

/// Workload inputs, shared by the workloads and the self test.
[[nodiscard]] parmis::graph::CrsGraph coarsen_input(Size size, std::uint64_t seed);
[[nodiscard]] parmis::graph::CrsMatrix powerlaw_operator(Size size, std::uint64_t seed);
[[nodiscard]] parmis::graph::CrsMatrix mesh_operator(Size size);

}  // namespace perfbench
