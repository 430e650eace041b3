/// \file amg_setup.cpp
/// \brief Workload `amg_setup_powerlaw`: cold time to solution. Each op is
/// a fresh CG+AMG `SolveHandle` that builds its hierarchy and solves one
/// right-hand side to rtol 1e-8 at the kernel thread count. Closed loop.
/// On the hub-skewed power-law Laplacian the Galerkin triple product is
/// nearly all of the op (a dense coarse level), aggregation a few percent
/// and the solve a few percent: this is the setup-dominated workload.
#include <algorithm>
#include <cstdio>

#include "check/digest.hpp"
#include "common.hpp"
#include "graph/generators.hpp"
#include "graph/spgemm.hpp"
#include "solver/amg.hpp"
#include "solver/handle.hpp"
#include "solver/vector_ops.hpp"

namespace perfbench {
namespace {

using parmis::graph::CrsMatrix;

constexpr double kTolerance = 1e-8;
/// Percentile of `op_ms_tail`: a 25 s traced run holds about 50 untraced
/// ops, which leaves at least 10 beyond p75 (p90 would need 100).
constexpr double kTailPercentile = 75;

struct OpOutput {
  bool ok = false;
  int iterations = 0;
  double setup_ms = 0.0;
  std::int64_t spgemm_rows = 0;
  parmis::multilevel::HierarchyStats hs;
};

OpOutput solve_op(const CrsMatrix& a, const parmis::Context& ctx, std::span<const scalar_t> b,
                  std::vector<scalar_t>& x, std::int64_t id) {
  PERFBENCH_SPAN(op, "op", id);
  OpOutput out;
  parmis::solver::SolveHandle h("cg", "amg", ctx);
  {
    PERFBENCH_SPAN(s, "solver.prec_setup", id);
    const std::int64_t rows0 = parmis::graph::spgemm_rows_traversed();
    const Clock::time_point t0 = Clock::now();
    h.setup(a);
    out.setup_ms = ms_between(t0, Clock::now());
    out.spgemm_rows = parmis::graph::spgemm_rows_traversed() - rows0;
  }
  parmis::solver::IterOptions io;
  io.tolerance = kTolerance;
  io.max_iterations = 500;
  std::fill(x.begin(), x.end(), 0.0);
  const parmis::solver::IterResult* r = nullptr;
  {
    PERFBENCH_SPAN(s, "solver.solve", id);
    r = &h.solve(a, b, x, io);
  }
  out.ok = r->converged;
  out.iterations = r->iterations;
  if (const auto* amg = dynamic_cast<const parmis::solver::AmgHierarchy*>(h.preconditioner())) {
    out.hs = amg->hierarchy_stats();
  } else {
    out.ok = false;
  }
  return out;
}

}  // namespace

CrsMatrix powerlaw_operator(Size size, std::uint64_t seed) {
  const ordinal_t n = size == Size::Full ? 10000 : 2000;
  const parmis::graph::CrsGraph g = parmis::graph::power_law_graph(
      n, 2.2, 4, std::max<ordinal_t>(64, n / 60), mix(seed, 2));
  return parmis::graph::laplacian_matrix(g, 1.0);  // graph Laplacian + I: SPD
}

Result run_amg_setup_powerlaw(const RunConfig& cfg) {
  Result res;
  const CrsMatrix a = powerlaw_operator(cfg.size, cfg.seed);
  const std::size_t n = static_cast<std::size_t>(a.num_rows);
  res.note("input_digest", parmis::check::digest_hex(parmis::check::digest(a)));
  res.note("input", "powerlaw laplacian n=" + std::to_string(a.num_rows) +
                        " nnz=" + std::to_string(a.num_entries()));
  const parmis::Context ctx = kernel_context(cfg);
  std::vector<scalar_t> x(n);

  // One op = a fresh handle on a fresh right-hand side; true residuals are
  // recomputed by the benchmark for every op.
  auto run_one = [&](std::int64_t id, std::uint64_t rhs_index) {
    const std::vector<scalar_t> b =
        parmis::solver::random_vector(a.num_rows, mix(cfg.seed, 3, rhs_index));
    const Clock::time_point t0 = Clock::now();
    OpOutput o = solve_op(a, ctx, b, x, id);
    const double ms = ms_between(t0, Clock::now());
    res.record(o.ok && true_relative_residual(a, b, x) <= kTolerance);
    return std::pair<OpOutput, double>(std::move(o), ms);
  };

  // setup_s: the median cold AMG setup; these ops also warm the OpenMP
  // team and the per-thread SpGEMM accumulators before timing.
  std::vector<double> setup;
  std::uint64_t rhs = 0;
  while (more_setups(setup)) setup.push_back(run_one(-1, rhs++).first.setup_ms * 1e-3);

  std::vector<double> untraced_ms, traced_ms, agg_ms, galerkin_ms, iterations, rows;
  std::vector<std::pair<double, double>> done;  ///< (completion s, ms) of untraced ops
  OpOutput last;
  const Clock::time_point start = Clock::now();
  for (std::int64_t i = 0; seconds_since(start) < cfg.seconds; ++i) {
    // Every third op of the traced run is traced (see coarsen_rgg).
    const bool traced = cfg.trace && i % 3 == 2;
    const TraceScope trace(traced);
    auto [o, ms] = run_one(i, rhs++);
    (traced ? traced_ms : untraced_ms).push_back(ms);
    if (!traced) done.emplace_back(seconds_since(start), ms);
    agg_ms.push_back(o.hs.aggregation_seconds * 1e3);
    galerkin_ms.push_back((o.hs.build_seconds - o.hs.aggregation_seconds) * 1e3);
    iterations.push_back(o.iterations);
    rows.push_back(static_cast<double>(o.spgemm_rows));
    last = std::move(o);
  }

  if (!cfg.trace) {
    res.set("setup_s", median(setup), "s");
    res.set("op_ms_p50", percentile(untraced_ms, 50), "ms");
    res.set("ops_per_s", closed_loop_rate(done, 1, 1.0), "1/s");
    res.set("peak_rss_mb", peak_rss_mb(), "MiB");
    res.note("samples", std::to_string(untraced_ms.size()));
    return res;
  }

  const LayerTimes layers{benchmark_spans()};
  parmis::obs::clear_events();
  const double p50 = percentile(untraced_ms, 50);
  const auto& hs = last.hs;
  set_percentile(res, "op_ms_tail", untraced_ms, kTailPercentile);
  set_percentile(res, "multilevel.aggregation.ms_p50", agg_ms, 50);
  set_percentile(res, "multilevel.galerkin.ms_p50", galerkin_ms, 50);
  set_percentile(res, "solver.prec_setup.ms_p50", layers.self_ms("solver.prec_setup"), 50);
  res.set("graph.spgemm_rows_traversed", mean(rows), "count");
  set_percentile(res, "solver.solve.ms_p50", layers.self_ms("solver.solve"), 50);
  res.set("solver.iterations", mean(iterations), "count");
  res.set("multilevel.levels", hs.levels, "count");
  res.set("multilevel.operator_complexity", hs.operator_complexity, "ratio");
  res.set("multilevel.coarse_nnz",
          hs.level_entries.empty() ? 0.0 : static_cast<double>(hs.level_entries.back()), "count");
  res.set("bench.trace_overhead_frac", p50 > 0 ? percentile(traced_ms, 50) / p50 - 1.0 : 0.0,
          "ratio");
  res.set("bench.untimed_frac", layers.untimed_frac(), "ratio");
  res.note("traced_samples", std::to_string(traced_ms.size()));
  return res;
}

}  // namespace perfbench
