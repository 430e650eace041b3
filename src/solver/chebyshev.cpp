#include "solver/chebyshev.hpp"

#include <cassert>
#include <cmath>
#include <limits>

#include "graph/spmm.hpp"
#include "graph/spmv.hpp"
#include "obs/trace.hpp"
#include "parallel/parallel_for.hpp"
#include "resilience/fault.hpp"
#include "resilience/guard.hpp"
#include "solver/interface.hpp"
#include "solver/jacobi.hpp"
#include "solver/multivector.hpp"
#include "solver/vector_ops.hpp"

namespace parmis::solver {

namespace {

/// Deterministic power iteration estimating λmax(D⁻¹A). A few extra
/// percent of headroom guard against underestimation (standard practice:
/// Chebyshev diverges if λmax is under-estimated, only degrades if over-).
/// `z`/`az` are caller-owned scratch (`a.num_rows` elements); the iteration
/// always restarts from the same seeded vector, so re-running it against
/// rebuilt values is bit-identical to a fresh construction.
scalar_t estimate_lambda_max(const graph::CrsMatrix& a, std::span<const scalar_t> inv_diag,
                             std::span<scalar_t> z, std::span<scalar_t> az) {
  const ordinal_t n = a.num_rows;
  random_fill(z, 0x9E3779B9u);
  scalar_t lambda = 1.0;
  for (int it = 0; it < 15; ++it) {
    graph::spmv(a, z, az);
    par::parallel_for(n, [&](ordinal_t i) {
      az[static_cast<std::size_t>(i)] *= inv_diag[static_cast<std::size_t>(i)];
    });
    lambda = norm2(az) / std::max(norm2(z), scalar_t{1e-300});
    std::swap(z, az);
    const scalar_t zn = norm2(z);
    if (zn == 0) break;
    scale(z, 1.0 / zn);
  }
  return 1.1 * lambda;
}

/// Solve prologue: reset `result` (keeping its history capacity),
/// pre-reserve the history when tracking is on, and handle the zero-rhs
/// early-out (x = 0, converged). Returns false when the solve is already
/// complete; on true, `bnorm` holds ||b|| > 0.
bool begin_solve(const IterOptions& opts, std::span<const scalar_t> b, std::span<scalar_t> x,
                 SolveWorkspace& ws, IterResult& result, scalar_t& bnorm) {
  result.iterations = 0;
  result.relative_residual = 0.0;
  result.converged = false;
  // Default assumption: the loop runs to its iteration budget. Every other
  // exit (convergence, breakdown, guard trip) overwrites this. `attempts`
  // is deliberately NOT touched — it is owned by SolveHandle, which runs
  // several solver calls per chain into the same result.
  result.status = resilience::SolveStatus::MaxIterations;
  result.failure.clear();
  result.history.clear();  // keeps capacity: warm tracked solves stay allocation-free
  if (opts.track_history) {
    ws.ensure_small(result.history, static_cast<std::size_t>(opts.max_iterations) + 1);
    result.history.clear();
  }
  bnorm = norm2(b);
  if (bnorm == 0) {
    fill(x, 0.0);
    result.converged = true;
    result.status = resilience::SolveStatus::Converged;
    return false;
  }
  return true;
}

}  // namespace

ChebyshevSmoother::ChebyshevSmoother(const graph::CrsMatrix& a, int degree, scalar_t eig_ratio)
    : inv_diag_(inverted_diagonal(a)), pw_z_(static_cast<std::size_t>(a.num_rows)),
      pw_az_(static_cast<std::size_t>(a.num_rows)), eig_ratio_cfg_(eig_ratio), degree_(degree) {
  assert(degree >= 1 && eig_ratio > 1.0);
  lambda_max_ = estimate_lambda_max(a, inv_diag_, pw_z_, pw_az_);
  lambda_min_ = lambda_max_ / eig_ratio;
}

void ChebyshevSmoother::reestimate(const graph::CrsMatrix& a) {
  assert(static_cast<std::size_t>(a.num_rows) == inv_diag_.size());
  inverted_diagonal_into(a, inv_diag_);
  lambda_max_ = estimate_lambda_max(a, inv_diag_, pw_z_, pw_az_);
  lambda_min_ = lambda_max_ / eig_ratio_cfg_;
}

void ChebyshevSmoother::smooth(const graph::CrsMatrix& a, std::span<const scalar_t> b,
                               std::span<scalar_t> x) const {
  const std::size_t n = static_cast<std::size_t>(a.num_rows);
  std::vector<scalar_t> r(n);   // preconditioned residual
  std::vector<scalar_t> d(n);   // search update
  std::vector<scalar_t> ad(n);  // A d scratch
  smooth_multi(a, b, x, r, d, ad, 1);
}

void ChebyshevSmoother::smooth(const graph::CrsMatrix& a, std::span<const scalar_t> b,
                               std::span<scalar_t> x, std::span<scalar_t> r,
                               std::span<scalar_t> d, std::span<scalar_t> ad) const {
  smooth_multi(a, b, x, r, d, ad, 1);
}

void ChebyshevSmoother::smooth_multi(const graph::CrsMatrix& a, std::span<const scalar_t> b,
                                     std::span<scalar_t> x, std::span<scalar_t> r,
                                     std::span<scalar_t> d, std::span<scalar_t> ad,
                                     int k_count) const {
  const ordinal_t n = a.num_rows;
  [[maybe_unused]] const std::size_t nk =
      static_cast<std::size_t>(n) * static_cast<std::size_t>(k_count);
  assert(k_count > 0);
  assert(b.size() >= nk && x.size() >= nk);
  assert(r.size() >= nk && d.size() >= nk && ad.size() >= nk);

  // Three-term Chebyshev recurrence on the split-preconditioned system
  // (Saad, "Iterative Methods for Sparse Linear Systems", Alg. 12.1), run
  // per lane: each column sees exactly the single-vector recurrence.
  const scalar_t theta = 0.5 * (lambda_max_ + lambda_min_);
  const scalar_t delta = 0.5 * (lambda_max_ - lambda_min_);
  const scalar_t sigma1 = theta / delta;

  // R = D^{-1} (B - A X); D = R / theta; X += D.
  graph::spmm(a, x, r, k_count);
  mv_for_each_lane(n, k_count, [&](ordinal_t i, std::size_t at) {
    const scalar_t pr = inv_diag_[static_cast<std::size_t>(i)] * (b[at] - r[at]);
    r[at] = pr;
    d[at] = pr / theta;
  });
  mv_axpby(1.0, d, 1.0, x, n, k_count);

  scalar_t rho_prev = 1.0 / sigma1;
  for (int k = 1; k < degree_; ++k) {
    // R -= D^{-1} A D
    graph::spmm(a, d, ad, k_count);
    mv_for_each_lane(n, k_count, [&](ordinal_t i, std::size_t at) {
      r[at] -= inv_diag_[static_cast<std::size_t>(i)] * ad[at];
    });
    const scalar_t rho = 1.0 / (2.0 * sigma1 - rho_prev);
    // D = (rho * rho_prev) D + (2 rho / delta) R
    mv_for_each_lane(n, k_count, [&](ordinal_t, std::size_t at) {
      d[at] = rho * rho_prev * d[at] + 2.0 * rho / delta * r[at];
    });
    mv_axpby(1.0, d, 1.0, x, n, k_count);
    rho_prev = rho;
  }
}

void chebyshev_solve(const graph::CrsMatrix& a, std::span<const scalar_t> b,
                     std::span<scalar_t> x, const IterOptions& opts, SolveWorkspace& ws,
                     IterResult& result) {
  assert(a.num_rows == a.num_cols);
  const std::size_t n = static_cast<std::size_t>(a.num_rows);
  assert(b.size() == n && x.size() == n);

  scalar_t bnorm = 0;
  if (!begin_solve(opts, b, x, ws, result, bnorm)) return;

  // Reuse the smoother while the matrix and polynomial are unchanged (its
  // setup runs a power iteration — a cost warm solves must not repay).
  const bool stale = !ws.chebyshev || ws.chebyshev_matrix != &a ||
                     ws.chebyshev_rows != a.num_rows ||
                     ws.chebyshev_entries != a.num_entries() ||
                     ws.chebyshev_degree != opts.chebyshev_degree ||
                     ws.chebyshev_eig_ratio != opts.chebyshev_eig_ratio;
  if (stale) {
    ws.chebyshev = std::make_unique<ChebyshevSmoother>(
        a, opts.chebyshev_degree, static_cast<scalar_t>(opts.chebyshev_eig_ratio));
    ws.chebyshev_matrix = &a;
    ws.chebyshev_rows = a.num_rows;
    ws.chebyshev_entries = a.num_entries();
    ws.chebyshev_degree = opts.chebyshev_degree;
    ws.chebyshev_eig_ratio = opts.chebyshev_eig_ratio;
    ++ws.grow_events;
  }

  std::span<scalar_t> r = ws.vec(0, n);
  std::span<scalar_t> d = ws.vec(1, n);
  std::span<scalar_t> ad = ws.vec(2, n);
  std::span<scalar_t> resid = ws.vec(3, n);

  graph::spmv(a, x, resid);
  axpby(1.0, b, -1.0, resid);  // resid = b - A x
  double relres = norm2(resid) / bnorm;
  if (opts.track_history) result.history.push_back(relres);
  resilience::IterGuard guard(opts.guard_config());
  resilience::SolveStatus stop = guard.check(relres, 0, result.failure);

  while (stop == resilience::SolveStatus::Converged &&
         result.iterations < opts.max_iterations && relres > opts.tolerance) {
    obs::Span iter_span("solver.iteration");
    iter_span.arg("iteration", result.iterations);
    ws.chebyshev->smooth(a, b, x, r, d, ad);
    // Injected NaN (check builds): surfaces in the recomputed residual
    // below, which the guard classifies as Breakdown.
    if (PARMIS_FAULT_POINT("chebyshev.poison"))
      x[0] = std::numeric_limits<scalar_t>::quiet_NaN();
    ++result.iterations;
    graph::spmv(a, x, resid);
    axpby(1.0, b, -1.0, resid);
    relres = norm2(resid) / bnorm;
    if (opts.track_history) result.history.push_back(relres);
    stop = guard.check(relres, result.iterations, result.failure);
  }

  if (stop != resilience::SolveStatus::Converged) result.status = stop;
  result.relative_residual = relres;
  result.converged = relres <= opts.tolerance;
  if (result.converged) {
    result.status = resilience::SolveStatus::Converged;
    result.failure.clear();
  }
}

}  // namespace parmis::solver
