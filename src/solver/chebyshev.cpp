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
#include "solver/core_prologue.hpp"
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

void ChebyshevSmoother::smooth_multi(const graph::CrsMatrix& a, std::span<const scalar_t> b,
                                     std::span<scalar_t> x, std::span<scalar_t> r,
                                     std::span<scalar_t> d, std::span<scalar_t> ad,
                                     int k_count, std::span<const char> active) const {
  const ordinal_t n = a.num_rows;
  [[maybe_unused]] const std::size_t nk =
      static_cast<std::size_t>(n) * static_cast<std::size_t>(k_count);
  assert(k_count > 0);
  assert(b.size() >= nk && x.size() >= nk);
  assert(r.size() >= nk && d.size() >= nk && ad.size() >= nk);

  // Three-term Chebyshev recurrence on the split-preconditioned system
  // (Saad, "Iterative Methods for Sparse Linear Systems", Alg. 12.1), run
  // per lane: each column sees exactly the single-vector recurrence. Only
  // the updates of X honor `active`; R, D and AD are scratch.
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
  const auto update_x = [&] {
    if (active.empty()) {
      mv_axpby(1.0, d, 1.0, x, n, k_count);
    } else {
      mv_axpby_masked(1.0, d, 1.0, x, n, k_count, active);
    }
  };
  update_x();

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
    update_x();
    rho_prev = rho;
  }
}

void chebyshev_solve(const graph::CrsMatrix& a, std::span<const scalar_t> b,
                     std::span<scalar_t> x, int k_count, const IterOptions& opts,
                     const Preconditioner* /*prec*/, SolveWorkspace& ws,
                     std::span<IterResult> results, std::span<const char> excluded) {
  using resilience::SolveStatus;
  assert(a.num_rows == a.num_cols);
  assert(k_count >= 1);
  const ordinal_t n = a.num_rows;
  const std::size_t uk = static_cast<std::size_t>(k_count);
  const std::size_t nk = static_cast<std::size_t>(n) * uk;
  assert(b.size() == nk && x.size() == nk);
  assert(results.size() >= uk);

  // Per-column small state: [bnorm | relres | norms], each a K-wide lane.
  ws.ensure_small(ws.batch_scalars, 3 * uk);
  scalar_t* bnorm = ws.batch_scalars.data();
  scalar_t* relres = bnorm + uk;
  scalar_t* norms = relres + uk;
  ws.ensure_small(ws.batch_ints, uk);
  int* stopc = ws.batch_ints.data();
  ws.batch_active.assign(uk, 0);
  std::span<char> active(ws.batch_active.data(), uk);
  detail::refill_guards(ws, opts, k_count);

  mv_norms(b, n, k_count, std::span<scalar_t>(bnorm, uk));
  int num_active = 0;
  for (int c = 0; c < k_count; ++c) {
    const std::size_t sc = static_cast<std::size_t>(c);
    if (!detail::begin_column(opts, x, n, k_count, c, bnorm[sc], excluded, ws, results[sc])) {
      continue;
    }
    active[sc] = 1;
    ++num_active;
  }
  if (num_active == 0) return;

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

  std::span<scalar_t> r = ws.vec(0, nk);
  std::span<scalar_t> d = ws.vec(1, nk);
  std::span<scalar_t> ad = ws.vec(2, nk);
  std::span<scalar_t> resid = ws.vec(3, nk);

  // relres[c] = ||B - A X||[c] / bnorm[c], appended to the history and
  // guarded, for every active column after `iterations` sweeps.
  auto measure = [&](int iterations) {
    graph::spmm(a, x, resid, k_count);
    mv_axpby(1.0, b, -1.0, resid, n, k_count);
    mv_norms(resid, n, k_count, std::span<scalar_t>(norms, uk));
    for (std::size_t sc = 0; sc < uk; ++sc) {
      if (!active[sc]) continue;
      IterResult& res = results[sc];
      relres[sc] = norms[sc] / bnorm[sc];
      if (opts.track_history) res.history.push_back(relres[sc]);
      stopc[sc] = static_cast<int>(ws.batch_guards[sc].check(relres[sc], iterations, res.failure));
    }
  };
  // Per-column epilogue; run once per column, at freeze.
  auto finalize = [&](std::size_t sc) {
    IterResult& res = results[sc];
    if (static_cast<SolveStatus>(stopc[sc]) != SolveStatus::Converged) {
      res.status = static_cast<SolveStatus>(stopc[sc]);
    }
    res.relative_residual = relres[sc];
    res.converged = relres[sc] <= opts.tolerance;
    if (res.converged) {
      res.status = SolveStatus::Converged;
      res.failure.clear();
    }
    active[sc] = 0;
    --num_active;
  };

  measure(0);
  // `it` is every active column's own iteration count: lockstep columns
  // all start from 0 together and frozen columns never come back.
  for (int it = 0; num_active > 0 && it < opts.max_iterations; ++it) {
    for (std::size_t sc = 0; sc < uk; ++sc) {
      if (!active[sc]) continue;
      if (static_cast<SolveStatus>(stopc[sc]) != SolveStatus::Converged ||
          relres[sc] <= opts.tolerance) {
        finalize(sc);
      }
    }
    if (num_active == 0) break;
    obs::Span iter_span("solver.iteration");
    iter_span.arg("iteration", it);
    ws.chebyshev->smooth_multi(a, b, x, r, d, ad, k_count, active);
    // Injected NaN (check builds), column 0 only: surfaces in the
    // recomputed residual below, which the guard classifies as Breakdown.
    if (PARMIS_FAULT_POINT("chebyshev.poison") && active[0]) {
      x[0] = std::numeric_limits<scalar_t>::quiet_NaN();
    }
    for (std::size_t sc = 0; sc < uk; ++sc) results[sc].iterations += active[sc] ? 1 : 0;
    measure(it + 1);
  }
  for (std::size_t sc = 0; sc < uk; ++sc) {
    if (active[sc]) finalize(sc);
  }
}

}  // namespace parmis::solver
