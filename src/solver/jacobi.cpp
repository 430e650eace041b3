#include "solver/jacobi.hpp"

#include <cassert>
#include <cmath>

#include "graph/spgemm.hpp"
#include "graph/spmm.hpp"
#include "parallel/parallel_for.hpp"
#include "resilience/fault.hpp"
#include "resilience/status.hpp"
#include "solver/multivector.hpp"

namespace parmis::solver {

namespace {

/// Epilogue of one damped-Jacobi sweep `x_next = x + omega * inv_diag[i] *
/// (b - A x)`: per lane the single-vector expression and evaluation order.
auto sweep_epilogue(const scalar_t* d, const scalar_t* bp, const scalar_t* xp, scalar_t omega) {
  return [=](ordinal_t i, std::size_t at, const scalar_t* acc, scalar_t* __restrict out,
             auto kw) {
    const scalar_t di = d[static_cast<std::size_t>(i)];
    for (int k = 0; k < kw; ++k) {
      const std::size_t t = at + static_cast<std::size_t>(k);
      out[k] = xp[t] + omega * di * (bp[t] - acc[k]);
    }
  };
}

/// The first two damped-Jacobi sweeps from x = 0 in one traversal. The
/// first sweep would produce `x1[t] = 0.0 + omega * inv_diag[t] * (b[t] -
/// 0.0)`; instead of writing x1 and gathering it back, every gathered
/// operand evaluates that expression from `b`. Every subexpression,
/// including the `0.0 +` prefix, is the two-pass code's, so the bits are
/// identical while two full multi-vector passes disappear.
auto first_sweeps_operand(const scalar_t* d, scalar_t omega) {
  return [=](std::size_t col, scalar_t bv) { return 0.0 + omega * d[col] * (bv - 0.0); };
}

auto first_sweeps_epilogue(const scalar_t* d, const scalar_t* bp, scalar_t omega) {
  return [=](ordinal_t i, std::size_t at, const scalar_t* acc, scalar_t* __restrict out,
             auto kw) {
    const scalar_t ti = omega * d[static_cast<std::size_t>(i)];
    for (int k = 0; k < kw; ++k) {
      const scalar_t bk = bp[at + static_cast<std::size_t>(k)];
      out[k] = (0.0 + ti * (bk - 0.0)) + ti * (bk - acc[k]);
    }
  };
}

}  // namespace

// The K > 1 clone points of the two sweeps (see graph/spmm.hpp).
namespace detail {

PARMIS_WIDE_KERNEL
void jacobi_sweep_rows(const graph::CrsMatrix& a, const scalar_t* d, const scalar_t* bp,
                       const scalar_t* xp, scalar_t* x_next, scalar_t omega, int k_count,
                       ordinal_t lo, ordinal_t hi) {
  graph::spmm_wide_rows(a, xp, x_next, k_count, lo, hi, graph::spmm_same_operand,
                        sweep_epilogue(d, bp, xp, omega));
}

PARMIS_WIDE_KERNEL
void jacobi_first_sweeps_rows(const graph::CrsMatrix& a, const scalar_t* d, const scalar_t* bp,
                              scalar_t* x_next, scalar_t omega, int k_count, ordinal_t lo,
                              ordinal_t hi) {
  graph::spmm_wide_rows(a, bp, x_next, k_count, lo, hi, first_sweeps_operand(d, omega),
                        first_sweeps_epilogue(d, bp, omega));
}

}  // namespace detail

namespace {

/// One damped-Jacobi sweep: column c is bit-identical to `jacobi_smooth`
/// on the gathered column.
void jacobi_sweep_multi(const graph::CrsMatrix& a, std::span<const scalar_t> inv_diag,
                        std::span<const scalar_t> b, std::span<const scalar_t> x,
                        std::span<scalar_t> x_next, scalar_t omega, int k_count) {
  const scalar_t* d = inv_diag.data();
  const scalar_t* bp = b.data();
  const scalar_t* xp = x.data();
  scalar_t* yp = x_next.data();
  graph::spmm_rows(a, xp, yp, k_count, graph::spmm_same_operand,
                   sweep_epilogue(d, bp, xp, omega), [&](ordinal_t lo, ordinal_t hi) {
                     detail::jacobi_sweep_rows(a, d, bp, xp, yp, omega, k_count, lo, hi);
                   });
}

/// The first two sweeps from x = 0 (see `first_sweeps_operand`).
void jacobi_first_sweeps_multi(const graph::CrsMatrix& a, std::span<const scalar_t> inv_diag,
                               std::span<const scalar_t> b, std::span<scalar_t> x_next,
                               scalar_t omega, int k_count) {
  const scalar_t* d = inv_diag.data();
  const scalar_t* bp = b.data();
  scalar_t* yp = x_next.data();
  graph::spmm_rows(a, bp, yp, k_count, first_sweeps_operand(d, omega),
                   first_sweeps_epilogue(d, bp, omega), [&](ordinal_t lo, ordinal_t hi) {
                     detail::jacobi_first_sweeps_rows(a, d, bp, yp, omega, k_count, lo, hi);
                   });
}

}  // namespace

std::vector<scalar_t> inverted_diagonal(const graph::CrsMatrix& a) {
  std::vector<scalar_t> d(static_cast<std::size_t>(a.num_rows), 0);
  inverted_diagonal_into(a, d);
  return d;
}

void inverted_diagonal_into(const graph::CrsMatrix& a, std::span<scalar_t> d) {
  graph::extract_diagonal(a, d);
  for (std::size_t i = 0; i < d.size(); ++i) {
    scalar_t v = d[i];
    if (i == 0 && PARMIS_FAULT_POINT("jacobi.zero_diag")) v = 0;  // injected singular diagonal
    if (v == 0 || !std::isfinite(v)) {
      throw resilience::SolveError(
          resilience::SolveStatus::SingularOperator,
          resilience::FailureInfo{"setup", "setup.jacobi.zero_diagonal", -1,
                                  static_cast<std::int64_t>(i)},
          "jacobi: zero or non-finite diagonal entry at row " + std::to_string(i));
    }
    d[i] = 1.0 / v;
  }
}

void jacobi_smooth(const graph::CrsMatrix& a, std::span<const scalar_t> inv_diag,
                   std::span<const scalar_t> b, std::span<scalar_t> x, int sweeps,
                   scalar_t omega) {
  std::vector<scalar_t> x_next(static_cast<std::size_t>(a.num_rows));
  jacobi_smooth_multi(a, inv_diag, b, x, sweeps, omega, x_next, 1);
}

void jacobi_smooth_multi(const graph::CrsMatrix& a, std::span<const scalar_t> inv_diag,
                         std::span<const scalar_t> b, std::span<scalar_t> x, int sweeps,
                         scalar_t omega, std::span<scalar_t> x_next, int k_count,
                         bool x_is_zero) {
  const std::size_t uk = static_cast<std::size_t>(k_count);
  const std::size_t nk = static_cast<std::size_t>(a.num_rows) * uk;
  assert(k_count > 0);
  assert(b.size() >= nk && x.size() >= nk && x_next.size() >= nk);
  if (sweeps <= 0) return;
  // Buffers ping-pong: a per-sweep copy-back would be pure data movement,
  // and the sweep values are identical wherever they land.
  std::span<scalar_t> ping(x_next.data(), nk);
  std::span<scalar_t> out(x.data(), nk);
  if (!x_is_zero) {
    std::span<scalar_t> cur = out;
    std::span<scalar_t> nxt = ping;
    for (int s = 0; s < sweeps; ++s) {
      jacobi_sweep_multi(a, inv_diag, b, cur, nxt, omega, k_count);
      std::swap(cur, nxt);
    }
    if (sweeps % 2 != 0) {
      par::parallel_for(static_cast<std::int64_t>(nk), [&](std::int64_t t) {
        out[static_cast<std::size_t>(t)] = ping[static_cast<std::size_t>(t)];
      });
    }
    return;
  }
  // First sweep from x = 0: the traversal's accumulator is exactly +0.0
  // (every term is v * 0.0 and +0.0 + ±0.0 = +0.0), so evaluating the
  // sweep expression with acc = 0 elementwise produces the identical bits
  // without touching the matrix — one full traversal saved.
  //
  // With several columns the second sweep also skips re-reading that
  // output: it recomputes each gathered operand from b instead
  // (jacobi_first_sweeps_multi). For one column the recompute costs more
  // than the 8-byte read it saves (measured 1.33x slower), so K = 1 keeps
  // this two-pass form.
  //
  // The start buffer is picked by parity so the LAST pass writes x.
  const bool fused = k_count > 1 && sweeps >= 2;
  const int rest = sweeps - (fused ? 2 : 1);
  std::span<scalar_t> cur = (rest % 2 == 0) ? out : ping;
  std::span<scalar_t> nxt = (rest % 2 == 0) ? ping : out;
  if (fused) {
    jacobi_first_sweeps_multi(a, inv_diag, b, cur, omega, k_count);
  } else {
    mv_for_each_lane(a.num_rows, k_count, [&](ordinal_t i, std::size_t at) {
      cur[at] = 0.0 + omega * inv_diag[static_cast<std::size_t>(i)] * (b[at] - 0.0);
    });
  }
  for (int s = 0; s < rest; ++s) {
    jacobi_sweep_multi(a, inv_diag, b, cur, nxt, omega, k_count);
    std::swap(cur, nxt);
  }
}

void JacobiPreconditioner::apply_multi(std::span<const scalar_t> r, std::span<scalar_t> z,
                                       ordinal_t n, int k_count) const {
  const std::size_t nk = static_cast<std::size_t>(n) * static_cast<std::size_t>(k_count);
  if (x_next_.size() < nk) x_next_.resize(nk);
  if (sweeps_ <= 0) {
    par::parallel_for(static_cast<std::int64_t>(nk),
                      [&](std::int64_t t) { z[static_cast<std::size_t>(t)] = 0; });
    return;
  }
  jacobi_smooth_multi(a_, inv_diag_, r, z, sweeps_, omega_, x_next_, k_count,
                      /*x_is_zero=*/true);
}

}  // namespace parmis::solver
