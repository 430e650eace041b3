#include "solver/jacobi.hpp"

#include <cassert>
#include <cmath>

#include "graph/spgemm.hpp"
#include "parallel/balanced_for.hpp"
#include "parallel/parallel_for.hpp"
#include "resilience/fault.hpp"
#include "resilience/status.hpp"
#include "solver/multivector.hpp"

namespace parmis::solver {

namespace {

/// Lane-blocked column group width of the fused multi-vector sweep, the
/// same register-blocking `graph::spmm` uses.
constexpr int kJacobiGroup = 16;

/// One chunk of rows × one column group of a damped-Jacobi sweep: the row
/// traversal feeds KK register accumulators and the write-out applies
/// `x_next = x + omega * inv_diag[i] * (b - acc)` per lane — the exact
/// expression (and evaluation order) of the single-vector sweep, so column
/// c is bit-identical to `jacobi_smooth` on the gathered column. KK = 0
/// selects the runtime-width remainder loop.
template <int KK>
void jacobi_sweep_chunk(const offset_t* row_map, const ordinal_t* entries,
                        const scalar_t* values, const scalar_t* inv_diag,
                        const scalar_t* __restrict b, const scalar_t* __restrict x,
                        scalar_t* __restrict x_next, scalar_t omega, int k_count, int kk,
                        ordinal_t lo, ordinal_t hi) {
  for (ordinal_t i = lo; i < hi; ++i) {
    scalar_t acc[kJacobiGroup] = {};
    const offset_t jhi = row_map[i + 1];
    for (offset_t j = row_map[i]; j < jhi; ++j) {
      const scalar_t v = values[static_cast<std::size_t>(j)];
      const scalar_t* xi = x +
                           static_cast<std::size_t>(entries[static_cast<std::size_t>(j)]) *
                               static_cast<std::size_t>(k_count);
      if constexpr (KK > 0) {
        for (int k = 0; k < KK; ++k) acc[k] += v * xi[k];
      } else {
        for (int k = 0; k < kk; ++k) acc[k] += v * xi[k];
      }
    }
    const std::size_t base = static_cast<std::size_t>(i) * static_cast<std::size_t>(k_count);
    const int kw = KK > 0 ? KK : kk;
    for (int k = 0; k < kw; ++k) {
      x_next[base + static_cast<std::size_t>(k)] =
          x[base + static_cast<std::size_t>(k)] +
          omega * inv_diag[static_cast<std::size_t>(i)] *
              (b[base + static_cast<std::size_t>(k)] - acc[k]);
    }
  }
}

/// One chunk of rows × one column group of the FIRST damped-Jacobi sweep
/// from a zero initial guess, with the sweep's input recomputed on the fly:
/// starting from x = 0, the previous pass would have produced
/// `x1[t] = 0.0 + omega * inv_diag[t] * (b[t] - 0.0)`, so instead of
/// materializing x1 to memory and gathering it back, each gathered operand
/// evaluates that exact expression from `b` directly. Every subexpression
/// (including the `0.0 +` prefix) matches the two-pass code, so the output
/// bits are identical while two full multi-vector passes disappear.
template <int KK>
void jacobi_first_sweep_chunk(const offset_t* row_map, const ordinal_t* entries,
                              const scalar_t* values, const scalar_t* inv_diag,
                              const scalar_t* __restrict b, scalar_t* __restrict x_next,
                              scalar_t omega, int k_count, int kk, ordinal_t lo, ordinal_t hi) {
  for (ordinal_t i = lo; i < hi; ++i) {
    scalar_t acc[kJacobiGroup] = {};
    const offset_t jhi = row_map[i + 1];
    for (offset_t j = row_map[i]; j < jhi; ++j) {
      const scalar_t v = values[static_cast<std::size_t>(j)];
      const std::size_t col = static_cast<std::size_t>(entries[static_cast<std::size_t>(j)]);
      const scalar_t t = omega * inv_diag[col];
      const scalar_t* bi = b + col * static_cast<std::size_t>(k_count);
      if constexpr (KK > 0) {
        for (int k = 0; k < KK; ++k) acc[k] += v * (0.0 + t * (bi[k] - 0.0));
      } else {
        for (int k = 0; k < kk; ++k) acc[k] += v * (0.0 + t * (bi[k] - 0.0));
      }
    }
    const std::size_t base = static_cast<std::size_t>(i) * static_cast<std::size_t>(k_count);
    const scalar_t ti = omega * inv_diag[static_cast<std::size_t>(i)];
    const int kw = KK > 0 ? KK : kk;
    for (int k = 0; k < kw; ++k) {
      const scalar_t bk = b[base + static_cast<std::size_t>(k)];
      x_next[base + static_cast<std::size_t>(k)] = (0.0 + ti * (bk - 0.0)) + ti * (bk - acc[k]);
    }
  }
}

void jacobi_first_sweep_multi(const graph::CrsMatrix& a, std::span<const scalar_t> inv_diag,
                              std::span<const scalar_t> b, std::span<scalar_t> x_next,
                              scalar_t omega, int k_count) {
  const offset_t* row_map = a.row_map.data();
  const ordinal_t* entries = a.entries.data();
  const scalar_t* values = a.values.data();
  par::balanced_chunks(a.num_rows, row_map, [&](int, ordinal_t lo, ordinal_t hi) {
    for (int k0 = 0; k0 < k_count; k0 += kJacobiGroup) {
      const int kk = k_count - k0 < kJacobiGroup ? k_count - k0 : kJacobiGroup;
      const scalar_t* bg = b.data() + static_cast<std::size_t>(k0);
      scalar_t* ng = x_next.data() + static_cast<std::size_t>(k0);
      switch (kk) {
        case 16:
          jacobi_first_sweep_chunk<16>(row_map, entries, values, inv_diag.data(), bg, ng, omega,
                                       k_count, kk, lo, hi);
          break;
        case 8:
          jacobi_first_sweep_chunk<8>(row_map, entries, values, inv_diag.data(), bg, ng, omega,
                                      k_count, kk, lo, hi);
          break;
        case 4:
          jacobi_first_sweep_chunk<4>(row_map, entries, values, inv_diag.data(), bg, ng, omega,
                                      k_count, kk, lo, hi);
          break;
        case 2:
          jacobi_first_sweep_chunk<2>(row_map, entries, values, inv_diag.data(), bg, ng, omega,
                                      k_count, kk, lo, hi);
          break;
        case 1:
          jacobi_first_sweep_chunk<1>(row_map, entries, values, inv_diag.data(), bg, ng, omega,
                                      k_count, kk, lo, hi);
          break;
        default:
          jacobi_first_sweep_chunk<0>(row_map, entries, values, inv_diag.data(), bg, ng, omega,
                                      k_count, kk, lo, hi);
          break;
      }
    }
  });
}

void jacobi_sweep_multi(const graph::CrsMatrix& a, std::span<const scalar_t> inv_diag,
                        std::span<const scalar_t> b, std::span<const scalar_t> x,
                        std::span<scalar_t> x_next, scalar_t omega, int k_count) {
  if (k_count == 1) {
    // One column: the plain row loop is the faster code shape (the
    // lane-blocked chunk measured ~1.2x slower at K = 1), with the same
    // per-row accumulation order and update expression, so the same bits.
    par::parallel_for(a.num_rows, [&](ordinal_t i) {
      const std::size_t at = static_cast<std::size_t>(i);
      scalar_t acc = 0;
      for (offset_t j = a.row_map[i]; j < a.row_map[i + 1]; ++j) {
        acc += a.values[static_cast<std::size_t>(j)] *
               x[static_cast<std::size_t>(a.entries[static_cast<std::size_t>(j)])];
      }
      x_next[at] = x[at] + omega * inv_diag[at] * (b[at] - acc);
    });
    return;
  }
  const offset_t* row_map = a.row_map.data();
  const ordinal_t* entries = a.entries.data();
  const scalar_t* values = a.values.data();
  par::balanced_chunks(a.num_rows, row_map, [&](int, ordinal_t lo, ordinal_t hi) {
    for (int k0 = 0; k0 < k_count; k0 += kJacobiGroup) {
      const int kk = k_count - k0 < kJacobiGroup ? k_count - k0 : kJacobiGroup;
      const scalar_t* bg = b.data() + static_cast<std::size_t>(k0);
      const scalar_t* xg = x.data() + static_cast<std::size_t>(k0);
      scalar_t* ng = x_next.data() + static_cast<std::size_t>(k0);
      switch (kk) {
        case 16:
          jacobi_sweep_chunk<16>(row_map, entries, values, inv_diag.data(), bg, xg, ng, omega,
                                 k_count, kk, lo, hi);
          break;
        case 8:
          jacobi_sweep_chunk<8>(row_map, entries, values, inv_diag.data(), bg, xg, ng, omega,
                                k_count, kk, lo, hi);
          break;
        case 4:
          jacobi_sweep_chunk<4>(row_map, entries, values, inv_diag.data(), bg, xg, ng, omega,
                                k_count, kk, lo, hi);
          break;
        case 2:
          jacobi_sweep_chunk<2>(row_map, entries, values, inv_diag.data(), bg, xg, ng, omega,
                                k_count, kk, lo, hi);
          break;
        case 1:
          jacobi_sweep_chunk<1>(row_map, entries, values, inv_diag.data(), bg, xg, ng, omega,
                                k_count, kk, lo, hi);
          break;
        default:
          jacobi_sweep_chunk<0>(row_map, entries, values, inv_diag.data(), bg, xg, ng, omega,
                                k_count, kk, lo, hi);
          break;
      }
    }
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

void jacobi_smooth(const graph::CrsMatrix& a, std::span<const scalar_t> inv_diag,
                   std::span<const scalar_t> b, std::span<scalar_t> x, int sweeps,
                   scalar_t omega, std::span<scalar_t> x_next) {
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
  // (jacobi_first_sweep_multi). For one column the recompute costs more
  // than the 8-byte read it saves (measured 1.33x slower), so K = 1 keeps
  // this two-pass form.
  //
  // The start buffer is picked by parity so the LAST pass writes x.
  const bool fused = k_count > 1 && sweeps >= 2;
  const int rest = sweeps - (fused ? 2 : 1);
  std::span<scalar_t> cur = (rest % 2 == 0) ? out : ping;
  std::span<scalar_t> nxt = (rest % 2 == 0) ? ping : out;
  if (fused) {
    jacobi_first_sweep_multi(a, inv_diag, b, cur, omega, k_count);
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

void JacobiPreconditioner::apply(std::span<const scalar_t> r, std::span<scalar_t> z) const {
  apply_multi(r, z, a_.num_rows, 1, {});
}

void JacobiPreconditioner::apply_multi(std::span<const scalar_t> r, std::span<scalar_t> z,
                                       ordinal_t n, int k_count,
                                       std::span<scalar_t> /*scratch*/) const {
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
