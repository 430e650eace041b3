#pragma once
/// \file multivector.hpp
/// \brief Dense multi-vector kernels for batched (multi-RHS) solving.
///
/// A multi-vector is K column vectors stored row-major: element (i, c) of
/// an n x K multi-vector `v` lives at `v[i * K + c]`. The layout keeps the
/// K values of one row on the same cache line, which is what lets `spmm`
/// amortize its random accesses — and it makes every kernel here trivially
/// columnwise-independent: column c of any result depends only on column c
/// of the inputs.
///
/// Bit-identity contract (the batched analogue of vector_ops.hpp): column c
/// of every kernel produces exactly the bits the corresponding
/// single-vector kernel would produce on the gathered column. For the
/// elementwise ops that is immediate; for `mv_dot`/`mv_norms` it holds
/// because the reduction mirrors `par::parallel_reduce` exactly — the same
/// fixed `reduce_chunk` row chunks, serial in-order accumulation per chunk
/// per column, and a serial per-column combine in ascending chunk order.
///
/// Masked variants take a per-column `active` byte mask and leave inactive
/// columns' lanes untouched — the deflation mechanism of the block Krylov
/// solvers. Freezing is an explicit branch, never a zero coefficient:
/// `x + 0 * p` can flip the sign of a negative zero and `0 * NaN` is NaN,
/// either of which would let a frozen (possibly poisoned) column perturb
/// its own final bits.

#include <span>

#include "common/config.hpp"
#include "parallel/parallel_for.hpp"

namespace parmis::solver {

/// Run `f(i, at)` for every lane `at = i * k_count + c` of an n x k_count
/// multi-vector, parallel over rows (each lane visited by exactly one
/// call). One column takes a flat loop: a per-row lane loop costs more
/// than an elementwise body at K = 1.
template <typename F>
void mv_for_each_lane(ordinal_t n, int k_count, F&& f) {
  if (k_count == 1) {
    par::parallel_for(n, [&](ordinal_t i) { f(i, static_cast<std::size_t>(i)); });
    return;
  }
  const std::size_t uk = static_cast<std::size_t>(k_count);
  par::parallel_for(n, [&](ordinal_t i) {
    const std::size_t base = static_cast<std::size_t>(i) * uk;
    for (std::size_t c = 0; c < uk; ++c) f(i, base + c);
  });
}

/// out[c] = dot(a[:,c], b[:,c]) for all K columns in one fused pass.
/// Bit-identical per column to `dot` on the gathered columns.
void mv_dot(std::span<const scalar_t> a, std::span<const scalar_t> b, ordinal_t n, int k_count,
            std::span<scalar_t> out);

/// out[c] = ||a[:,c]||_2, fused; bit-identical per column to `norm2`.
void mv_norms(std::span<const scalar_t> a, ordinal_t n, int k_count, std::span<scalar_t> out);

/// y[:,c] = alpha * x[:,c] + beta * y[:,c] for every column (scalar
/// coefficients). Mirrors `axpby` per lane.
void mv_axpby(scalar_t alpha, std::span<const scalar_t> x, scalar_t beta, std::span<scalar_t> y,
              ordinal_t n, int k_count);

/// Masked `mv_axpby`: only columns with `active[c] != 0` are updated.
void mv_axpby_masked(scalar_t alpha, std::span<const scalar_t> x, scalar_t beta,
                     std::span<scalar_t> y, ordinal_t n, int k_count,
                     std::span<const char> active);

/// y[:,c] = alpha[c] * x[:,c] + y[:,c] for active columns (per-column
/// coefficient; the block-CG x/r update shape).
void mv_axpy_cols(std::span<const scalar_t> alpha, std::span<const scalar_t> x,
                  std::span<scalar_t> y, ordinal_t n, int k_count,
                  std::span<const char> active);

/// y[:,c] = x[:,c] + beta[c] * y[:,c] for active columns (the block-CG
/// direction update p = z + beta p).
void mv_xpay_cols(std::span<const scalar_t> x, std::span<const scalar_t> beta,
                  std::span<scalar_t> y, ordinal_t n, int k_count,
                  std::span<const char> active);

/// y[:,c] *= s[c] for active columns.
void mv_scale_cols(std::span<scalar_t> y, std::span<const scalar_t> s, ordinal_t n, int k_count,
                   std::span<const char> active);

/// y = x (all lanes).
void mv_copy(std::span<const scalar_t> x, std::span<scalar_t> y);

/// y[:,c] = x[:,c] for active columns.
void mv_copy_cols(std::span<const scalar_t> x, std::span<scalar_t> y, ordinal_t n, int k_count,
                  std::span<const char> active);

/// y[:,c] = value for active columns.
void mv_fill_cols(std::span<scalar_t> y, scalar_t value, ordinal_t n, int k_count,
                  std::span<const char> active);

/// y[:,col] = value for one column.
void mv_fill_col(std::span<scalar_t> y, scalar_t value, ordinal_t n, int k_count, int col);

/// out = src[:,col] (contiguous copy of one column).
void gather_column(std::span<const scalar_t> src, ordinal_t n, int k_count, int col,
                   std::span<scalar_t> out);

/// dst[:,col] = in.
void scatter_column(std::span<const scalar_t> in, ordinal_t n, int k_count, int col,
                    std::span<scalar_t> dst);

}  // namespace parmis::solver
