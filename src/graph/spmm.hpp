#pragma once
/// \file spmm.hpp
/// \brief Sparse matrix × dense multi-vector product (SpMM), the batched
/// solving workhorse, and the one register-blocked row kernel behind it.
///
/// One matrix traversal feeds K right-hand sides: `x` and `y` are dense
/// row-major multi-vectors (element (i, k) at `i * k_count + k`), so each
/// CRS row read is amortized over K accumulators and the random accesses
/// into `x` touch K consecutive scalars per cache line. Column k of the
/// result is bit-identical to `spmv` on column k alone: each row still
/// accumulates serially in entry order, per column.
///
/// `spmm_rows` is that traversal, written once. Its callers are the two
/// `spmm` overloads and the damped-Jacobi sweeps (`solver/jacobi.cpp`); they
/// differ only in two hooks:
/// - the operand transform `operand(col, v)`, applied to every gathered
///   lane `v` of row `col` of `x` before the multiply: the identity for
///   `spmm` and the Jacobi sweep, and the first sweep from zero recomputed
///   from `b` for the fused first Jacobi sweeps;
/// - the per-row epilogue `epilogue(i, at, acc, out, kw)`, which gets the
///   `kw` accumulators of row `i` and writes that row's lanes `out[k]`
///   (flat index `at + k` in the caller's other multi-vectors): assign,
///   `alpha * acc + beta * out`, or the damped-Jacobi update.
///
/// At `k_count == 1` the kernel runs a flat row loop with one scalar
/// accumulator (spmv's loop): the lane-blocked form measured about 1.2x
/// slower for one column. Wider batches go in column groups of
/// `spmm_group` lanes with the width a compile-time constant
/// (`par::with_lane_width`). Both forms accumulate every lane serially in
/// entry order, so the form is a code-generation choice, never a bits
/// choice.
///
/// The epilogue must declare `out` as `scalar_t* __restrict out`. GCC keeps
/// `__restrict` only on function parameters, not on block-scope pointers;
/// without it the compiler assumes `out` may alias the epilogue's inputs,
/// versions the lane loop and does not vectorize the write-out (the fused
/// first Jacobi sweeps measured 1.2–1.4x slower at K = 3 and about 2x at
/// K = 8 and 16).

#include <algorithm>
#include <cstddef>
#include <span>
#include <type_traits>

#include "graph/crs.hpp"
#include "parallel/balanced_for.hpp"
#include "parallel/simd.hpp"

namespace parmis::graph {

/// Register-blocked column group of `spmm_rows`: one row traversal feeds up
/// to this many accumulators. Wider batches traverse the rows once per
/// group; column results are independent of the grouping.
inline constexpr int spmm_group = 16;

namespace detail {

/// Rows [lo, hi) of a one-column product: spmv's row loop.
template <typename Operand, typename Epilogue>
void spmm_flat_rows(const offset_t* row_map, const ordinal_t* entries, const scalar_t* values,
                    const scalar_t* __restrict x, scalar_t* __restrict y, ordinal_t lo,
                    ordinal_t hi, Operand& operand, Epilogue& epilogue) {
  for (ordinal_t i = lo; i < hi; ++i) {
    scalar_t acc = 0;
    for (offset_t j = row_map[i]; j < row_map[i + 1]; ++j) {
      const std::size_t col = static_cast<std::size_t>(entries[static_cast<std::size_t>(j)]);
      acc += values[static_cast<std::size_t>(j)] * operand(col, x[col]);
    }
    epilogue(i, static_cast<std::size_t>(i), &acc, y + i, std::integral_constant<int, 1>{});
  }
}

/// Rows [lo, hi) × one column group of `kw` lanes starting at lane `k0`.
template <typename Lanes, typename Operand, typename Epilogue>
void spmm_group_rows(const offset_t* row_map, const ordinal_t* entries, const scalar_t* values,
                     const scalar_t* __restrict x, scalar_t* __restrict y, std::size_t k_count,
                     int k0, ordinal_t lo, ordinal_t hi, Lanes kw, Operand& operand,
                     Epilogue& epilogue) {
  for (ordinal_t i = lo; i < hi; ++i) {
    scalar_t acc[spmm_group] = {};
    const offset_t jhi = row_map[i + 1];
    for (offset_t j = row_map[i]; j < jhi; ++j) {
      const scalar_t v = values[static_cast<std::size_t>(j)];
      const std::size_t col = static_cast<std::size_t>(entries[static_cast<std::size_t>(j)]);
      const scalar_t* xi = x + col * k_count;
      for (int k = 0; k < kw; ++k) acc[k] += v * operand(col, xi[k]);
    }
    const std::size_t at = static_cast<std::size_t>(i) * k_count + static_cast<std::size_t>(k0);
    epilogue(i, at, acc, y + at, kw);
  }
}

}  // namespace detail

/// The identity operand transform of `spmm_rows`.
inline constexpr auto spmm_same_operand = [](std::size_t, scalar_t v) { return v; };

/// For every row i of `a` and lane k < `k_count`, accumulate
/// `acc[k] += a(i, j) * operand(j, x[j * k_count + k])` over the row's
/// entries in order, then hand the row to `epilogue` (see the file
/// comment). Rows run over the cost-balanced `par::balanced_chunks` of
/// `a.row_map`; every row is finished by one thread, so the bits do not
/// depend on the partition.
template <typename Operand, typename Epilogue>
void spmm_rows(const CrsMatrix& a, const scalar_t* x, scalar_t* y, int k_count,
               Operand&& operand, Epilogue&& epilogue) {
  const offset_t* row_map = a.row_map.data();
  const ordinal_t* entries = a.entries.data();
  const scalar_t* values = a.values.data();
  const std::size_t uk = static_cast<std::size_t>(k_count);
  if (k_count == 1) {
    par::balanced_chunks(a.num_rows, row_map, [&](int, ordinal_t lo, ordinal_t hi) {
      detail::spmm_flat_rows(row_map, entries, values, x, y, lo, hi, operand, epilogue);
    });
    return;
  }
  par::balanced_chunks(a.num_rows, row_map, [&](int, ordinal_t lo, ordinal_t hi) {
    for (int k0 = 0; k0 < k_count; k0 += spmm_group) {
      par::with_lane_width(std::min(k_count - k0, spmm_group), [&](auto kw) {
        detail::spmm_group_rows(row_map, entries, values, x + k0, y, uk, k0, lo, hi, kw, operand,
                                epilogue);
      });
    }
  });
}

/// Y = A * X for K column vectors stored row-major. Parallel over rows,
/// deterministic for any backend, schedule, and thread count.
void spmm(const CrsMatrix& a, std::span<const scalar_t> x, std::span<scalar_t> y, int k_count);

/// Y = alpha * A * X + beta * Y, row-major multi-vectors.
void spmm(scalar_t alpha, const CrsMatrix& a, std::span<const scalar_t> x, scalar_t beta,
          std::span<scalar_t> y, int k_count);

}  // namespace parmis::graph
