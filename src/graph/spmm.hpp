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
/// `par::lane_group` lanes with the width a compile-time constant
/// (`par::with_lane_width`). Both forms accumulate every lane serially in
/// entry order, so the form is a code-generation choice, never a bits
/// choice.
///
/// The K > 1 form is a wide kernel (`parallel/simd.hpp`): each caller
/// instantiates `spmm_wide_rows` with its hooks inside one non-template
/// `PARMIS_WIDE_KERNEL` function over a chunk of rows (the two `spmm`
/// overloads, `jacobi_sweep_rows`, `jacobi_first_sweeps_rows`) and hands
/// it to `spmm_rows` as `wide_rows`. The loader binds its AVX-512F, AVX2 or
/// baseline build; the lanes of a row are independent, so every build
/// writes the same bits. The K = 1 loop keeps the one baseline build: one
/// lane has nothing to spread over a wider vector. The wide builds want
/// `x` in a `par::lane_vector` (cache-line aligned): at K = 8 a row of `x`
/// is then one line, while at the 16-byte offset of a large `malloc` block
/// every row load of the AVX-512 build splits across two.
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
    scalar_t acc[par::lane_group] = {};
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

/// Rows [lo, hi) of a `k_count > 1` product: column groups of at most
/// `par::lane_group` lanes, each lane count a compile-time constant. The
/// body of every K-wide clone point (see the file comment).
template <typename Operand, typename Epilogue>
void spmm_wide_rows(const CrsMatrix& a, const scalar_t* x, scalar_t* y, int k_count,
                    ordinal_t lo, ordinal_t hi, Operand&& operand, Epilogue&& epilogue) {
  const std::size_t uk = static_cast<std::size_t>(k_count);
  for (int k0 = 0; k0 < k_count; k0 += par::lane_group) {
    par::with_lane_width(std::min(k_count - k0, par::lane_group), [&](auto kw) {
      detail::spmm_group_rows(a.row_map.data(), a.entries.data(), a.values.data(), x + k0, y, uk,
                              k0, lo, hi, kw, operand, epilogue);
    });
  }
}

/// For every row i of `a` and lane k < `k_count`, accumulate
/// `acc[k] += a(i, j) * operand(j, x[j * k_count + k])` over the row's
/// entries in order, then hand the row to `epilogue` (see the file
/// comment). At `k_count == 1` this runs the flat row loop; wider, it calls
/// `wide_rows(lo, hi)`, the caller's clone point running `spmm_wide_rows`
/// with the same hooks. Rows run over the cost-balanced chunks of
/// `par::balanced_chunks_by_work` on `a.row_map`, so a product with few
/// but long rows still goes parallel; every row is finished by one thread,
/// so the bits do not depend on the partition.
template <typename Operand, typename Epilogue, typename WideRows>
void spmm_rows(const CrsMatrix& a, const scalar_t* x, scalar_t* y, int k_count,
               Operand&& operand, Epilogue&& epilogue, WideRows&& wide_rows) {
  const offset_t* row_map = a.row_map.data();
  if (k_count == 1) {
    par::balanced_chunks_by_work(a.num_rows, row_map, [&](int, ordinal_t lo, ordinal_t hi) {
      detail::spmm_flat_rows(row_map, a.entries.data(), a.values.data(), x, y, lo, hi, operand,
                             epilogue);
    });
    return;
  }
  par::balanced_chunks_by_work(a.num_rows, row_map,
                               [&](int, ordinal_t lo, ordinal_t hi) { wide_rows(lo, hi); });
}

/// Y = A * X for K column vectors stored row-major. Parallel over rows,
/// deterministic for any backend, schedule, and thread count.
void spmm(const CrsMatrix& a, std::span<const scalar_t> x, std::span<scalar_t> y, int k_count);

/// Y = alpha * A * X + beta * Y, row-major multi-vectors.
void spmm(scalar_t alpha, const CrsMatrix& a, std::span<const scalar_t> x, scalar_t beta,
          std::span<scalar_t> y, int k_count);

}  // namespace parmis::graph
