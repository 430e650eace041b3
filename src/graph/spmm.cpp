#include "graph/spmm.hpp"

#include <cassert>

#include "check/check.hpp"
#include "graph/spmv.hpp"
#include "parallel/balanced_for.hpp"

namespace parmis::graph {

namespace {

/// Register-blocked column group: one row traversal feeds up to this many
/// accumulators. Wider batches traverse the rows once per group; column
/// results are independent of the grouping.
constexpr int kSpmmGroup = 16;

/// One chunk of rows × one column group. `KK` is the compile-time lane
/// count (the runtime remainder widths go through `kk`), and every array
/// is a hoisted raw pointer with `__restrict` on the lanes the loop reads
/// and writes — without it the span-based write-out makes the compiler
/// assume `y` may alias the matrix arrays and it reloads pointers and
/// spills the accumulators on every nonzero (measured ~3x slower). The
/// per-lane accumulation order is exactly the runtime loop's (serial over
/// the row's entries), so the specialization is a code-generation choice,
/// never a bits choice. AXPBY selects `y = alpha*acc + beta*y` over plain
/// assignment at compile time.
template <int KK, bool AXPBY>
void spmm_chunk(const offset_t* row_map, const ordinal_t* entries, const scalar_t* values,
                const scalar_t* __restrict x, scalar_t* __restrict y, scalar_t alpha,
                scalar_t beta, int k_count, int kk, ordinal_t lo, ordinal_t hi) {
  for (ordinal_t i = lo; i < hi; ++i) {
    scalar_t acc[kSpmmGroup] = {};
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
    scalar_t* yi = y + static_cast<std::size_t>(i) * static_cast<std::size_t>(k_count);
    const int kw = KK > 0 ? KK : kk;
    if constexpr (AXPBY) {
      for (int k = 0; k < kw; ++k) yi[k] = alpha * acc[k] + beta * yi[k];
    } else {
      for (int k = 0; k < kw; ++k) yi[k] = acc[k];
    }
  }
}

template <bool AXPBY>
void spmm_run(const CrsMatrix& a, std::span<const scalar_t> x, std::span<scalar_t> y,
              scalar_t alpha, scalar_t beta, int k_count) {
  const offset_t* row_map = a.row_map.data();
  const ordinal_t* entries = a.entries.data();
  const scalar_t* values = a.values.data();
  // Chunks are the same cost-balanced partition `balanced_for` would use,
  // so scheduling determinism is unchanged; dispatching per (chunk, column
  // group) keeps the width switch out of the row loop.
  par::balanced_chunks(a.num_rows, row_map, [&](int, ordinal_t lo, ordinal_t hi) {
    for (int k0 = 0; k0 < k_count; k0 += kSpmmGroup) {
      const int kk = k_count - k0 < kSpmmGroup ? k_count - k0 : kSpmmGroup;
      const scalar_t* xg = x.data() + static_cast<std::size_t>(k0);
      scalar_t* yg = y.data() + static_cast<std::size_t>(k0);
      switch (kk) {
        case 16:
          spmm_chunk<16, AXPBY>(row_map, entries, values, xg, yg, alpha, beta, k_count, kk, lo,
                                hi);
          break;
        case 8:
          spmm_chunk<8, AXPBY>(row_map, entries, values, xg, yg, alpha, beta, k_count, kk, lo,
                               hi);
          break;
        case 4:
          spmm_chunk<4, AXPBY>(row_map, entries, values, xg, yg, alpha, beta, k_count, kk, lo,
                               hi);
          break;
        case 2:
          spmm_chunk<2, AXPBY>(row_map, entries, values, xg, yg, alpha, beta, k_count, kk, lo,
                               hi);
          break;
        case 1:
          spmm_chunk<1, AXPBY>(row_map, entries, values, xg, yg, alpha, beta, k_count, kk, lo,
                               hi);
          break;
        default:
          spmm_chunk<0, AXPBY>(row_map, entries, values, xg, yg, alpha, beta, k_count, kk, lo,
                               hi);
          break;
      }
    }
  });
}

}  // namespace

void spmm(const CrsMatrix& a, std::span<const scalar_t> x, std::span<scalar_t> y, int k_count) {
  // One column is a plain vector: spmv's row loop is the faster code shape
  // for it (the lane-blocked chunk measured ~1.2x slower at K=1), with the
  // same per-row accumulation order, so the bits are the same.
  if (k_count == 1) {
    spmv(a, x, y);
    return;
  }
  assert(k_count > 0);
  assert(x.size() == static_cast<std::size_t>(a.num_cols) * static_cast<std::size_t>(k_count));
  assert(y.size() == static_cast<std::size_t>(a.num_rows) * static_cast<std::size_t>(k_count));
  PARMIS_CHECK(k_count > 0);
  PARMIS_CHECK(x.size() ==
               static_cast<std::size_t>(a.num_cols) * static_cast<std::size_t>(k_count));
  PARMIS_CHECK(y.size() ==
               static_cast<std::size_t>(a.num_rows) * static_cast<std::size_t>(k_count));
  spmm_run<false>(a, x, y, 1.0, 0.0, k_count);
}

void spmm(scalar_t alpha, const CrsMatrix& a, std::span<const scalar_t> x, scalar_t beta,
          std::span<scalar_t> y, int k_count) {
  assert(k_count > 0);
  assert(x.size() == static_cast<std::size_t>(a.num_cols) * static_cast<std::size_t>(k_count));
  assert(y.size() == static_cast<std::size_t>(a.num_rows) * static_cast<std::size_t>(k_count));
  PARMIS_CHECK(k_count > 0);
  PARMIS_CHECK(x.size() ==
               static_cast<std::size_t>(a.num_cols) * static_cast<std::size_t>(k_count));
  PARMIS_CHECK(y.size() ==
               static_cast<std::size_t>(a.num_rows) * static_cast<std::size_t>(k_count));
  spmm_run<true>(a, x, y, alpha, beta, k_count);
}

}  // namespace parmis::graph
