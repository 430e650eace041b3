#include "solver/dense_lu.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <string>
#include <type_traits>

#include "parallel/simd.hpp"
#include "resilience/fault.hpp"
#include "resilience/status.hpp"

namespace parmis::solver {

DenseLU::DenseLU(const graph::CrsMatrix& a, scalar_t diag_shift) : n_(0) {
  refactor(a, diag_shift);
}

void DenseLU::refactor(const graph::CrsMatrix& a, scalar_t diag_shift) {
  assert(a.num_rows == a.num_cols);
  n_ = a.num_rows;
  const std::size_t n = static_cast<std::size_t>(n_);
  // assign() reuses the existing buffer when the size is unchanged, so a
  // warm refactor of the same-shape coarse block allocates nothing.
  lu_.assign(n * n, 0);
  perm_.resize(n);
  for (ordinal_t i = 0; i < n_; ++i) {
    perm_[static_cast<std::size_t>(i)] = i;
    for (offset_t j = a.row_map[i]; j < a.row_map[i + 1]; ++j) {
      const ordinal_t col = a.entries[static_cast<std::size_t>(j)];
      scalar_t v = a.values[static_cast<std::size_t>(j)];
      if (col == i) v += diag_shift;
      lu_[static_cast<std::size_t>(i) * n + static_cast<std::size_t>(col)] = v;
    }
  }

  for (ordinal_t k = 0; k < n_; ++k) {
    // Partial pivot: largest |entry| in column k at or below the diagonal.
    ordinal_t piv = k;
    scalar_t best = std::abs(lu_[static_cast<std::size_t>(k) * n + static_cast<std::size_t>(k)]);
    for (ordinal_t i = k + 1; i < n_; ++i) {
      const scalar_t cand =
          std::abs(lu_[static_cast<std::size_t>(i) * n + static_cast<std::size_t>(k)]);
      if (cand > best) {
        best = cand;
        piv = i;
      }
    }
    if (k == 0 && PARMIS_FAULT_POINT("lu.zero_pivot")) best = 0;  // injected singular pivot
    if (best == 0 || !std::isfinite(best)) {
      throw resilience::SolveError(
          resilience::SolveStatus::SingularOperator,
          resilience::FailureInfo{"setup", "setup.lu.singular_pivot", -1,
                                  static_cast<std::int64_t>(k)},
          "DenseLU: singular matrix (no usable pivot in column " + std::to_string(k) + ")");
    }
    if (piv != k) {
      for (ordinal_t j = 0; j < n_; ++j) {
        std::swap(lu_[static_cast<std::size_t>(k) * n + static_cast<std::size_t>(j)],
                  lu_[static_cast<std::size_t>(piv) * n + static_cast<std::size_t>(j)]);
      }
      std::swap(perm_[static_cast<std::size_t>(k)], perm_[static_cast<std::size_t>(piv)]);
    }
    const scalar_t pivot = lu_[static_cast<std::size_t>(k) * n + static_cast<std::size_t>(k)];
    for (ordinal_t i = k + 1; i < n_; ++i) {
      scalar_t& lik = lu_[static_cast<std::size_t>(i) * n + static_cast<std::size_t>(k)];
      lik /= pivot;
      if (lik == 0) continue;
      for (ordinal_t j = k + 1; j < n_; ++j) {
        lu_[static_cast<std::size_t>(i) * n + static_cast<std::size_t>(j)] -=
            lik * lu_[static_cast<std::size_t>(k) * n + static_cast<std::size_t>(j)];
      }
    }
  }
}

// The coarse solve's lane kernel and its K > 1 clone point (see
// parallel/simd.hpp).
namespace detail {

/// Forward and back substitution of lanes [k0, k0 + kw) of `b` into `x`
/// (row-major n x uk, `lu` the combined n x n L\U factor, `perm` its row
/// permutation), all lanes advancing together row by row. Each lane does
/// the same operations in the same order whatever `kw`, so a column's bits
/// do not depend on the batch it rides in.
template <typename Lanes>
void lu_solve_group(const scalar_t* lu, const ordinal_t* perm, ordinal_t n_rows,
                    const scalar_t* __restrict b, scalar_t* __restrict x, std::size_t uk,
                    Lanes kw) {
  const std::size_t n = static_cast<std::size_t>(n_rows);
  for (std::size_t i = 0; i < n; ++i) {
    scalar_t acc[par::lane_group];
    const scalar_t* bi = b + static_cast<std::size_t>(perm[i]) * uk;
    for (int k = 0; k < kw; ++k) acc[k] = bi[k];
    for (std::size_t j = 0; j < i; ++j) {
      const scalar_t l = lu[i * n + j];
      const scalar_t* xj = x + j * uk;
      for (int k = 0; k < kw; ++k) acc[k] -= l * xj[k];
    }
    for (int k = 0; k < kw; ++k) x[i * uk + static_cast<std::size_t>(k)] = acc[k];
  }
  for (std::size_t i = n; i-- > 0;) {
    scalar_t acc[par::lane_group];
    for (int k = 0; k < kw; ++k) acc[k] = x[i * uk + static_cast<std::size_t>(k)];
    for (std::size_t j = i + 1; j < n; ++j) {
      const scalar_t u = lu[i * n + j];
      const scalar_t* xj = x + j * uk;
      for (int k = 0; k < kw; ++k) acc[k] -= u * xj[k];
    }
    const scalar_t diag = lu[i * n + i];
    for (int k = 0; k < kw; ++k) x[i * uk + static_cast<std::size_t>(k)] = acc[k] / diag;
  }
}

PARMIS_WIDE_KERNEL
void lu_solve_lanes(const scalar_t* lu, const ordinal_t* perm, ordinal_t n, const scalar_t* b,
                    scalar_t* x, int k_count) {
  const std::size_t uk = static_cast<std::size_t>(k_count);
  for (int k0 = 0; k0 < k_count; k0 += par::lane_group) {
    par::with_lane_width(std::min(k_count - k0, par::lane_group), [&](auto kw) {
      lu_solve_group(lu, perm, n, b + k0, x + k0, uk, kw);
    });
  }
}

}  // namespace detail

void DenseLU::solve(std::span<const scalar_t> b, std::span<scalar_t> x) const {
  solve_multi(b, x, 1);
}

void DenseLU::solve_multi(std::span<const scalar_t> b, std::span<scalar_t> x,
                          int k_count) const {
  assert(k_count > 0);
  assert(b.size() >= static_cast<std::size_t>(n_) * static_cast<std::size_t>(k_count) &&
         x.size() >= static_cast<std::size_t>(n_) * static_cast<std::size_t>(k_count));
  // One column stays on the baseline build: a single lane has nothing to
  // spread over a wider vector.
  if (k_count == 1) {
    detail::lu_solve_group(lu_.data(), perm_.data(), n_, b.data(), x.data(), 1,
                           std::integral_constant<int, 1>{});
  } else {
    detail::lu_solve_lanes(lu_.data(), perm_.data(), n_, b.data(), x.data(), k_count);
  }
}

}  // namespace parmis::solver
