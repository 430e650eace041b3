#include "solver/dense_lu.hpp"

#include <cassert>
#include <cmath>
#include <string>

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

void DenseLU::solve(std::span<const scalar_t> b, std::span<scalar_t> x) const {
  solve_multi(b, x, 1);
}

void DenseLU::solve_multi(std::span<const scalar_t> b, std::span<scalar_t> x,
                          int k_count) const {
  const std::size_t n = static_cast<std::size_t>(n_);
  const std::size_t uk = static_cast<std::size_t>(k_count);
  assert(k_count > 0);
  assert(b.size() >= n * uk && x.size() >= n * uk);

  for (std::size_t c = 0; c < uk; ++c) {
    // Forward substitution on the permuted right-hand side (L has unit
    // diagonal), then back substitution.
    for (ordinal_t i = 0; i < n_; ++i) {
      scalar_t acc =
          b[static_cast<std::size_t>(perm_[static_cast<std::size_t>(i)]) * uk + c];
      for (ordinal_t j = 0; j < i; ++j) {
        acc -= lu_[static_cast<std::size_t>(i) * n + static_cast<std::size_t>(j)] *
               x[static_cast<std::size_t>(j) * uk + c];
      }
      x[static_cast<std::size_t>(i) * uk + c] = acc;
    }
    for (ordinal_t i = n_ - 1; i >= 0; --i) {
      scalar_t acc = x[static_cast<std::size_t>(i) * uk + c];
      for (ordinal_t j = i + 1; j < n_; ++j) {
        acc -= lu_[static_cast<std::size_t>(i) * n + static_cast<std::size_t>(j)] *
               x[static_cast<std::size_t>(j) * uk + c];
      }
      x[static_cast<std::size_t>(i) * uk + c] =
          acc / lu_[static_cast<std::size_t>(i) * n + static_cast<std::size_t>(i)];
    }
  }
}

}  // namespace parmis::solver
