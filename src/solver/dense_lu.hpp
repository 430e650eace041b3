#pragma once
/// \file dense_lu.hpp
/// \brief Dense LU with partial pivoting, the AMG coarse-level direct solve.

#include <span>
#include <vector>

#include "graph/crs.hpp"

namespace parmis::solver {

/// Factorization of a (small) square matrix. Intended for AMG coarsest
/// levels (a few hundred rows); O(n^3) factor, O(n^2) solve.
class DenseLU {
 public:
  /// Factor a sparse matrix densely. `diag_shift` is added to every stored
  /// diagonal entry before factoring (the AMG near-singular perturbation —
  /// applied at fill time, so no shifted matrix copy is ever made). Throws
  /// std::runtime_error when a zero pivot makes the matrix numerically
  /// singular.
  explicit DenseLU(const graph::CrsMatrix& a, scalar_t diag_shift = 0);

  /// Re-factor in place for new matrix values (warm `rebuild_galerkin`):
  /// reuses the dense storage whenever the size matches, so warm rebuilds
  /// never re-allocate the coarsest block. A failed refactor (singular
  /// pivot) throws and leaves the factorization unusable until the next
  /// successful refactor.
  void refactor(const graph::CrsMatrix& a, scalar_t diag_shift = 0);

  /// Solve A x = b: `solve_multi` at `k_count = 1`.
  void solve(std::span<const scalar_t> b, std::span<scalar_t> x) const;

  /// Solve over n x k_count row-major multi-vectors (`b` and `x` must not
  /// overlap). Column c runs the forward/back substitution on its own lane,
  /// so it is bit-identical to the same call on the gathered column. Lane
  /// order: at k_count > 1 all lanes advance together, row by row, in
  /// groups of at most `par::lane_group` lanes with the width fixed at
  /// compile time, and each lane does the one-column solve's operations in
  /// its order (accumulator seeded from the permuted `b` row, then
  /// `acc -= L(i, j) * x(j)` for ascending j; back substitution likewise
  /// with ascending j > i, then one division by the pivot). That form is a
  /// wide kernel (`parallel/simd.hpp`): it runs the widest build the CPU
  /// has. k_count == 1 runs the same lane kernel at one lane on the
  /// baseline build.
  /// Needs no scratch.
  void solve_multi(std::span<const scalar_t> b, std::span<scalar_t> x, int k_count) const;

  [[nodiscard]] ordinal_t size() const { return n_; }

 private:
  ordinal_t n_;
  std::vector<scalar_t> lu_;     // row-major, combined L\U
  std::vector<ordinal_t> perm_;  // row permutation from pivoting
};

}  // namespace parmis::solver
