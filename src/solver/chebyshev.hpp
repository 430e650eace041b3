#pragma once
/// \file chebyshev.hpp
/// \brief Chebyshev polynomial smoother (MueLu's production smoother; an
/// alternative to the damped Jacobi used in the paper's Table V runs).
///
/// Applies the degree-d Chebyshev polynomial of D⁻¹A targeting the
/// interval [λmax/eig_ratio, λmax], damping the high-frequency error modes
/// multigrid relies on the smoother to remove. λmax is estimated with a
/// deterministic power iteration on D⁻¹A.
///
/// Also usable as a stand-alone relaxation *solver* through the solver
/// registry ("chebyshev", see solver/interface.hpp): repeated polynomial
/// applications until the residual tolerance is met, for one right-hand
/// side or K.

#include <span>
#include <vector>

#include "graph/crs.hpp"

namespace parmis::solver {

class ChebyshevSmoother {
 public:
  /// Build for `a`; `degree` polynomial degree per application (>= 1),
  /// `eig_ratio` = λmax / λmin of the targeted interval (MueLu default 20).
  explicit ChebyshevSmoother(const graph::CrsMatrix& a, int degree = 2,
                             scalar_t eig_ratio = 20.0);

  /// One application: x <- x + p(D⁻¹A) D⁻¹ (b - A x). Allocates its three
  /// temporaries; hot paths call `smooth_multi` with caller-owned scratch.
  void smooth(const graph::CrsMatrix& a, std::span<const scalar_t> b,
              std::span<scalar_t> x) const;

  /// Application over n x k_count row-major multi-vectors: every matrix
  /// application is one `spmm` and the recurrence runs per lane, so column
  /// c is bit-identical to the same call on the gathered column. Scratch
  /// spans need `a.num_rows * k_count` elements each. A non-empty `active`
  /// mask (one byte per column) restricts the writes of `x` to the active
  /// columns: the "chebyshev" solver freezes its finished columns this
  /// way. The AMG V-cycle smooths every column and passes none.
  void smooth_multi(const graph::CrsMatrix& a, std::span<const scalar_t> b,
                    std::span<scalar_t> x, std::span<scalar_t> r, std::span<scalar_t> d,
                    std::span<scalar_t> ad, int k_count,
                    std::span<const char> active = {}) const;

  /// Warm-rebuild hook: refresh the inverted diagonal and re-run the power
  /// iteration against `a` (same shape, new values) without allocating.
  /// Produces exactly the state a freshly constructed smoother would —
  /// the power iteration restarts from the same seeded vector — so warm
  /// `AmgHierarchy::rebuild` is bit-identical to rebuilding from scratch.
  void reestimate(const graph::CrsMatrix& a);

  [[nodiscard]] scalar_t lambda_max() const { return lambda_max_; }
  [[nodiscard]] int degree() const { return degree_; }
  [[nodiscard]] scalar_t eig_ratio() const { return lambda_max_ / lambda_min_; }

 private:
  std::vector<scalar_t> inv_diag_;
  /// Power-iteration scratch, kept so `reestimate` is allocation-free.
  std::vector<scalar_t> pw_z_, pw_az_;
  scalar_t lambda_max_{0};
  scalar_t lambda_min_{0};
  scalar_t eig_ratio_cfg_{20.0};
  int degree_;
};

}  // namespace parmis::solver
