#pragma once
/// \file preconditioner.hpp
/// \brief Abstract preconditioner interface shared by the outer solvers.
///
/// Concrete implementations are selected by name through the
/// string-keyed registry in solver/interface.hpp ("none", "jacobi", "gs",
/// "cluster-gs", "amg") and cached per matrix by `SolveHandle`.

#include <algorithm>
#include <span>
#include <string>

#include "common/config.hpp"

namespace parmis::solver {

/// Applies z = M^{-1} r for some approximation M of the system matrix.
class Preconditioner {
 public:
  virtual ~Preconditioner() = default;
  virtual void apply(std::span<const scalar_t> r, std::span<scalar_t> z) const = 0;
  [[nodiscard]] virtual std::string name() const = 0;

  /// Pre-size any internal multi-vector scratch for batches of width
  /// `k_count` on an n-row system, so a subsequent `apply_multi` at that
  /// width (or narrower) allocates nothing. Returns true when scratch
  /// grew — `SolveHandle` calls this before the batched solve's
  /// zero-allocation window and treats growth like workspace growth
  /// (exempt). The default covers implementations without internal
  /// multi-vector state.
  virtual bool prepare_multi(ordinal_t /*n*/, int /*k_count*/) { return false; }

  /// Batched apply: Z = M^{-1} R columnwise, for n x k_count row-major
  /// multi-vectors (element (i, c) at `i * k_count + c`). Column c of Z is
  /// bit-identical to `apply` on the gathered column — every registered
  /// preconditioner is columnwise-independent, so a NaN-poisoned column
  /// can never contaminate its batchmates. The default calls `apply`
  /// directly at `k_count = 1` (a one-column multi-vector is the vector)
  /// and otherwise gathers each column through `scratch` (size >= 2 n);
  /// implementations with fused multi-vector kernels override it and
  /// ignore `scratch`.
  virtual void apply_multi(std::span<const scalar_t> r, std::span<scalar_t> z, ordinal_t n,
                           int k_count, std::span<scalar_t> scratch) const {
    if (k_count == 1) {
      apply(r, z);
      return;
    }
    const std::size_t un = static_cast<std::size_t>(n);
    const std::size_t k = static_cast<std::size_t>(k_count);
    std::span<scalar_t> rc = scratch.subspan(0, un);
    std::span<scalar_t> zc = scratch.subspan(un, un);
    for (std::size_t c = 0; c < k; ++c) {
      for (std::size_t i = 0; i < un; ++i) rc[i] = r[i * k + c];
      apply(rc, zc);
      for (std::size_t i = 0; i < un; ++i) z[i * k + c] = zc[i];
    }
  }
};

/// No-op preconditioner (M = I).
class IdentityPreconditioner final : public Preconditioner {
 public:
  void apply(std::span<const scalar_t> r, std::span<scalar_t> z) const override {
    std::copy(r.begin(), r.end(), z.begin());
  }
  void apply_multi(std::span<const scalar_t> r, std::span<scalar_t> z, ordinal_t /*n*/,
                   int /*k_count*/, std::span<scalar_t> /*scratch*/) const override {
    std::copy(r.begin(), r.end(), z.begin());
  }
  [[nodiscard]] std::string name() const override { return "identity"; }
};

}  // namespace parmis::solver
