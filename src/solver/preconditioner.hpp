#pragma once
/// \file preconditioner.hpp
/// \brief Abstract preconditioner interface shared by the outer solvers.
///
/// Concrete implementations are selected by name through the
/// string-keyed registry in solver/interface.hpp ("none", "jacobi", "gs",
/// "cluster-gs", "amg") and cached per matrix by `SolveHandle`. Every
/// implementation is K-wide: its one virtual, `apply_multi`, takes n x K
/// multi-vectors, and a single-vector `apply` is its K = 1 call.

#include <algorithm>
#include <span>
#include <string>

#include "common/config.hpp"

namespace parmis::solver {

/// Applies Z = M^{-1} R for some approximation M of the system matrix.
class Preconditioner {
 public:
  virtual ~Preconditioner() = default;
  [[nodiscard]] virtual std::string name() const = 0;

  /// Pre-size any internal multi-vector scratch for batches of width
  /// `k_count` on an n-row system, so a subsequent `apply_multi` at that
  /// width (or narrower) allocates nothing. Returns true when scratch
  /// grew — `SolveHandle` calls this before the batched solve's
  /// zero-allocation window and treats growth like workspace growth
  /// (exempt). The default covers implementations without internal
  /// multi-vector state.
  virtual bool prepare_multi(ordinal_t /*n*/, int /*k_count*/) { return false; }

  /// Z = M^{-1} R columnwise, for n x k_count row-major multi-vectors
  /// (element (i, c) at `i * k_count + c`). Every lane runs the
  /// single-vector expressions in the single-vector order, so column c of
  /// Z is bit-identical to `apply` on the gathered column and a
  /// NaN-poisoned column can never contaminate its batchmates.
  virtual void apply_multi(std::span<const scalar_t> r, std::span<scalar_t> z, ordinal_t n,
                           int k_count) const = 0;

  /// z = M^{-1} r for one vector: `apply_multi` at `k_count = 1`.
  void apply(std::span<const scalar_t> r, std::span<scalar_t> z) const {
    apply_multi(r, z, static_cast<ordinal_t>(r.size()), 1);
  }
};

/// No-op preconditioner (M = I).
class IdentityPreconditioner final : public Preconditioner {
 public:
  void apply_multi(std::span<const scalar_t> r, std::span<scalar_t> z, ordinal_t /*n*/,
                   int /*k_count*/) const override {
    std::copy(r.begin(), r.end(), z.begin());
  }
  [[nodiscard]] std::string name() const override { return "identity"; }
};

}  // namespace parmis::solver
