#pragma once
/// \file jacobi.hpp
/// \brief Damped Jacobi smoothing (the Table V multigrid smoother) and its
/// preconditioner adapter (the "jacobi" registry entry).

#include <span>
#include <vector>

#include "graph/crs.hpp"
#include "parallel/simd.hpp"
#include "solver/preconditioner.hpp"

namespace parmis::solver {

/// Reciprocal diagonal of a; throws std::runtime_error on a zero diagonal.
[[nodiscard]] std::vector<scalar_t> inverted_diagonal(const graph::CrsMatrix& a);

/// `inverted_diagonal` into a caller-owned buffer of size `num_rows` — the
/// zero-allocation variant warm rebuilds use (Chebyshev eigenvalue
/// re-estimation refreshes its diagonal in place through this). Same
/// values, same singularity classification.
void inverted_diagonal_into(const graph::CrsMatrix& a, std::span<scalar_t> d);

/// `sweeps` iterations of damped Jacobi: x <- x + omega D^{-1} (b - A x).
/// Fully parallel and deterministic. Allocates its double-buffer; hot
/// paths call `jacobi_smooth_multi` with caller-owned scratch.
void jacobi_smooth(const graph::CrsMatrix& a, std::span<const scalar_t> inv_diag,
                   std::span<const scalar_t> b, std::span<scalar_t> x, int sweeps,
                   scalar_t omega);

/// Damped Jacobi over n x k_count row-major multi-vectors: one matrix
/// traversal per sweep (`graph::spmm_rows`) feeds all K columns, and each
/// column runs the single-vector sweep (per-row accumulation in entry
/// order, identical update expression), so column c is bit-identical to
/// the same call on the gathered column. `x_next` is the caller-owned double buffer
/// (`a.num_rows * k_count` elements); the sweeps ping-pong between it and
/// `x`, with one copy back at the end for an odd sweep count.
///
/// `x_is_zero` starts the sweeps from x = 0 without reading `x`: the first
/// sweep needs no matrix traversal, for K > 1 the second is fused with it,
/// and the last sweep lands in `x` with no copy. The values are those of
/// the same sweeps run on a zero-filled `x`, bit for bit. The Jacobi
/// preconditioner and the AMG V-cycle (pre-smoothing after a zero fill)
/// both smooth through this.
void jacobi_smooth_multi(const graph::CrsMatrix& a, std::span<const scalar_t> inv_diag,
                         std::span<const scalar_t> b, std::span<scalar_t> x, int sweeps,
                         scalar_t omega, std::span<scalar_t> x_next, int k_count,
                         bool x_is_zero = false);

/// Preconditioner adapter: z = M^{-1} r approximated by `sweeps` damped
/// Jacobi sweeps on A z = r from z = 0. All state (inverted diagonal,
/// sweep double-buffer) is allocated at construction, so apply() performs
/// zero heap allocations.
class JacobiPreconditioner final : public Preconditioner {
 public:
  explicit JacobiPreconditioner(const graph::CrsMatrix& a, int sweeps = 2,
                                scalar_t omega = 2.0 / 3.0)
      : a_(a), inv_diag_(inverted_diagonal(a)), sweeps_(sweeps), omega_(omega),
        x_next_(static_cast<std::size_t>(a.num_rows)) {}

  /// Grows the sweep double buffer to `n * k_count` so batched applies up
  /// to that width allocate nothing.
  bool prepare_multi(ordinal_t n, int k_count) override {
    const std::size_t nk = static_cast<std::size_t>(n) * static_cast<std::size_t>(k_count);
    if (x_next_.size() >= nk) return false;
    x_next_.resize(nk);
    return true;
  }
  /// K columns per sweep traversal. The double buffer grows to
  /// `n * k_count` on the first batched apply (callers that skip
  /// `prepare_multi`) and is reused warm thereafter; it is sized for
  /// K = 1 at construction.
  void apply_multi(std::span<const scalar_t> r, std::span<scalar_t> z, ordinal_t n,
                   int k_count) const override;
  [[nodiscard]] std::string name() const override { return "jacobi"; }
  [[nodiscard]] std::span<const scalar_t> inv_diag() const { return inv_diag_; }

 private:
  const graph::CrsMatrix& a_;
  std::vector<scalar_t> inv_diag_;
  int sweeps_;
  scalar_t omega_;
  mutable par::lane_vector<scalar_t> x_next_;  // sweep ping-pong, rows gathered
};

}  // namespace parmis::solver
