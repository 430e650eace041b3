#pragma once
/// \file options.hpp
/// \brief Shared configuration and outcome types for the iterative solver
/// stack (CG, GMRES, Chebyshev; see interface.hpp for the registry).
///
/// A result carries a full failure classification: `status` (the
/// `resilience::SolveStatus` taxonomy), a located `failure` diagnostic,
/// and — when `SolveHandle` ran a fallback chain — the per-attempt
/// record. The historical `converged` bool is kept in sync
/// (`converged == (status == Converged)`) as the compatibility view.

#include <optional>
#include <string>
#include <vector>

#include "common/config.hpp"
#include "parallel/context.hpp"
#include "resilience/guard.hpp"
#include "resilience/status.hpp"

namespace parmis::solver {

/// Shared Krylov/relaxation-solver configuration.
struct IterOptions {
  int max_iterations = 1000;
  double tolerance = 1e-8;     ///< on ||r|| / ||b||
  bool track_history = false;  ///< record the residual per iteration

  /// Execution context for the solve. Unset (the default) inherits the
  /// `SolveHandle`'s own context. Set it to pin the solve to a specific
  /// backend/thread count/schedule regardless of the caller's environment.
  std::optional<Context> ctx;

  // --- resilience knobs (read by every iterative solver) -----------------
  /// Wall-clock budget in milliseconds, checked at iteration granularity;
  /// the solve returns `Timeout` with the best iterate so far instead of
  /// running unbounded. Under a `SolveHandle` fallback chain the budget
  /// covers the *whole* chain (setup included). 0 = unbounded. Note this is
  /// the one knob that trades away bit-determinism of the outcome.
  double timeout_ms = 0;
  /// Residual growth past `divergence_factor × max(1, r0/||b||)` is
  /// classified `Diverged`. 0 disables the guard.
  double divergence_factor = 1e8;
  /// `Stagnated` when no iteration in the last `stagnation_window`
  /// improved the residual by at least `stagnation_rtol` (relative).
  /// 0 (default) disables the guard — iteration counts are bit-identical
  /// to the pre-resilience stack unless a guard actually fires.
  int stagnation_window = 0;
  double stagnation_rtol = 1e-3;

  // --- solver-specific knobs (read only by the named solver) -------------
  int gmres_restart = 50;          ///< restart length ("gmres")
  int chebyshev_degree = 2;        ///< polynomial degree per iteration ("chebyshev")
  double chebyshev_eig_ratio = 20.0;  ///< λmax/λmin of the damped interval ("chebyshev")

  /// The in-loop detector configured from the resilience knobs above.
  [[nodiscard]] resilience::IterGuard::Config guard_config() const {
    return resilience::IterGuard::Config{timeout_ms, divergence_factor, stagnation_window,
                                         stagnation_rtol};
  }
};

/// One fallback-chain attempt's outcome (recorded by `SolveHandle`; the
/// registry names here are short enough for SSO, so recording stays
/// allocation-free on warm solves).
struct AttemptInfo {
  std::string solver;
  std::string prec;
  resilience::SolveStatus status = resilience::SolveStatus::MaxIterations;
  int iterations = 0;
  double relative_residual = 0.0;
  double seconds = 0.0;
  resilience::FailureInfo failure;
};

/// Shared solver outcome.
struct IterResult {
  int iterations = 0;
  double relative_residual = 0.0;
  bool converged = false;  ///< compatibility view: status == Converged
  /// Taxonomy classification of the (final) attempt. Defaults to
  /// MaxIterations at loop entry; every early exit overwrites it.
  resilience::SolveStatus status = resilience::SolveStatus::MaxIterations;
  /// Located diagnostic, meaningful when `is_failure(status)`.
  resilience::FailureInfo failure;
  std::vector<double> history;  ///< per-iteration ||r||/||b|| iff track_history
  /// Per-attempt record of the fallback chain, oldest first. Owned by
  /// `SolveHandle` (solvers never touch it); exactly one entry for a
  /// chain-less solve, and empty when the finiteness check rejected the
  /// input before any attempt ran.
  std::vector<AttemptInfo> attempts;
};

/// Outcome of one batched multi-RHS solve: one `IterResult` per column, so
/// a diverging or poisoned right-hand side carries its own taxonomy status
/// without touching its batchmates. Storage is grow-only (capacities kept
/// across batches) so warm batched solves stay allocation-free.
struct BatchResult {
  int k = 0;                        ///< live column count of the last batch
  std::vector<IterResult> results;  ///< first `k` entries are live
  /// Per-column input-isolation flags (size `k`), set by the caller before
  /// the solver runs: an excluded column's result is already final (e.g.
  /// NonFiniteInput) and solvers must leave its lanes untouched.
  std::vector<char> excluded;

  /// Full per-batch reset: sizes to `k_count`, clears every exclusion.
  void reset(int k_count);
  [[nodiscard]] int converged_count() const;
  [[nodiscard]] bool all_converged() const;
};

}  // namespace parmis::solver
