#pragma once
/// \file core_prologue.hpp
/// \brief Per-column solve prologue shared by the solver cores
/// (block_krylov.cpp, chebyshev.cpp). Internal: not part of the solver API.

#include <cstddef>
#include <span>

#include "solver/interface.hpp"
#include "solver/multivector.hpp"

namespace parmis::solver::detail {

/// Result reset (keeping its history capacity), history pre-reserve and
/// zero-rhs early-out for column c. Returns false when the column is
/// already done (excluded or zero rhs); on true the column is live with
/// bnorm_c > 0. An empty `excluded` excludes none. `attempts` is
/// deliberately not touched — `SolveHandle` owns it.
inline bool begin_column(const IterOptions& opts, std::span<scalar_t> x, ordinal_t n,
                         int k_count, int c, scalar_t bnorm_c, std::span<const char> excluded,
                         SolveWorkspace& ws, IterResult& r) {
  if (!excluded.empty() && excluded[static_cast<std::size_t>(c)]) return false;
  r.iterations = 0;
  r.relative_residual = 0.0;
  r.converged = false;
  // Default assumption: the loop runs to its iteration budget. Every other
  // exit (convergence, breakdown, guard trip) overwrites this.
  r.status = resilience::SolveStatus::MaxIterations;
  r.failure.clear();
  r.history.clear();
  if (opts.track_history) {
    ws.ensure_small(r.history, static_cast<std::size_t>(opts.max_iterations) + 1);
    r.history.clear();
  }
  if (bnorm_c == 0) {
    mv_fill_col(x, 0.0, n, k_count, c);
    r.converged = true;
    r.status = resilience::SolveStatus::Converged;
    return false;
  }
  return true;
}

/// One fresh iteration guard per column.
inline void refill_guards(SolveWorkspace& ws, const IterOptions& opts, int k_count) {
  ws.batch_guards.clear();  // keeps capacity; IterGuard holds no heap state
  for (int c = 0; c < k_count; ++c) ws.batch_guards.emplace_back(opts.guard_config());
}

}  // namespace parmis::solver::detail
