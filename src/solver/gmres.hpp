#pragma once
/// \file gmres.hpp
/// \brief Restarted, right-preconditioned GMRES (the Table VI outer solver).
///
/// Depends only on the shared option types (solver/options.hpp) — the
/// historical include of cg.hpp is gone. The registry entry ("gmres") and
/// the workspace-based core (`block_gmres_solve`, one RHS or K) live behind
/// solver/interface.hpp; the free function below remains as a
/// transient-workspace shim for migration.

#include <span>

#include "graph/crs.hpp"
#include "solver/options.hpp"
#include "solver/preconditioner.hpp"

namespace parmis::solver {

/// Solve `a x = b` with GMRES(restart), right-preconditioned with `prec`
/// (null = unpreconditioned), starting from the given `x`. Right
/// preconditioning keeps the monitored residual equal to the true residual.
/// `restart` overrides `opts.gmres_restart` when positive. Deterministic
/// for any thread count.
IterResult gmres(const graph::CrsMatrix& a, std::span<const scalar_t> b,
                 std::span<scalar_t> x, const IterOptions& opts = {},
                 const Preconditioner* prec = nullptr, int restart = 0);

}  // namespace parmis::solver
