#pragma once
/// \file cg.hpp
/// \brief Preconditioned conjugate gradient (the Table V outer solver).
///
/// `IterOptions`/`IterResult` moved to solver/options.hpp; the registry
/// entry ("cg") and the workspace-based core (`block_cg_solve`, one RHS or
/// K) live behind solver/interface.hpp. The free function below remains
/// as a transient-workspace shim for migration.

#include <span>

#include "graph/crs.hpp"
#include "solver/options.hpp"
#include "solver/preconditioner.hpp"

namespace parmis::solver {

/// Solve SPD `a x = b` with (preconditioned) CG, starting from the given
/// `x`. `prec` may be null (unpreconditioned). Deterministic for any
/// thread count (all reductions are fixed-order). Runs the K = 1 core on a
/// transient workspace; construct a `SolveHandle` (solver/handle.hpp)
/// where calls repeat.
IterResult cg(const graph::CrsMatrix& a, std::span<const scalar_t> b, std::span<scalar_t> x,
              const IterOptions& opts = {}, const Preconditioner* prec = nullptr);

}  // namespace parmis::solver
