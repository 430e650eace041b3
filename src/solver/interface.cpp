#include "solver/interface.hpp"

#include <new>
#include <stdexcept>

#include "resilience/fault.hpp"
#include "solver/cluster_gs.hpp"
#include "solver/gauss_seidel.hpp"
#include "solver/jacobi.hpp"

namespace parmis::solver {

// ------------------------------------------------------------- workspace

std::span<scalar_t> SolveWorkspace::vec(std::size_t slot, std::size_t n) {
  // Injected allocation failure (check builds): exercises the chain's
  // bad_alloc → SetupFailed rerouting without actually exhausting memory.
  if (PARMIS_FAULT_POINT("workspace.alloc")) throw std::bad_alloc();
  if (pool.size() <= slot) {
    pool.resize(slot + 1);
    ++grow_events;
  }
  par::lane_vector<scalar_t>& v = pool[slot];
  if (v.capacity() < n) {
    v.reserve(n);
    ++grow_events;
  }
  v.resize(n);
  return v;
}

void SolveWorkspace::ensure_small(std::vector<scalar_t>& v, std::size_t n) {
  if (v.capacity() < n) {
    v.reserve(n);
    ++grow_events;
  }
  v.resize(n);
}

void SolveWorkspace::ensure_small(std::vector<int>& v, std::size_t n) {
  if (v.capacity() < n) {
    v.reserve(n);
    ++grow_events;
  }
  v.resize(n);
}

std::size_t SolveWorkspace::capacity_bytes() const {
  std::size_t bytes = pool.capacity() * sizeof(par::lane_vector<scalar_t>);
  for (const par::lane_vector<scalar_t>& v : pool) bytes += v.capacity() * sizeof(scalar_t);
  bytes += (hess.capacity() + cs.capacity() + sn.capacity() + g.capacity() + y.capacity()) *
           sizeof(scalar_t);
  bytes += batch_scalars.capacity() * sizeof(scalar_t);
  bytes += batch_ints.capacity() * sizeof(int);
  bytes += batch_active.capacity() * sizeof(char);
  bytes += batch_guards.capacity() * sizeof(resilience::IterGuard);
  return bytes;
}

// ----------------------------------------------------------- batch result

void BatchResult::reset(int k_count) {
  k = k_count;
  if (results.size() < static_cast<std::size_t>(k_count)) {
    results.resize(static_cast<std::size_t>(k_count));
  }
  excluded.assign(static_cast<std::size_t>(k_count), 0);
}

int BatchResult::converged_count() const {
  int count = 0;
  for (int c = 0; c < k; ++c) count += results[static_cast<std::size_t>(c)].converged ? 1 : 0;
  return count;
}

bool BatchResult::all_converged() const { return converged_count() == k; }

// ---------------------------------------------------------------- solvers

const Registry<SolverSpec>& solvers() {
  static const Registry<SolverSpec> registry("solver", {
      {"cg",
       "preconditioned conjugate gradient (SPD; the Table V outer solver); "
       "solve_batch advances K RHS in lockstep over fused SpMM",
       true, block_cg_solve},
      {"gmres",
       "restarted right-preconditioned GMRES (general; the Table VI outer solver); "
       "solve_batch runs K RHS over fused SpMM with per-column restart phases",
       true, block_gmres_solve},
      // Polynomial relaxation carries its own diagonal scaling; an outer
      // preconditioner does not compose, so the handle skips building one.
      {"chebyshev",
       "Chebyshev polynomial relaxation (SPD; ignores the preconditioner — "
       "carries its own diagonal scaling)",
       false, chebyshev_solve},
      {"block-cg", "alias of \"cg\" (the same core for one RHS or K)", true, block_cg_solve},
      {"block-gmres", "alias of \"gmres\" (the same core for one RHS or K)", true,
       block_gmres_solve},
  });
  return registry;
}

// ------------------------------------------------------- preconditioners

const Registry<PreconditionerSpec>& preconditioners() {
  static const Registry<PreconditionerSpec> registry("preconditioner", {
      {"none", "identity (unpreconditioned)", false,
       [](const graph::CrsMatrix&, const PrecOptions&, const Context&) {
         return std::unique_ptr<Preconditioner>(std::make_unique<IdentityPreconditioner>());
       }},
      {"jacobi", "damped Jacobi sweeps (the Table V smoother)", false,
       [](const graph::CrsMatrix& a, const PrecOptions& opts, const Context& ctx) {
         Context::Scope scope(ctx);
         return std::unique_ptr<Preconditioner>(std::make_unique<JacobiPreconditioner>(
             a, opts.jacobi_sweeps, opts.jacobi_omega));
       }},
      {"gs", "point multicolor symmetric Gauss-Seidel (Deveci et al.)", false,
       [](const graph::CrsMatrix& a, const PrecOptions& opts, const Context& ctx) {
         return std::unique_ptr<Preconditioner>(
             std::make_unique<PointGsPreconditioner>(a, opts.sweeps, ctx));
       }},
      {"cluster-gs",
       "cluster multicolor symmetric Gauss-Seidel (paper Algorithm 4; composes "
       "with any registered coarsener)",
       true,
       [](const graph::CrsMatrix& a, const PrecOptions& opts, const Context& ctx) {
         return std::unique_ptr<Preconditioner>(std::make_unique<ClusterGsPreconditioner>(
             a, opts.sweeps, opts.coarsener, opts.mis2, ctx));
       }},
      {"amg",
       "smoothed-aggregation multigrid V-cycle (Table V; composes with any "
       "registered coarsener)",
       true,
       [](const graph::CrsMatrix& a, const PrecOptions& opts, const Context& ctx) {
         AmgOptions amg = opts.amg;
         if (!amg.hierarchy.ctx) amg.hierarchy.ctx = ctx;
         return std::unique_ptr<Preconditioner>(
             std::make_unique<AmgHierarchy>(AmgHierarchy::build(a, amg)));
       }},
  });
  return registry;
}

}  // namespace parmis::solver
