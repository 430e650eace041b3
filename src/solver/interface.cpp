#include "solver/interface.hpp"

#include <new>
#include <stdexcept>
#include <utility>

#include "resilience/fault.hpp"
#include "solver/cluster_gs.hpp"
#include "solver/gauss_seidel.hpp"
#include "solver/jacobi.hpp"
#include "solver/multivector.hpp"

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
  bytes += (bcol.capacity() + xcol.capacity() + batch_scalars.capacity()) * sizeof(scalar_t);
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

void BatchResult::ensure(int k_count) {
  k = k_count;
  if (results.size() < static_cast<std::size_t>(k_count)) {
    results.resize(static_cast<std::size_t>(k_count));
  }
  if (excluded.size() != static_cast<std::size_t>(k_count)) {
    excluded.assign(static_cast<std::size_t>(k_count), 0);
  }
}

int BatchResult::converged_count() const {
  int count = 0;
  for (int c = 0; c < k; ++c) count += results[static_cast<std::size_t>(c)].converged ? 1 : 0;
  return count;
}

bool BatchResult::all_converged() const { return converged_count() == k; }

// ---------------------------------------------------------------- solvers

void Solver::solve_batch(const graph::CrsMatrix& a, std::span<const scalar_t> b,
                         std::span<scalar_t> x, int k_count, const IterOptions& opts,
                         const Preconditioner* prec, SolveWorkspace& ws,
                         BatchResult& result) const {
  result.ensure(k_count);
  const ordinal_t n = a.num_rows;
  ws.ensure_small(ws.bcol, static_cast<std::size_t>(n));
  ws.ensure_small(ws.xcol, static_cast<std::size_t>(n));
  for (int c = 0; c < k_count; ++c) {
    if (result.excluded[static_cast<std::size_t>(c)]) continue;
    gather_column(b, n, k_count, c, ws.bcol);
    gather_column(x, n, k_count, c, ws.xcol);
    solve(a, ws.bcol, ws.xcol, opts, prec, ws, result.results[static_cast<std::size_t>(c)]);
    scatter_column(ws.xcol, n, k_count, c, x);
  }
}

namespace {

/// Signature shared by the two Krylov cores.
using KrylovCore = void (*)(const graph::CrsMatrix&, std::span<const scalar_t>,
                            std::span<scalar_t>, int, const IterOptions&, const Preconditioner*,
                            SolveWorkspace&, std::span<IterResult>, std::span<const char>);

/// A Krylov registry entry: `solve` is the core at K = 1, `solve_batch`
/// the same core at K. The "block-*" names are aliases built from the
/// same class.
class KrylovSolver final : public Solver {
 public:
  KrylovSolver(std::string name, KrylovCore core) : name_(std::move(name)), core_(core) {}
  [[nodiscard]] std::string name() const override { return name_; }
  void solve(const graph::CrsMatrix& a, std::span<const scalar_t> b, std::span<scalar_t> x,
             const IterOptions& opts, const Preconditioner* prec, SolveWorkspace& ws,
             IterResult& result) const override {
    core_(a, b, x, 1, opts, prec, ws, std::span<IterResult>(&result, 1), {});
  }
  void solve_batch(const graph::CrsMatrix& a, std::span<const scalar_t> b,
                   std::span<scalar_t> x, int k_count, const IterOptions& opts,
                   const Preconditioner* prec, SolveWorkspace& ws,
                   BatchResult& result) const override {
    result.ensure(k_count);
    core_(a, b, x, k_count, opts, prec, ws,
          std::span<IterResult>(result.results.data(), static_cast<std::size_t>(k_count)),
          result.excluded);
  }

 private:
  std::string name_;
  KrylovCore core_;
};

class ChebyshevSolver final : public Solver {
 public:
  [[nodiscard]] std::string name() const override { return "chebyshev"; }
  // Polynomial relaxation carries its own diagonal scaling; an outer
  // preconditioner does not compose, so the handle skips building one.
  [[nodiscard]] bool uses_preconditioner() const override { return false; }
  void solve(const graph::CrsMatrix& a, std::span<const scalar_t> b, std::span<scalar_t> x,
             const IterOptions& opts, const Preconditioner* /*prec*/, SolveWorkspace& ws,
             IterResult& result) const override {
    chebyshev_solve(a, b, x, opts, ws, result);
  }
};

std::unique_ptr<Solver> make_krylov(const char* name, KrylovCore core) {
  return std::make_unique<KrylovSolver>(name, core);
}

}  // namespace

const Registry<SolverSpec>& solvers() {
  static const Registry<SolverSpec> registry("solver", {
      {"cg",
       "preconditioned conjugate gradient (SPD; the Table V outer solver); "
       "solve_batch advances K RHS in lockstep over fused SpMM",
       [] { return make_krylov("cg", block_cg_solve); }},
      {"gmres",
       "restarted right-preconditioned GMRES (general; the Table VI outer solver); "
       "solve_batch runs K RHS over fused SpMM with per-column restart phases",
       [] { return make_krylov("gmres", block_gmres_solve); }},
      {"chebyshev",
       "Chebyshev polynomial relaxation (SPD; ignores the preconditioner — "
       "carries its own diagonal scaling)",
       [] { return std::unique_ptr<Solver>(std::make_unique<ChebyshevSolver>()); }},
      {"block-cg", "alias of \"cg\" (the same core for one RHS or K)",
       [] { return make_krylov("block-cg", block_cg_solve); }},
      {"block-gmres", "alias of \"gmres\" (the same core for one RHS or K)",
       [] { return make_krylov("block-gmres", block_gmres_solve); }},
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
