#pragma once
/// \file interface.hpp
/// \brief The pluggable solver-stack interface: an abstract `Solver`, the
/// shared `SolveWorkspace`, and string-keyed `Solver` / `Preconditioner`
/// registries.
///
/// PR 1 made partitioning pluggable (`partition/interface.hpp`) and PR 2
/// did the same for coarsening (`core/coarsener.hpp`). This header closes
/// the loop one layer up, for the solvers the paper's coarsening exists to
/// serve (Tables V/VI): outer solvers ("cg", "gmres", "chebyshev") and
/// preconditioners ("none", "jacobi", "gs", "cluster-gs", "amg") sit behind
/// one interface each, are selected by name, and run through a reusable
/// `SolveHandle` (handle.hpp) that owns all iteration scratch. The "amg"
/// and "cluster-gs" preconditioners compose with any registered *coarsener*
/// by name, so the three registries stack:
///
///   SolveHandle("cg", "amg")  with  prec_options().amg.hierarchy.coarsener = "hem"
///
/// Every registered solver and preconditioner is deterministic: iteration
/// counts and solution vectors are bit-identical on the Serial and OpenMP
/// backends at any thread count.

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/registry.hpp"
#include "core/mis2.hpp"
#include "graph/crs.hpp"
#include "parallel/simd.hpp"
#include "solver/amg.hpp"
#include "solver/chebyshev.hpp"
#include "solver/options.hpp"
#include "solver/preconditioner.hpp"

namespace parmis::solver {

/// All scratch any registered solver needs, owned by `SolveHandle` and
/// reused across solves. Full-length vectors live in a slot pool whose
/// capacities only grow, so warm solves perform zero heap allocations;
/// `grow_events` counts every capacity growth (the allocation telemetry
/// the zero-allocation tests assert on).
struct SolveWorkspace {
  /// Pool of n x K multi-vectors (CG state, the GMRES Krylov basis,
  /// Chebyshev temporaries), cache-line aligned for the K-wide kernels.
  /// Slot k keeps its capacity across solves.
  std::vector<par::lane_vector<scalar_t>> pool;
  /// GMRES small dense state (O(restart^2 K), matrix-size independent).
  std::vector<scalar_t> hess, cs, sn, g, y;
  /// Chebyshev solver state: the smoother built for the current matrix,
  /// invalidated when the matrix or the polynomial configuration changes.
  std::unique_ptr<ChebyshevSmoother> chebyshev;
  const graph::CrsMatrix* chebyshev_matrix = nullptr;
  ordinal_t chebyshev_rows = 0;
  offset_t chebyshev_entries = 0;
  int chebyshev_degree = 0;
  double chebyshev_eig_ratio = 0;

  // --- per-column state (Krylov cores and the looped fallback) -----------
  /// Column gather/scatter scratch for the looped default `solve_batch`.
  std::vector<scalar_t> bcol, xcol;
  /// Per-column small state of the Krylov cores (O(k), solver-partitioned).
  std::vector<scalar_t> batch_scalars;
  /// Per-column integer state (phase machine positions, stop codes).
  std::vector<int> batch_ints;
  /// Per-column active mask handed to the masked multi-vector kernels.
  std::vector<char> batch_active;
  /// Per-column iteration guards (`IterGuard` holds no heap state, so
  /// clearing and refilling this vector is allocation-free once grown).
  std::vector<resilience::IterGuard> batch_guards;

  /// Cumulative allocation-event count: capacity growths of the pool and
  /// small arrays, plus Chebyshev smoother (re)builds (whose memory is
  /// excluded from capacity_bytes()). `SolveHandle` folds any in-solve
  /// movement of this counter into `stats().scratch_grows`.
  std::uint64_t grow_events = 0;

  /// Slot `slot` resized to `n` (capacity-preserving; grows only when the
  /// slot has never been this large). The span is valid until the slot is
  /// resized again.
  std::span<scalar_t> vec(std::size_t slot, std::size_t n);

  /// Capacity-preserving resize for the small dense arrays.
  void ensure_small(std::vector<scalar_t>& v, std::size_t n);
  void ensure_small(std::vector<int>& v, std::size_t n);

  /// Total heap capacity (bytes) currently held, excluding the Chebyshev
  /// smoother state. Stable across warm solves.
  [[nodiscard]] std::size_t capacity_bytes() const;
};

/// Abstract base every outer solver implements. Implementations are
/// stateless; all scratch comes from the workspace and all configuration
/// from the options, so one instance serves any number of handles.
class Solver {
 public:
  virtual ~Solver() = default;

  /// Registry name of this solver.
  [[nodiscard]] virtual std::string name() const = 0;

  /// False when solve() ignores `prec` (e.g. "chebyshev" carries its own
  /// diagonal scaling); `SolveHandle` skips the preconditioner build then.
  [[nodiscard]] virtual bool uses_preconditioner() const { return true; }

  /// Solve `a x = b` from the given initial `x`, writing the outcome into
  /// `result` (reusing its history capacity). `prec` may be null
  /// (unpreconditioned). The caller is responsible for pinning the
  /// execution context (`SolveHandle::solve` does).
  virtual void solve(const graph::CrsMatrix& a, std::span<const scalar_t> b,
                     std::span<scalar_t> x, const IterOptions& opts,
                     const Preconditioner* prec, SolveWorkspace& ws,
                     IterResult& result) const = 0;

  /// Batched multi-RHS solve: `b` and `x` are n x k_count row-major
  /// multi-vectors, `result` carries one `IterResult` per column. Columns
  /// flagged `result.excluded[c]` are skipped entirely (their result and
  /// their lanes of `x` are left untouched). The default loops `solve`
  /// over gathered columns through workspace scratch — trivially
  /// bit-identical to k single solves; the Krylov solvers override it with
  /// their fused SpMM-based core, whose `solve` is the same core at K = 1.
  virtual void solve_batch(const graph::CrsMatrix& a, std::span<const scalar_t> b,
                           std::span<scalar_t> x, int k_count, const IterOptions& opts,
                           const Preconditioner* prec, SolveWorkspace& ws,
                           BatchResult& result) const;
};

/// Registry entry: a name, a one-line description, and a factory.
struct SolverSpec {
  std::string name;
  std::string description;
  std::function<std::unique_ptr<Solver>()> make;
};

/// All registered solvers, stable order (the Table V outer solver first).
const Registry<SolverSpec>& solvers();

// ------------------------------------------------------- preconditioners

/// Setup-time configuration for the registered preconditioners (each entry
/// reads only its own knobs).
struct PrecOptions {
  int sweeps = 1;                   ///< symmetric-sweep count ("gs", "cluster-gs")
  int jacobi_sweeps = 2;            ///< damped-Jacobi sweeps per apply ("jacobi")
  scalar_t jacobi_omega = 2.0 / 3.0;  ///< damping factor ("jacobi")
  std::string coarsener = "mis2";   ///< core Coarsener registry name ("cluster-gs")
  core::Mis2Options mis2;           ///< MIS-2 configuration ("cluster-gs")
  AmgOptions amg;                   ///< hierarchy configuration ("amg"; its
                                    ///< `hierarchy.coarsener` composes with
                                    ///< the core registry too)
};

/// Registry entry for a preconditioner: unlike solvers, preconditioners
/// carry matrix-dependent setup state, so the factory takes the matrix,
/// the options, and the execution context the setup runs under.
struct PreconditionerSpec {
  std::string name;
  std::string description;
  /// True when setup runs a coarsening scheme, i.e. the entry composes
  /// with the core `Coarsener` registry (drivers fan these entries out
  /// over --coarseners).
  bool uses_coarsener = false;
  std::function<std::unique_ptr<Preconditioner>(const graph::CrsMatrix&, const PrecOptions&,
                                                const Context&)>
      make;
};

/// All registered preconditioners, stable order ("none" first, then the
/// smoothers, then the paper's cluster method and the multigrid hierarchy).
/// A spec's `make(a, opts, ctx)` builds the preconditioner for `a`.
const Registry<PreconditionerSpec>& preconditioners();

// ------------------------------------------------- workspace-based cores

/// The Krylov cores behind the "cg"/"gmres" registry entries and their
/// "block-cg"/"block-gmres" aliases (block_krylov.cpp), operating entirely
/// on workspace scratch. `b`/`x` are n x k_count row-major multi-vectors
/// and `results` holds one `IterResult` per column; a single-RHS solve is
/// the `k_count = 1` call with a one-element `results`. K right-hand sides
/// advance in lockstep over one SpMM per iteration, each column running
/// its own scalar recurrence, so column c is bit-identical to a K = 1
/// solve of that column. Converged or failed columns are deflated (frozen
/// via the masked multi-vector kernels) and carry their own
/// status/failure. Columns with `excluded[c] != 0` are skipped entirely;
/// an empty `excluded` excludes none.
void block_cg_solve(const graph::CrsMatrix& a, std::span<const scalar_t> b,
                    std::span<scalar_t> x, int k_count, const IterOptions& opts,
                    const Preconditioner* prec, SolveWorkspace& ws,
                    std::span<IterResult> results, std::span<const char> excluded = {});
void block_gmres_solve(const graph::CrsMatrix& a, std::span<const scalar_t> b,
                       std::span<scalar_t> x, int k_count, const IterOptions& opts,
                       const Preconditioner* prec, SolveWorkspace& ws,
                       std::span<IterResult> results, std::span<const char> excluded = {});

/// The relaxation core behind the "chebyshev" registry entry
/// (chebyshev.cpp); single right-hand side.
void chebyshev_solve(const graph::CrsMatrix& a, std::span<const scalar_t> b,
                     std::span<scalar_t> x, const IterOptions& opts, SolveWorkspace& ws,
                     IterResult& result);

}  // namespace parmis::solver
