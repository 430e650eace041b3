#pragma once
/// \file interface.hpp
/// \brief The pluggable solver-stack interface: the solver cores, the
/// shared `SolveWorkspace`, and string-keyed solver / `Preconditioner`
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
/// Every layer is K-wide: a solver entry is one core over n x K
/// multi-vectors (`SolveFn`), a preconditioner is one `apply_multi`, and a
/// single right-hand side is the K = 1 call of the same body.
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

  // --- per-column state of the solver cores ------------------------------
  /// Per-column small state of the cores (O(k), solver-partitioned).
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

/// Signature of every solver core: solve `a X = B` from the given initial
/// `X`, where `b`/`x` are n x k_count row-major multi-vectors and
/// `results` holds one `IterResult` per column (its history capacity is
/// reused). `prec` may be null (unpreconditioned). Columns with
/// `excluded[c] != 0` are skipped entirely — their result and their lanes
/// of `x` are left untouched; an empty `excluded` excludes none. A
/// single-RHS solve is the `k_count = 1` call with a one-element
/// `results`. The caller pins the execution context (`SolveHandle` does).
using SolveFn = void (*)(const graph::CrsMatrix& a, std::span<const scalar_t> b,
                         std::span<scalar_t> x, int k_count, const IterOptions& opts,
                         const Preconditioner* prec, SolveWorkspace& ws,
                         std::span<IterResult> results, std::span<const char> excluded);

/// Registry entry: a name, a one-line description, and the core.
struct SolverSpec {
  std::string name;
  std::string description;
  /// False when `solve` ignores `prec` ("chebyshev" carries its own
  /// diagonal scaling); `SolveHandle` skips the preconditioner build then.
  bool uses_preconditioner = true;
  SolveFn solve = nullptr;
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

/// The cores behind the registry entries, each a `SolveFn` operating
/// entirely on workspace scratch. K right-hand sides advance in lockstep
/// over one SpMM per matrix application, each column running its own
/// scalar recurrence, so column c is bit-identical to a K = 1 solve of
/// that column. Converged or failed columns are frozen (the masked
/// multi-vector kernels never write their lanes again) and carry their
/// own status/failure.
///
/// CG and restarted GMRES (block_krylov.cpp) behind "cg"/"gmres" and their
/// "block-cg"/"block-gmres" aliases.
void block_cg_solve(const graph::CrsMatrix& a, std::span<const scalar_t> b,
                    std::span<scalar_t> x, int k_count, const IterOptions& opts,
                    const Preconditioner* prec, SolveWorkspace& ws,
                    std::span<IterResult> results, std::span<const char> excluded = {});
void block_gmres_solve(const graph::CrsMatrix& a, std::span<const scalar_t> b,
                       std::span<scalar_t> x, int k_count, const IterOptions& opts,
                       const Preconditioner* prec, SolveWorkspace& ws,
                       std::span<IterResult> results, std::span<const char> excluded = {});

/// Chebyshev polynomial relaxation (chebyshev.cpp) behind "chebyshev";
/// ignores `prec`.
void chebyshev_solve(const graph::CrsMatrix& a, std::span<const scalar_t> b,
                     std::span<scalar_t> x, int k_count, const IterOptions& opts,
                     const Preconditioner* prec, SolveWorkspace& ws,
                     std::span<IterResult> results, std::span<const char> excluded = {});

}  // namespace parmis::solver
