#pragma once
/// \file handle.hpp
/// \brief `SolveHandle`: the reusable solver-stack handle — registry-named
/// solver + preconditioner, explicit execution context, all iteration
/// scratch, cached preconditioner state, and per-handle telemetry.
///
/// The solver analogue of `core::Mis2Handle`/`core::CoarsenHandle`: a
/// service that answers many solves holds one handle per worker and pays
/// for setup and scratch exactly once. Warm solves — repeated `solve()`
/// calls on the same matrix, or on size-compatible matrices with a
/// matrix-free preconditioner — perform **zero heap allocations**; the
/// capacity-tracking tests assert this through `scratch_bytes()` and
/// `stats().scratch_grows`.
///
///   SolveHandle h("cg", "amg", ctx);
///   h.prec_options().amg.hierarchy.coarsener = "hem";  // any registered coarsener
///   const IterResult& r = h.solve(a, b, x);            // builds AMG once
///   h.solve(a, b2, x2);                                // warm: zero allocations
///
/// Preconditioner state is cached per matrix: a solve against the same
/// matrix (same address and shape) reuses it; a different matrix triggers
/// one rebuild (counted in `stats().prec_setups`). Configuration changes
/// that affect setup (`set_preconditioner`, `set_context`, edits through
/// `prec_options()`) take effect at the next rebuild — call `invalidate()`
/// to force one. Not thread-safe; use one handle per thread.

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "graph/crs.hpp"
#include "resilience/policy.hpp"
#include "solver/interface.hpp"

namespace parmis::solver {

/// Cumulative per-handle telemetry (service counters; never reset by the
/// handle itself).
struct SolveStats {
  std::uint64_t solves = 0;         ///< columns solved (1 per solve(), K per solve_batch())
  std::uint64_t iterations = 0;     ///< total iterations across all solves
  std::uint64_t converged = 0;      ///< columns that reached tolerance
  std::uint64_t prec_setups = 0;    ///< preconditioner (re)builds
  std::uint64_t scratch_grows = 0;  ///< solve calls that grew scratch capacity
  std::uint64_t failures = 0;           ///< columns whose final status was a failure
  std::uint64_t fallback_attempts = 0;  ///< extra per-column chain attempts beyond the first
};

/// Reusable solver handle: solver + preconditioner selected by registry
/// name, an explicit execution context, and all iteration scratch.
class SolveHandle {
 public:
  /// Defaults to "cg" with no preconditioning under a snapshot of the
  /// process-global execution configuration.
  SolveHandle() = default;
  explicit SolveHandle(const std::string& solver, const std::string& prec = "none",
                       const Context& ctx = Context::default_ctx());
  explicit SolveHandle(const Context& ctx) : ctx_(ctx) {}

  /// Select the outer solver by registry name; throws std::out_of_range if
  /// unknown. Scratch is kept (the pool is shared across solvers).
  void set_solver(const std::string& name);

  /// Select the preconditioner by registry name; throws std::out_of_range
  /// if unknown. Cached preconditioner state is dropped.
  void set_preconditioner(const std::string& name);

  [[nodiscard]] const std::string& solver_name() const { return solver_name_; }
  [[nodiscard]] const std::string& preconditioner_name() const { return prec_name_; }

  /// Setup-time preconditioner configuration. Edits affect the *next*
  /// preconditioner build; call invalidate() to apply them to a matrix the
  /// handle has already seen.
  [[nodiscard]] PrecOptions& prec_options() { return prec_opts_; }
  [[nodiscard]] const PrecOptions& prec_options() const { return prec_opts_; }

  [[nodiscard]] const Context& context() const { return ctx_; }
  /// Replace the handle's context (governs setup and, unless overridden by
  /// `IterOptions::ctx`, the solves). Cached preconditioner state is
  /// dropped: setup may be context-dependent.
  void set_context(const Context& ctx);

  /// Declare a fallback chain from a `"PREC+SOLVER[ on:STATUS|...],..."`
  /// spec (e.g. `"amg+cg on:breakdown,jacobi+cg"`). While a chain is set it
  /// *replaces* the handle's solver/preconditioner selection: attempt 1 is
  /// the chain's first entry; each failed attempt (any status but
  /// Converged, filtered by the entry's optional `on:` status set) restores
  /// the original initial guess and tries the next entry, within the
  /// chain's retry budget and the solve's `timeout_ms`. In a batch the
  /// decision is per column: only the columns that failed retryably run
  /// the next entry, so column c of a chained batch equals a chained
  /// `solve` of column c. Entries naming the handle's configured
  /// solver/preconditioner reuse its cached state; other entries build
  /// transient ones per attempt. Throws
  /// std::invalid_argument on a malformed spec and std::out_of_range on a
  /// name not in the registries. An empty spec clears the chain.
  void set_fallback(const std::string& spec);
  void set_fallback(resilience::FallbackPolicy policy);
  [[nodiscard]] const resilience::FallbackPolicy& fallback() const { return fallback_; }

  /// Solve `a x = b` from the given initial `x` with the configured stack:
  /// `solve_batch` at K = 1, bit for bit, with its outcome in `result()`.
  /// The returned reference stays valid until the next solve.
  const IterResult& solve(const graph::CrsMatrix& a, std::span<const scalar_t> b,
                          std::span<scalar_t> x, const IterOptions& opts = {});

  /// Batched multi-RHS solve: `b`/`x` are n x k_count row-major
  /// multi-vectors (element (i, c) at `i * k_count + c`). Builds (or
  /// reuses) the preconditioner for `a`, pins the execution context
  /// (`opts.ctx` if set, else the handle's), runs the configured solver's
  /// `solve_batch` — one fused block core for the Krylov entries, the
  /// looped per-column default otherwise — on handle-owned scratch, and
  /// updates the telemetry counters. Column c of the result is
  /// bit-identical to `solve` on the gathered column. Once scratch and
  /// preconditioner are warm, a repeat solve at the same width allocates
  /// nothing. The returned reference stays valid until the next batched
  /// solve.
  ///
  /// Resilience contract, per column: every column is validated for
  /// finiteness up front — a poisoned one is excluded (its `IterResult`
  /// carries NonFiniteInput, no attempt runs and its lanes stay
  /// untouched) while its batchmates solve normally. Each attempt's
  /// outcome lands in the column's `attempts`; a setup throw is
  /// classified onto every column the attempt ran. A configured fallback
  /// chain is walked per column as documented on `set_fallback`: a column
  /// leaves the batch when it converges or its entry's `on:` set does not
  /// retry its status, and the rest retry together from their original
  /// initial guesses. A failing solve never throws for taxonomy-classified
  /// reasons — inspect each column's `status`.
  const BatchResult& solve_batch(const graph::CrsMatrix& a, std::span<const scalar_t> b,
                                 std::span<scalar_t> x, int k_count,
                                 const IterOptions& opts = {});

  /// Build the preconditioner for `a` now (idempotent while `a` is
  /// unchanged). Useful to separate setup cost from solve cost.
  void setup(const graph::CrsMatrix& a);

  /// Drop cached preconditioner state; the next solve()/setup() rebuilds.
  void invalidate();

  /// Pool hooks (`serve::HandlePool`): move the cached preconditioner
  /// setup out of the handle — for parking in an LRU keyed by matrix
  /// identity — leaving the handle cold (next solve rebuilds). Returns
  /// null when nothing is cached (including the "none" configuration).
  [[nodiscard]] std::unique_ptr<Preconditioner> release_preconditioner();

  /// Install an externally built (or LRU-parked) setup as the cached
  /// preconditioner for `a`: the next solve against `a` (same address and
  /// shape) is warm, no rebuild, no allocation. `p` must be a setup for a
  /// matrix bit-identical to `a` — the handle can't verify that; the pool
  /// keys its cache by identity to guarantee it. Does not count as a
  /// prec_setup in stats(). A null `p` is equivalent to invalidate().
  void adopt_preconditioner(std::unique_ptr<Preconditioner> p, const graph::CrsMatrix& a);

  /// The cached preconditioner (null until the first setup, and always
  /// null for "none").
  [[nodiscard]] const Preconditioner* preconditioner() const { return prec_.get(); }

  /// Outcome of the last `solve` (batched solves do not touch it).
  [[nodiscard]] const IterResult& result() const { return one_.results.front(); }
  [[nodiscard]] const SolveStats& stats() const { return stats_; }

  /// Heap capacity held by the iteration scratch (workspace pool, GMRES
  /// dense state, residual-history storage). Stable across warm solves.
  [[nodiscard]] std::size_t scratch_bytes() const;

 private:
  void ensure_solver();
  void ensure_preconditioner(const graph::CrsMatrix& a);
  /// The one solve body behind `solve` (K = 1 into `one_`) and
  /// `solve_batch` (into `batch_`).
  const BatchResult& run(const graph::CrsMatrix& a, std::span<const scalar_t> b,
                         std::span<scalar_t> x, int k_count, const IterOptions& opts,
                         BatchResult& out);

  std::string solver_name_ = "cg";
  std::string prec_name_ = "none";
  std::unique_ptr<Solver> solver_;
  PrecOptions prec_opts_;
  Context ctx_ = Context::default_ctx();

  std::unique_ptr<Preconditioner> prec_;
  const graph::CrsMatrix* prec_matrix_ = nullptr;  ///< identity of the cached setup
  ordinal_t prec_rows_ = 0;
  offset_t prec_entries_ = 0;

  resilience::FallbackPolicy fallback_;
  std::vector<scalar_t> x0_;  ///< initial-guess snapshot for chain retries
  std::vector<char> live_;    ///< per column: still taking chain attempts

  SolveWorkspace ws_;
  BatchResult one_{.k = 1, .results = std::vector<IterResult>(1), .excluded = {0}};
  BatchResult batch_;
  SolveStats stats_;
};

}  // namespace parmis::solver
