#pragma once
/// \file amg.hpp
/// \brief Smoothed-aggregation algebraic multigrid (the MueLu analogue for
/// Table V).
///
/// Setup per level: aggregate the matrix graph (one of five schemes — the
/// variable Table V studies), build the tentative piecewise-constant
/// prolongator P̂ with normalized columns, smooth it with one damped-Jacobi
/// step P = (I − ω D⁻¹ A) P̂, and form the Galerkin coarse operator
/// A_c = Pᵀ A P with SpGEMM. Coarsening stops at `min_coarse_size` rows,
/// on a stall against the coarsening-rate floor, or when the next coarse
/// operator would push the operator complexity past its cap (the guard
/// against pairwise-matching hierarchies densifying on power-law inputs);
/// the coarsest system is LU-factored.
///
/// The level loop itself is the unified multilevel engine
/// (`multilevel::Builder`, Galerkin mode), configured by the
/// `AmgOptions::hierarchy` member as is. `AmgHierarchy::build` adds the
/// smoothers and the bottom solve on top, and `rebuild()` serves matrices
/// whose values change but whose structure is fixed (time-stepping): the
/// hierarchy's transfer structures are replayed value-only with zero heap
/// allocations inside the multilevel handle.
///
/// `apply` runs one V-cycle with damped-Jacobi pre/post smoothing from a
/// zero initial guess — the preconditioner configuration of Table V (CG,
/// 2 Jacobi sweeps, tol 1e-12).

#include <memory>
#include <string>
#include <vector>

#include "core/aggregation.hpp"
#include "core/coarsener.hpp"
#include "graph/crs.hpp"
#include "multilevel/builder.hpp"
#include "parallel/context.hpp"
#include "parallel/simd.hpp"
#include "solver/chebyshev.hpp"
#include "solver/dense_lu.hpp"
#include "solver/preconditioner.hpp"

namespace parmis::solver {

/// The five aggregation schemes compared in Table V.
enum class AggregationScheme {
  SerialAgg,   ///< sequential MueLu-style aggregation (deterministic)
  SerialD2C,   ///< serial distance-2 coloring + parallel aggregation
  NBD2C,       ///< parallel distance-2 coloring + parallel aggregation (nondeterministic)
  Mis2Basic,   ///< Algorithm 2 (deterministic)
  Mis2Agg,     ///< Algorithm 3 (deterministic) — the paper's contribution
};

[[nodiscard]] const char* to_string(AggregationScheme s);

/// Level smoother choice. The paper's Table V uses 2-sweep damped Jacobi;
/// Chebyshev is MueLu's production default, kept as an extension.
enum class SmootherType { Jacobi, Chebyshev };

struct AmgOptions {
  /// The level loop: coarsening scheme (`coarsener` names any registered
  /// core `Coarsener`; `set_aggregation_scheme` selects a Table V scheme),
  /// stopping rules, prolongator damping, MIS-2 configuration, and the
  /// execution context the setup and every V-cycle-level kernel run under
  /// (unset inherits the ambient configuration). AMG defaults: 9
  /// coarsening steps (10 operator levels), a 500-row direct-solve
  /// threshold, a 0.9 coarsening-rate floor, and an operator-complexity
  /// cap of 10 — the guard that keeps AMG+HEM from densifying on
  /// power-law inputs.
  multilevel::Options hierarchy = [] {
    multilevel::Options o;
    o.max_levels = 9;
    o.min_coarse_size = 500;
    o.rate_floor = 0.9;
    o.complexity_cap = 10.0;
    return o;
  }();
  /// Largest coarsest level the V-cycle bottoms out on with a dense LU.
  /// When the rate floor or the complexity cap stops coarsening early, the
  /// coarsest level can be far bigger than `hierarchy.min_coarse_size`;
  /// factoring it densely would be the new blowup. Above this limit the
  /// cycle bottoms out with smoother sweeps instead. 0 (the default) means
  /// `4 * hierarchy.min_coarse_size`, so hierarchies that coarsen normally
  /// keep their exact direct solve.
  ordinal_t direct_size_limit = 0;
  SmootherType smoother = SmootherType::Jacobi;
  int smoother_sweeps = 2;           ///< pre/post smoother applications
  scalar_t jacobi_omega = 2.0 / 3.0;
  int chebyshev_degree = 2;          ///< polynomial degree per application
};

/// Route one of the Table V aggregation schemes to the Builder: the two
/// MIS-2 schemes by registry name (`hierarchy.coarsener`), the serial,
/// serial-D2C and NB-D2C schemes through the `hierarchy.aggregator` hook.
void set_aggregation_scheme(multilevel::Options& hierarchy, AggregationScheme scheme);

/// One multigrid level — the multilevel engine's Galerkin level: operator,
/// grid transfers to the next-coarser level (empty on the coarsest), the
/// inverted diagonal, and the aggregate count that produced the next
/// level.
using AmgLevel = multilevel::OperatorLevel;

/// A built V-cycle hierarchy, usable directly as a Preconditioner.
class AmgHierarchy final : public Preconditioner {
 public:
  /// Build the hierarchy (the "Setup" phase of Table V). Records
  /// aggregation-only time and total setup time.
  static AmgHierarchy build(graph::CrsMatrix a_fine, const AmgOptions& opts = {});

  /// Adopt externally produced operator levels — deserialized from a
  /// `serve::SnapshotView` or copied from a published serving state —
  /// instead of building them: installs the stack into the handle and runs
  /// only the value-dependent tail of setup (smoothers, coarse
  /// factorization, V-cycle workspaces). Skips every aggregation and
  /// SpGEMM of a cold build — the snapshot economy. The adopted hierarchy
  /// applies/solves immediately; a later `rebuild()` additionally needs
  /// `workspace` (the Galerkin rebuild scratch the snapshot format
  /// preserves) and throws without it. Throws std::invalid_argument on an
  /// empty or inconsistent level stack.
  static AmgHierarchy adopt(
      std::vector<AmgLevel> levels, const AmgOptions& opts = {},
      std::vector<multilevel::SetupWorkspace::GalerkinLevel> workspace = {},
      multilevel::StopReason stop = multilevel::StopReason::CoarseEnough);

  /// Warm value-only rebuild for a matrix with the same structure the
  /// hierarchy was built from but different values: replays the Galerkin
  /// setup into the existing level structures (zero heap allocations
  /// inside the multilevel handle), then refreshes the smoothers and the
  /// coarse LU. Throws std::invalid_argument on a structure mismatch.
  void rebuild(const graph::CrsMatrix& a_fine);

  /// Grows the per-level multi-vector workspaces to batch width `k_count`
  /// so batched applies up to that width allocate nothing.
  bool prepare_multi(ordinal_t /*n*/, int k_count) override {
    const bool growing = k_count > mwork_k_;
    ensure_mwork(k_count);
    return growing;
  }

  /// One V-cycle on A Z = R from Z = 0, over n x k_count row-major
  /// multi-vectors (`apply` is its K = 1 call): every grid transfer
  /// and smoother application is one fused multi-vector kernel, and column
  /// c of the result is bit-identical to the same call on the gathered
  /// column. The workspaces are sized for one column at setup and grown
  /// the first time a wider batch is seen; repeat applications at the same
  /// (or smaller) width allocate nothing.
  void apply_multi(std::span<const scalar_t> r, std::span<scalar_t> z, ordinal_t n,
                   int k_count) const override;

  [[nodiscard]] std::string name() const override;

  /// General V-cycle from an arbitrary initial guess (level 0, one column).
  void vcycle(std::span<const scalar_t> b, std::span<scalar_t> x) const;

  [[nodiscard]] int num_levels() const { return static_cast<int>(handle_.ops().size()); }
  [[nodiscard]] const AmgLevel& level(int i) const {
    return handle_.ops()[static_cast<std::size_t>(i)];
  }
  [[nodiscard]] double aggregation_seconds() const { return aggregation_seconds_; }
  [[nodiscard]] double setup_seconds() const { return setup_seconds_; }
  [[nodiscard]] double operator_complexity() const;
  [[nodiscard]] double grid_complexity() const;

  /// Telemetry of the underlying multilevel build: levels, per-level
  /// rows/nnz, complexities, stop reason, and build/rebuild timings.
  [[nodiscard]] const multilevel::HierarchyStats& hierarchy_stats() const {
    return handle_.build_stats();
  }

  /// Which bottom-solve variant setup chose: "lu" (plain dense LU),
  /// "lu-perturbed" (LU of a diagonally shifted copy after the plain
  /// factorization found the coarsest block singular), or "smoother"
  /// (sweeps only — coarsest level too large, or even the shifted
  /// factorization failed).
  [[nodiscard]] const char* bottom_solve() const { return bottom_solve_; }

 private:
  /// One V-cycle from level `lvl` down. `x_is_zero`: `x` holds zeros, so
  /// the pre-smoother starts from zero (the caller zero-filled it).
  void cycle_level_multi(std::size_t lvl, std::span<const scalar_t> b, std::span<scalar_t> x,
                         int k_count, bool x_is_zero) const;
  void smooth_level_multi(std::size_t lvl, std::span<const scalar_t> rhs,
                          std::span<scalar_t> sol, int k_count, bool sol_is_zero) const;
  /// Grow the per-level multi-vector workspaces to batch width `k_count`.
  void ensure_mwork(int k_count) const;
  /// Smoothers, coarse LU, and V-cycle workspaces for the current levels.
  void finish_setup();

  multilevel::Builder builder_;
  multilevel::HierarchyHandle handle_;
  std::vector<std::unique_ptr<ChebyshevSmoother>> chebyshev_;  ///< per level iff Chebyshev
  std::unique_ptr<DenseLU> coarse_lu_;
  const char* bottom_solve_ = "smoother";  ///< see bottom_solve()
  AmgOptions opts_;
  double aggregation_seconds_{0};
  double setup_seconds_{0};
  // Per-level multi-vector work for the V-cycle: residual and coarse
  // rhs/solution, then smoother scratch (s1 is the Jacobi double-buffer;
  // s2/s3 complete the Chebyshev triple when that smoother is on). Sized
  // for one column at setup, so apply() and vcycle() perform zero heap
  // allocations (the warm-solve contract), and grown by ensure_mwork() to
  // the widest batch seen (apply_multi at width <= mwork_k_ allocates
  // nothing). Cache-line aligned: the K-wide kernels gather their rows.
  mutable std::vector<par::lane_vector<scalar_t>> mwork_r_, mwork_bc_, mwork_xc_;
  mutable std::vector<par::lane_vector<scalar_t>> mwork_s1_, mwork_s2_, mwork_s3_;
  mutable int mwork_k_ = 0;
};

/// Dispatch helper shared with benches/tests: run the chosen aggregation
/// scheme on an adjacency graph. The MIS-2 schemes route through the core
/// `Coarsener` registry ("mis2" / "mis2-basic") via `handle`, whose
/// scratch is reused across hierarchy levels.
[[nodiscard]] core::Aggregation run_aggregation(graph::GraphView adjacency,
                                                AggregationScheme scheme,
                                                const core::Mis2Options& mis2_opts,
                                                core::CoarsenHandle& handle);

/// `run_aggregation` with a transient handle.
[[nodiscard]] core::Aggregation run_aggregation(graph::GraphView adjacency,
                                                AggregationScheme scheme,
                                                const core::Mis2Options& mis2_opts);

}  // namespace parmis::solver
