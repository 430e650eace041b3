#pragma once
/// \file hierarchy.hpp
/// \brief Hierarchy level types, per-build statistics, and the reusable
/// `HierarchyHandle`/`SetupWorkspace` pair behind the multilevel `Builder`.
///
/// The handle is the multilevel analogue of `core::Mis2Handle` /
/// `solver::SolveHandle`: it owns the built hierarchy *and* every piece of
/// setup scratch (the nested `CoarsenHandle` and — in Galerkin mode — the
/// per-level tentative prolongators, SpGEMM intermediates, and transpose
/// permutations). Because the scratch survives between builds, a *warm
/// rebuild* of a hierarchy whose structure is fixed but whose matrix
/// values changed (time-stepping) replays the Galerkin products
/// value-only and performs **zero heap allocations** — asserted by the
/// capacity-tracking tests through `scratch_bytes()` and
/// `stats().scratch_grows`, exactly the `SolveHandle` contract.

#include <vector>

#include "core/aggregation.hpp"
#include "core/mis2.hpp"
#include "graph/crs.hpp"
#include "graph/spgemm.hpp"
#include "multilevel/weighted.hpp"

namespace parmis::multilevel {

class Builder;

/// One coarsening step: the aggregation of the finer level and the coarse
/// graph it produced (`coarse.vertex_weight`/`edge_weight` are filled in
/// weighted mode, empty in topology mode).
struct Step {
  core::Aggregation aggregation;
  WeightedGraph coarse;
};

/// One operator level of a Galerkin hierarchy, finest first. The coarsest
/// level has empty transfers.
struct OperatorLevel {
  graph::CrsMatrix a;
  graph::CrsMatrix p;  ///< prolongator (this level rows x coarse cols)
  graph::CrsMatrix r;  ///< restriction = pᵀ
  std::vector<scalar_t> inv_diag;
  ordinal_t num_aggregates{0};
};

/// Why the level loop stopped.
enum class StopReason {
  Empty,           ///< no build has run on this handle yet
  CoarseEnough,    ///< reached `min_coarse_size`
  MaxLevels,       ///< produced `max_levels` coarsening steps
  Stalled,         ///< a step violated the coarsening-rate floor
  ComplexityCapped ///< the next Galerkin operator would exceed the cap
};

[[nodiscard]] const char* to_string(StopReason r);

/// Per-build summary, reset by every cold build (warm rebuilds update only
/// the timing fields — the structure they describe is unchanged).
struct HierarchyStats {
  int levels = 0;                        ///< operator levels (steps + 1)
  std::vector<ordinal_t> level_rows;     ///< rows per level, finest first
  std::vector<offset_t> level_entries;   ///< stored entries per level
  /// sum(nnz(A_l)) / nnz(A_0) — Galerkin mode; topology/weighted builds
  /// report the same ratio over coarse-graph edges.
  double operator_complexity = 1.0;
  double grid_complexity = 1.0;          ///< sum(rows_l) / rows_0
  StopReason stop = StopReason::Empty;
  double aggregation_seconds = 0.0;      ///< coarsening time within the build
  double build_seconds = 0.0;            ///< last cold build wall time
  double rebuild_seconds = 0.0;          ///< last warm rebuild wall time
};

/// All scratch the Builder's level loop touches, owned by
/// `HierarchyHandle` and reused across builds. Galerkin per-level entries
/// keep the structures a warm value-only rebuild replays into.
struct SetupWorkspace {
  /// Aggregation scratch (nested MIS-2 handle, HEM buffers), shared by
  /// every level of every build.
  core::CoarsenHandle coarsen;

  /// Parking slot for the step a stalled build aggregated into but did not
  /// keep: its buffers (size-n labels) are recycled by the next build
  /// instead of being freed — the warm-reuse contract for the
  /// recursive-bisection workload, where stalls are routine.
  Step spare_step;

  /// Galerkin per-level scratch: everything a value-only rebuild needs.
  /// A level whose coarse block passes `graph::fused_galerkin_applies`
  /// builds its triple product with the fused kernel: it keeps `fused` and
  /// an empty `apc`. Every other level keeps `apc` and an empty `fused`.
  struct GalerkinLevel {
    graph::CrsMatrix phat;          ///< tentative prolongator (values fixed by structure)
    graph::CrsMatrix ap;            ///< D⁻¹-scaled A·P̂ (structure fixed, values replayed)
    graph::CrsMatrix apc;           ///< A·P (structure fixed, values replayed); empty when fused
    std::vector<offset_t> tperm;    ///< entry j of P lands at R entry tperm[j]
    graph::FusedGalerkinScratch fused;  ///< dense coarse block + tile buffers (fused levels)
  };
  std::vector<GalerkinLevel> galerkin;

  /// Total heap capacity (bytes) currently held by the workspace alone
  /// (the handle adds the hierarchy buffers on top).
  [[nodiscard]] std::size_t capacity_bytes() const;
};

/// Reusable multilevel hierarchy handle: owns the built hierarchy (steps
/// or operator levels), the setup workspace, the per-build statistics, and
/// cumulative telemetry. Driven by `multilevel::Builder`; not thread-safe
/// (one handle per thread).
class HierarchyHandle {
 public:
  HierarchyHandle() = default;

  /// Coarsening steps of the last topology/weighted build (empty after a
  /// Galerkin build).
  [[nodiscard]] const std::vector<Step>& steps() const { return steps_; }
  /// Move the steps out (leaves the handle valid; scratch is retained).
  [[nodiscard]] std::vector<Step> take_steps() { return std::move(steps_); }

  /// Operator levels of the last Galerkin build (empty otherwise).
  [[nodiscard]] const std::vector<OperatorLevel>& ops() const { return ops_; }
  [[nodiscard]] std::vector<OperatorLevel> take_ops() { return std::move(ops_); }

  /// Summary of the last build on this handle.
  [[nodiscard]] const HierarchyStats& build_stats() const { return build_stats_; }

  /// Cumulative telemetry: `runs` counts builds + rebuilds, `iterations`
  /// the total operator levels produced, `scratch_grows` the builds that
  /// grew any owned capacity (cold builds; never warm rebuilds).
  [[nodiscard]] const core::KernelStats& stats() const { return stats_; }

  /// The nested aggregation handle (exposes MIS-2 telemetry).
  [[nodiscard]] core::CoarsenHandle& coarsen_handle() { return ws_.coarsen; }

  /// Heap capacity (bytes) held by the workspace *and* the hierarchy
  /// buffers. Stable across warm rebuilds: the zero-allocation contract.
  [[nodiscard]] std::size_t scratch_bytes() const;

 private:
  friend class Builder;
  friend void restore_galerkin(HierarchyHandle& h, std::vector<OperatorLevel> ops,
                               std::vector<SetupWorkspace::GalerkinLevel> workspace,
                               StopReason stop);
  friend const std::vector<SetupWorkspace::GalerkinLevel>& galerkin_workspace(
      const HierarchyHandle& h);

  SetupWorkspace ws_;
  std::vector<Step> steps_;
  std::vector<OperatorLevel> ops_;
  HierarchyStats build_stats_;
  core::KernelStats stats_;
};

/// Snapshot bind hooks (the `parmis::serve` layer). `restore_galerkin`
/// installs externally produced operator levels — deserialized from a
/// snapshot, or copied from a published serving state — into `h` exactly
/// as if `Builder::build_galerkin` had produced them: the per-build stats
/// are recomputed from the levels and the handle solves immediately. When
/// `workspace` is supplied (size `ops.size() - 1`, the per-level Galerkin
/// rebuild scratch the snapshot format preserves) the handle additionally
/// keeps the warm zero-allocation `rebuild_galerkin` contract: the fused
/// levels' scratch is sized here, and an `apc` a fused level does not use
/// (written by an older build) is dropped; an empty
/// workspace restores a solve-only hierarchy and a later `rebuild_galerkin`
/// throws instead of replaying into missing structures. Throws
/// std::invalid_argument on an empty or shape-inconsistent level stack.
void restore_galerkin(HierarchyHandle& h, std::vector<OperatorLevel> ops,
                      std::vector<SetupWorkspace::GalerkinLevel> workspace,
                      StopReason stop);

/// Read access to the per-level Galerkin rebuild workspace (what
/// `serve::SnapshotWriter::add_hierarchy` serializes alongside the
/// levels). Size is `ops().size() - 1` after a Galerkin build, 0 when the
/// handle holds none.
[[nodiscard]] const std::vector<SetupWorkspace::GalerkinLevel>& galerkin_workspace(
    const HierarchyHandle& h);

}  // namespace parmis::multilevel
