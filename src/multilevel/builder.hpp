#pragma once
/// \file builder.hpp
/// \brief `multilevel::Builder`: the one level loop behind every multilevel
/// consumer in this library.
///
/// Plain recursive coarsening, the multilevel partitioners
/// (`partition/partitioner.cpp`), and `solver::AmgHierarchy` all run this
/// one aggregate → contract loop, in three contraction modes:
///
///  - **topology**  (`build`): coarse adjacency graphs only — plain
///    recursive coarsening;
///  - **weighted**  (`build_weighted`): vertex/edge-weighted quotients —
///    what the multilevel partitioners refine through;
///  - **Galerkin**  (`build_galerkin`): smoothed-aggregation operator
///    levels A, P, R = Pᵀ with the triple product A_c = R·A·P — what AMG
///    setup builds on.
///
/// All three share the stopping rules of `multilevel::Options`
/// (`min_coarse_size`, `max_levels`, the coarsening-rate floor) and the
/// Galerkin mode adds the operator-complexity cap that stops coarsening
/// instead of densifying — the guard that fixes the AMG+HEM blowup on
/// power-law inputs.
///
/// Hierarchies land in a `HierarchyHandle` whose `SetupWorkspace` owns all
/// per-level scratch, and Galerkin hierarchies support a warm value-only
/// `rebuild_galerkin` that performs zero heap allocations when only the
/// matrix values changed (time-stepping).

#include "graph/crs.hpp"
#include "multilevel/hierarchy.hpp"
#include "multilevel/options.hpp"
#include "multilevel/weighted.hpp"

namespace parmis::multilevel {

class Builder {
 public:
  Builder() = default;
  explicit Builder(Options opts) : opts_(std::move(opts)) {}

  [[nodiscard]] Options& options() { return opts_; }
  [[nodiscard]] const Options& options() const { return opts_; }

  /// Topology mode: recursively aggregate and contract `g` (symmetric,
  /// loop-free adjacency). Steps land in `handle`; the returned reference
  /// stays valid until the next build on the same handle.
  const std::vector<Step>& build(graph::GraphView g, HierarchyHandle& handle) const;

  /// Weighted mode: like `build`, but coarse vertex/edge weights are the
  /// sums of the fine material they stand for (the partitioning contract).
  /// `g` must outlive the returned steps only for the duration of the
  /// call.
  const std::vector<Step>& build_weighted(const WeightedGraph& g,
                                          HierarchyHandle& handle) const;

  /// Galerkin mode: build smoothed-aggregation operator levels from the
  /// fine matrix (taken by value: the hierarchy owns its finest operator).
  /// Every level's transfers, intermediates, and transpose permutations
  /// are retained in the handle's workspace for warm rebuilds.
  const std::vector<OperatorLevel>& build_galerkin(graph::CrsMatrix a_fine,
                                                   HierarchyHandle& handle) const;

  /// Warm value-only rebuild of the handle's Galerkin hierarchy for a
  /// matrix with the **same structure** as the one `build_galerkin` saw
  /// but different values: replays the prolongator smoothing and the
  /// triple products numerically into the existing structures. Zero heap
  /// allocations; results are identical to a cold `build_galerkin` on the
  /// new matrix. Throws std::logic_error when no Galerkin hierarchy has
  /// been built on `handle`, std::invalid_argument on a structure
  /// mismatch.
  const std::vector<OperatorLevel>& rebuild_galerkin(const graph::CrsMatrix& a_fine,
                                                     HierarchyHandle& handle) const;

 private:
  const std::vector<Step>& build_steps(graph::GraphView g0, const WeightedGraph* weighted,
                                       HierarchyHandle& h) const;

  Options opts_;
};

}  // namespace parmis::multilevel
