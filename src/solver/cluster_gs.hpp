#pragma once
/// \file cluster_gs.hpp
/// \brief Cluster multicolor Gauss-Seidel (paper Algorithm 4) — the
/// paper's third contribution.
///
/// Setup: coarsen A's graph with MIS-2 aggregation (Algorithm 3 by
/// default), then color the *coarse* graph. Each color class is a set of
/// clusters with no inter-cluster coupling, so clusters of one color update
/// in parallel while rows *within* a cluster update sequentially — locally
/// exact Gauss-Seidel. This keeps iteration counts close to sequential GS
/// (point multicolor GS's weakness) while the coarse graph is much smaller
/// to color, which is why both setup and apply beat the point method in
/// Table VI.

#include <span>
#include <string>
#include <vector>

#include "core/aggregation.hpp"
#include "core/coarsen.hpp"
#include "core/coarsener.hpp"
#include "coloring/d1_coloring.hpp"
#include "graph/crs.hpp"
#include "solver/gauss_seidel.hpp"
#include "solver/preconditioner.hpp"

namespace parmis::solver {

/// Cluster multicolor GS state (Algorithm 4's setup phase; reusable while
/// A's structure is unchanged).
class ClusterMulticolorGS {
 public:
  /// Choice of coarsening inside setup (maps onto the core `Coarsener`
  /// registry; the string constructor reaches any registered scheme).
  enum class Coarsening { Mis2Agg, Mis2Basic };

  explicit ClusterMulticolorGS(const graph::CrsMatrix& a,
                               Coarsening coarsening = Coarsening::Mis2Agg,
                               const core::Mis2Options& mis2_opts = {});

  /// Setup with a registry-named coarsener ("mis2", "mis2-basic", "hem",
  /// ...) under an explicit execution context.
  ClusterMulticolorGS(const graph::CrsMatrix& a, const std::string& coarsener,
                      const core::Mis2Options& mis2_opts,
                      const Context& ctx = Context::default_ctx());

  /// One cluster multicolor sweep over n x k_count multi-vectors.
  /// Backward reverses both the color order and the row order within each
  /// cluster (paper §III-C).
  void sweep(const graph::CrsMatrix& a, std::span<const scalar_t> b, std::span<scalar_t> x,
             SweepDirection dir, int k_count = 1) const;

  /// Symmetric sweep — "cluster multicolor SGS".
  void symmetric_sweep(const graph::CrsMatrix& a, std::span<const scalar_t> b,
                       std::span<scalar_t> x, int k_count = 1) const;

  [[nodiscard]] ordinal_t num_clusters() const { return aggregation_.num_aggregates; }
  [[nodiscard]] ordinal_t num_colors() const { return coloring_.num_colors; }
  [[nodiscard]] double setup_seconds() const { return setup_seconds_; }
  [[nodiscard]] const core::Aggregation& aggregation() const { return aggregation_; }

 private:
  core::Aggregation aggregation_;
  core::AggregateMembers members_;
  coloring::Coloring coloring_;      // of the coarse graph
  coloring::ColorSets cluster_sets_; // clusters grouped by color
  std::vector<scalar_t> inv_diag_;
  double setup_seconds_{0};
};

/// Preconditioner adapter: `sweeps` symmetric cluster-GS sweeps on
/// A z = r from z = 0, K columns per sweep.
class ClusterGsPreconditioner final : public Preconditioner {
 public:
  ClusterGsPreconditioner(const graph::CrsMatrix& a, int sweeps = 1,
                          ClusterMulticolorGS::Coarsening coarsening =
                              ClusterMulticolorGS::Coarsening::Mis2Agg)
      : a_(a), gs_(a, coarsening), sweeps_(sweeps) {}

  /// Registry-composed setup: any registered coarsener by name, under an
  /// explicit execution context (the "cluster-gs" registry entry's path).
  ClusterGsPreconditioner(const graph::CrsMatrix& a, int sweeps, const std::string& coarsener,
                          const core::Mis2Options& mis2_opts = {},
                          const Context& ctx = Context::default_ctx())
      : a_(a), gs_(a, coarsener, mis2_opts, ctx), sweeps_(sweeps) {}

  void apply_multi(std::span<const scalar_t> r, std::span<scalar_t> z, ordinal_t n,
                   int k_count) const override;
  [[nodiscard]] std::string name() const override { return "cluster-multicolor-sgs"; }
  [[nodiscard]] const ClusterMulticolorGS& gs() const { return gs_; }

 private:
  const graph::CrsMatrix& a_;
  ClusterMulticolorGS gs_;
  int sweeps_;
};

}  // namespace parmis::solver
