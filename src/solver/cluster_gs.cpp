#include "solver/cluster_gs.hpp"

#include <cassert>

#include "graph/ops.hpp"
#include "obs/timer.hpp"
#include "parallel/parallel_for.hpp"
#include "solver/jacobi.hpp"
#include "solver/vector_ops.hpp"

namespace parmis::solver {

ClusterMulticolorGS::ClusterMulticolorGS(const graph::CrsMatrix& a, Coarsening coarsening,
                                         const core::Mis2Options& mis2_opts)
    : ClusterMulticolorGS(a, coarsening == Coarsening::Mis2Agg ? "mis2" : "mis2-basic",
                          mis2_opts) {}

ClusterMulticolorGS::ClusterMulticolorGS(const graph::CrsMatrix& a, const std::string& coarsener,
                                         const core::Mis2Options& mis2_opts, const Context& ctx) {
  assert(a.num_rows == a.num_cols);
  Timer timer;
  Context::Scope scope(ctx);  // coloring + member setup run under ctx too

  // Aggregate over the loop-free adjacency (matrix rows carry diagonals),
  // through the registry-named coarsener.
  const graph::CrsGraph adj = graph::remove_self_loops(graph::GraphView(a));
  core::CoarsenHandle handle(mis2_opts, ctx);
  core::CoarsenOptions copts;
  copts.mis2 = mis2_opts;
  core::coarseners().find(coarsener).make()->run(adj, {}, handle, copts);
  aggregation_ = handle.take_aggregation();
  members_ = core::aggregate_members(aggregation_);

  const graph::CrsGraph coarse = core::coarse_graph(adj, aggregation_);
  coloring_ = coloring::parallel_d1_coloring(coarse);
  cluster_sets_ = coloring::color_sets(coloring_);
  inv_diag_ = inverted_diagonal(a);
  setup_seconds_ = timer.seconds();
}

void ClusterMulticolorGS::sweep(const graph::CrsMatrix& a, std::span<const scalar_t> b,
                                std::span<scalar_t> x, SweepDirection dir) const {
  const ordinal_t nc = coloring_.num_colors;
  for (ordinal_t step = 0; step < nc; ++step) {
    const ordinal_t color = dir == SweepDirection::Forward ? step : nc - 1 - step;
    const offset_t begin = cluster_sets_.offsets[static_cast<std::size_t>(color)];
    const offset_t count = cluster_sets_.offsets[static_cast<std::size_t>(color) + 1] - begin;
    // Clusters of one color share no coupling: parallel across clusters,
    // classical (sequential) GS inside each cluster. Each iteration is a
    // whole cluster, so parallelize even for a handful of them.
    par::parallel_for_grained(static_cast<ordinal_t>(count), 2, [&](ordinal_t k) {
      const ordinal_t cluster =
          cluster_sets_.vertices[static_cast<std::size_t>(begin + k)];
      const offset_t mb = members_.offsets[static_cast<std::size_t>(cluster)];
      const offset_t me = members_.offsets[static_cast<std::size_t>(cluster) + 1];
      if (dir == SweepDirection::Forward) {
        for (offset_t m = mb; m < me; ++m) {
          const ordinal_t i = members_.members[static_cast<std::size_t>(m)];
          scalar_t acc = b[static_cast<std::size_t>(i)];
          for (offset_t j = a.row_map[i]; j < a.row_map[i + 1]; ++j) {
            const ordinal_t col = a.entries[static_cast<std::size_t>(j)];
            if (col != i) acc -= a.values[static_cast<std::size_t>(j)] * x[static_cast<std::size_t>(col)];
          }
          x[static_cast<std::size_t>(i)] = acc * inv_diag_[static_cast<std::size_t>(i)];
        }
      } else {
        // Row order within the cluster reverses on the backward sweep.
        for (offset_t m = me - 1; m >= mb; --m) {
          const ordinal_t i = members_.members[static_cast<std::size_t>(m)];
          scalar_t acc = b[static_cast<std::size_t>(i)];
          for (offset_t j = a.row_map[i]; j < a.row_map[i + 1]; ++j) {
            const ordinal_t col = a.entries[static_cast<std::size_t>(j)];
            if (col != i) acc -= a.values[static_cast<std::size_t>(j)] * x[static_cast<std::size_t>(col)];
          }
          x[static_cast<std::size_t>(i)] = acc * inv_diag_[static_cast<std::size_t>(i)];
        }
      }
    });
  }
}

void ClusterMulticolorGS::symmetric_sweep(const graph::CrsMatrix& a,
                                          std::span<const scalar_t> b,
                                          std::span<scalar_t> x) const {
  sweep(a, b, x, SweepDirection::Forward);
  sweep(a, b, x, SweepDirection::Backward);
}

void ClusterGsPreconditioner::apply(std::span<const scalar_t> r,
                                    std::span<scalar_t> z) const {
  fill(z, 0.0);
  for (int s = 0; s < sweeps_; ++s) {
    gs_.symmetric_sweep(a_, r, z);
  }
}

}  // namespace parmis::solver
