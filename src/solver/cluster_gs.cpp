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
                                std::span<scalar_t> x, SweepDirection dir, int k_count) const {
  const ordinal_t nc = coloring_.num_colors;
  const bool forward = dir == SweepDirection::Forward;
  detail::for_each_lane_group(k_count, [&](int k0, auto kw, auto stride) {
    for (ordinal_t step = 0; step < nc; ++step) {
      const ordinal_t color = forward ? step : nc - 1 - step;
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
        // Row order within the cluster reverses on the backward sweep.
        for (offset_t t = 0; t < me - mb; ++t) {
          const offset_t m = forward ? mb + t : me - 1 - t;
          const ordinal_t i = members_.members[static_cast<std::size_t>(m)];
          detail::gs_row_update(a, b.data() + k0, x.data() + k0, stride,
                                inv_diag_[static_cast<std::size_t>(i)], i, kw);
        }
      });
    }
  });
}

void ClusterMulticolorGS::symmetric_sweep(const graph::CrsMatrix& a,
                                          std::span<const scalar_t> b,
                                          std::span<scalar_t> x, int k_count) const {
  sweep(a, b, x, SweepDirection::Forward, k_count);
  sweep(a, b, x, SweepDirection::Backward, k_count);
}

void ClusterGsPreconditioner::apply_multi(std::span<const scalar_t> r, std::span<scalar_t> z,
                                          ordinal_t n, int k_count) const {
  fill(z.first(static_cast<std::size_t>(n) * static_cast<std::size_t>(k_count)), 0.0);
  for (int s = 0; s < sweeps_; ++s) {
    gs_.symmetric_sweep(a_, r, z, k_count);
  }
}

}  // namespace parmis::solver
