#include "solver/gauss_seidel.hpp"

#include <cassert>

#include "obs/timer.hpp"
#include "parallel/parallel_for.hpp"
#include "solver/jacobi.hpp"
#include "solver/vector_ops.hpp"

namespace parmis::solver {

void serial_gs_sweep(const graph::CrsMatrix& a, std::span<const scalar_t> b,
                     std::span<scalar_t> x, SweepDirection dir) {
  assert(a.num_rows == a.num_cols);
  const std::vector<scalar_t> inv_diag = inverted_diagonal(a);
  const ordinal_t n = a.num_rows;
  for (ordinal_t t = 0; t < n; ++t) {
    const ordinal_t i = dir == SweepDirection::Forward ? t : n - 1 - t;
    detail::gs_row_update(a, b.data(), x.data(), std::integral_constant<std::size_t, 1>{},
                          inv_diag[static_cast<std::size_t>(i)], i,
                          std::integral_constant<int, 1>{});
  }
}

PointMulticolorGS::PointMulticolorGS(const graph::CrsMatrix& a, const Context& ctx) {
  assert(a.num_rows == a.num_cols);
  Timer timer;
  Context::Scope scope(ctx);
  // Color the off-diagonal structure; the diagonal is not a coupling.
  coloring_ = coloring::parallel_d1_coloring(graph::GraphView(a));
  sets_ = coloring::color_sets(coloring_);
  inv_diag_ = inverted_diagonal(a);
  setup_seconds_ = timer.seconds();
}

void PointMulticolorGS::sweep(const graph::CrsMatrix& a, std::span<const scalar_t> b,
                              std::span<scalar_t> x, SweepDirection dir, int k_count) const {
  const ordinal_t nc = coloring_.num_colors;
  detail::for_each_lane_group(k_count, [&](int k0, auto kw, auto stride) {
    for (ordinal_t step = 0; step < nc; ++step) {
      const ordinal_t c = dir == SweepDirection::Forward ? step : nc - 1 - step;
      const offset_t begin = sets_.offsets[static_cast<std::size_t>(c)];
      const offset_t count = sets_.offsets[static_cast<std::size_t>(c) + 1] - begin;
      par::parallel_for(static_cast<ordinal_t>(count), [&](ordinal_t k) {
        const ordinal_t i = sets_.vertices[static_cast<std::size_t>(begin + k)];
        detail::gs_row_update(a, b.data() + k0, x.data() + k0, stride,
                              inv_diag_[static_cast<std::size_t>(i)], i, kw);
      });
    }
  });
}

void PointMulticolorGS::symmetric_sweep(const graph::CrsMatrix& a, std::span<const scalar_t> b,
                                        std::span<scalar_t> x, int k_count) const {
  sweep(a, b, x, SweepDirection::Forward, k_count);
  sweep(a, b, x, SweepDirection::Backward, k_count);
}

void PointGsPreconditioner::apply_multi(std::span<const scalar_t> r, std::span<scalar_t> z,
                                        ordinal_t n, int k_count) const {
  fill(z.first(static_cast<std::size_t>(n) * static_cast<std::size_t>(k_count)), 0.0);
  for (int s = 0; s < sweeps_; ++s) {
    gs_.symmetric_sweep(a_, r, z, k_count);
  }
}

}  // namespace parmis::solver
