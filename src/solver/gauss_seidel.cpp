#include "solver/gauss_seidel.hpp"

#include <cassert>

#include "obs/timer.hpp"
#include "parallel/parallel_for.hpp"
#include "solver/jacobi.hpp"
#include "solver/vector_ops.hpp"

namespace parmis::solver {

namespace {

/// GS row update shared by every variant: x_i from the current x.
inline void gs_row_update(const graph::CrsMatrix& a, std::span<const scalar_t> b,
                          std::span<scalar_t> x, scalar_t inv_diag_i, ordinal_t i) {
  scalar_t acc = b[static_cast<std::size_t>(i)];
  for (offset_t j = a.row_map[i]; j < a.row_map[i + 1]; ++j) {
    const ordinal_t col = a.entries[static_cast<std::size_t>(j)];
    if (col != i) {
      acc -= a.values[static_cast<std::size_t>(j)] * x[static_cast<std::size_t>(col)];
    }
  }
  x[static_cast<std::size_t>(i)] = acc * inv_diag_i;
}

}  // namespace

void serial_gs_sweep(const graph::CrsMatrix& a, std::span<const scalar_t> b,
                     std::span<scalar_t> x, SweepDirection dir) {
  assert(a.num_rows == a.num_cols);
  const std::vector<scalar_t> inv_diag = inverted_diagonal(a);
  if (dir == SweepDirection::Forward) {
    for (ordinal_t i = 0; i < a.num_rows; ++i) {
      gs_row_update(a, b, x, inv_diag[static_cast<std::size_t>(i)], i);
    }
  } else {
    for (ordinal_t i = a.num_rows - 1; i >= 0; --i) {
      gs_row_update(a, b, x, inv_diag[static_cast<std::size_t>(i)], i);
    }
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
                              std::span<scalar_t> x, SweepDirection dir) const {
  const ordinal_t nc = coloring_.num_colors;
  for (ordinal_t step = 0; step < nc; ++step) {
    const ordinal_t c = dir == SweepDirection::Forward ? step : nc - 1 - step;
    const offset_t begin = sets_.offsets[static_cast<std::size_t>(c)];
    const offset_t count = sets_.offsets[static_cast<std::size_t>(c) + 1] - begin;
    par::parallel_for(static_cast<ordinal_t>(count), [&](ordinal_t k) {
      const ordinal_t i = sets_.vertices[static_cast<std::size_t>(begin + k)];
      gs_row_update(a, b, x, inv_diag_[static_cast<std::size_t>(i)], i);
    });
  }
}

void PointMulticolorGS::symmetric_sweep(const graph::CrsMatrix& a, std::span<const scalar_t> b,
                                        std::span<scalar_t> x) const {
  sweep(a, b, x, SweepDirection::Forward);
  sweep(a, b, x, SweepDirection::Backward);
}

void PointGsPreconditioner::apply(std::span<const scalar_t> r, std::span<scalar_t> z) const {
  fill(z, 0.0);
  for (int s = 0; s < sweeps_; ++s) {
    gs_.symmetric_sweep(a_, r, z);
  }
}

}  // namespace parmis::solver
