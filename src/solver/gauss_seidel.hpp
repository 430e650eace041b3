#pragma once
/// \file gauss_seidel.hpp
/// \brief Gauss-Seidel sweeps: serial reference and point multicolor
/// (Deveci et al., the paper's prior-art preconditioner).
///
/// Classical GS updates `x_i = (b_i - sum_{j != i} a_ij x_j) / a_ii` in row
/// order and is inherently sequential. Point multicolor GS colors the
/// matrix graph and updates each color class in parallel: rows of one color
/// share no off-diagonal coupling, so the parallel update within a class is
/// exactly GS restricted to that ordering. The cost is more solver
/// iterations than sequential GS — the gap cluster multicolor GS
/// (cluster_gs.hpp) closes.
///
/// The multicolor sweeps take n x K row-major multi-vectors (element
/// (i, c) at `i * K + c`): one row traversal updates all K lanes, and each
/// lane runs the single-vector row update in the single-vector order, so
/// column c is bit-identical to a sweep of that column alone.

#include <algorithm>
#include <cstddef>
#include <span>
#include <type_traits>
#include <vector>

#include "coloring/d1_coloring.hpp"
#include "graph/crs.hpp"
#include "parallel/context.hpp"
#include "parallel/simd.hpp"
#include "solver/preconditioner.hpp"

namespace parmis::solver {

enum class SweepDirection { Forward, Backward };

namespace detail {

/// The Gauss-Seidel update of row i in `kw` lanes of row-major
/// multi-vectors with row stride `stride` (`b` and `x` point at the first
/// lane of the group): each lane computes
/// x_i = (b_i - sum_{j != i} a_ij x_j) / a_ii from the current x,
/// subtracting in entry order — the single-vector update, lane by lane.
/// Every sweep variant runs this one body.
template <typename Lanes, typename Stride>
inline void gs_row_update(const graph::CrsMatrix& a, const scalar_t* b, scalar_t* x,
                          Stride stride, scalar_t inv_diag_i, ordinal_t i, Lanes kw) {
  const std::size_t at = static_cast<std::size_t>(i) * stride;
  scalar_t acc[par::lane_group];
  for (int k = 0; k < kw; ++k) acc[k] = b[at + static_cast<std::size_t>(k)];
  for (offset_t j = a.row_map[i]; j < a.row_map[i + 1]; ++j) {
    const ordinal_t col = a.entries[static_cast<std::size_t>(j)];
    if (col == i) continue;
    const scalar_t v = a.values[static_cast<std::size_t>(j)];
    const scalar_t* xc = x + static_cast<std::size_t>(col) * stride;
    for (int k = 0; k < kw; ++k) acc[k] -= v * xc[k];
  }
  for (int k = 0; k < kw; ++k) x[at + static_cast<std::size_t>(k)] = acc[k] * inv_diag_i;
}

/// Run `f(k0, kw, stride)` for each group of at most `par::lane_group`
/// lanes of a k_count-wide multi-vector (`kw` a compile-time constant for
/// the common widths). Lanes never read each other, so a sweep runs group
/// by group. One column passes a compile-time unit stride: the
/// single-vector row loop, with no stride multiply.
template <typename F>
void for_each_lane_group(int k_count, F&& f) {
  if (k_count == 1) {
    f(0, std::integral_constant<int, 1>{}, std::integral_constant<std::size_t, 1>{});
    return;
  }
  const std::size_t stride = static_cast<std::size_t>(k_count);
  for (int k0 = 0; k0 < k_count; k0 += par::lane_group) {
    par::with_lane_width(std::min(k_count - k0, par::lane_group),
                         [&](auto kw) { f(k0, kw, stride); });
  }
}

}  // namespace detail

/// One serial Gauss-Seidel sweep (reference implementation).
void serial_gs_sweep(const graph::CrsMatrix& a, std::span<const scalar_t> b,
                     std::span<scalar_t> x, SweepDirection dir);

/// Point multicolor Gauss-Seidel setup: a distance-1 coloring of A's
/// graph plus the color classes and inverted diagonal.
class PointMulticolorGS {
 public:
  /// Color A's adjacency (parallel, deterministic) and cache the classes;
  /// setup runs under `ctx`.
  explicit PointMulticolorGS(const graph::CrsMatrix& a,
                             const Context& ctx = Context::default_ctx());

  /// One multicolor sweep over n x k_count multi-vectors: colors
  /// ascending (Forward) or descending (Backward); rows within a color
  /// update in parallel.
  void sweep(const graph::CrsMatrix& a, std::span<const scalar_t> b, std::span<scalar_t> x,
             SweepDirection dir, int k_count = 1) const;

  /// Symmetric sweep (forward then backward) — "point multicolor SGS".
  void symmetric_sweep(const graph::CrsMatrix& a, std::span<const scalar_t> b,
                       std::span<scalar_t> x, int k_count = 1) const;

  [[nodiscard]] ordinal_t num_colors() const { return coloring_.num_colors; }
  [[nodiscard]] double setup_seconds() const { return setup_seconds_; }

 private:
  coloring::Coloring coloring_;
  coloring::ColorSets sets_;
  std::vector<scalar_t> inv_diag_;
  double setup_seconds_{0};
};

/// Preconditioner adapter: z = M^{-1} r approximated by `sweeps` symmetric
/// point-multicolor GS sweeps on A z = r starting from z = 0, K columns
/// per sweep.
class PointGsPreconditioner final : public Preconditioner {
 public:
  PointGsPreconditioner(const graph::CrsMatrix& a, int sweeps = 1,
                        const Context& ctx = Context::default_ctx())
      : a_(a), gs_(a, ctx), sweeps_(sweeps) {}

  void apply_multi(std::span<const scalar_t> r, std::span<scalar_t> z, ordinal_t n,
                   int k_count) const override;
  [[nodiscard]] std::string name() const override { return "point-multicolor-sgs"; }
  [[nodiscard]] const PointMulticolorGS& gs() const { return gs_; }

 private:
  const graph::CrsMatrix& a_;
  PointMulticolorGS gs_;
  int sweeps_;
};

}  // namespace parmis::solver
