#include "solver/amg.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <stdexcept>

#include "coloring/d2c_aggregation.hpp"
#include "graph/ops.hpp"
#include "graph/spgemm.hpp"
#include "graph/spmm.hpp"
#include "obs/timer.hpp"
#include "parallel/parallel_for.hpp"
#include "resilience/fault.hpp"
#include "resilience/status.hpp"
#include "solver/jacobi.hpp"
#include "solver/multivector.hpp"
#include "solver/serial_aggregation.hpp"
#include "solver/vector_ops.hpp"

namespace parmis::solver {

const char* to_string(AggregationScheme s) {
  switch (s) {
    case AggregationScheme::SerialAgg: return "Serial Agg";
    case AggregationScheme::SerialD2C: return "Serial D2C";
    case AggregationScheme::NBD2C: return "NB D2C";
    case AggregationScheme::Mis2Basic: return "MIS2 Basic";
    case AggregationScheme::Mis2Agg: return "MIS2 Agg";
  }
  return "?";
}

core::Aggregation run_aggregation(graph::GraphView adjacency, AggregationScheme scheme,
                                  const core::Mis2Options& mis2_opts,
                                  core::CoarsenHandle& handle) {
  core::CoarsenOptions copts;
  copts.mis2 = mis2_opts;
  switch (scheme) {
    case AggregationScheme::SerialAgg:
      return serial_aggregation(adjacency);
    case AggregationScheme::SerialD2C:
      return coloring::aggregate_d2c(adjacency, coloring::D2cMode::Serial);
    case AggregationScheme::NBD2C:
      return coloring::aggregate_d2c(adjacency, coloring::D2cMode::Parallel);
    case AggregationScheme::Mis2Basic:
      (void)core::coarseners().find("mis2-basic").make()->run(adjacency, {}, handle, copts);
      return handle.take_aggregation();
    case AggregationScheme::Mis2Agg:
      (void)core::coarseners().find("mis2").make()->run(adjacency, {}, handle, copts);
      return handle.take_aggregation();
  }
  throw std::invalid_argument("unknown aggregation scheme");
}

core::Aggregation run_aggregation(graph::GraphView adjacency, AggregationScheme scheme,
                                  const core::Mis2Options& mis2_opts) {
  core::CoarsenHandle handle;
  return run_aggregation(adjacency, scheme, mis2_opts, handle);
}

void set_aggregation_scheme(multilevel::Options& hierarchy, AggregationScheme scheme) {
  hierarchy.aggregator = nullptr;
  if (scheme == AggregationScheme::Mis2Agg) {
    hierarchy.coarsener = "mis2";
  } else if (scheme == AggregationScheme::Mis2Basic) {
    hierarchy.coarsener = "mis2-basic";
  } else {
    hierarchy.aggregator = [scheme](graph::GraphView g, core::CoarsenHandle& handle,
                                    const core::CoarsenOptions& copts, int /*level*/) {
      return run_aggregation(g, scheme, copts.mis2, handle);
    };
  }
}

AmgHierarchy AmgHierarchy::build(graph::CrsMatrix a_fine, const AmgOptions& opts) {
  // Injected setup failure (check builds): the classified throw a fallback
  // chain reroutes into a SetupFailed attempt record.
  if (PARMIS_FAULT_POINT("amg.setup_throw")) {
    throw resilience::SolveError(
        resilience::SolveStatus::SetupFailed,
        resilience::FailureInfo{"setup", "setup.amg.injected_fault", -1, -1},
        "amg: injected setup failure (fault point amg.setup_throw)");
  }
  AmgHierarchy h;
  h.opts_ = opts;
  Timer setup_timer;
  // The whole setup (aggregation, SpGEMM, smoother estimation) runs under
  // the options' context; unset inherits the ambient configuration — as
  // does any later rebuild(), instead of a stale build-time snapshot.
  const Context ctx = opts.hierarchy.ctx ? *opts.hierarchy.ctx : Context::default_ctx();
  Context::Scope scope(ctx);

  h.builder_ = multilevel::Builder(opts.hierarchy);
  (void)h.builder_.build_galerkin(std::move(a_fine), h.handle_);
  h.aggregation_seconds_ = h.handle_.build_stats().aggregation_seconds;
  h.finish_setup();
  h.setup_seconds_ = setup_timer.seconds();
  return h;
}

AmgHierarchy AmgHierarchy::adopt(
    std::vector<AmgLevel> levels, const AmgOptions& opts,
    std::vector<multilevel::SetupWorkspace::GalerkinLevel> workspace,
    multilevel::StopReason stop) {
  AmgHierarchy h;
  h.opts_ = opts;
  Timer setup_timer;
  const Context ctx = opts.hierarchy.ctx ? *opts.hierarchy.ctx : Context::default_ctx();
  Context::Scope scope(ctx);
  h.builder_ = multilevel::Builder(opts.hierarchy);
  multilevel::restore_galerkin(h.handle_, std::move(levels), std::move(workspace), stop);
  h.finish_setup();
  h.setup_seconds_ = setup_timer.seconds();
  return h;
}

namespace {

/// Effective direct-solve limit: explicit when set, else 4x the coarse
/// target (hierarchies that coarsen normally keep their exact LU bottom).
ordinal_t direct_limit(const AmgOptions& opts) {
  return opts.direct_size_limit > 0 ? opts.direct_size_limit
                                    : 4 * opts.hierarchy.min_coarse_size;
}

/// Factor the coarsest operator resiliently. A singular coarsest block
/// (near-null-space aliasing on a singular fine operator, or the injected
/// `amg.coarse_singular` fault) used to throw a raw runtime_error out of
/// the whole setup; instead the bottom solve degrades in two steps:
/// plain LU → LU with a tiny diagonal shift applied at fill time →
/// smoother-only bottom. `bottom` names the variant chosen ("lu",
/// "lu-perturbed", "smoother"). Passing the previous factorization as
/// `reuse` refactors in place (warm `rebuild`: the dense block is never
/// re-allocated, even across a failed plain attempt — `refactor` refills
/// from scratch each try).
std::unique_ptr<DenseLU> factor_bottom(const graph::CrsMatrix& a, const char*& bottom,
                                       std::unique_ptr<DenseLU> reuse = nullptr) {
  std::unique_ptr<DenseLU> lu = std::move(reuse);
  const auto factor = [&](scalar_t shift) {
    if (lu) {
      lu->refactor(a, shift);
    } else {
      lu = std::make_unique<DenseLU>(a, shift);
    }
  };
  if (!PARMIS_FAULT_POINT("amg.coarse_singular")) {
    try {
      factor(0);
      bottom = "lu";
      return lu;
    } catch (const resilience::SolveError&) {
      // fall through to the perturbed retry
    }
  }
  // Shift the diagonal by a tiny multiple of the largest entry: exact for
  // the well-posed part of the operator, well-posed for the null space.
  scalar_t amax = 0;
  for (const scalar_t v : a.values) amax = std::max(amax, std::abs(v));
  const scalar_t shift = (amax > 0 ? amax : scalar_t{1}) * scalar_t{1e-10};
  try {
    factor(shift);
    bottom = "lu-perturbed";
    return lu;
  } catch (const resilience::SolveError&) {
    // Rows with no stored diagonal cannot be fixed by a shift; bottom out
    // with smoother sweeps, which never factor anything.
    bottom = "smoother";
    return nullptr;
  }
}

}  // namespace

void AmgHierarchy::rebuild(const graph::CrsMatrix& a_fine) {
  Timer setup_timer;
  const Context ctx = opts_.hierarchy.ctx ? *opts_.hierarchy.ctx : Context::default_ctx();
  Context::Scope scope(ctx);

  (void)builder_.rebuild_galerkin(a_fine, handle_);
  // Smoothers and the coarse LU are value-dependent; the V-cycle
  // workspaces are structure-shaped and already sized. Both refresh in
  // place: Chebyshev re-runs its power iteration into existing scratch
  // (bit-identical to fresh construction) and the coarse LU refactors its
  // own dense storage, so a warm rebuild allocates nothing here.
  const std::vector<AmgLevel>& levels = handle_.ops();
  if (opts_.smoother == SmootherType::Chebyshev) {
    for (std::size_t i = 0; i < levels.size(); ++i) {
      chebyshev_[i]->reestimate(levels[i].a);
    }
  }
  if (coarse_lu_) {
    coarse_lu_ = factor_bottom(levels.back().a, bottom_solve_, std::move(coarse_lu_));
  }
  setup_seconds_ = setup_timer.seconds();
}

void AmgHierarchy::finish_setup() {
  const std::vector<AmgLevel>& levels = handle_.ops();
  chebyshev_.clear();
  chebyshev_.resize(levels.size());
  if (opts_.smoother == SmootherType::Chebyshev) {
    for (std::size_t i = 0; i < levels.size(); ++i) {
      chebyshev_[i] = std::make_unique<ChebyshevSmoother>(levels[i].a, opts_.chebyshev_degree);
    }
  }
  // Bottom solve: a dense LU when the coarsest level is genuinely coarse;
  // when an early stop (rate floor, complexity cap, stall) left it large,
  // factoring it densely would be the new blowup — bottom out with
  // smoother sweeps instead. The factorization itself degrades through
  // `factor_bottom` when the coarsest block is singular.
  if (levels.back().a.num_rows <= direct_limit(opts_)) {
    coarse_lu_ = factor_bottom(levels.back().a, bottom_solve_);
  } else {
    coarse_lu_ = nullptr;
    bottom_solve_ = "smoother";
  }

  // V-cycle workspaces: demand-grown by ensure_mwork() to the widest batch
  // seen. A fresh setup resets the width so stale level shapes are never
  // reused, then sizes them for one column so apply()/vcycle() never
  // allocate.
  mwork_r_.assign(levels.size(), {});
  mwork_bc_.assign(levels.size(), {});
  mwork_xc_.assign(levels.size(), {});
  mwork_s1_.assign(levels.size(), {});
  mwork_s2_.assign(levels.size(), {});
  mwork_s3_.assign(levels.size(), {});
  mwork_k_ = 0;
  ensure_mwork(1);
}

void AmgHierarchy::ensure_mwork(int k_count) const {
  if (k_count <= mwork_k_) return;
  const std::vector<AmgLevel>& levels = handle_.ops();
  const std::size_t uk = static_cast<std::size_t>(k_count);
  for (std::size_t i = 0; i < levels.size(); ++i) {
    const std::size_t n = static_cast<std::size_t>(levels[i].a.num_rows);
    mwork_r_[i].resize(n * uk);
    mwork_s1_[i].resize(n * uk);
    if (opts_.smoother == SmootherType::Chebyshev) {
      mwork_s2_[i].resize(n * uk);
      mwork_s3_[i].resize(n * uk);
    }
    if (i + 1 < levels.size()) {
      const std::size_t nc = static_cast<std::size_t>(levels[i + 1].a.num_rows);
      mwork_bc_[i].resize(nc * uk);
      mwork_xc_[i].resize(nc * uk);
    }
  }
  mwork_k_ = k_count;
}

void AmgHierarchy::smooth_level_multi(std::size_t lvl, std::span<const scalar_t> rhs,
                                      std::span<scalar_t> sol, int k_count,
                                      bool sol_is_zero) const {
  const AmgLevel& level = handle_.ops()[lvl];
  const std::size_t nk =
      static_cast<std::size_t>(level.a.num_rows) * static_cast<std::size_t>(k_count);
  if (chebyshev_[lvl]) {
    for (int s = 0; s < opts_.smoother_sweeps; ++s) {
      chebyshev_[lvl]->smooth_multi(level.a, rhs, sol,
                                    std::span<scalar_t>(mwork_s1_[lvl].data(), nk),
                                    std::span<scalar_t>(mwork_s2_[lvl].data(), nk),
                                    std::span<scalar_t>(mwork_s3_[lvl].data(), nk), k_count);
    }
  } else {
    jacobi_smooth_multi(level.a, level.inv_diag, rhs, sol, opts_.smoother_sweeps,
                        opts_.jacobi_omega, std::span<scalar_t>(mwork_s1_[lvl].data(), nk),
                        k_count, sol_is_zero);
  }
}

void AmgHierarchy::cycle_level_multi(std::size_t lvl, std::span<const scalar_t> b,
                                     std::span<scalar_t> x, int k_count,
                                     bool x_is_zero) const {
  const std::vector<AmgLevel>& levels = handle_.ops();
  const AmgLevel& level = levels[lvl];
  const std::size_t uk = static_cast<std::size_t>(k_count);
  if (lvl + 1 == levels.size()) {
    if (coarse_lu_) {
      coarse_lu_->solve_multi(b, x, k_count);
    } else {
      smooth_level_multi(lvl, b, x, k_count, x_is_zero);
    }
    return;
  }

  // Pre-smooth.
  smooth_level_multi(lvl, b, x, k_count, x_is_zero);

  // Coarse-grid correction — one fused kernel per grid transfer.
  const ordinal_t n = level.a.num_rows;
  std::span<scalar_t> r(mwork_r_[lvl].data(), static_cast<std::size_t>(n) * uk);
  graph::spmm(level.a, x, r, k_count);
  mv_axpby(1.0, b, -1.0, r, n, k_count);  // R = B - A X
  const ordinal_t nc = levels[lvl + 1].a.num_rows;
  std::span<scalar_t> bc(mwork_bc_[lvl].data(), static_cast<std::size_t>(nc) * uk);
  graph::spmm(level.r, r, bc, k_count);
  std::span<scalar_t> xc(mwork_xc_[lvl].data(), static_cast<std::size_t>(nc) * uk);
  fill(xc, 0.0);
  cycle_level_multi(lvl + 1, bc, xc, k_count, /*x_is_zero=*/true);
  // X += P Xc
  graph::spmm(1.0, level.p, xc, 0.0, r, k_count);
  mv_axpby(1.0, r, 1.0, x, n, k_count);

  // Post-smooth.
  smooth_level_multi(lvl, b, x, k_count, /*sol_is_zero=*/false);
}

void AmgHierarchy::vcycle(std::span<const scalar_t> b, std::span<scalar_t> x) const {
  cycle_level_multi(0, b, x, 1, /*x_is_zero=*/false);  // x is the caller's guess
}

void AmgHierarchy::apply_multi(std::span<const scalar_t> r, std::span<scalar_t> z, ordinal_t n,
                               int k_count) const {
  assert(n == handle_.ops().front().a.num_rows);
  ensure_mwork(k_count);
  const std::size_t nk = static_cast<std::size_t>(n) * static_cast<std::size_t>(k_count);
  fill(std::span<scalar_t>(z.data(), nk), 0.0);
  cycle_level_multi(0, r.subspan(0, nk), std::span<scalar_t>(z.data(), nk), k_count,
                    /*x_is_zero=*/true);
}

std::string AmgHierarchy::name() const {
  return "sa-amg(" + (opts_.hierarchy.aggregator ? "aggregator" : opts_.hierarchy.coarsener) +
         ")";
}

double AmgHierarchy::operator_complexity() const {
  return handle_.build_stats().operator_complexity;
}

double AmgHierarchy::grid_complexity() const { return handle_.build_stats().grid_complexity; }

}  // namespace parmis::solver
