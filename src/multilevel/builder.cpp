#include "multilevel/builder.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <memory>
#include <stdexcept>

#include "check/alloc_guard.hpp"
#include "check/check.hpp"
#include "check/validate.hpp"
#include "core/coarsen.hpp"
#include "core/coarsener.hpp"
#include "graph/ops.hpp"
#include "graph/spgemm.hpp"
#include "obs/timer.hpp"
#include "obs/trace.hpp"
#include "parallel/parallel_for.hpp"
#include "resilience/fault.hpp"
#include "resilience/status.hpp"

namespace parmis::multilevel {

namespace {

/// Per-level coarsening configuration under the options' seed policy.
core::CoarsenOptions level_coarsen_options(const Options& o, int level) {
  core::CoarsenOptions copts;
  copts.mis2 = o.mis2;
  copts.hem_seed = o.seed;
  if (o.reseed_per_level) {
    copts.mis2.seed ^= static_cast<std::uint64_t>(level + 1) * 0x9E3779B97F4A7C15ull;
    copts.hem_seed = o.seed + static_cast<std::uint64_t>(level);
  }
  return copts;
}

/// One level of aggregation into `out` (capacity-preserving copy from the
/// handle, or the custom hook's result).
void aggregate_level(const Options& o, const core::Coarsener* coarsener, graph::GraphView g,
                     std::span<const ordinal_t> edge_weight, core::CoarsenHandle& handle,
                     int level, core::Aggregation& out) {
  const core::CoarsenOptions copts = level_coarsen_options(o, level);
  if (o.aggregator) {
    out = o.aggregator(g, handle, copts, level);
    return;
  }
  (void)coarsener->run(g, edge_weight, handle, copts);
  const core::Aggregation& agg = handle.aggregation();
  out.labels.assign(agg.labels.begin(), agg.labels.end());
  out.roots.assign(agg.roots.begin(), agg.roots.end());
  out.num_aggregates = agg.num_aggregates;
  out.phase1_iterations = agg.phase1_iterations;
  out.phase2_iterations = agg.phase2_iterations;
}

/// Coarsening-rate floor: a step that fails to shrink, or shrinks by less
/// than the floor allows, counts as stalled.
bool step_stalled(const Options& o, ordinal_t num_coarse, ordinal_t num_fine) {
  return num_coarse >= num_fine ||
         static_cast<double>(num_coarse) > o.rate_floor * static_cast<double>(num_fine);
}

/// Tentative prolongator into an existing matrix: column a = normalized
/// indicator of aggregate a; exactly one entry per row.
void tentative_prolongator(const core::Aggregation& agg, graph::CrsMatrix& p) {
  const ordinal_t n = static_cast<ordinal_t>(agg.labels.size());
  std::vector<ordinal_t> agg_size(static_cast<std::size_t>(agg.num_aggregates), 0);
  for (ordinal_t v = 0; v < n; ++v) {
    ++agg_size[static_cast<std::size_t>(agg.labels[static_cast<std::size_t>(v)])];
  }

  p.num_rows = n;
  p.num_cols = agg.num_aggregates;
  p.row_map.resize(static_cast<std::size_t>(n) + 1);
  for (ordinal_t v = 0; v <= n; ++v) p.row_map[static_cast<std::size_t>(v)] = v;
  p.entries.resize(static_cast<std::size_t>(n));
  p.values.resize(static_cast<std::size_t>(n));
  par::parallel_for(n, [&](ordinal_t v) {
    const ordinal_t a = agg.labels[static_cast<std::size_t>(v)];
    p.entries[static_cast<std::size_t>(v)] = a;
    p.values[static_cast<std::size_t>(v)] =
        1.0 / std::sqrt(static_cast<scalar_t>(agg_size[static_cast<std::size_t>(a)]));
  });
}

/// Inverted diagonal into an existing buffer (capacity-preserving; zero
/// allocations warm). Same extraction and inversion as
/// `solver::inverted_diagonal`, so values are identical.
void invert_diagonal(const graph::CrsMatrix& a, std::vector<scalar_t>& inv) {
  inv.resize(static_cast<std::size_t>(a.num_rows));
  graph::extract_diagonal(a, inv);
  for (std::size_t i = 0; i < inv.size(); ++i) {
    const scalar_t v = inv[i];
    if (v == 0 || !std::isfinite(v)) {
      throw resilience::SolveError(
          resilience::SolveStatus::SingularOperator,
          resilience::FailureInfo{"setup", "setup.multilevel.zero_diagonal", -1,
                                  static_cast<std::int64_t>(i)},
          "multilevel: zero or non-finite diagonal entry at row " + std::to_string(i));
    }
    inv[i] = 1.0 / v;
  }
}

double ratio(double num, double den) { return den > 0 ? num / den : 1.0; }

}  // namespace

const std::vector<Step>& Builder::build_steps(graph::GraphView g0, const WeightedGraph* weighted,
                                              HierarchyHandle& h) const {
  Timer build_timer;
  const Context ctx = opts_.ctx ? *opts_.ctx : Context::default_ctx();
  Context::Scope scope(ctx);
  PARMIS_SPAN("multilevel.build");
  if (opts_.ctx) h.ws_.coarsen.set_context(ctx);
  const std::size_t bytes_before = h.scratch_bytes();

  h.ops_.clear();
  h.ws_.galerkin.clear();
  HierarchyStats& st = h.build_stats_;
  st.level_rows.clear();
  st.level_entries.clear();
  st.aggregation_seconds = 0;
  st.rebuild_seconds = 0;

  std::unique_ptr<core::Coarsener> coarsener;
  if (!opts_.aggregator) coarsener = core::coarseners().find(opts_.coarsener).make();

  const graph::GraphView fine_view = weighted ? graph::GraphView(weighted->graph) : g0;
  st.level_rows.push_back(fine_view.num_rows);
  st.level_entries.push_back(fine_view.num_entries());

  StopReason stop = StopReason::MaxLevels;
  int nsteps = 0;
  for (int level = 0; level < opts_.max_levels; ++level) {
    // Step slots are reused across builds on the same handle (their label
    // buffers keep their capacity; each contraction replaces the coarse
    // graph). A fresh slot recycles the spare parked by the last stalled
    // build.
    if (static_cast<std::size_t>(level) == h.steps_.size()) {
      h.steps_.push_back(std::move(h.ws_.spare_step));
      h.ws_.spare_step = Step{};
    }
    Step& step = h.steps_[static_cast<std::size_t>(level)];
    const WeightedGraph* cur =
        weighted ? (level == 0 ? weighted : &h.steps_[static_cast<std::size_t>(level) - 1].coarse)
                 : nullptr;
    const graph::GraphView view =
        level == 0 ? fine_view
                   : graph::GraphView(h.steps_[static_cast<std::size_t>(level) - 1].coarse.graph);
    if (view.num_rows <= opts_.min_coarse_size) {
      stop = StopReason::CoarseEnough;
      break;
    }
    const std::span<const ordinal_t> edge_weight =
        cur ? std::span<const ordinal_t>(cur->edge_weight) : std::span<const ordinal_t>{};

    obs::Span level_span("multilevel.level");
    level_span.arg("level", level);
    level_span.arg("rows", view.num_rows);
    Timer agg_timer;
    {
      PARMIS_SPAN("multilevel.aggregate");
      aggregate_level(opts_, coarsener.get(), view, edge_weight, h.ws_.coarsen, level,
                      step.aggregation);
    }
    st.aggregation_seconds += agg_timer.seconds();
    if (step_stalled(opts_, step.aggregation.num_aggregates, view.num_rows)) {
      stop = StopReason::Stalled;
      break;
    }

    {
      PARMIS_SPAN("multilevel.contract");
      step.coarse = weighted ? coarsen_weighted(*cur, step.aggregation)
                             : WeightedGraph{core::coarse_graph(view, step.aggregation), {}, {}};
    }
    st.level_rows.push_back(step.coarse.graph.num_rows);
    st.level_entries.push_back(step.coarse.graph.num_entries());
    ++nsteps;
  }
  if (h.steps_.size() > static_cast<std::size_t>(nsteps)) {
    // Park the first dropped step (the one a stall just aggregated into)
    // so its buffers survive for the next build on this handle.
    h.ws_.spare_step = std::move(h.steps_[static_cast<std::size_t>(nsteps)]);
    h.steps_.resize(static_cast<std::size_t>(nsteps));
  }

  st.levels = nsteps + 1;
  st.stop = stop;
  double rows = 0, entries = 0;
  for (std::size_t l = 0; l < st.level_rows.size(); ++l) {
    rows += st.level_rows[l];
    entries += static_cast<double>(st.level_entries[l]);
  }
  st.grid_complexity = ratio(rows, st.level_rows.front());
  st.operator_complexity = ratio(entries, static_cast<double>(st.level_entries.front()));
  st.build_seconds = build_timer.seconds();

  ++h.stats_.runs;
  h.stats_.iterations += static_cast<std::uint64_t>(st.levels);
  if (h.scratch_bytes() > bytes_before) ++h.stats_.scratch_grows;
  PARMIS_CHECK_OK(check::validate_steps(fine_view.num_rows, h.steps_));
  return h.steps_;
}

const std::vector<Step>& Builder::build(graph::GraphView g, HierarchyHandle& handle) const {
  return build_steps(g, nullptr, handle);
}

const std::vector<Step>& Builder::build_weighted(const WeightedGraph& g,
                                                 HierarchyHandle& handle) const {
  return build_steps(graph::GraphView(g.graph), &g, handle);
}

const std::vector<OperatorLevel>& Builder::build_galerkin(graph::CrsMatrix a_fine,
                                                          HierarchyHandle& h) const {
  Timer build_timer;
  const Context ctx = opts_.ctx ? *opts_.ctx : Context::default_ctx();
  Context::Scope scope(ctx);
  PARMIS_SPAN("multilevel.build_galerkin");
  if (opts_.ctx) h.ws_.coarsen.set_context(ctx);
  const std::size_t bytes_before = h.scratch_bytes();

  h.steps_.clear();
  HierarchyStats& st = h.build_stats_;
  st.level_rows.clear();
  st.level_entries.clear();
  st.aggregation_seconds = 0;
  st.rebuild_seconds = 0;

  std::unique_ptr<core::Coarsener> coarsener;
  if (!opts_.aggregator) coarsener = core::coarseners().find(opts_.coarsener).make();

  std::vector<OperatorLevel>& ops = h.ops_;
  std::vector<SetupWorkspace::GalerkinLevel>& gws = h.ws_.galerkin;
  graph::CrsMatrix current = std::move(a_fine);
  const double nnz0 = static_cast<double>(current.num_entries());
  double total_nnz = 0;
  core::Aggregation agg;
  StopReason stop = StopReason::MaxLevels;
  const int max_steps = std::max(0, opts_.max_levels);
  std::size_t nlevels = 0;
  for (int level = 0;; ++level) {
    if (static_cast<std::size_t>(level) == ops.size()) ops.emplace_back();
    OperatorLevel& lvl = ops[static_cast<std::size_t>(level)];
    lvl.a = std::move(current);
    lvl.num_aggregates = 0;
    invert_diagonal(lvl.a, lvl.inv_diag);
    total_nnz += static_cast<double>(lvl.a.num_entries());
    st.level_rows.push_back(lvl.a.num_rows);
    st.level_entries.push_back(lvl.a.num_entries());
    nlevels = static_cast<std::size_t>(level) + 1;

    const bool small_enough = lvl.a.num_rows <= opts_.min_coarse_size;
    if (small_enough || level == max_steps) {
      stop = small_enough ? StopReason::CoarseEnough : StopReason::MaxLevels;
      lvl.p = graph::CrsMatrix{};
      lvl.r = graph::CrsMatrix{};
      break;
    }

    obs::Span level_span("multilevel.level");
    level_span.arg("level", level);
    level_span.arg("rows", lvl.a.num_rows);
    const graph::CrsGraph adj = graph::remove_self_loops(graph::GraphView(lvl.a));
    Timer agg_timer;
    {
      PARMIS_SPAN("multilevel.aggregate_galerkin");
      if (PARMIS_FAULT_POINT("multilevel.aggregate_fail")) {
        resilience::FailureInfo info;
        info.stage = "setup";
        info.reason = "setup.multilevel.injected_fault";
        throw resilience::SolveError(resilience::SolveStatus::SetupFailed, info,
                                     "injected fault: multilevel aggregation failed at level " +
                                         std::to_string(level));
      }
      aggregate_level(opts_, coarsener.get(), adj, {}, h.ws_.coarsen, level, agg);
    }
    st.aggregation_seconds += agg_timer.seconds();
    lvl.num_aggregates = agg.num_aggregates;
    if (step_stalled(opts_, agg.num_aggregates, lvl.a.num_rows)) {
      stop = StopReason::Stalled;
      lvl.p = graph::CrsMatrix{};
      lvl.r = graph::CrsMatrix{};
      break;
    }

    if (static_cast<std::size_t>(level) == gws.size()) gws.emplace_back();
    SetupWorkspace::GalerkinLevel& gl = gws[static_cast<std::size_t>(level)];
    graph::CrsMatrix next;
    {
      PARMIS_SPAN("multilevel.triple_product");
      tentative_prolongator(agg, gl.phat);
      PARMIS_CHECK_OK(check::validate_prolongator(gl.phat, lvl.a.num_rows, agg.num_aggregates,
                                                  /*require_column_partition=*/true));
      // P = (I - omega D^{-1} A) P̂ without a general product; ap keeps the
      // D⁻¹-scaled A·P̂, which the snapshot stores with the level.
      // invert_diagonal has guaranteed the structural diagonal it needs.
      {
        PARMIS_SPAN("multilevel.prolongator");
        graph::smoothed_prolongator(lvl.a, gl.phat, lvl.inv_diag, opts_.prolongator_omega,
                                    gl.ap, lvl.p);
      }
      lvl.r = graph::transpose_matrix(lvl.p, gl.tperm);
      // A coarse block no larger than the level operator is built dense by
      // the fused kernel, which never stores A·P; wider levels keep the two
      // CRS products.
      if (graph::fused_galerkin_applies(lvl.a, lvl.p)) {
        gl.apc = graph::CrsMatrix{};
        next = graph::galerkin_fused(lvl.a, lvl.p, gl.fused);
      } else {
        gl.fused = graph::FusedGalerkinScratch{};
        gl.apc = graph::spgemm(lvl.a, lvl.p);
        next = graph::spgemm(lvl.r, gl.apc);
      }
    }

    // Operator-complexity cap: accepting `next` would blow the budget, so
    // stop coarsening here instead of densifying (the AMG+HEM power-law
    // guard). The transfers just built are discarded.
    if (opts_.complexity_cap > 0 &&
        ratio(total_nnz + static_cast<double>(next.num_entries()), nnz0) >
            opts_.complexity_cap) {
      stop = StopReason::ComplexityCapped;
      lvl.p = graph::CrsMatrix{};
      lvl.r = graph::CrsMatrix{};
      break;
    }
    current = std::move(next);
  }
  ops.resize(nlevels);
  gws.resize(nlevels > 0 ? nlevels - 1 : 0);

  st.levels = static_cast<int>(nlevels);
  st.stop = stop;
  double rows = 0;
  for (const ordinal_t r : st.level_rows) rows += r;
  st.grid_complexity = ratio(rows, st.level_rows.front());
  st.operator_complexity = ratio(total_nnz, nnz0);
  st.build_seconds = build_timer.seconds();

  ++h.stats_.runs;
  h.stats_.iterations += static_cast<std::uint64_t>(st.levels);
  if (h.scratch_bytes() > bytes_before) ++h.stats_.scratch_grows;
  PARMIS_CHECK_OK(check::validate_hierarchy(ops));
  return ops;
}

const std::vector<OperatorLevel>& Builder::rebuild_galerkin(const graph::CrsMatrix& a_fine,
                                                            HierarchyHandle& h) const {
  if (h.ops_.empty()) {
    throw std::logic_error("rebuild_galerkin: no Galerkin hierarchy on this handle");
  }
  if (h.ops_.size() > 1 && h.ws_.galerkin.size() + 1 != h.ops_.size()) {
    // A hierarchy restored without its Galerkin workspace (solve-only
    // snapshot) has nothing to replay values into.
    throw std::logic_error(
        "rebuild_galerkin: hierarchy has no rebuild workspace (restored solve-only?)");
  }
  OperatorLevel& fine = h.ops_.front();
  // Full sparsity check, not just shapes: replaying values into a stale
  // pattern would produce a silently wrong hierarchy. O(nnz), negligible
  // next to the triple products below.
  if (a_fine.num_rows != fine.a.num_rows || a_fine.num_cols != fine.a.num_cols ||
      a_fine.row_map != fine.a.row_map || a_fine.entries != fine.a.entries) {
    throw std::invalid_argument("rebuild_galerkin: matrix structure differs from the build");
  }

  Timer rebuild_timer;
  const Context ctx = opts_.ctx ? *opts_.ctx : Context::default_ctx();
  Context::Scope scope(ctx);
  PARMIS_SPAN("multilevel.rebuild");
  const std::size_t bytes_before = h.scratch_bytes();

  std::copy(a_fine.values.begin(), a_fine.values.end(), fine.a.values.begin());
  // The rebuild is a value-only replay into buffers sized by the cold
  // build; its documented contract is zero allocations. Enforce that at
  // the allocator, not just via scratch_bytes accounting.
  check::AllocGuard guard;
  const std::size_t nlevels = h.ops_.size();
  for (std::size_t l = 0; l < nlevels; ++l) {
    OperatorLevel& lvl = h.ops_[l];
    obs::Span level_span("multilevel.rebuild_level");
    level_span.arg("level", static_cast<std::int64_t>(l));
    invert_diagonal(lvl.a, lvl.inv_diag);
    if (l + 1 == nlevels) break;
    SetupWorkspace::GalerkinLevel& gl = h.ws_.galerkin[l];
    // Value-only replay of the setup: P̂'s values depend only on aggregate
    // sizes (unchanged), so smoothing and the triple product recompute in
    // place, in the cold build's exact accumulation order.
    graph::smoothed_prolongator_numeric(lvl.a, gl.phat, lvl.inv_diag, opts_.prolongator_omega,
                                        gl.ap, lvl.p);
    graph::transpose_numeric(lvl.p, gl.tperm, lvl.r);
    if (graph::fused_galerkin_applies(lvl.a, lvl.p)) {
      graph::galerkin_fused_numeric(lvl.a, lvl.p, gl.fused, h.ops_[l + 1].a);
    } else {
      graph::spgemm_numeric(lvl.a, lvl.p, gl.apc);
      graph::spgemm_numeric(lvl.r, gl.apc, h.ops_[l + 1].a);
    }
  }

  PARMIS_CHECK_MSG(obs::tracing_enabled() || guard.allocations() == 0,
                   "rebuild_galerkin warm replay allocated");
  h.build_stats_.rebuild_seconds = rebuild_timer.seconds();
  ++h.stats_.runs;
  h.stats_.iterations += static_cast<std::uint64_t>(nlevels);
  if (h.scratch_bytes() > bytes_before) ++h.stats_.scratch_grows;
  PARMIS_CHECK_OK(check::validate_hierarchy(h.ops_));
  return h.ops_;
}

}  // namespace parmis::multilevel
