/// \file test_multilevel.cpp
/// \brief Tests for the unified multilevel engine: the `Builder`'s three
/// contraction modes, the zero-allocation warm Galerkin rebuild, the
/// quality guards (coarsening-rate floor, operator-complexity cap), and
/// equivalence of `Builder::build` and `solver::AmgHierarchy::build`
/// against inline replicas of the level loops they replaced.

#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>
#include <vector>

#include "check/digest.hpp"
#include "core/coarsen.hpp"
#include "core/coarsener.hpp"
#include "graph/generators.hpp"
#include "graph/ops.hpp"
#include "graph/spgemm.hpp"
#include "multilevel/builder.hpp"
#include "solver/amg.hpp"
#include "solver/jacobi.hpp"
#include "solver/vector_ops.hpp"
#include "test_utils.hpp"

namespace parmis::multilevel {
namespace {

graph::CrsGraph mesh_graph() { return test::adjacency_of(graph::laplace2d(24, 24)); }

void expect_same_matrix(const graph::CrsMatrix& a, const graph::CrsMatrix& b,
                        const char* what) {
  EXPECT_EQ(a.num_rows, b.num_rows) << what;
  EXPECT_EQ(a.num_cols, b.num_cols) << what;
  EXPECT_EQ(a.row_map, b.row_map) << what;
  EXPECT_EQ(a.entries, b.entries) << what;
  EXPECT_EQ(a.values, b.values) << what;
}

// ------------------------------------------------------- numeric replays

TEST(SpgemmNumeric, ReplayMatchesColdProduct) {
  const graph::CrsMatrix a = graph::laplace2d(13, 11);
  const graph::CrsMatrix b = graph::laplace2d(13, 11);
  graph::CrsMatrix c = graph::spgemm(a, b);
  const std::vector<scalar_t> cold = c.values;

  // Perturb, replay, expect the exact cold product of the new values.
  graph::CrsMatrix a2 = a;
  for (scalar_t& v : a2.values) v *= 1.25;
  graph::spgemm_numeric(a2, b, c);
  EXPECT_EQ(c.values, graph::spgemm(a2, b).values);

  // Replaying the original values restores the original product exactly.
  graph::spgemm_numeric(a, b, c);
  EXPECT_EQ(c.values, cold);
}

TEST(SpgemmNumeric, MatrixAddAndTransposeReplay) {
  const graph::CrsMatrix a = graph::laplace2d(9, 8);
  graph::CrsMatrix b = a;
  for (scalar_t& v : b.values) v = -0.5 * v;

  graph::CrsMatrix sum = graph::matrix_add(1.0, a, 2.0, b);
  graph::CrsMatrix b2 = b;
  for (scalar_t& v : b2.values) v *= 3.0;
  graph::matrix_add_numeric(1.0, a, 2.0, b2, sum);
  expect_same_matrix(sum, graph::matrix_add(1.0, a, 2.0, b2), "matrix_add replay");

  graph::CrsMatrix t = graph::transpose_matrix(a);
  const std::vector<offset_t> perm = graph::transpose_permutation(a);
  graph::CrsMatrix a3 = a;
  for (std::size_t i = 0; i < a3.values.size(); ++i) a3.values[i] += static_cast<scalar_t>(i);
  graph::transpose_numeric(a3, perm, t);
  expect_same_matrix(t, graph::transpose_matrix(a3), "transpose replay");
}

// ------------------------------------------------- topology / weighted

/// One level of the pre-Builder recursive coarsening: the aggregation of
/// the finer level and the coarse graph it produced.
struct LegacyLevel {
  core::Aggregation aggregation;
  graph::CrsGraph graph;
};

/// Inline replica of the pre-Builder recursive-coarsening loop (aggregate
/// through the registry with HEM visit-order seed `mis2.seed + 1`,
/// 5%-reduction stall guard, contract with `coarse_graph`) — the behavior
/// `Builder::build` must reproduce.
std::vector<LegacyLevel> legacy_multilevel_coarsen(graph::GraphView g,
                                                   const std::string& coarsener_name,
                                                   ordinal_t target_vertices) {
  const int max_levels = 64;
  const core::Mis2Options mis2;
  std::vector<LegacyLevel> levels;
  core::CoarsenHandle handle(mis2);
  graph::GraphView view = g;
  const std::unique_ptr<core::Coarsener> coarsener = core::coarseners().find(coarsener_name).make();
  core::CoarsenOptions copts;
  copts.mis2 = mis2;
  copts.hem_seed = mis2.seed + 1;
  for (int level = 0; level < max_levels; ++level) {
    if (view.num_rows <= target_vertices) break;
    LegacyLevel lvl;
    (void)coarsener->run(view, {}, handle, copts);
    lvl.aggregation = handle.take_aggregation();
    if (lvl.aggregation.num_aggregates >= view.num_rows ||
        static_cast<double>(lvl.aggregation.num_aggregates) > 0.95 * view.num_rows) {
      break;
    }
    lvl.graph = core::coarse_graph(view, lvl.aggregation);
    levels.push_back(std::move(lvl));
    view = levels.back().graph;
  }
  return levels;
}

TEST(BuilderTopology, MultilevelCoarsenShimMatchesLegacyLoop) {
  const graph::CrsGraph g = mesh_graph();
  for (const char* name : {"mis2", "mis2-basic", "hem"}) {
    Options opts;
    opts.coarsener = name;
    opts.min_coarse_size = 20;
    opts.seed = opts.mis2.seed + 1;  // the legacy HEM visit order
    const std::vector<LegacyLevel> legacy = legacy_multilevel_coarsen(g, name, 20);
    HierarchyHandle h;
    const std::vector<Step>& routed = Builder(opts).build(g, h);
    ASSERT_EQ(routed.size(), legacy.size()) << name;
    for (std::size_t l = 0; l < legacy.size(); ++l) {
      EXPECT_EQ(routed[l].aggregation.labels, legacy[l].aggregation.labels)
          << name << " level " << l;
      EXPECT_EQ(routed[l].coarse.graph.row_map, legacy[l].graph.row_map)
          << name << " level " << l;
      EXPECT_EQ(routed[l].coarse.graph.entries, legacy[l].graph.entries)
          << name << " level " << l;
    }
  }
}

TEST(BuilderTopology, StatsDescribeTheHierarchy) {
  const graph::CrsGraph g = mesh_graph();
  Options opts;
  opts.min_coarse_size = 20;
  const Builder builder(opts);
  HierarchyHandle h;
  const std::vector<Step>& steps = builder.build(g, h);
  ASSERT_GE(steps.size(), 2u);

  const HierarchyStats& st = h.build_stats();
  EXPECT_EQ(st.levels, static_cast<int>(steps.size()) + 1);
  ASSERT_EQ(st.level_rows.size(), steps.size() + 1);
  EXPECT_EQ(st.level_rows.front(), g.num_rows);
  for (std::size_t l = 0; l < steps.size(); ++l) {
    EXPECT_EQ(st.level_rows[l + 1], steps[l].coarse.graph.num_rows);
    EXPECT_EQ(st.level_entries[l + 1], steps[l].coarse.graph.num_entries());
  }
  EXPECT_EQ(st.stop, StopReason::CoarseEnough);
  EXPECT_GE(st.grid_complexity, 1.0);
  EXPECT_EQ(h.stats().runs, 1u);
  EXPECT_EQ(h.stats().scratch_grows, 1u);
}

TEST(BuilderWeighted, StepsMatchLegacyWeightedContractionChain) {
  const WeightedGraph wg = WeightedGraph::unit(mesh_graph());
  Options opts;
  opts.min_coarse_size = 20;
  opts.rate_floor = 1.0;
  const Builder builder(opts);
  HierarchyHandle h;
  const std::vector<Step>& steps = builder.build_weighted(wg, h);
  ASSERT_GE(steps.size(), 2u);

  // Replay the same labels through the standalone weighted contraction.
  const WeightedGraph* fine = &wg;
  for (std::size_t l = 0; l < steps.size(); ++l) {
    const WeightedGraph expect = coarsen_weighted(*fine, steps[l].aggregation.labels,
                                                  steps[l].aggregation.num_aggregates);
    EXPECT_EQ(steps[l].coarse.graph.row_map, expect.graph.row_map) << "level " << l;
    EXPECT_EQ(steps[l].coarse.graph.entries, expect.graph.entries) << "level " << l;
    EXPECT_EQ(steps[l].coarse.vertex_weight, expect.vertex_weight) << "level " << l;
    EXPECT_EQ(steps[l].coarse.edge_weight, expect.edge_weight) << "level " << l;
    // Weights conserve: total coarse vertex weight = total fine weight.
    EXPECT_EQ(steps[l].coarse.total_vertex_weight(), wg.total_vertex_weight()) << "level " << l;
    fine = &steps[l].coarse;
  }
}

TEST(BuilderWeighted, RepeatedBuildsReuseLevelStorage) {
  const WeightedGraph wg = WeightedGraph::unit(mesh_graph());
  const Builder builder([] {
    Options o;
    o.min_coarse_size = 20;
    return o;
  }());
  HierarchyHandle h;
  (void)builder.build_weighted(wg, h);
  const std::vector<std::vector<ordinal_t>> first_labels = [&] {
    std::vector<std::vector<ordinal_t>> ls;
    for (const Step& s : h.steps()) ls.push_back(s.aggregation.labels);
    return ls;
  }();
  const std::size_t warm = h.scratch_bytes();

  for (int rep = 0; rep < 3; ++rep) {
    const std::vector<Step>& steps = builder.build_weighted(wg, h);
    EXPECT_EQ(h.scratch_bytes(), warm) << "rep " << rep;
    ASSERT_EQ(steps.size(), first_labels.size()) << "rep " << rep;
    for (std::size_t l = 0; l < steps.size(); ++l) {
      EXPECT_EQ(steps[l].aggregation.labels, first_labels[l]) << "rep " << rep;
    }
  }
  EXPECT_EQ(h.stats().scratch_grows, 1u);  // only the cold build grew
}

TEST(Builder, RateFloorStopsStalledCoarsening) {
  const graph::CrsGraph g = mesh_graph();
  Options opts;
  opts.min_coarse_size = 4;
  opts.rate_floor = 0.01;  // demand a 100x reduction per level: stalls immediately
  const Builder builder(opts);
  HierarchyHandle h;
  const std::vector<Step>& steps = builder.build(g, h);
  EXPECT_TRUE(steps.empty());
  EXPECT_EQ(h.build_stats().stop, StopReason::Stalled);
  EXPECT_EQ(h.build_stats().levels, 1);
}

// ------------------------------------------------------------- Galerkin

/// Inline replica of the pre-Builder `AmgHierarchy::build` level loop
/// (aggregate, tentative prolongator, damped-Jacobi smoothing, Galerkin
/// triple product, stall on no-shrink) for registry coarseners, at the
/// historical AMG defaults (10 operator levels, omega 2/3, default MIS-2).
struct LegacyAmgLevel {
  graph::CrsMatrix a, p, r;
  std::vector<scalar_t> inv_diag;
};

std::vector<LegacyAmgLevel> legacy_amg_levels(graph::CrsMatrix a_fine,
                                              const std::string& coarsener_name,
                                              ordinal_t coarse_size) {
  const int max_levels = 10;
  const scalar_t prolongator_omega = 2.0 / 3.0;
  const core::Mis2Options mis2;
  std::vector<LegacyAmgLevel> levels;
  core::CoarsenHandle handle(mis2);
  const std::unique_ptr<core::Coarsener> coarsener = core::coarseners().find(coarsener_name).make();
  core::CoarsenOptions copts;
  copts.mis2 = mis2;
  graph::CrsMatrix current = std::move(a_fine);
  for (int lvl = 0; lvl < max_levels; ++lvl) {
    LegacyAmgLevel level;
    level.a = std::move(current);
    level.inv_diag = solver::inverted_diagonal(level.a);
    const bool coarsest = level.a.num_rows <= coarse_size || lvl == max_levels - 1;
    if (coarsest) {
      levels.push_back(std::move(level));
      break;
    }
    const graph::CrsGraph adj = graph::remove_self_loops(graph::GraphView(level.a));
    (void)coarsener->run(adj, {}, handle, copts);
    const core::Aggregation agg = handle.take_aggregation();
    if (agg.num_aggregates >= level.a.num_rows) {
      levels.push_back(std::move(level));
      break;
    }
    // Tentative prolongator with normalized columns.
    const ordinal_t n = level.a.num_rows;
    std::vector<ordinal_t> agg_size(static_cast<std::size_t>(agg.num_aggregates), 0);
    for (ordinal_t v = 0; v < n; ++v) ++agg_size[static_cast<std::size_t>(agg.labels[v])];
    graph::CrsMatrix phat;
    phat.num_rows = n;
    phat.num_cols = agg.num_aggregates;
    phat.row_map.resize(static_cast<std::size_t>(n) + 1);
    for (ordinal_t v = 0; v <= n; ++v) phat.row_map[static_cast<std::size_t>(v)] = v;
    phat.entries.resize(static_cast<std::size_t>(n));
    phat.values.resize(static_cast<std::size_t>(n));
    for (ordinal_t v = 0; v < n; ++v) {
      const ordinal_t a = agg.labels[static_cast<std::size_t>(v)];
      phat.entries[static_cast<std::size_t>(v)] = a;
      phat.values[static_cast<std::size_t>(v)] =
          1.0 / std::sqrt(static_cast<scalar_t>(agg_size[static_cast<std::size_t>(a)]));
    }
    // P = (I - omega D^-1 A) P̂.
    graph::CrsMatrix ap = graph::spgemm(level.a, phat);
    for (ordinal_t i = 0; i < ap.num_rows; ++i) {
      for (offset_t j = ap.row_map[i]; j < ap.row_map[i + 1]; ++j) {
        ap.values[static_cast<std::size_t>(j)] *= level.inv_diag[static_cast<std::size_t>(i)];
      }
    }
    level.p = graph::matrix_add(1.0, phat, -prolongator_omega, ap);
    level.r = graph::transpose_matrix(level.p);
    current = graph::spgemm(level.r, graph::spgemm(level.a, level.p));
    levels.push_back(std::move(level));
  }
  return levels;
}

TEST(BuilderGalerkin, AmgBuildShimMatchesLegacyLoop) {
  const graph::CrsMatrix a = graph::laplace2d(20, 20);
  for (const char* name : {"mis2", "mis2-basic", "hem"}) {
    solver::AmgOptions opts;
    opts.hierarchy.coarsener = name;
    opts.hierarchy.min_coarse_size = 30;
    const std::vector<LegacyAmgLevel> legacy = legacy_amg_levels(a, name, 30);
    const solver::AmgHierarchy h = solver::AmgHierarchy::build(a, opts);
    ASSERT_EQ(static_cast<std::size_t>(h.num_levels()), legacy.size()) << name;
    for (int l = 0; l < h.num_levels(); ++l) {
      const std::size_t li = static_cast<std::size_t>(l);
      expect_same_matrix(h.level(l).a, legacy[li].a, name);
      expect_same_matrix(h.level(l).p, legacy[li].p, name);
      expect_same_matrix(h.level(l).r, legacy[li].r, name);
      EXPECT_EQ(h.level(l).inv_diag, legacy[li].inv_diag) << name;
    }
  }
}

TEST(BuilderGalerkin, AmgDefaultsBuildTheAmgHierarchy) {
  // `AmgOptions{}.hierarchy` handed straight to the Builder must give the
  // levels AMG setup builds: snapshot builds (`parmis_serve build`) and
  // the serving pool's level adoption rely on it.
  const graph::CrsMatrix a = graph::laplace3d(14, 14, 14);
  for (const char* name : {"mis2", "hem"}) {
    solver::AmgOptions amg;
    amg.hierarchy.coarsener = name;
    HierarchyHandle h;
    const std::vector<OperatorLevel>& built = Builder(amg.hierarchy).build_galerkin(a, h);
    const solver::AmgHierarchy setup = solver::AmgHierarchy::build(a, amg);
    ASSERT_EQ(built.size(), static_cast<std::size_t>(setup.num_levels())) << name;
    ASSERT_GE(built.size(), 2u) << name;
    for (std::size_t l = 0; l < built.size(); ++l) {
      const solver::AmgLevel& ref = setup.level(static_cast<int>(l));
      EXPECT_EQ(check::digest(built[l].a), check::digest(ref.a)) << name << " level " << l;
      EXPECT_EQ(check::digest(built[l].p), check::digest(ref.p)) << name << " level " << l;
      EXPECT_EQ(check::digest(built[l].r), check::digest(ref.r)) << name << " level " << l;
      EXPECT_EQ(check::digest(built[l].inv_diag), check::digest(ref.inv_diag))
          << name << " level " << l;
    }
  }
}

TEST(BuilderGalerkin, WarmRebuildIsAllocationFreeAndMatchesColdBuild) {
  const graph::CrsMatrix a = graph::laplace2d(26, 26);
  Options opts;
  opts.min_coarse_size = 40;
  const Builder builder(opts);
  HierarchyHandle h;
  (void)builder.build_galerkin(a, h);
  ASSERT_GE(h.ops().size(), 3u);
  const std::size_t warm = h.scratch_bytes();
  const std::uint64_t grows = h.stats().scratch_grows;
  EXPECT_EQ(grows, 1u);  // the cold build

  graph::CrsMatrix a2 = a;
  for (scalar_t& v : a2.values) v *= 1.75;

  for (int rep = 0; rep < 3; ++rep) {
    const std::vector<OperatorLevel>& rebuilt = builder.rebuild_galerkin(a2, h);
    // Zero-allocation warm-rebuild contract: capacity stable, allocation
    // telemetry unmoved.
    EXPECT_EQ(h.scratch_bytes(), warm) << "rep " << rep;
    EXPECT_EQ(h.stats().scratch_grows, grows) << "rep " << rep;

    // Identical to a cold build of the new values.
    HierarchyHandle cold;
    const std::vector<OperatorLevel>& expect = builder.build_galerkin(a2, cold);
    ASSERT_EQ(rebuilt.size(), expect.size()) << "rep " << rep;
    for (std::size_t l = 0; l < expect.size(); ++l) {
      expect_same_matrix(rebuilt[l].a, expect[l].a, "rebuilt a");
      expect_same_matrix(rebuilt[l].p, expect[l].p, "rebuilt p");
      expect_same_matrix(rebuilt[l].r, expect[l].r, "rebuilt r");
      EXPECT_EQ(rebuilt[l].inv_diag, expect[l].inv_diag) << "rep " << rep << " level " << l;
    }
  }

  // Rebuilding with the original values restores the original hierarchy.
  HierarchyHandle orig;
  const std::vector<OperatorLevel>& expect = builder.build_galerkin(a, orig);
  const std::vector<OperatorLevel>& back = builder.rebuild_galerkin(a, h);
  for (std::size_t l = 0; l < expect.size(); ++l) {
    expect_same_matrix(back[l].a, expect[l].a, "restored a");
  }
  EXPECT_EQ(h.scratch_bytes(), warm);
}

TEST(BuilderGalerkin, RebuildRejectsStructureMismatch) {
  const Builder builder([] {
    Options o;
    o.min_coarse_size = 20;
    return o;
  }());
  HierarchyHandle h;
  EXPECT_THROW((void)builder.rebuild_galerkin(graph::laplace2d(8, 8), h), std::logic_error);

  (void)builder.build_galerkin(graph::laplace2d(16, 16), h);
  EXPECT_THROW((void)builder.rebuild_galerkin(graph::laplace2d(17, 16), h),
               std::invalid_argument);

  // Same shapes and nnz but a shifted sparsity pattern must be rejected
  // too: a positional value replay into a stale pattern would be silently
  // wrong.
  graph::CrsMatrix shifted = graph::laplace2d(16, 16);
  shifted.entries[1] = static_cast<ordinal_t>(shifted.entries[1] + 1);
  EXPECT_THROW((void)builder.rebuild_galerkin(shifted, h), std::invalid_argument);
}

TEST(BuilderWeighted, StalledStepBuffersAreRecycledAcrossBuilds) {
  // A stalled build aggregates into a step it then drops; on a shared
  // handle (the recursive-bisection workload) those size-n buffers must be
  // parked and recycled, not freed and re-allocated every build.
  const WeightedGraph wg = WeightedGraph::unit(mesh_graph());
  Options opts;
  opts.min_coarse_size = 4;
  opts.rate_floor = 0.01;  // demand an impossible reduction: stalls at level 0
  const Builder builder(opts);
  HierarchyHandle h;
  (void)builder.build_weighted(wg, h);
  ASSERT_EQ(h.build_stats().stop, StopReason::Stalled);
  const std::size_t warm = h.scratch_bytes();

  for (int rep = 0; rep < 3; ++rep) {
    (void)builder.build_weighted(wg, h);
    EXPECT_EQ(h.scratch_bytes(), warm) << "rep " << rep;
  }
  EXPECT_EQ(h.stats().scratch_grows, 1u);  // only the cold build
}

TEST(BuilderGalerkin, AmgRebuildMatchesFreshBuildThroughTheVcycle) {
  const graph::CrsMatrix a = graph::laplace2d(18, 18);
  graph::CrsMatrix a2 = a;
  for (scalar_t& v : a2.values) v *= 2.0;

  solver::AmgOptions opts;
  opts.hierarchy.min_coarse_size = 30;
  solver::AmgHierarchy warm = solver::AmgHierarchy::build(a, opts);
  warm.rebuild(a2);
  const solver::AmgHierarchy cold = solver::AmgHierarchy::build(a2, opts);

  const std::vector<scalar_t> b = solver::random_vector(a.num_rows, 7);
  std::vector<scalar_t> x_warm(static_cast<std::size_t>(a.num_rows), 0), x_cold = x_warm;
  warm.vcycle(b, x_warm);
  cold.vcycle(b, x_cold);
  EXPECT_EQ(x_warm, x_cold);
}

TEST(Builder, ComplexityCapStopsDensifyingHierarchy) {
  // The AMG+HEM power-law regression (the PR 4 ROADMAP follow-up):
  // pairwise matching coarsens slowly and the smoothed Galerkin operators
  // densify, so an uncapped build blows past any reasonable complexity.
  // The Builder must stop at the cap instead.
  const graph::CrsGraph g = graph::power_law_graph(4000, 2.2, 4, 400, 42);
  const graph::CrsMatrix a = graph::laplacian_matrix(g, 1.0);

  solver::AmgOptions opts;
  opts.hierarchy.coarsener = "hem";
  const solver::AmgHierarchy h = solver::AmgHierarchy::build(a, opts);
  EXPECT_LE(h.operator_complexity(), opts.hierarchy.complexity_cap);
  EXPECT_EQ(h.hierarchy_stats().stop, StopReason::ComplexityCapped);

  // The capped hierarchy still acts as a (weaker) preconditioner: one
  // V-cycle must be finite and reduce nothing to NaN.
  const std::vector<scalar_t> b = solver::random_vector(a.num_rows, 3);
  std::vector<scalar_t> x(static_cast<std::size_t>(a.num_rows), 0);
  h.vcycle(b, x);
  for (scalar_t v : x) ASSERT_TRUE(std::isfinite(v));
}

TEST(Builder, ComplexityCapHonoredForEveryRegisteredCoarsener) {
  const graph::CrsGraph g = graph::power_law_graph(3000, 2.3, 3, 300, 11);
  const graph::CrsMatrix a = graph::laplacian_matrix(g, 1.0);
  for (const core::CoarsenerSpec& spec : core::coarseners().specs()) {
    solver::AmgOptions opts;
    opts.hierarchy.coarsener = spec.name;
    opts.hierarchy.min_coarse_size = 200;
    const solver::AmgHierarchy h = solver::AmgHierarchy::build(a, opts);
    EXPECT_LE(h.operator_complexity(), opts.hierarchy.complexity_cap) << spec.name;
    EXPECT_GE(h.num_levels(), 1) << spec.name;
  }
}

}  // namespace
}  // namespace parmis::multilevel
