/// \file test_multilevel.cpp
/// \brief Tests for the unified multilevel engine: the `Builder`'s three
/// contraction modes, the zero-allocation warm Galerkin rebuild, the
/// quality guards (coarsening-rate floor, operator-complexity cap), and
/// equivalence of `Builder::build` and `solver::AmgHierarchy::build`
/// against inline replicas of the level loops they replaced.

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <numeric>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "check/digest.hpp"
#include "core/coarsen.hpp"
#include "core/coarsener.hpp"
#include "graph/generators.hpp"
#include "graph/ops.hpp"
#include "graph/spgemm.hpp"
#include "multilevel/builder.hpp"
#include "parallel/context.hpp"
#include "random/hash.hpp"
#include "solver/amg.hpp"
#include "solver/jacobi.hpp"
#include "solver/vector_ops.hpp"
#include "test_utils.hpp"

namespace parmis::multilevel {
namespace {

graph::CrsGraph mesh_graph() { return test::adjacency_of(graph::laplace2d(24, 24)); }

/// Same structure and the same value bits (so +0.0 and -0.0 differ).
void expect_same_matrix(const graph::CrsMatrix& a, const graph::CrsMatrix& b,
                        const char* what) {
  EXPECT_EQ(a.num_rows, b.num_rows) << what;
  EXPECT_EQ(a.num_cols, b.num_cols) << what;
  EXPECT_EQ(a.row_map, b.row_map) << what;
  EXPECT_EQ(a.entries, b.entries) << what;
  ASSERT_EQ(a.values.size(), b.values.size()) << what;
  for (std::size_t e = 0; e < a.values.size(); ++e) {
    if (std::bit_cast<std::uint64_t>(a.values[e]) != std::bit_cast<std::uint64_t>(b.values[e])) {
      ADD_FAILURE() << what << ": value " << e << " is " << a.values[e] << ", expected "
                    << b.values[e];
      return;
    }
  }
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

/// Reference for the transpose permutation: a serial counting-sort sweep.
/// A column's entries arrive in source-row order, so one ascending sweep
/// with per-column cursors gives each entry's position in the transpose.
std::vector<offset_t> serial_transpose_permutation(const graph::CrsMatrix& a) {
  std::vector<offset_t> perm(static_cast<std::size_t>(a.num_entries()));
  std::vector<offset_t> cursor(static_cast<std::size_t>(a.num_cols) + 1, 0);
  for (const ordinal_t col : a.entries) ++cursor[static_cast<std::size_t>(col) + 1];
  for (ordinal_t c = 0; c < a.num_cols; ++c) {
    cursor[static_cast<std::size_t>(c) + 1] += cursor[static_cast<std::size_t>(c)];
  }
  for (ordinal_t i = 0; i < a.num_rows; ++i) {
    for (offset_t j = a.row_map[i]; j < a.row_map[i + 1]; ++j) {
      perm[static_cast<std::size_t>(j)] =
          cursor[static_cast<std::size_t>(a.entries[static_cast<std::size_t>(j)])]++;
    }
  }
  return perm;
}

TEST(SpgemmNumeric, MatrixAddAndTransposeReplay) {
  const graph::CrsMatrix a = graph::laplace2d(9, 8);
  graph::CrsMatrix b = a;
  for (scalar_t& v : b.values) v = -0.5 * v;

  // Same pattern, so the sum is entry-wise; its exact zeros stay entries.
  const graph::CrsMatrix sum = graph::matrix_add(1.0, a, 2.0, b);
  EXPECT_EQ(sum.row_map, a.row_map);
  EXPECT_EQ(sum.entries, a.entries);
  for (std::size_t e = 0; e < sum.values.size(); ++e) {
    EXPECT_EQ(sum.values[e], 1.0 * a.values[e] + 2.0 * b.values[e]) << e;
  }

  std::vector<offset_t> perm;
  graph::CrsMatrix t = graph::transpose_matrix(a, perm);
  expect_same_matrix(t, graph::transpose_matrix(a), "transpose with permutation");
  EXPECT_EQ(perm, serial_transpose_permutation(a));
  graph::CrsMatrix a3 = a;
  for (std::size_t i = 0; i < a3.values.size(); ++i) a3.values[i] += static_cast<scalar_t>(i);
  graph::transpose_numeric(a3, perm, t);
  expect_same_matrix(t, graph::transpose_matrix(a3), "transpose replay");
}

// ------------------------------------------------ smoothed prolongator

/// What the one-pass prolongator replaced: `spgemm(A, P̂)`, a D⁻¹ row
/// scale, `matrix_add`, the transpose and the serial permutation sweep.
struct LegacyProlongator {
  graph::CrsMatrix ap, p, r;
  std::vector<offset_t> tperm;
};

LegacyProlongator legacy_prolongator(const graph::CrsMatrix& a, const graph::CrsMatrix& phat,
                                     const std::vector<scalar_t>& inv_diag, scalar_t omega) {
  LegacyProlongator out;
  out.ap = graph::spgemm(a, phat);
  for (ordinal_t i = 0; i < out.ap.num_rows; ++i) {
    for (offset_t j = out.ap.row_map[i]; j < out.ap.row_map[i + 1]; ++j) {
      out.ap.values[static_cast<std::size_t>(j)] *= inv_diag[static_cast<std::size_t>(i)];
    }
  }
  out.p = graph::matrix_add(1.0, phat, -omega, out.ap);
  out.r = graph::transpose_matrix(out.p);
  out.tperm = serial_transpose_permutation(out.p);
  return out;
}

/// Tentative prolongator of `labels` (normalized aggregate indicators).
graph::CrsMatrix tentative_of(const std::vector<ordinal_t>& labels, ordinal_t nc) {
  const ordinal_t n = static_cast<ordinal_t>(labels.size());
  std::vector<ordinal_t> size(static_cast<std::size_t>(nc), 0);
  for (const ordinal_t l : labels) ++size[static_cast<std::size_t>(l)];
  graph::CrsMatrix phat;
  phat.num_rows = n;
  phat.num_cols = nc;
  phat.row_map.resize(static_cast<std::size_t>(n) + 1);
  std::iota(phat.row_map.begin(), phat.row_map.end(), offset_t{0});
  for (const ordinal_t l : labels) {
    phat.entries.push_back(l);
    phat.values.push_back(1.0 / std::sqrt(static_cast<scalar_t>(size[static_cast<std::size_t>(l)])));
  }
  return phat;
}

/// Serial, then OpenMP at 1/3/4 threads under every schedule.
std::vector<Context> prolongator_contexts() {
  std::vector<Context> ctxs;
  Context serial;
  serial.backend = par::Backend::Serial;
  ctxs.push_back(serial);
  for (const par::Schedule s :
       {par::Schedule::Static, par::Schedule::EdgeBalanced, par::Schedule::Dynamic}) {
    for (const int threads : {1, 3, 4}) {
      Context ctx;
      ctx.backend = par::Backend::OpenMP;
      ctx.num_threads = threads;
      ctx.schedule = s;
      ctxs.push_back(ctx);
    }
  }
  return ctxs;
}

std::string context_name(const Context& ctx) {
  return std::string(ctx.backend == par::Backend::Serial ? "serial" : "omp") + "/" +
         std::to_string(ctx.num_threads) + "/" + std::to_string(static_cast<int>(ctx.schedule));
}

void expect_prolongator_matches(const graph::CrsMatrix& a, const graph::CrsMatrix& phat,
                                const std::vector<scalar_t>& inv_diag, const std::string& what) {
  const scalar_t omega = 2.0 / 3.0;
  const LegacyProlongator ref = legacy_prolongator(a, phat, inv_diag, omega);
  graph::CrsMatrix a2 = a;
  for (std::size_t e = 0; e < a2.values.size(); ++e) {
    if (a2.values[e] != 0) a2.values[e] *= 1.0 + 0.125 * static_cast<scalar_t>(e % 5);
  }
  const LegacyProlongator ref2 = legacy_prolongator(a2, phat, inv_diag, omega);
  for (const Context& ctx : prolongator_contexts()) {
    Context::Scope scope(ctx);
    const std::string where = what + " " + context_name(ctx);
    graph::CrsMatrix ap, p;
    graph::smoothed_prolongator(a, phat, inv_diag, omega, ap, p);
    std::vector<offset_t> tperm;
    graph::CrsMatrix r = graph::transpose_matrix(p, tperm);
    expect_same_matrix(ap, ref.ap, (where + " ap").c_str());
    expect_same_matrix(p, ref.p, (where + " p").c_str());
    expect_same_matrix(r, ref.r, (where + " r").c_str());
    EXPECT_EQ(tperm, ref.tperm) << where;

    // Replay the new values, then the old ones: each equals its cold pass.
    graph::smoothed_prolongator_numeric(a2, phat, inv_diag, omega, ap, p);
    graph::transpose_numeric(p, tperm, r);
    expect_same_matrix(ap, ref2.ap, (where + " replayed ap").c_str());
    expect_same_matrix(p, ref2.p, (where + " replayed p").c_str());
    expect_same_matrix(r, ref2.r, (where + " replayed r").c_str());
    graph::smoothed_prolongator_numeric(a, phat, inv_diag, omega, ap, p);
    expect_same_matrix(p, ref.p, (where + " restored p").c_str());
  }
}

TEST(SmoothedProlongator, MatchesLegacyLoopAcrossAggregateCounts) {
  // A 2D mesh operator with hashed labels: rows touch about five
  // aggregates, so nc <= 64 always walks the bitset, nc = 129 mixes both
  // emits, and nc = 3000 (47 words) sorts nearly every row. Every tenth
  // off-diagonal is an explicit zero, half of them -0.0, so signed-zero
  // products reach the accumulator, some as a column's first product.
  graph::CrsMatrix a = graph::laplace2d(64, 64);
  const ordinal_t n = a.num_rows;
  for (ordinal_t i = 0; i < n; ++i) {
    for (offset_t e = a.row_map[i]; e < a.row_map[i + 1]; ++e) {
      if (a.entries[static_cast<std::size_t>(e)] != i && e % 10 == 3) {
        a.values[static_cast<std::size_t>(e)] = (e % 20 == 3) ? -0.0 : 0.0;
      }
    }
  }
  const std::vector<scalar_t> inv_diag = solver::inverted_diagonal(a);
  for (const ordinal_t nc : {1, 63, 64, 65, 128, 129, 3000}) {
    // The first nc rows claim one label each, so no column is empty; the
    // rest hash to a label.
    std::vector<ordinal_t> labels(static_cast<std::size_t>(n));
    for (ordinal_t v = 0; v < n; ++v) {
      labels[static_cast<std::size_t>(v)] =
          v < nc ? v
                 : static_cast<ordinal_t>(rng::splitmix64_mix(static_cast<std::uint64_t>(v)) %
                                          static_cast<std::uint64_t>(nc));
    }
    expect_prolongator_matches(a, tentative_of(labels, nc), inv_diag,
                               "nc=" + std::to_string(nc));
  }
}

TEST(SmoothedProlongator, SingletonAggregatesAndZeroCouplings) {
  // Size-1 aggregates (weight exactly 1) next to large ones, on an operator
  // whose off-diagonals into a singleton's neighbors are explicit zeros.
  graph::CrsMatrix a = graph::laplace3d(9, 9, 9);
  const ordinal_t n = a.num_rows;
  std::vector<ordinal_t> labels(static_cast<std::size_t>(n));
  ordinal_t nc = 0;
  for (ordinal_t v = 0; v < n; ++v) {
    labels[static_cast<std::size_t>(v)] = v % 7 == 0 ? nc++ : -1;
  }
  const ordinal_t big = nc;
  for (ordinal_t v = 0; v < n; ++v) {
    if (labels[static_cast<std::size_t>(v)] < 0) labels[static_cast<std::size_t>(v)] = big + v / 60;
  }
  nc = big + (n - 1) / 60 + 1;
  for (ordinal_t i = 0; i < n; ++i) {
    for (offset_t e = a.row_map[i]; e < a.row_map[i + 1]; ++e) {
      const ordinal_t j = a.entries[static_cast<std::size_t>(e)];
      if (j != i && j % 7 == 0) a.values[static_cast<std::size_t>(e)] = -0.0;
    }
  }
  expect_prolongator_matches(a, tentative_of(labels, nc), solver::inverted_diagonal(a),
                             "singletons");
}

TEST(SmoothedProlongator, RejectsARowWithoutItsAggregate) {
  // No diagonal in row 0 and no neighbor in its aggregate: A·P̂ row 0
  // lacks column label(0), the case `matrix_add` would have merged in.
  graph::CrsMatrix a;
  a.num_rows = a.num_cols = 2;
  a.row_map = {0, 1, 3};
  a.entries = {1, 0, 1};
  a.values = {-1.0, -1.0, 2.0};
  const std::vector<scalar_t> inv_diag = {1.0, 0.5};
  graph::CrsMatrix ap, p;
  EXPECT_THROW(graph::smoothed_prolongator(a, tentative_of({0, 1}, 2), inv_diag, 2.0 / 3.0, ap, p),
               std::invalid_argument);
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

  // Replay the same labels through the serial std::map reference.
  const WeightedGraph* fine = &wg;
  for (std::size_t l = 0; l < steps.size(); ++l) {
    const WeightedGraph expect = test::map_quotient(*fine, steps[l].aggregation);
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

TEST(BuilderGalerkin, ProlongatorPassMatchesLegacyLoopColdAndOnReplay) {
  // Each level's P, D⁻¹·A·P̂, R and transpose permutation against the
  // legacy steps on the level's own operator and tentative prolongator,
  // for the power-law, mesh and RGG families, cold and on a warm replay.
  std::vector<std::pair<std::string, graph::CrsMatrix>> family;
  family.emplace_back("powerlaw",
                      graph::laplacian_matrix(graph::power_law_graph(3000, 2.2, 3, 300, 5), 1.0));
  family.emplace_back("laplace3d", graph::laplace3d(14, 14, 14));
  family.emplace_back("rgg",
                      graph::laplacian_matrix(graph::random_geometric_3d(4000, 14.0, 3), 1.0));
  Options opts;
  opts.min_coarse_size = 20;
  const Builder builder(opts);
  for (const auto& [name, a] : family) {
    graph::CrsMatrix a2 = a;
    for (std::size_t e = 0; e < a2.values.size(); ++e) {
      a2.values[e] *= 1.0 + 0.25 * static_cast<scalar_t>(e % 3);
    }
    for (const Context& ctx : prolongator_contexts()) {
      Context::Scope scope(ctx);
      const std::string where = name + " " + context_name(ctx);
      HierarchyHandle h;
      (void)builder.build_galerkin(a, h);
      ASSERT_GE(h.ops().size(), 2u) << where;
      for (int rep = 0; rep < 2; ++rep) {
        if (rep == 1) {
          // Check builds assert the replay allocation-free under an
          // AllocGuard inside rebuild_galerkin; here its scratch stays put.
          const std::size_t warm = h.scratch_bytes();
          const std::uint64_t grows = h.stats().scratch_grows;
          (void)builder.rebuild_galerkin(a2, h);
          EXPECT_EQ(h.scratch_bytes(), warm) << where;
          EXPECT_EQ(h.stats().scratch_grows, grows) << where;
        }
        const std::vector<SetupWorkspace::GalerkinLevel>& gws = galerkin_workspace(h);
        ASSERT_EQ(gws.size() + 1, h.ops().size()) << where;
        for (std::size_t l = 0; l < gws.size(); ++l) {
          const OperatorLevel& lvl = h.ops()[l];
          const LegacyProlongator ref =
              legacy_prolongator(lvl.a, gws[l].phat, lvl.inv_diag, opts.prolongator_omega);
          const std::string at = where + " rep " + std::to_string(rep) + " level " +
                                 std::to_string(l);
          expect_same_matrix(gws[l].ap, ref.ap, (at + " ap").c_str());
          expect_same_matrix(lvl.p, ref.p, (at + " p").c_str());
          expect_same_matrix(lvl.r, ref.r, (at + " r").c_str());
          EXPECT_EQ(gws[l].tperm, ref.tperm) << at;
        }
      }
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
