/// \file test_integration.cpp
/// \brief Cross-module integration tests: full pipelines exercising the
/// public API the way the examples and benchmarks do.

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>

#include "coloring/d1_coloring.hpp"
#include "coloring/verify.hpp"
#include "core/aggregation.hpp"
#include "core/coarsen.hpp"
#include "core/mis2.hpp"
#include "core/verify.hpp"
#include "graph/generators.hpp"
#include "graph/matrix_market.hpp"
#include "graph/ops.hpp"
#include "graph/registry.hpp"
#include "multilevel/builder.hpp"
#include "partition/partitioner.hpp"
#include "solver/cluster_gs.hpp"
#include "solver/handle.hpp"
#include "solver/vector_ops.hpp"
#include "test_utils.hpp"

namespace parmis {
namespace {

TEST(Pipeline, MatrixMarketToMis2ToAggregation) {
  // Write a problem to disk, read it back, run the full coarsening
  // pipeline — the workflow of a user starting from a SuiteSparse file.
  const std::string path = std::filesystem::temp_directory_path() / "parmis_pipeline.mtx";
  graph::write_matrix_market(path, graph::laplace2d(40, 40));
  const graph::CrsMatrix a = graph::read_matrix_market(path);
  std::remove(path.c_str());

  const graph::CrsGraph g = graph::remove_self_loops(graph::GraphView(a));
  const core::Mis2Result mis = core::mis2(g);
  EXPECT_TRUE(core::verify_mis2(g, mis.in_set));

  const core::Aggregation agg = core::aggregate_mis2(g);
  EXPECT_TRUE(core::verify_aggregation(g, agg));

  const graph::CrsGraph coarse = core::coarse_graph(g, agg);
  EXPECT_TRUE(coarse.validate());
  EXPECT_LT(coarse.num_rows, g.num_rows / 3);
}

TEST(Pipeline, RegistrySurrogateThroughFullSolverStack) {
  // A Table II surrogate end to end: build, precondition with AMG, solve.
  const graph::CrsMatrix a = graph::experiment_matrices().find("StocF-1465").build(0.01);
  solver::SolveHandle h("cg", "amg");
  const std::vector<scalar_t> b = solver::random_vector(a.num_rows, 31);
  std::vector<scalar_t> x(static_cast<std::size_t>(a.num_rows), 0);
  solver::IterOptions opts;
  opts.tolerance = 1e-9;
  opts.max_iterations = 300;
  const solver::IterResult& r = h.solve(a, b, x, opts);
  EXPECT_TRUE(r.converged);
}

TEST(Pipeline, ClusterGsUsesAggregationConsistently) {
  // The cluster structure inside the preconditioner must itself be a valid
  // aggregation whose quotient coloring is a valid D1 coloring.
  const graph::CrsMatrix a = graph::elasticity3d(6, 6, 6);
  solver::ClusterMulticolorGS gs(a);
  const graph::CrsGraph adj = graph::remove_self_loops(graph::GraphView(a));
  EXPECT_TRUE(core::verify_aggregation(adj, gs.aggregation()));

  const graph::CrsGraph coarse = core::coarse_graph(adj, gs.aggregation());
  const coloring::Coloring coarse_coloring = coloring::parallel_d1_coloring(coarse);
  EXPECT_TRUE(coloring::verify_d1_coloring(coarse, coarse_coloring));
  EXPECT_EQ(coarse_coloring.num_colors, gs.num_colors());
}

TEST(Pipeline, PartitionOfCoarsenedGraphMatchesDirectPartition) {
  // Partitioning via the multilevel driver must produce cuts comparable to
  // partitioning the fine graph directly (coarse-then-partition-then-
  // project is what the multilevel partitioner does internally anyway).
  const graph::CrsGraph g = graph::random_geometric_2d(3000, 7.0, 41);
  const partition::Partition direct = partition::partition_graph(g, 4);

  multilevel::Options ml;
  ml.min_coarse_size = 400;
  multilevel::HierarchyHandle h;
  const std::vector<multilevel::Step>& steps = multilevel::Builder(ml).build(g, h);
  ASSERT_FALSE(steps.empty());
  const partition::Partition coarse_part =
      partition::partition_graph(steps.back().coarse.graph, 4);
  std::vector<ordinal_t> projected(static_cast<std::size_t>(g.num_rows));
  for (ordinal_t v = 0; v < g.num_rows; ++v) {
    ordinal_t c = v;
    for (const multilevel::Step& step : steps) {
      c = step.aggregation.labels[static_cast<std::size_t>(c)];
    }
    projected[static_cast<std::size_t>(v)] = coarse_part.part[static_cast<std::size_t>(c)];
  }
  const std::int64_t projected_cut = partition::edge_cut(g, projected);
  // Projection without refinement loses some quality but must stay within
  // a small factor.
  EXPECT_LT(static_cast<double>(direct.edge_cut), 1.2 * static_cast<double>(projected_cut) + 50);
}

TEST(Pipeline, Mis2OptionsSeedGivesIndependentSolves) {
  // Different seeds give different (valid) hierarchies; each must still
  // converge — the reproducibility knob users get.
  const graph::CrsMatrix a = graph::laplace3d(8, 8, 8);
  const std::vector<scalar_t> b = solver::random_vector(a.num_rows, 33);
  for (std::uint64_t seed : {0ull, 1ull, 2ull}) {
    solver::SolveHandle h("cg", "amg");
    h.prec_options().amg.hierarchy.mis2.seed = seed;
    std::vector<scalar_t> x(static_cast<std::size_t>(a.num_rows), 0);
    solver::IterOptions cg_opts;
    cg_opts.tolerance = 1e-10;
    cg_opts.max_iterations = 200;
    EXPECT_TRUE(h.solve(a, b, x, cg_opts).converged) << "seed " << seed;
  }
}

TEST(Pipeline, SymmetrizeArbitraryMatrixBeforeGraphAlgorithms) {
  // Nonsymmetric input must be usable after one symmetrize call (the CLI
  // tool's path).
  std::vector<graph::Triplet> t;
  rng::SplitMix64 gen(77);
  const ordinal_t n = 200;
  for (int e = 0; e < 900; ++e) {
    t.push_back({static_cast<ordinal_t>(gen.next_below(n)),
                 static_cast<ordinal_t>(gen.next_below(n)), 1.0});
  }
  const graph::CrsMatrix a = graph::matrix_from_coo(n, n, t);
  const graph::CrsGraph g = graph::remove_self_loops(graph::symmetrize(graph::GraphView(a)));
  ASSERT_TRUE(graph::is_symmetric(g));
  ASSERT_FALSE(graph::has_self_loops(g));
  const core::Mis2Result mis = core::mis2(g);
  EXPECT_TRUE(core::verify_mis2(g, mis.in_set));
  const core::Aggregation agg = core::aggregate_mis2(g);
  EXPECT_TRUE(core::verify_aggregation(g, agg));
}

TEST(Pipeline, GmresWithAmgPreconditioner) {
  // AMG is also usable under GMRES (not just CG).
  const graph::CrsMatrix a = graph::laplace2d(30, 30);
  solver::SolveHandle h("gmres", "amg");
  const std::vector<scalar_t> b = solver::random_vector(a.num_rows, 35);
  std::vector<scalar_t> x(static_cast<std::size_t>(a.num_rows), 0);
  solver::IterOptions opts;
  opts.tolerance = 1e-9;
  opts.max_iterations = 200;
  const solver::IterResult& r = h.solve(a, b, x, opts);
  EXPECT_TRUE(r.converged);
  EXPECT_LE(r.iterations, 40);
}

}  // namespace
}  // namespace parmis
