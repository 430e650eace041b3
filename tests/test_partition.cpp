/// \file test_partition.cpp
/// \brief Tests for the multilevel partitioning subsystem: traversal
/// utilities, weighted coarsening, HEM, bisection/refinement, k-way.

#include <gtest/gtest.h>

#include <numeric>

#include "core/aggregation.hpp"
#include "graph/generators.hpp"
#include "graph/ops.hpp"
#include "graph/rgg.hpp"
#include "graph/traversal.hpp"
#include "multilevel/weighted.hpp"
#include "parallel/execution.hpp"
#include "partition/partitioner.hpp"
#include "test_utils.hpp"

namespace parmis::partition {
namespace {

TEST(Traversal, BfsDistancesOnPath) {
  const graph::CrsGraph g = test::path_graph(6);
  const std::vector<ordinal_t> d = graph::bfs_distances(g, 0);
  for (ordinal_t v = 0; v < 6; ++v) {
    EXPECT_EQ(d[static_cast<std::size_t>(v)], v);
  }
}

TEST(Traversal, BfsUnreachableIsMinusOne) {
  const graph::CrsGraph g = graph::graph_from_edges(4, {{0, 1}});
  const std::vector<ordinal_t> d = graph::bfs_distances(g, 0);
  EXPECT_EQ(d[1], 1);
  EXPECT_EQ(d[2], invalid_ordinal);
  EXPECT_EQ(d[3], invalid_ordinal);
}

TEST(Traversal, PseudoPeripheralOnPathIsAnEnd) {
  const graph::CrsGraph g = test::path_graph(30);
  const ordinal_t v = graph::pseudo_peripheral_vertex(g, 15);
  EXPECT_TRUE(v == 0 || v == 29);
}

TEST(Traversal, ConnectedComponents) {
  const graph::CrsGraph g = graph::graph_from_edges(7, {{0, 1}, {1, 2}, {3, 4}});
  const graph::Components c = graph::connected_components(g);
  EXPECT_EQ(c.count, 4);  // {0,1,2}, {3,4}, {5}, {6}
  EXPECT_EQ(c.labels[0], c.labels[2]);
  EXPECT_NE(c.labels[0], c.labels[3]);
  EXPECT_NE(c.labels[5], c.labels[6]);
}

TEST(Traversal, SingleComponentOnMesh) {
  const graph::CrsGraph g = test::adjacency_of(graph::laplace2d(10, 10));
  EXPECT_EQ(graph::connected_components(g).count, 1);
}

TEST(WeightedCoarsen, WeightsAreConserved) {
  const graph::CrsGraph g = test::adjacency_of(graph::laplace2d(12, 12));
  WeightedGraph wg = WeightedGraph::unit(g);
  const core::Aggregation agg = core::aggregate_mis2(g);
  const WeightedGraph coarse = multilevel::coarsen_weighted(wg, agg);

  // Vertex weight conserved.
  EXPECT_EQ(coarse.total_vertex_weight(), wg.total_vertex_weight());
  // Edge weight: every fine edge is either internal or contributes to
  // exactly one coarse edge (counted from both sides).
  std::int64_t fine_cross = 0;
  for (ordinal_t v = 0; v < g.num_rows; ++v) {
    for (ordinal_t u : g.row(v)) {
      if (agg.labels[static_cast<std::size_t>(u)] != agg.labels[static_cast<std::size_t>(v)]) {
        ++fine_cross;
      }
    }
  }
  std::int64_t coarse_total = 0;
  for (ordinal_t w : coarse.edge_weight) coarse_total += w;
  EXPECT_EQ(coarse_total, fine_cross);
  EXPECT_TRUE(coarse.graph.validate());
}

TEST(WeightedCoarsen, CutIsPreservedUnderProjection) {
  // The invariant multilevel partitioning rests on: a coarse bisection's
  // weighted cut equals the projected fine cut.
  const graph::CrsGraph g = graph::random_geometric_2d(2000, 6.0, 3);
  WeightedGraph wg = WeightedGraph::unit(g);
  const core::Aggregation agg = core::aggregate_mis2(g);
  const WeightedGraph coarse = multilevel::coarsen_weighted(wg, agg);

  // Arbitrary coarse split by parity.
  std::vector<char> coarse_side(static_cast<std::size_t>(coarse.graph.num_rows));
  for (ordinal_t a = 0; a < coarse.graph.num_rows; ++a) {
    coarse_side[static_cast<std::size_t>(a)] = a % 2;
  }
  std::vector<char> fine_side(static_cast<std::size_t>(g.num_rows));
  for (ordinal_t v = 0; v < g.num_rows; ++v) {
    fine_side[static_cast<std::size_t>(v)] =
        coarse_side[static_cast<std::size_t>(agg.labels[static_cast<std::size_t>(v)])];
  }
  EXPECT_EQ(cut_weight(coarse, coarse_side), cut_weight(wg, fine_side));
}

TEST(Hem, MatchesArePairsOrSingletons) {
  const graph::CrsGraph g = test::adjacency_of(graph::laplace2d(15, 15));
  WeightedGraph wg = WeightedGraph::unit(g);
  core::CoarsenHandle handle;
  const core::Aggregation& m = handle.aggregate_hem(wg.graph, wg.edge_weight, 7);
  std::vector<ordinal_t> size(static_cast<std::size_t>(m.num_aggregates), 0);
  for (ordinal_t l : m.labels) ++size[static_cast<std::size_t>(l)];
  for (ordinal_t s : size) {
    EXPECT_GE(s, 1);
    EXPECT_LE(s, 2);
  }
  // A mesh has a near-perfect matching: expect close to n/2 coarse nodes.
  EXPECT_LT(m.num_aggregates, static_cast<ordinal_t>(0.65 * g.num_rows));
}

TEST(Hem, PrefersHeavyEdges) {
  // Triangle with one heavy edge: the heavy pair must be matched.
  graph::CrsGraph g = graph::graph_from_edges(3, {{0, 1}, {1, 2}, {0, 2}});
  WeightedGraph wg = WeightedGraph::unit(g);
  // Make edge (1,2) heavy in both directions.
  for (ordinal_t v = 0; v < 3; ++v) {
    for (offset_t j = wg.graph.row_map[v]; j < wg.graph.row_map[v + 1]; ++j) {
      const ordinal_t u = wg.graph.entries[static_cast<std::size_t>(j)];
      if ((v == 1 && u == 2) || (v == 2 && u == 1)) {
        wg.edge_weight[static_cast<std::size_t>(j)] = 10;
      }
    }
  }
  core::CoarsenHandle handle;
  const core::Aggregation& m = handle.aggregate_hem(wg.graph, wg.edge_weight, 1);
  EXPECT_EQ(m.labels[1], m.labels[2]);
  EXPECT_NE(m.labels[0], m.labels[1]);
}

TEST(Bisection, GrowCoversHalfTheWeight) {
  const graph::CrsGraph g = test::adjacency_of(graph::laplace2d(20, 20));
  WeightedGraph wg = WeightedGraph::unit(g);
  const Bisection b = grow_bisection(wg, 5);
  std::int64_t w0 = 0;
  for (ordinal_t v = 0; v < g.num_rows; ++v) {
    if (b.side[static_cast<std::size_t>(v)] == 0) ++w0;
  }
  EXPECT_NEAR(static_cast<double>(w0), g.num_rows / 2.0, g.num_rows * 0.02 + 2);
  EXPECT_EQ(b.cut_weight, cut_weight(wg, b.side));
}

TEST(Bisection, RefinementNeverWorsensCut) {
  for (std::uint64_t seed : {1ull, 2ull, 3ull, 4ull}) {
    const graph::CrsGraph g = graph::random_geometric_2d(1500, 7.0, seed);
    WeightedGraph wg = WeightedGraph::unit(g);
    Bisection b = grow_bisection(wg, seed);
    const std::int64_t before = b.cut_weight;
    refine_bisection(wg, b, 8, 0.05);
    EXPECT_LE(b.cut_weight, before) << "seed " << seed;
    EXPECT_EQ(b.cut_weight, cut_weight(wg, b.side)) << "seed " << seed;
  }
}

TEST(Multilevel, BisectionOfGridIsNearOptimal) {
  // A 32x32 grid's optimal bisection cut is 32; multilevel + refinement
  // should land within a 2x band.
  const graph::CrsGraph g = test::adjacency_of(graph::laplace2d(32, 32));
  WeightedGraph wg = WeightedGraph::unit(g);
  PartitionOptions opts;
  const Bisection b = multilevel_bisect(wg, opts);
  EXPECT_LE(b.cut_weight, 64);
  // Balance within tolerance band.
  std::int64_t w0 = 0;
  for (char s : b.side) w0 += s == 0;
  EXPECT_NEAR(static_cast<double>(w0), 512.0, 80.0);
}

class KwayPartition : public ::testing::TestWithParam<ordinal_t> {};

TEST_P(KwayPartition, ValidBalancedPartitions) {
  const ordinal_t k = GetParam();
  const graph::CrsGraph g = graph::random_geometric_3d(4000, 12.0, 17);
  const Partition p = partition_graph(g, k);
  ASSERT_EQ(p.part.size(), static_cast<std::size_t>(g.num_rows));
  for (ordinal_t part_id : p.part) {
    EXPECT_GE(part_id, 0);
    EXPECT_LT(part_id, k);
  }
  // Every part non-empty and within ~20% imbalance for these sizes.
  std::vector<std::int64_t> count(static_cast<std::size_t>(k), 0);
  for (ordinal_t part_id : p.part) ++count[static_cast<std::size_t>(part_id)];
  for (ordinal_t part_id = 0; part_id < k; ++part_id) {
    EXPECT_GT(count[static_cast<std::size_t>(part_id)], 0) << "empty part " << part_id;
  }
  EXPECT_LT(p.imbalance, 0.25) << "k=" << k;
  EXPECT_EQ(p.edge_cut, edge_cut(g, p.part));
}

INSTANTIATE_TEST_SUITE_P(Ks, KwayPartition, ::testing::Values(1, 2, 3, 4, 7, 8, 16));

TEST(KwayQuality, CutFarBelowRandomAssignment) {
  const graph::CrsGraph g = graph::random_geometric_2d(5000, 8.0, 23);
  const ordinal_t k = 8;
  const Partition p = partition_graph(g, k);

  // Random assignment cuts ~ (1 - 1/k) of all edges.
  const double random_cut = static_cast<double>(g.num_entries() / 2) * (1.0 - 1.0 / k);
  EXPECT_LT(static_cast<double>(p.edge_cut), 0.35 * random_cut);
}

TEST(KwayQuality, Mis2CoarseningCompetitiveWithHem) {
  // Gilbert et al. (paper §II): MIS-2 coarsening outperforms HEM on
  // regular graphs. Require MIS-2 to be at least within 1.5x of HEM here
  // (the ablation bench reports the actual ratios).
  const graph::CrsGraph g = test::adjacency_of(graph::laplace2d(60, 60));
  PartitionOptions mis2_opts;
  mis2_opts.coarsener = "mis2";
  PartitionOptions hem_opts;
  hem_opts.coarsener = "hem";
  const Partition pm = partition_graph(g, 4, mis2_opts);
  const Partition ph = partition_graph(g, 4, hem_opts);
  EXPECT_LT(static_cast<double>(pm.edge_cut), 1.5 * static_cast<double>(ph.edge_cut) + 16);
}

TEST(Partition, DeterministicAcrossThreads) {
  const graph::CrsGraph g = graph::random_geometric_3d(3000, 10.0, 29);
  Partition serial_p, parallel_p;
  {
    par::ScopedExecution scope(par::Backend::Serial, 1);
    serial_p = partition_graph(g, 4);
  }
  {
    par::ScopedExecution scope(par::Backend::OpenMP, 0);
    parallel_p = partition_graph(g, 4);
  }
  EXPECT_EQ(serial_p.part, parallel_p.part);
  EXPECT_EQ(serial_p.edge_cut, parallel_p.edge_cut);
}

TEST(Partition, HandlesDisconnectedGraphs) {
  // Two separate meshes: the bisection should use the component split.
  std::vector<graph::Edge> edges;
  const graph::CrsGraph grid = test::adjacency_of(graph::laplace2d(10, 10));
  for (ordinal_t v = 0; v < grid.num_rows; ++v) {
    for (ordinal_t u : grid.row(v)) {
      if (u > v) {
        edges.emplace_back(v, u);
        edges.emplace_back(v + grid.num_rows, u + grid.num_rows);
      }
    }
  }
  const graph::CrsGraph g = graph::graph_from_edges(2 * grid.num_rows, edges);
  const Partition p = partition_graph(g, 2);
  EXPECT_LE(p.edge_cut, 10);  // near-zero: the two components split apart
  EXPECT_LT(p.imbalance, 0.1);
}

TEST(Partition, EmptyAndTinyGraphs) {
  EXPECT_EQ(partition_graph(graph::CrsGraph{}, 4).part.size(), 0u);
  const graph::CrsGraph single = graph::graph_from_edges(1, {});
  const Partition p = partition_graph(single, 1);
  EXPECT_EQ(p.part[0], 0);
}

}  // namespace
}  // namespace parmis::partition
