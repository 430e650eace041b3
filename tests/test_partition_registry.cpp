/// \file test_partition_registry.cpp
/// \brief Tests for the pluggable partitioning subsystem: the registry,
/// the `Partitioner` run driver, the quality metrics, and backend
/// determinism of every registered algorithm.

#include <gtest/gtest.h>

#include <set>
#include <stdexcept>

#include "graph/generators.hpp"
#include "graph/rgg.hpp"
#include "parallel/execution.hpp"
#include "partition/interface.hpp"
#include "partition/partitioner.hpp"
#include "test_utils.hpp"

namespace parmis::partition {
namespace {

WeightedGraph unit_of(const graph::CrsGraph& g) { return WeightedGraph::unit(g); }

TEST(PartitionerRegistry, ContainsTheCoreAlgorithms) {
  const std::vector<std::string> names = partitioners().names();
  const std::set<std::string> set(names.begin(), names.end());
  EXPECT_GE(names.size(), 3u);
  EXPECT_TRUE(set.count("multilevel-mis2"));
  EXPECT_TRUE(set.count("multilevel-hem"));
  EXPECT_TRUE(set.count("ldg"));
  EXPECT_TRUE(set.count("lp-grow"));
  EXPECT_TRUE(set.count("block"));
}

TEST(PartitionerRegistry, SpecsAreComplete) {
  for (const PartitionerSpec& spec : partitioners().specs()) {
    ASSERT_TRUE(spec.make != nullptr);
    const std::unique_ptr<Partitioner> p = spec.make();
    ASSERT_TRUE(p != nullptr);
    EXPECT_EQ(p->name(), spec.name);
  }
}

TEST(PartitionerRun, ValidLabelingAndStatsOnEveryAlgorithm) {
  const WeightedGraph wg = unit_of(graph::random_geometric_2d(1200, 7.0, 19));
  const ordinal_t k = 5;
  for (const PartitionerSpec& spec : partitioners().specs()) {
    const PartitionResult r = spec.make()->run(wg, k);
    ASSERT_EQ(r.part.size(), static_cast<std::size_t>(wg.graph.num_rows)) << spec.name;
    EXPECT_EQ(r.k, k) << spec.name;
    EXPECT_GE(r.seconds, 0.0) << spec.name;
    for (ordinal_t p : r.part) {
      ASSERT_GE(p, 0) << spec.name;
      ASSERT_LT(p, k) << spec.name;
    }
    // Quality agrees with the independent metric implementations.
    EXPECT_EQ(r.quality.edge_cut, cut_weight_kway(wg, r.part)) << spec.name;
    EXPECT_DOUBLE_EQ(r.quality.imbalance, imbalance_weighted(wg, r.part, k)) << spec.name;
    EXPECT_EQ(r.quality.k, k) << spec.name;
    EXPECT_EQ(r.quality.num_vertices, wg.graph.num_rows) << spec.name;
    EXPECT_GE(r.quality.boundary_fraction, 0.0) << spec.name;
    EXPECT_LE(r.quality.boundary_fraction, 1.0) << spec.name;
    // No algorithm should leave a part empty on a connected-ish graph this
    // large, and every algorithm respects a loose balance band.
    EXPECT_EQ(r.quality.empty_parts, 0) << spec.name;
    EXPECT_LT(r.quality.imbalance, 0.30) << spec.name;
  }
}

TEST(PartitionerRun, EmptyAndTrivialInputs) {
  for (const PartitionerSpec& spec : partitioners().specs()) {
    const PartitionResult empty = spec.make()->run(unit_of(graph::CrsGraph{}), 4);
    EXPECT_TRUE(empty.part.empty()) << spec.name;

    const PartitionResult single =
        spec.make()->run(unit_of(graph::graph_from_edges(1, {})), 1);
    ASSERT_EQ(single.part.size(), 1u) << spec.name;
    EXPECT_EQ(single.part[0], 0) << spec.name;

    const PartitionResult k1 =
        spec.make()->run(unit_of(test::path_graph(10)), 1);
    for (ordinal_t p : k1.part) EXPECT_EQ(p, 0) << spec.name;
    EXPECT_EQ(k1.quality.edge_cut, 0) << spec.name;
  }
}

TEST(Quality, HandCheckedPathGraph) {
  // Path 0-1-2-3 split {0,1} | {2,3}: one cut edge, two boundary vertices,
  // each boundary vertex talks to exactly one remote part.
  const WeightedGraph wg = unit_of(test::path_graph(4));
  const std::vector<ordinal_t> part = {0, 0, 1, 1};
  const QualityReport q = evaluate_partition(wg, part, 2);
  EXPECT_EQ(q.num_vertices, 4);
  EXPECT_EQ(q.num_edges, 3);
  EXPECT_EQ(q.edge_cut, 1);
  EXPECT_EQ(q.comm_volume, 2);
  EXPECT_EQ(q.boundary_vertices, 2);
  EXPECT_DOUBLE_EQ(q.boundary_fraction, 0.5);
  EXPECT_EQ(q.max_part_weight, 2);
  EXPECT_EQ(q.min_part_weight, 2);
  EXPECT_EQ(q.empty_parts, 0);
  EXPECT_DOUBLE_EQ(q.imbalance, 0.0);
  EXPECT_DOUBLE_EQ(q.cut_fraction(), 1.0 / 3.0);
}

TEST(Quality, HandCheckedStarGraph) {
  // Star with hub 0 and 4 leaves; hub alone in part 0. Every edge is cut;
  // the hub talks to one remote part, each leaf to one.
  const WeightedGraph wg = unit_of(test::star_graph(4));
  const std::vector<ordinal_t> part = {0, 1, 1, 1, 1};
  const QualityReport q = evaluate_partition(wg, part, 2);
  EXPECT_EQ(q.edge_cut, 4);
  EXPECT_EQ(q.boundary_vertices, 5);
  EXPECT_DOUBLE_EQ(q.boundary_fraction, 1.0);
  EXPECT_EQ(q.comm_volume, 5);  // hub sees part 1; each leaf sees part 0
  EXPECT_EQ(q.max_part_weight, 4);
  EXPECT_EQ(q.min_part_weight, 1);
  EXPECT_DOUBLE_EQ(q.imbalance, 4.0 / 2.5 - 1.0);
}

TEST(Quality, HandCheckedThreeWayWithEmptyPart) {
  // Triangle all in part 0 of k=3: no cut, two empty parts.
  const WeightedGraph wg = unit_of(test::complete_graph(3));
  const std::vector<ordinal_t> part = {0, 0, 0};
  const QualityReport q = evaluate_partition(wg, part, 3);
  EXPECT_EQ(q.edge_cut, 0);
  EXPECT_EQ(q.comm_volume, 0);
  EXPECT_EQ(q.boundary_vertices, 0);
  EXPECT_EQ(q.empty_parts, 2);
  EXPECT_DOUBLE_EQ(q.imbalance, 2.0);  // 3 / 1 - 1
}

TEST(Quality, RespectsEdgeWeights) {
  // Path 0-1-2 with a heavy (0,1) edge; split {0} | {1,2} cuts it.
  WeightedGraph wg = unit_of(test::path_graph(3));
  for (std::size_t j = 0; j < wg.graph.entries.size(); ++j) {
    const ordinal_t v = wg.graph.entries[j];
    // Entries of vertex 0 and entry back to 0 form edge (0,1).
    if ((j < static_cast<std::size_t>(wg.graph.row_map[1]) && v == 1) || v == 0) {
      wg.edge_weight[j] = 7;
    }
  }
  const std::vector<ordinal_t> part = {0, 1, 1};
  const QualityReport q = evaluate_partition(wg, part, 2);
  EXPECT_EQ(q.edge_cut, 7);
  // cut_fraction is weighted: 7 of 8 total edge weight, not 1 of 2 edges.
  EXPECT_EQ(q.total_edge_weight, 8);
  EXPECT_DOUBLE_EQ(q.cut_fraction(), 7.0 / 8.0);
}

TEST(PartitionerRun, RejectsNonPositiveK) {
  const WeightedGraph wg = unit_of(test::path_graph(8));
  for (const PartitionerSpec& spec : partitioners().specs()) {
    EXPECT_THROW((void)spec.make()->run(wg, 0), std::invalid_argument) << spec.name;
    EXPECT_THROW((void)spec.make()->run(wg, -3), std::invalid_argument) << spec.name;
  }
  EXPECT_THROW((void)partition_weighted(wg, 0), std::invalid_argument);
}

TEST(Quality, JsonOutputContainsAllKeys) {
  const WeightedGraph wg = unit_of(test::path_graph(4));
  const QualityReport q = evaluate_partition(wg, {{0, 0, 1, 1}}, 2);
  const std::string json = q.to_json();
  for (const char* key :
       {"\"k\":", "\"num_vertices\":", "\"num_edges\":", "\"total_edge_weight\":",
        "\"edge_cut\":", "\"cut_fraction\":",
        "\"comm_volume\":", "\"boundary_vertices\":", "\"boundary_fraction\":",
        "\"max_part_weight\":", "\"min_part_weight\":", "\"empty_parts\":", "\"imbalance\":"}) {
    EXPECT_NE(json.find(key), std::string::npos) << key;
  }
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');
}

/// Mirrors Partition.DeterministicAcrossThreads (test_partition.cpp): every
/// registered partitioner must produce a bit-identical labeling on the
/// Serial backend and on OpenMP at several thread counts.
TEST(PartitionerDeterminism, SerialVsOpenMpAllAlgorithms) {
  const WeightedGraph wg = unit_of(graph::random_geometric_3d(3000, 10.0, 29));
  const ordinal_t k = 4;
  for (const PartitionerSpec& spec : partitioners().specs()) {
    PartitionResult serial_r;
    {
      par::ScopedExecution scope(par::Backend::Serial, 1);
      serial_r = spec.make()->run(wg, k);
    }
    for (int threads : {0, 2, 3}) {
      par::ScopedExecution scope(par::Backend::OpenMP, threads);
      const PartitionResult parallel_r = spec.make()->run(wg, k);
      EXPECT_EQ(serial_r.part, parallel_r.part)
          << spec.name << " with " << threads << " threads";
      EXPECT_EQ(serial_r.quality.edge_cut, parallel_r.quality.edge_cut) << spec.name;
      EXPECT_EQ(serial_r.quality.comm_volume, parallel_r.quality.comm_volume) << spec.name;
    }
  }
}

TEST(PartitionerDeterminism, RepeatedRunsAreIdentical) {
  const WeightedGraph wg = unit_of(test::adjacency_of(graph::laplace2d(25, 25)));
  for (const PartitionerSpec& spec : partitioners().specs()) {
    const PartitionResult a = spec.make()->run(wg, 6);
    const PartitionResult b = spec.make()->run(wg, 6);
    EXPECT_EQ(a.part, b.part) << spec.name;
  }
}

TEST(PartitionWeighted, NullGraphViewIsSafe) {
  // A default-constructed view has null row_map/entries; the unit() deep
  // copy must not touch them.
  const Partition p = partition_graph(graph::GraphView{}, 4);
  EXPECT_TRUE(p.part.empty());
  const QualityReport q = evaluate_partition(graph::GraphView{}, {}, 4);
  EXPECT_EQ(q.num_vertices, 0);
  EXPECT_EQ(q.edge_cut, 0);
}

TEST(PartitionWeighted, LabelsOnlyMatchesFullEntryPoint) {
  const graph::CrsGraph g = test::adjacency_of(graph::laplace2d(18, 18));
  const WeightedGraph wg = WeightedGraph::unit(g);
  EXPECT_EQ(partition_labels_weighted(wg, 5), partition_weighted(wg, 5).part);
}

TEST(PartitionWeighted, MatchesUnweightedOnUnitWeights) {
  const graph::CrsGraph g = graph::random_geometric_2d(2000, 7.0, 31);
  const Partition a = partition_graph(g, 4);
  const Partition b = partition_weighted(WeightedGraph::unit(g), 4);
  EXPECT_EQ(a.part, b.part);
  EXPECT_EQ(a.edge_cut, b.edge_cut);
  EXPECT_DOUBLE_EQ(a.imbalance, b.imbalance);
}

TEST(PartitionWeighted, KwayCutAgreesWithUnweightedCount) {
  const graph::CrsGraph g = test::adjacency_of(graph::laplace2d(20, 20));
  const WeightedGraph wg = WeightedGraph::unit(g);
  const Partition p = partition_weighted(wg, 3);
  EXPECT_EQ(p.edge_cut, edge_cut(g, p.part));
}

}  // namespace
}  // namespace parmis::partition
