/// \file test_generators.cpp
/// \brief Tests for the Galeri-style generators, RGG surrogates, Laplacian
/// values, Matrix Market I/O, and the experiment registry.

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <numeric>

#include "graph/generators.hpp"
#include "graph/matrix_market.hpp"
#include "graph/ops.hpp"
#include "graph/registry.hpp"
#include "graph/rgg.hpp"
#include "graph/spgemm.hpp"
#include "graph/spmv.hpp"
#include "parallel/execution.hpp"
#include "test_utils.hpp"

namespace parmis::graph {
namespace {

TEST(Laplace3D, SevenPointStencilStructure) {
  const CrsMatrix a = laplace3d(4, 5, 6);
  EXPECT_EQ(a.num_rows, 4 * 5 * 6);
  EXPECT_TRUE(a.structure().validate());
  EXPECT_TRUE(is_symmetric(a));
  // Interior row: 7 entries; corner row: 4 entries.
  const ordinal_t interior = 1 + 4 * (1 + 5 * 1);  // (1,1,1)
  EXPECT_EQ(a.degree(interior), 7);
  EXPECT_EQ(a.degree(0), 4);
  // Galeri convention: constant diagonal 6, off-diagonal -1.
  for (offset_t j = a.row_map[interior]; j < a.row_map[interior + 1]; ++j) {
    const bool diag = a.entries[static_cast<std::size_t>(j)] == interior;
    EXPECT_DOUBLE_EQ(a.values[static_cast<std::size_t>(j)], diag ? 6.0 : -1.0);
  }
}

TEST(Laplace3D, PaperScaleEntryCount) {
  // Table II reports 6.94M entries for Laplace3D_100.
  const CrsMatrix a = laplace3d(100, 100, 100);
  EXPECT_EQ(a.num_rows, 1000000);
  EXPECT_NEAR(static_cast<double>(a.num_entries()) / 1e6, 6.94, 0.01);
}

TEST(Laplace2D, StencilVariants) {
  const CrsMatrix five = laplace2d(10, 10);
  const CrsMatrix nine = laplace2d(10, 10, Stencil2D::NinePoint);
  const ordinal_t interior = 11;
  EXPECT_EQ(five.degree(interior), 5);
  EXPECT_EQ(nine.degree(interior), 9);
  EXPECT_TRUE(is_symmetric(five));
  EXPECT_TRUE(is_symmetric(nine));
}

TEST(Laplace3D, NineteenPointInteriorDegree) {
  const CrsMatrix a = laplace3d(5, 5, 5, Stencil3D::NineteenPoint);
  const ordinal_t interior = 2 + 5 * (2 + 5 * 2);
  EXPECT_EQ(a.degree(interior), 19);
}

TEST(StencilMatrices, DiagonallyDominantSPDProxy) {
  // Constant diagonal = interior degree makes boundary rows strictly
  // dominant; a positive quadratic form on a few random vectors is a cheap
  // SPD sanity check.
  for (const CrsMatrix& a :
       {laplace2d(7, 9), laplace3d(4, 4, 5, Stencil3D::TwentySevenPoint), elasticity3d(3, 3, 3)}) {
    std::vector<scalar_t> x(static_cast<std::size_t>(a.num_rows));
    std::vector<scalar_t> ax(x.size());
    for (std::uint64_t seed : {1ull, 2ull, 3ull}) {
      rng::SplitMix64 gen(seed);
      for (auto& v : x) v = gen.next_double() - 0.5;
      spmv(a, x, ax);
      scalar_t quad = 0;
      for (std::size_t i = 0; i < x.size(); ++i) quad += x[i] * ax[i];
      EXPECT_GT(quad, 0) << "seed " << seed;
    }
  }
}

TEST(Elasticity3D, ThreeDofBlockStructure) {
  const CrsMatrix a = elasticity3d(3, 3, 3);
  EXPECT_EQ(a.num_rows, 27 * 3);
  EXPECT_TRUE(is_symmetric(a));
  // Center node (1,1,1): full 27-point stencil, 3 dof => 81 entries/row.
  const ordinal_t center_node = 1 + 3 * (1 + 3 * 1);
  for (ordinal_t d = 0; d < 3; ++d) {
    EXPECT_EQ(a.degree(center_node * 3 + d), 81);
  }
  // Paper's avg degree for Elasticity3D_60 is ~78 at 60^3; small grids are
  // boundary-dominated but the interior matches 81 incl. the diagonal.
}

TEST(Elasticity3D, PaperScaleAvgDegree) {
  const CrsMatrix a = elasticity3d(20, 20, 20);  // scaled-down 60^3
  const double avg = static_cast<double>(a.num_entries()) / a.num_rows;
  // Paper reports 78.33 at 60^3; 20^3 has relatively more boundary, so a
  // looser band applies.
  EXPECT_GT(avg, 65.0);
  EXPECT_LT(avg, 81.0);
}

TEST(LaplacianMatrix, DegreePlusShiftDiagonal) {
  const CrsGraph g = test::star_graph(4);
  const CrsMatrix a = laplacian_matrix(g, 0.5);
  EXPECT_EQ(a.num_entries(), g.num_entries() + g.num_rows);
  // Hub diagonal = 4 + 0.5, leaves = 1 + 0.5.
  const std::vector<scalar_t> d = extract_diagonal(a);
  EXPECT_DOUBLE_EQ(d[0], 4.5);
  EXPECT_DOUBLE_EQ(d[1], 1.5);
  EXPECT_TRUE(is_symmetric(a));
  EXPECT_TRUE(a.structure().validate());
}

TEST(Rgg3D, HitsTargetDegree) {
  const ordinal_t n = 20000;
  for (double target : {6.0, 18.0, 40.0}) {
    const CrsGraph g = random_geometric_3d(n, target, 42);
    EXPECT_TRUE(g.validate());
    EXPECT_TRUE(is_symmetric(g));
    EXPECT_FALSE(has_self_loops(g));
    const double avg = static_cast<double>(g.num_entries()) / n;
    EXPECT_NEAR(avg, target, 0.15 * target) << "target " << target;
  }
}

TEST(Rgg2D, HitsTargetDegree) {
  const CrsGraph g = random_geometric_2d(20000, 8.0, 3);
  EXPECT_TRUE(g.validate());
  EXPECT_TRUE(is_symmetric(g));
  EXPECT_NEAR(static_cast<double>(g.num_entries()) / 20000, 8.0, 1.2);
}

TEST(Rgg3D, DeterministicInSeed) {
  const CrsGraph a = random_geometric_3d(5000, 10.0, 7);
  const CrsGraph b = random_geometric_3d(5000, 10.0, 7);
  const CrsGraph c = random_geometric_3d(5000, 10.0, 8);
  EXPECT_EQ(a.entries, b.entries);
  EXPECT_EQ(a.row_map, b.row_map);
  EXPECT_NE(a.entries, c.entries);
}

TEST(Rgg3D, ThreadCountInvariant) {
  graph::CrsGraph serial_g, parallel_g;
  {
    par::ScopedExecution scope(par::Backend::Serial, 1);
    serial_g = random_geometric_3d(8000, 12.0, 5);
  }
  {
    par::ScopedExecution scope(par::Backend::OpenMP, 0);
    parallel_g = random_geometric_3d(8000, 12.0, 5);
  }
  EXPECT_EQ(serial_g.row_map, parallel_g.row_map);
  EXPECT_EQ(serial_g.entries, parallel_g.entries);
}

TEST(PowerLawGraph, SkewedDegreesAndValidStructure) {
  const CrsGraph g = power_law_graph(4000, 2.2, 3, 400, 7);
  EXPECT_EQ(g.num_rows, 4000);
  EXPECT_TRUE(g.validate());
  EXPECT_TRUE(is_symmetric(g));
  const DegreeStats s = degree_stats(g);
  // Heavy tail: the max degree dwarfs the average — the scheduling skew
  // the edge-balanced policies exist for.
  EXPECT_GT(s.avg_degree, 3.0);
  EXPECT_GT(static_cast<double>(s.max_degree), 5.0 * s.avg_degree);
}

TEST(PowerLawGraph, DeterministicInSeedAndDistinctAcrossSeeds) {
  const CrsGraph a = power_law_graph(1500, 2.3, 2, 200, 11);
  const CrsGraph b = power_law_graph(1500, 2.3, 2, 200, 11);
  EXPECT_EQ(a.row_map, b.row_map);
  EXPECT_EQ(a.entries, b.entries);
  const CrsGraph c = power_law_graph(1500, 2.3, 2, 200, 12);
  EXPECT_NE(a.entries, c.entries);
}

TEST(PowerLawGraph, TrivialSizes) {
  EXPECT_EQ(power_law_graph(0, 2.2, 2, 50, 1).num_rows, 0);
  const CrsGraph one = power_law_graph(1, 2.2, 2, 50, 1);
  EXPECT_EQ(one.num_rows, 1);
  EXPECT_EQ(one.num_entries(), 0);  // no self loops possible
}

TEST(StarHubGraph, ExactStructure) {
  const ordinal_t hubs = 5, leaves = 7;
  const CrsGraph g = star_hub_graph(hubs, leaves);
  EXPECT_EQ(g.num_rows, hubs * (leaves + 1));
  EXPECT_TRUE(g.validate());
  EXPECT_TRUE(is_symmetric(g));
  for (ordinal_t h = 0; h < hubs; ++h) {
    EXPECT_EQ(g.degree(h), leaves + 2) << "hub " << h;  // leaves + ring
    for (ordinal_t l = 0; l < leaves; ++l) {
      const ordinal_t leaf = hubs + h * leaves + l;
      EXPECT_EQ(g.degree(leaf), 1);
      EXPECT_EQ(g.row(leaf)[0], h);
    }
  }
}

TEST(StarHubGraph, DegenerateHubCounts) {
  // One hub: a pure star, no ring edge.
  const CrsGraph star = star_hub_graph(1, 4);
  EXPECT_EQ(star.degree(0), 4);
  // Two hubs: the ring collapses to a single (deduplicated) edge.
  const CrsGraph two = star_hub_graph(2, 3);
  EXPECT_EQ(two.degree(0), 4);  // 3 leaves + 1 ring edge
  EXPECT_TRUE(two.validate());
}

TEST(MatrixMarket, RoundTrip) {
  const CrsMatrix a = laplace2d(6, 5);
  const std::string path = std::filesystem::temp_directory_path() / "parmis_mm_test.mtx";
  write_matrix_market(path, a);
  const CrsMatrix b = read_matrix_market(path);
  EXPECT_EQ(b.num_rows, a.num_rows);
  EXPECT_EQ(b.row_map, a.row_map);
  EXPECT_EQ(b.entries, a.entries);
  for (std::size_t i = 0; i < a.values.size(); ++i) {
    EXPECT_DOUBLE_EQ(b.values[i], a.values[i]);
  }
  std::remove(path.c_str());
}

TEST(MatrixMarket, SymmetricExpansion) {
  const std::string path = std::filesystem::temp_directory_path() / "parmis_mm_sym.mtx";
  {
    std::ofstream out(path);
    out << "%%MatrixMarket matrix coordinate real symmetric\n";
    out << "% comment line\n";
    out << "3 3 4\n";
    out << "1 1 2.0\n2 1 -1.0\n2 2 2.0\n3 3 1.5\n";
  }
  const CrsMatrix m = read_matrix_market(path);
  EXPECT_EQ(m.num_entries(), 5);  // off-diagonal mirrored
  EXPECT_DOUBLE_EQ(m.row_values(0)[1], -1.0);
  EXPECT_DOUBLE_EQ(m.row_values(1)[0], -1.0);
  std::remove(path.c_str());
}

TEST(MatrixMarket, PatternField) {
  const std::string path = std::filesystem::temp_directory_path() / "parmis_mm_pat.mtx";
  {
    std::ofstream out(path);
    out << "%%MatrixMarket matrix coordinate pattern general\n";
    out << "2 2 2\n1 2\n2 1\n";
  }
  const CrsMatrix m = read_matrix_market(path);
  EXPECT_EQ(m.num_entries(), 2);
  EXPECT_DOUBLE_EQ(m.row_values(0)[0], 1.0);
  std::remove(path.c_str());
}

TEST(MatrixMarket, RejectsGarbage) {
  const std::string path = std::filesystem::temp_directory_path() / "parmis_mm_bad.mtx";
  {
    std::ofstream out(path);
    out << "not a matrix market file\n";
  }
  EXPECT_THROW(read_matrix_market(path), std::runtime_error);
  EXPECT_THROW(read_matrix_market("/nonexistent/path.mtx"), std::runtime_error);
  std::remove(path.c_str());
}

TEST(Registry, SeventeenTable2Matrices) {
  EXPECT_EQ(table2_matrices().size(), 17u);
  EXPECT_EQ(experiment_matrices().find("Laplace3D_100").name, "Laplace3D_100");
  EXPECT_EQ(experiment_matrices().find("bodyy5").name, "bodyy5");
}

TEST(Registry, SurrogatesMatchPaperStatsAtSmallScale) {
  // At 2% scale every surrogate should still be SPD-structured, symmetric,
  // and roughly match the paper's average degree (the structural knob the
  // experiments depend on).
  for (const MatrixSpec& spec : experiment_matrices().specs()) {
    const CrsMatrix m = spec.build(0.02);
    EXPECT_TRUE(m.structure().validate()) << spec.name;
    EXPECT_TRUE(is_symmetric(m)) << spec.name;
    EXPECT_GT(m.num_rows, 0) << spec.name;
    const graph::CrsGraph adj = test::adjacency_of(m);
    const double avg = static_cast<double>(adj.num_entries()) / adj.num_rows;
    // Stencil surrogates lose degree to boundaries at tiny scale; accept a
    // factor-of-2 band around the paper value.
    EXPECT_GT(avg, 0.4 * spec.paper.avg_degree) << spec.name;
    EXPECT_LT(avg, 2.1 * spec.paper.avg_degree) << spec.name;
  }
}

TEST(Registry, ExactGaleriProblemsAtFullScale) {
  const CrsMatrix lap = experiment_matrices().find("Laplace3D_100").build(1.0);
  EXPECT_EQ(lap.num_rows, 1000000);
  const CrsMatrix ela = experiment_matrices().find("Elasticity3D_60").build(0.03);  // 1/33 of 60^3
  EXPECT_EQ(ela.num_rows % 3, 0);
}

}  // namespace
}  // namespace parmis::graph
