/// \file test_graph.cpp
/// \brief Tests for the CRS substrate: containers, builders, structural
/// ops (transpose/symmetrize/square/subgraph), SpMV, SpGEMM, matrix add.

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "graph/builders.hpp"
#include "graph/crs.hpp"
#include "graph/generators.hpp"
#include "graph/ops.hpp"
#include "graph/spgemm.hpp"
#include "graph/spmv.hpp"
#include "test_utils.hpp"

namespace parmis::graph {
namespace {

TEST(Crs, EmptyGraphIsValid) {
  CrsGraph g;
  EXPECT_EQ(g.num_rows, 0);
  EXPECT_EQ(g.num_entries(), 0);
  EXPECT_TRUE(g.validate());
}

TEST(Crs, RowAccessors) {
  const CrsGraph g = graph_from_edges(4, {{0, 1}, {0, 2}, {2, 3}});
  EXPECT_TRUE(g.validate());
  EXPECT_EQ(g.degree(0), 2);
  EXPECT_EQ(g.degree(3), 1);
  auto r0 = g.row(0);
  ASSERT_EQ(r0.size(), 2u);
  EXPECT_EQ(r0[0], 1);
  EXPECT_EQ(r0[1], 2);
}

TEST(Crs, ValidateCatchesUnsorted) {
  CrsGraph g;
  g.num_rows = 2;
  g.num_cols = 2;
  g.row_map = {0, 2, 2};
  g.entries = {1, 0};  // unsorted within row 0
  EXPECT_FALSE(g.validate(true));
  EXPECT_TRUE(g.validate(false));
}

TEST(Crs, ValidateCatchesOutOfRange) {
  CrsGraph g;
  g.num_rows = 2;
  g.num_cols = 2;
  g.row_map = {0, 1, 1};
  g.entries = {5};
  EXPECT_FALSE(g.validate());
}

TEST(Builders, EdgesAreSymmetrizedAndDeduped) {
  const CrsGraph g = graph_from_edges(3, {{0, 1}, {1, 0}, {0, 1}, {1, 2}});
  EXPECT_EQ(g.num_entries(), 4);  // 0-1, 1-0, 1-2, 2-1
  EXPECT_TRUE(is_symmetric(g));
  EXPECT_FALSE(has_self_loops(g));
}

TEST(Builders, SelfLoopsDropped) {
  const CrsGraph g = graph_from_edges(3, {{0, 0}, {1, 1}, {0, 2}});
  EXPECT_EQ(g.num_entries(), 2);
  EXPECT_FALSE(has_self_loops(g));
}

TEST(Builders, CooMergesDuplicates) {
  const CrsMatrix m =
      matrix_from_coo(2, 2, {{0, 0, 1.0}, {0, 0, 2.5}, {1, 0, -1.0}, {0, 1, 4.0}});
  EXPECT_EQ(m.num_entries(), 3);
  EXPECT_DOUBLE_EQ(m.row_values(0)[0], 3.5);
  EXPECT_DOUBLE_EQ(m.row_values(0)[1], 4.0);
  EXPECT_DOUBLE_EQ(m.row_values(1)[0], -1.0);
}

TEST(Ops, TransposeRoundTrip) {
  const CrsGraph g = graph_from_arcs(5, {{0, 1}, {0, 3}, {2, 1}, {4, 0}, {3, 2}});
  const CrsGraph t = transpose(g);
  EXPECT_TRUE(t.validate());
  const CrsGraph tt = transpose(t);
  EXPECT_EQ(tt.row_map, g.row_map);
  EXPECT_EQ(tt.entries, g.entries);
}

TEST(Ops, SymmetrizeMakesSymmetric) {
  const CrsGraph g = graph_from_arcs(6, {{0, 1}, {2, 3}, {3, 2}, {4, 5}, {5, 0}});
  EXPECT_FALSE(is_symmetric(g));
  const CrsGraph s = symmetrize(g);
  EXPECT_TRUE(s.validate());
  EXPECT_TRUE(is_symmetric(s));
  EXPECT_FALSE(has_self_loops(s));
  // Every original arc survives in both directions.
  auto has_arc = [&](ordinal_t u, ordinal_t v) {
    auto r = s.row(u);
    return std::binary_search(r.begin(), r.end(), v);
  };
  EXPECT_TRUE(has_arc(0, 1) && has_arc(1, 0));
  EXPECT_TRUE(has_arc(5, 0) && has_arc(0, 5));
}

TEST(Ops, RemoveSelfLoops) {
  CrsGraph g;
  g.num_rows = 3;
  g.num_cols = 3;
  g.row_map = {0, 2, 3, 5};
  g.entries = {0, 1, 1, 0, 2};
  EXPECT_TRUE(has_self_loops(g));
  const CrsGraph c = remove_self_loops(g);
  EXPECT_TRUE(c.validate());
  EXPECT_FALSE(has_self_loops(c));
  EXPECT_EQ(c.num_entries(), 2);  // three of the five entries were loops
}

TEST(Ops, SquareOfPath) {
  // Path 0-1-2-3-4: distance-<=2 neighbors of 0 are {1,2}; of 2 are all
  // but itself.
  const CrsGraph g = test::path_graph(5);
  const CrsGraph g2 = square(g);
  EXPECT_TRUE(g2.validate());
  EXPECT_EQ(g2.row(0).size(), 2u);
  EXPECT_EQ(g2.row(2).size(), 4u);
  EXPECT_TRUE(is_symmetric(g2));
  EXPECT_FALSE(has_self_loops(g2));
}

TEST(Ops, SquareMatchesBooleanSpGemmOnRandomGraphs) {
  for (std::uint64_t seed : {1ull, 2ull, 3ull}) {
    const CrsGraph g = test::er_graph(50, 0.08, seed);
    const CrsGraph g2 = square(g);
    // Oracle: (G+I)^2 pattern minus the diagonal, via SpGEMM. The values
    // are positive, so no entry of the product cancels.
    CrsMatrix gi;
    gi.num_rows = g.num_rows;
    gi.num_cols = g.num_cols;
    {
      std::vector<Triplet> trips;
      for (ordinal_t v = 0; v < g.num_rows; ++v) {
        trips.push_back({v, v, 1.0});
        for (ordinal_t w : g.row(v)) trips.push_back({v, w, 1.0});
      }
      gi = matrix_from_coo(g.num_rows, g.num_cols, trips);
    }
    const CrsMatrix prod = spgemm(gi, gi);
    const CrsGraph oracle = remove_self_loops(prod);
    EXPECT_EQ(g2.row_map, oracle.row_map) << "seed " << seed;
    EXPECT_EQ(g2.entries, oracle.entries) << "seed " << seed;
  }
}

TEST(Ops, InducedSubgraph) {
  const CrsGraph g = test::cycle_graph(6);
  std::vector<char> keep{1, 1, 1, 0, 1, 1};  // drop vertex 3
  const InducedSubgraph sub = induced_subgraph(g, keep);
  EXPECT_EQ(sub.graph.num_rows, 5);
  EXPECT_TRUE(sub.graph.validate());
  EXPECT_TRUE(is_symmetric(sub.graph));
  // The cycle breaks into a path 4-5-0-1-2 (in original ids).
  EXPECT_EQ(sub.graph.num_entries(), 8);
  EXPECT_EQ(sub.to_original.size(), 5u);
  EXPECT_EQ(sub.to_sub[3], invalid_ordinal);
  for (ordinal_t sv = 0; sv < 5; ++sv) {
    EXPECT_EQ(sub.to_sub[static_cast<std::size_t>(sub.to_original[static_cast<std::size_t>(sv)])],
              sv);
  }
}

TEST(Ops, RelabelPermutesStructure) {
  // Cycle 0-1-2-3 reversed: new id = 3 - old id. Still a cycle; row v's
  // neighbors are its ± 1 ring mates under the new names.
  const CrsGraph g = test::cycle_graph(4);
  const std::vector<ordinal_t> new_id{3, 2, 1, 0};
  const CrsGraph r = relabel(g, new_id);
  EXPECT_TRUE(r.validate());
  EXPECT_TRUE(is_symmetric(r));
  EXPECT_EQ(r.num_entries(), g.num_entries());
  for (ordinal_t v = 0; v < 4; ++v) {
    EXPECT_EQ(r.degree(v), 2);
  }
  // Identity relabeling is a no-op.
  const std::vector<ordinal_t> ident{0, 1, 2, 3};
  const CrsGraph same = relabel(g, ident);
  EXPECT_EQ(same.row_map, g.row_map);
  EXPECT_EQ(same.entries, g.entries);
  // Degrees travel with the vertex: star hub keeps its degree anywhere.
  const CrsGraph star = test::star_graph(4);  // hub 0, degree 4
  std::vector<ordinal_t> rot{4, 0, 1, 2, 3};  // hub becomes vertex 4
  const CrsGraph moved = relabel(star, rot);
  EXPECT_EQ(moved.degree(4), 4);
  EXPECT_EQ(moved.degree(0), 1);
}

TEST(DegreeStats, OnStar) {
  const CrsGraph g = test::star_graph(7);
  const DegreeStats s = degree_stats(g);
  EXPECT_EQ(s.min_degree, 1);
  EXPECT_EQ(s.max_degree, 7);
  EXPECT_NEAR(s.avg_degree, 14.0 / 8.0, 1e-12);
}

TEST(Spmv, MatchesDenseReference) {
  const CrsMatrix a =
      matrix_from_coo(3, 3, {{0, 0, 2}, {0, 2, 1}, {1, 1, -3}, {2, 0, 4}, {2, 2, 5}});
  std::vector<scalar_t> x{1, 2, 3};
  std::vector<scalar_t> y(3);
  spmv(a, x, y);
  EXPECT_DOUBLE_EQ(y[0], 2 * 1 + 1 * 3);
  EXPECT_DOUBLE_EQ(y[1], -3 * 2);
  EXPECT_DOUBLE_EQ(y[2], 4 * 1 + 5 * 3);
}

/// Dense oracle multiply for SpGEMM checks.
std::vector<scalar_t> to_dense(const CrsMatrix& m) {
  std::vector<scalar_t> d(static_cast<std::size_t>(m.num_rows) * m.num_cols, 0);
  for (ordinal_t i = 0; i < m.num_rows; ++i) {
    for (offset_t j = m.row_map[i]; j < m.row_map[i + 1]; ++j) {
      d[static_cast<std::size_t>(i) * m.num_cols +
        static_cast<std::size_t>(m.entries[static_cast<std::size_t>(j)])] =
          m.values[static_cast<std::size_t>(j)];
    }
  }
  return d;
}

TEST(Spgemm, MatchesDenseOracle) {
  for (std::uint64_t seed : {5ull, 6ull}) {
    rng::SplitMix64 gen(seed);
    std::vector<Triplet> ta, tb;
    const ordinal_t n = 20, m = 15, k = 25;
    for (int e = 0; e < 80; ++e) {
      ta.push_back({static_cast<ordinal_t>(gen.next_below(n)),
                    static_cast<ordinal_t>(gen.next_below(m)), gen.next_double() - 0.5});
      tb.push_back({static_cast<ordinal_t>(gen.next_below(m)),
                    static_cast<ordinal_t>(gen.next_below(k)), gen.next_double() - 0.5});
    }
    const CrsMatrix a = matrix_from_coo(n, m, ta);
    const CrsMatrix b = matrix_from_coo(m, k, tb);
    const CrsMatrix c = spgemm(a, b);
    EXPECT_TRUE(c.structure().validate());

    const auto da = to_dense(a), db = to_dense(b), dc = to_dense(c);
    for (ordinal_t i = 0; i < n; ++i) {
      for (ordinal_t j = 0; j < k; ++j) {
        scalar_t acc = 0;
        for (ordinal_t l = 0; l < m; ++l) {
          acc += da[static_cast<std::size_t>(i) * m + static_cast<std::size_t>(l)] *
                 db[static_cast<std::size_t>(l) * k + static_cast<std::size_t>(j)];
        }
        EXPECT_NEAR(dc[static_cast<std::size_t>(i) * k + static_cast<std::size_t>(j)], acc, 1e-12);
      }
    }
  }
}

TEST(Spgemm, IdentityIsNeutral) {
  const CrsMatrix a = laplace2d(5, 5);
  std::vector<Triplet> ti;
  for (ordinal_t i = 0; i < a.num_rows; ++i) ti.push_back({i, i, 1.0});
  const CrsMatrix eye = matrix_from_coo(a.num_rows, a.num_rows, ti);
  const CrsMatrix c = spgemm(a, eye);
  EXPECT_EQ(c.row_map, a.row_map);
  EXPECT_EQ(c.entries, a.entries);
  for (std::size_t i = 0; i < c.values.size(); ++i) {
    EXPECT_DOUBLE_EQ(c.values[i], a.values[i]);
  }
}

TEST(MatrixAdd, MergesPatternsAndScales) {
  const CrsMatrix a = matrix_from_coo(2, 3, {{0, 0, 1}, {0, 2, 2}, {1, 1, 3}});
  const CrsMatrix b = matrix_from_coo(2, 3, {{0, 0, 10}, {0, 1, 5}, {1, 1, -3}});
  const CrsMatrix c = matrix_add(2.0, a, 1.0, b);
  EXPECT_EQ(c.num_entries(), 4);  // cols {0,1,2} row 0, col {1} row 1
  const auto d = to_dense(c);
  EXPECT_DOUBLE_EQ(d[0], 2 * 1 + 10);
  EXPECT_DOUBLE_EQ(d[1], 5);
  EXPECT_DOUBLE_EQ(d[2], 2 * 2);
  EXPECT_DOUBLE_EQ(d[4], 2 * 3 - 3);
}

TEST(TransposeMatrix, ValuesFollowStructure) {
  const CrsMatrix a = matrix_from_coo(2, 3, {{0, 1, 7}, {1, 0, -2}, {1, 2, 4}});
  const CrsMatrix t = transpose_matrix(a);
  EXPECT_EQ(t.num_rows, 3);
  EXPECT_EQ(t.num_cols, 2);
  const auto d = to_dense(t);
  EXPECT_DOUBLE_EQ(d[0 * 2 + 1], -2);
  EXPECT_DOUBLE_EQ(d[1 * 2 + 0], 7);
  EXPECT_DOUBLE_EQ(d[2 * 2 + 1], 4);
}

TEST(ExtractDiagonal, HandlesMissingEntries) {
  const CrsMatrix a = matrix_from_coo(3, 3, {{0, 0, 5}, {1, 2, 1}, {2, 2, -2}});
  const std::vector<scalar_t> d = extract_diagonal(a);
  EXPECT_DOUBLE_EQ(d[0], 5);
  EXPECT_DOUBLE_EQ(d[1], 0);
  EXPECT_DOUBLE_EQ(d[2], -2);
}

TEST(Spgemm, GalerkinProductShrinksAndStaysSymmetric) {
  // R A P with a piecewise-constant P: the AMG building block.
  const CrsMatrix a = laplace2d(8, 8);
  const ordinal_t n = a.num_rows;
  std::vector<Triplet> tp;
  for (ordinal_t v = 0; v < n; ++v) tp.push_back({v, v / 4, 1.0});
  const CrsMatrix p = matrix_from_coo(n, (n + 3) / 4, tp);
  const CrsMatrix r = transpose_matrix(p);
  const CrsMatrix ac = spgemm(r, spgemm(a, p));
  EXPECT_EQ(ac.num_rows, (n + 3) / 4);
  EXPECT_EQ(ac.num_cols, (n + 3) / 4);
  EXPECT_TRUE(is_symmetric(ac));
}

}  // namespace
}  // namespace parmis::graph
