#pragma once
/// \file test_utils.hpp
/// \brief Shared fixtures: graph families, adjacency helpers, thread sweeps.

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "core/aggregation.hpp"
#include "graph/builders.hpp"
#include "graph/crs.hpp"
#include "graph/generators.hpp"
#include "graph/ops.hpp"
#include "graph/rgg.hpp"
#include "multilevel/weighted.hpp"
#include "random/hash.hpp"

namespace parmis::test {

/// Loop-free adjacency of a stencil matrix (strips the diagonal).
inline graph::CrsGraph adjacency_of(const graph::CrsMatrix& m) {
  return graph::remove_self_loops(graph::GraphView(m));
}

inline graph::CrsGraph path_graph(ordinal_t n) {
  std::vector<graph::Edge> e;
  for (ordinal_t i = 0; i + 1 < n; ++i) e.emplace_back(i, i + 1);
  return graph::graph_from_edges(n, e);
}

inline graph::CrsGraph cycle_graph(ordinal_t n) {
  std::vector<graph::Edge> e;
  for (ordinal_t i = 0; i < n; ++i) e.emplace_back(i, (i + 1) % n);
  return graph::graph_from_edges(n, e);
}

/// Star: vertex 0 is the hub.
inline graph::CrsGraph star_graph(ordinal_t leaves) {
  std::vector<graph::Edge> e;
  for (ordinal_t i = 1; i <= leaves; ++i) e.emplace_back(0, i);
  return graph::graph_from_edges(leaves + 1, e);
}

inline graph::CrsGraph complete_graph(ordinal_t n) {
  std::vector<graph::Edge> e;
  for (ordinal_t i = 0; i < n; ++i) {
    for (ordinal_t j = i + 1; j < n; ++j) e.emplace_back(i, j);
  }
  return graph::graph_from_edges(n, e);
}

/// Complete binary tree with n vertices (vertex 0 root).
inline graph::CrsGraph binary_tree(ordinal_t n) {
  std::vector<graph::Edge> e;
  for (ordinal_t i = 1; i < n; ++i) e.emplace_back((i - 1) / 2, i);
  return graph::graph_from_edges(n, e);
}

/// Erdős–Rényi G(n, p), deterministic in `seed`.
inline graph::CrsGraph er_graph(ordinal_t n, double p, std::uint64_t seed) {
  rng::SplitMix64 gen(seed);
  std::vector<graph::Edge> e;
  for (ordinal_t i = 0; i < n; ++i) {
    for (ordinal_t j = i + 1; j < n; ++j) {
      if (gen.next_double() < p) e.emplace_back(i, j);
    }
  }
  return graph::graph_from_edges(n, e);
}

/// Two cliques joined by a single bridge edge.
inline graph::CrsGraph barbell_graph(ordinal_t clique) {
  std::vector<graph::Edge> e;
  for (ordinal_t i = 0; i < clique; ++i) {
    for (ordinal_t j = i + 1; j < clique; ++j) {
      e.emplace_back(i, j);
      e.emplace_back(clique + i, clique + j);
    }
  }
  e.emplace_back(clique - 1, clique);
  return graph::graph_from_edges(2 * clique, e);
}

/// Seeded activity mask for masked MIS-2 runs: each vertex is active with
/// probability `frac`.
inline std::vector<char> random_mask(ordinal_t n, double frac, std::uint64_t seed) {
  rng::SplitMix64 gen(seed);
  std::vector<char> active(static_cast<std::size_t>(n));
  for (auto& a : active) a = gen.next_double() < frac ? 1 : 0;
  return active;
}

struct NamedGraph {
  std::string name;
  graph::CrsGraph g;
};

/// The standard family sweep used by MIS/coloring/aggregation property
/// tests: hand-built shapes, random graphs, meshes, and edge cases.
inline std::vector<NamedGraph> test_graph_family() {
  std::vector<NamedGraph> fam;
  fam.push_back({"empty", graph::CrsGraph{}});
  fam.push_back({"single", graph::graph_from_edges(1, {})});
  fam.push_back({"two_isolated", graph::graph_from_edges(2, {})});
  fam.push_back({"one_edge", graph::graph_from_edges(2, {{0, 1}})});
  fam.push_back({"path10", path_graph(10)});
  fam.push_back({"path2", path_graph(2)});
  fam.push_back({"cycle12", cycle_graph(12)});
  fam.push_back({"cycle5", cycle_graph(5)});
  fam.push_back({"star9", star_graph(9)});
  fam.push_back({"clique8", complete_graph(8)});
  fam.push_back({"tree31", binary_tree(31)});
  fam.push_back({"barbell6", barbell_graph(6)});
  fam.push_back({"er_sparse", er_graph(60, 0.05, 7)});
  fam.push_back({"er_dense", er_graph(40, 0.3, 11)});
  fam.push_back({"grid2d", adjacency_of(graph::laplace2d(9, 7))});
  fam.push_back({"grid2d_9pt", adjacency_of(graph::laplace2d(8, 8, graph::Stencil2D::NinePoint))});
  fam.push_back({"grid3d", adjacency_of(graph::laplace3d(5, 5, 5))});
  fam.push_back({"grid3d_27pt",
                 adjacency_of(graph::laplace3d(4, 4, 4, graph::Stencil3D::TwentySevenPoint))});
  fam.push_back({"elasticity", adjacency_of(graph::elasticity3d(3, 3, 3))});
  fam.push_back({"rgg2d", graph::random_geometric_2d(300, 6.0, 13)});
  fam.push_back({"rgg3d", graph::random_geometric_3d(400, 12.0, 17)});
  fam.push_back({"isolated_mix", graph::graph_from_edges(9, {{0, 1}, {1, 2}, {5, 6}})});
  return fam;
}

/// Serial weighted quotient through `std::map`, independent of the
/// library's contraction (the weighted twin of test_aggregation's
/// `set_quotient`): one row per aggregate holding every foreign label of a
/// member's neighbor once, ascending, with the summed weight of the fine
/// edges behind it; vertex weights summed per aggregate.
inline multilevel::WeightedGraph map_quotient(const multilevel::WeightedGraph& fine,
                                              const core::Aggregation& agg) {
  std::vector<std::map<ordinal_t, std::int64_t>> rows(
      static_cast<std::size_t>(agg.num_aggregates));
  multilevel::WeightedGraph c;
  c.vertex_weight.assign(static_cast<std::size_t>(agg.num_aggregates), 0);
  for (ordinal_t v = 0; v < fine.graph.num_rows; ++v) {
    const ordinal_t a = agg.labels[static_cast<std::size_t>(v)];
    c.vertex_weight[static_cast<std::size_t>(a)] += fine.vertex_weight[static_cast<std::size_t>(v)];
    for (offset_t j = fine.graph.row_map[static_cast<std::size_t>(v)];
         j < fine.graph.row_map[static_cast<std::size_t>(v) + 1]; ++j) {
      const ordinal_t b =
          agg.labels[static_cast<std::size_t>(fine.graph.entries[static_cast<std::size_t>(j)])];
      if (b != a) {
        rows[static_cast<std::size_t>(a)][b] += fine.edge_weight[static_cast<std::size_t>(j)];
      }
    }
  }
  c.graph.num_rows = c.graph.num_cols = agg.num_aggregates;
  c.graph.row_map.assign(1, 0);
  for (const std::map<ordinal_t, std::int64_t>& row : rows) {
    for (const auto& [b, w] : row) {
      c.graph.entries.push_back(b);
      c.edge_weight.push_back(static_cast<ordinal_t>(w));
    }
    c.graph.row_map.push_back(static_cast<offset_t>(c.graph.entries.size()));
  }
  return c;
}

}  // namespace parmis::test
