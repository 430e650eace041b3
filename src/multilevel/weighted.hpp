#pragma once
/// \file weighted.hpp
/// \brief Weighted graphs and weighted contraction for multilevel methods.
///
/// Multilevel algorithms (partitioning, and any scheme that must remember
/// how much fine material a coarse vertex stands for) need coarse graphs
/// with vertex weights (aggregate sizes, so balance is preserved) and edge
/// weights (collapsed fine-edge counts, so coarse cuts equal fine cuts).
/// They live in the multilevel layer rather than the partition stack
/// because weighted contraction is a property of the hierarchy, not of any
/// one consumer.
///
/// `coarsen_weighted` is `core::coarse_graph` with its edge-weight channel
/// plus the vertex-weight sums: deterministic for any backend/thread count.

#include <cstdint>
#include <vector>

#include "core/aggregation.hpp"
#include "graph/crs.hpp"

namespace parmis::multilevel {

/// A graph with per-vertex and per-entry (edge) integer weights. The edge
/// weight array parallels `graph.entries`.
struct WeightedGraph {
  graph::CrsGraph graph;
  std::vector<ordinal_t> vertex_weight;
  std::vector<ordinal_t> edge_weight;

  [[nodiscard]] std::int64_t total_vertex_weight() const {
    std::int64_t total = 0;
    for (ordinal_t w : vertex_weight) total += w;
    return total;
  }

  /// Unit-weight wrapper around an unweighted graph.
  [[nodiscard]] static WeightedGraph unit(graph::CrsGraph g);

  /// Unit-weight deep copy of a structure view. Safe on default-constructed
  /// (null) views: returns an empty weighted graph.
  [[nodiscard]] static WeightedGraph unit(graph::GraphView g);
};

/// Quotient of `fine` under `agg`: one vertex per aggregate carrying the
/// summed vertex weights of its members, parallel edges collapsed with
/// summed weights (`core::coarse_graph`'s weight channel, so `fine`'s edge
/// weights must be symmetric). Deterministic; rows sorted.
[[nodiscard]] WeightedGraph coarsen_weighted(const WeightedGraph& fine,
                                             const core::Aggregation& agg);

}  // namespace parmis::multilevel
