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
/// `coarsen_weighted` is deterministic for any backend/thread count; the
/// workspace overload reuses the contraction maps (member offsets/lists and
/// per-aggregate cursors) across hierarchy levels and across builds.

#include <cstdint>
#include <span>
#include <vector>

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

/// Reusable scratch for `coarsen_weighted`: the contraction maps (CSR
/// member lists of the labeling and the per-aggregate placement cursors).
/// Capacities only grow, so repeated contractions on same-sized (or
/// smaller) levels allocate nothing here.
struct ContractionWorkspace {
  std::vector<offset_t> member_offsets;  ///< aggregate -> member range (nc + 1)
  std::vector<ordinal_t> members;        ///< member lists, label-sorted
  std::vector<offset_t> cursor;          ///< placement cursors (nc)

  /// Total heap capacity (bytes) currently held.
  [[nodiscard]] std::size_t capacity_bytes() const;
};

/// Quotient of `fine` under `labels` (an aggregation/matching assignment
/// into [0, num_coarse)): vertex weights sum, parallel edges collapse with
/// summed weights. Deterministic; rows sorted. The result is written into
/// `coarse` reusing its buffer capacity; contraction maps come from `ws`.
void coarsen_weighted(const WeightedGraph& fine, std::span<const ordinal_t> labels,
                      ordinal_t num_coarse, WeightedGraph& coarse, ContractionWorkspace& ws);

/// `coarsen_weighted` into a fresh result with transient scratch.
[[nodiscard]] WeightedGraph coarsen_weighted(const WeightedGraph& fine,
                                             const std::vector<ordinal_t>& labels,
                                             ordinal_t num_coarse);

}  // namespace parmis::multilevel
