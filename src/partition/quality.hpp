#pragma once
/// \file quality.hpp
/// \brief Partition quality metrics beyond a single edge-cut number.
///
/// Production partitioners (METIS, KaHIP, the osrm-backend partitioner
/// tool) report a vector of quality measures because different consumers
/// care about different costs: sparse solvers about edge cut, distributed
/// runtimes about communication volume and boundary size, load balancers
/// about per-part weight. `evaluate_partition` computes all of them in one
/// deterministic pass (chunked reductions, so the numbers are identical on
/// every backend and thread count).

#include <span>
#include <string>

#include "graph/crs.hpp"
#include "multilevel/weighted.hpp"

namespace parmis::partition {

using multilevel::WeightedGraph;

/// Quality measures of one k-way partition.
struct QualityReport {
  ordinal_t k{0};
  ordinal_t num_vertices{0};
  std::int64_t num_edges{0};          ///< undirected edge count of the input
  std::int64_t total_edge_weight{0};  ///< sum of undirected edge weights
  /// Sum of edge weights crossing parts, each undirected edge counted once.
  std::int64_t edge_cut{0};
  /// Total communication volume: sum over vertices of (number of distinct
  /// *other* parts adjacent to the vertex) — the count of halo copies a
  /// distributed SpMV would ship.
  std::int64_t comm_volume{0};
  /// Vertices with at least one neighbor in another part.
  std::int64_t boundary_vertices{0};
  double boundary_fraction{0.0};  ///< boundary_vertices / num_vertices
  std::int64_t max_part_weight{0};
  std::int64_t min_part_weight{0};
  ordinal_t empty_parts{0};
  /// max part weight / ideal part weight - 1 (vertex-weighted).
  double imbalance{0.0};

  /// edge_cut / total_edge_weight (0 when the graph has no edges); equals
  /// the fraction of edges cut on unit-weight graphs.
  [[nodiscard]] double cut_fraction() const;

  /// One-line JSON rendering, stable key order.
  [[nodiscard]] std::string to_json() const;
};

/// Evaluate a k-way labeling `part` (values in [0, k)) of a weighted graph.
[[nodiscard]] QualityReport evaluate_partition(const WeightedGraph& g,
                                               std::span<const ordinal_t> part, ordinal_t k);

/// Unit-weight convenience overload for plain adjacency structures.
[[nodiscard]] QualityReport evaluate_partition(graph::GraphView g,
                                               std::span<const ordinal_t> part, ordinal_t k);

}  // namespace parmis::partition
