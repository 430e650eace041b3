#pragma once
/// \file partitioner.hpp
/// \brief Multilevel graph partitioning built on MIS-2 coarsening — the
/// paper's second use case (§II cites Gilbert et al., IPDPS 2021; §VII
/// plans to replace their Bell-style coarsening with this library's).
///
/// Classic multilevel scheme: coarsen recursively (MIS-2 aggregation or
/// heavy-edge matching), bisect the coarsest graph by greedy BFS growing
/// from a pseudo-peripheral seed, then project back up refining the
/// boundary with greedy gain moves at every level. k-way partitions come
/// from recursive bisection.

#include <cstdint>
#include <string>
#include <vector>

#include "core/mis2.hpp"
#include "graph/crs.hpp"
#include "multilevel/weighted.hpp"

namespace parmis::partition {

using multilevel::WeightedGraph;

struct PartitionOptions {
  /// Registry name of the per-level coarsening scheme
  /// (core/coarsener.hpp): "mis2" (Algorithm 3, the paper's
  /// contribution), "hem" (classical heavy-edge matching, the §II
  /// comparison point), or any other registered coarsener.
  std::string coarsener = "mis2";
  ordinal_t coarse_target = 200;   ///< stop coarsening at this many vertices
  int max_levels = 40;
  int refine_passes = 6;           ///< greedy boundary passes per level
  double imbalance_tolerance = 0.05;  ///< allowed deviation from perfect balance
  std::uint64_t seed = 1;
  core::Mis2Options mis2;
};

/// A two-way split: side[v] in {0, 1}.
struct Bisection {
  std::vector<char> side;
  std::int64_t cut_weight{0};
};

/// A k-way partition: part[v] in [0, k).
struct Partition {
  std::vector<ordinal_t> part;
  ordinal_t k{0};
  std::int64_t edge_cut{0};
  double imbalance{0.0};  ///< max part weight / ideal part weight - 1
};

/// Sum of edge weights crossing the split (each undirected edge counted
/// once).
[[nodiscard]] std::int64_t cut_weight(const WeightedGraph& g, std::span<const char> side);

/// Weighted edge cut of a k-way partition (each undirected edge counted
/// once).
[[nodiscard]] std::int64_t cut_weight_kway(const WeightedGraph& g,
                                           std::span<const ordinal_t> part);

/// Vertex-weighted max-part imbalance of a k-way partition.
[[nodiscard]] double imbalance_weighted(const WeightedGraph& g, std::span<const ordinal_t> part,
                                        ordinal_t k);

/// Edge cut of a k-way partition on an unweighted graph view.
[[nodiscard]] std::int64_t edge_cut(graph::GraphView g, std::span<const ordinal_t> part);

/// Greedy BFS-grown bisection of a weighted graph (no refinement).
[[nodiscard]] Bisection grow_bisection(const WeightedGraph& g, std::uint64_t seed);

/// Greedy gain-based boundary refinement of a bisection, respecting the
/// balance tolerance. Returns the number of vertices moved.
std::int64_t refine_bisection(const WeightedGraph& g, Bisection& b, int passes,
                              double imbalance_tolerance);

/// Multilevel two-way partitioning.
[[nodiscard]] Bisection multilevel_bisect(const WeightedGraph& g, const PartitionOptions& opts);

/// Multilevel k-way partitioning by recursive bisection (k need not be a
/// power of two; parts are weight-proportional).
[[nodiscard]] Partition partition_graph(graph::GraphView g, ordinal_t k,
                                        const PartitionOptions& opts = {});

/// Multilevel k-way partitioning of a weighted graph. Cut and imbalance in
/// the result are vertex/edge-weighted.
[[nodiscard]] Partition partition_weighted(const WeightedGraph& g, ordinal_t k,
                                           const PartitionOptions& opts = {});

/// Labels-only variant of `partition_weighted` (no metric pass) — the
/// pluggable `Partitioner` registry (interface.hpp) wraps this and computes
/// the full QualityReport itself, so metrics are evaluated exactly once.
[[nodiscard]] std::vector<ordinal_t> partition_labels_weighted(const WeightedGraph& g, ordinal_t k,
                                                               const PartitionOptions& opts = {});

}  // namespace parmis::partition
