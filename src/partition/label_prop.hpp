#pragma once
/// \file label_prop.hpp
/// \brief BFS-region-growing k-way partitioner with label-propagation
/// refinement.
///
/// Grow k regions simultaneously from well-separated seeds (farthest-point
/// sampling over BFS distances, the k-center heuristic), then let the
/// boundary settle with capacity-aware label propagation. Propagation is
/// the workhorse of modern size-constrained clustering/partitioning
/// schemes (Meyerhenke, Sanders, Schulz — see PAPERS.md "Scalable Graph
/// Algorithms"); here it doubles as the refinement stage.
///
/// Every round is Jacobi-style: proposals are computed in parallel from a
/// snapshot of the previous round's labels, then committed serially in
/// vertex order — bit-identical results on every backend and thread count.

#include <vector>

#include "multilevel/weighted.hpp"
#include "partition/partitioner.hpp"

namespace parmis::partition {

/// BFS-region-growing + label-propagation partition of `g` into `k` parts.
/// `opts.seed` seeds the farthest-point sampling; `opts.refine_passes`
/// bounds the propagation refinement rounds; capacity is
/// (1 + opts.imbalance_tolerance) * ideal part weight.
[[nodiscard]] std::vector<ordinal_t> lp_grow_partition(const WeightedGraph& g, ordinal_t k,
                                                       const PartitionOptions& opts);

}  // namespace parmis::partition
