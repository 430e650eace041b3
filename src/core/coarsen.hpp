#pragma once
/// \file coarsen.hpp
/// \brief Coarse (quotient) graph construction.
///
/// Given an aggregation, the coarse graph has one vertex per aggregate and
/// an edge between two aggregates whenever any fine edge crosses them.
/// This is the structure Algorithm 4 colors for cluster multicolor
/// Gauss-Seidel, and — applied recursively by `multilevel::Builder` — the
/// coarsening loop used in multilevel partitioning (Gilbert et al., the
/// paper's §II/VII use case).

#include <vector>

#include "core/aggregation.hpp"
#include "graph/crs.hpp"

namespace parmis::core {

/// Quotient graph of `g` under `agg` (symmetric, loop-free, rows sorted).
/// `g` must be symmetric, as every graph this library coarsens is.
///
/// Contraction runs in three passes, each split into cost-balanced chunks:
///  1. *count* walks the fine rows in vertex order and finds, per vertex,
///     its neighbors' distinct foreign aggregates (branch-free stamp
///     dedup); each chunk adds the count to its row of a chunks × aggregates
///     histogram;
///  2. *group* repeats that walk and files each (vertex, foreign aggregate)
///     pair into a bucket segment of the vertex's aggregate, at cursors
///     scanned from the histogram;
///  3. *rows* dedups each segment in place, then scatters every kept pair
///     (a, b) into coarse row b. Aggregates go in ascending order, so each
///     row arrives sorted without a sort, and symmetry makes row b of that
///     transpose the quotient row of b.
/// The fine passes run in vertex order because aggregate members are
/// scattered over the numbering: a walk aggregate by aggregate fetches
/// every member row cold, while vertex order streams the adjacency. The result is independent of backend, thread
/// count and schedule.
[[nodiscard]] graph::CrsGraph coarse_graph(graph::GraphView g, const Aggregation& agg);

/// Member lists of an aggregation in CSR layout: members of aggregate `a`
/// are `members[member_offsets[a] .. member_offsets[a+1])`, each list
/// sorted ascending. Used by cluster Gauss-Seidel.
struct AggregateMembers {
  std::vector<offset_t> offsets;
  std::vector<ordinal_t> members;
};

[[nodiscard]] AggregateMembers aggregate_members(const Aggregation& agg);

}  // namespace parmis::core
