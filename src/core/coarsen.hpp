#pragma once
/// \file coarsen.hpp
/// \brief Coarse (quotient) graph construction.
///
/// Given an aggregation, the coarse graph has one vertex per aggregate and
/// an edge between two aggregates whenever any fine edge crosses them.
/// This is the structure Algorithm 4 colors for cluster multicolor
/// Gauss-Seidel, and — applied recursively by `multilevel::Builder`, with
/// the edge-weight channel in weighted mode — the coarsening loop used in
/// multilevel partitioning (Gilbert et al., the paper's §II/VII use case).
/// `coarse_graph` is the library's one contraction by aggregation.

#include <span>
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
/// every member row cold, while vertex order streams the adjacency. The
/// result is independent of backend, thread count and schedule.
[[nodiscard]] graph::CrsGraph coarse_graph(graph::GraphView g, const Aggregation& agg);

/// `coarse_graph` with an edge-weight channel: `edge_weight` parallels
/// `g.entries`, and on return `coarse_weight` parallels the result's
/// entries, each coarse edge (a, b) carrying the sum of the weights of the
/// fine edges (u, v) with u in a and v in b. The same three passes carry
/// the weights: *group* files each (vertex, foreign aggregate) pair with
/// the summed weight of the vertex's edges into that aggregate, and *rows*
/// sums a segment's duplicates as it drops them and scatters each sum next
/// to its entry. Integer sums are exact, so the result is as deterministic
/// as the structure; the sums must fit `ordinal_t`. The channel is chosen
/// at compile time: the two-argument overload runs no weight code.
///
/// Precondition: the weights are symmetric, w(u, v) == w(v, u). The rows
/// pass files the sum for (a, b) at (b, a) by its transpose scatter, which
/// is the sum for (b, a) only under symmetry. Every `WeightedGraph` the
/// library builds has symmetric weights (unit weights, and the sums of
/// symmetric weights); check-enabled builds verify it on input and output.
[[nodiscard]] graph::CrsGraph coarse_graph(graph::GraphView g, const Aggregation& agg,
                                           std::span<const ordinal_t> edge_weight,
                                           std::vector<ordinal_t>& coarse_weight);

/// Member lists of an aggregation in CSR layout: members of aggregate `a`
/// are `members[member_offsets[a] .. member_offsets[a+1])`, each list
/// sorted ascending. Used by cluster Gauss-Seidel.
struct AggregateMembers {
  std::vector<offset_t> offsets;
  std::vector<ordinal_t> members;
};

[[nodiscard]] AggregateMembers aggregate_members(const Aggregation& agg);

}  // namespace parmis::core
