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
[[nodiscard]] graph::CrsGraph coarse_graph(graph::GraphView g, const Aggregation& agg);

/// Member lists of an aggregation in CSR layout: members of aggregate `a`
/// are `members[member_offsets[a] .. member_offsets[a+1])`, each list
/// sorted ascending. Used by cluster Gauss-Seidel and the coarse builders.
struct AggregateMembers {
  std::vector<offset_t> offsets;
  std::vector<ordinal_t> members;
};

[[nodiscard]] AggregateMembers aggregate_members(const Aggregation& agg);

}  // namespace parmis::core
