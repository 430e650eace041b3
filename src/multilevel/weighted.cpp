#include "multilevel/weighted.hpp"

#include <utility>

#include "core/coarsen.hpp"

namespace parmis::multilevel {

WeightedGraph WeightedGraph::unit(graph::CrsGraph g) {
  WeightedGraph w;
  w.vertex_weight.assign(static_cast<std::size_t>(g.num_rows), 1);
  w.edge_weight.assign(static_cast<std::size_t>(g.num_entries()), 1);
  w.graph = std::move(g);
  return w;
}

WeightedGraph WeightedGraph::unit(graph::GraphView g) {
  if (g.num_rows == 0) return unit(graph::CrsGraph{});
  return unit(graph::CrsGraph{
      g.num_rows, g.num_cols,
      std::vector<offset_t>(g.row_map, g.row_map + g.num_rows + 1),
      std::vector<ordinal_t>(g.entries, g.entries + g.num_entries())});
}

WeightedGraph coarsen_weighted(const WeightedGraph& fine, const core::Aggregation& agg) {
  WeightedGraph coarse;
  coarse.graph = core::coarse_graph(fine.graph, agg, fine.edge_weight, coarse.edge_weight);
  coarse.vertex_weight.assign(static_cast<std::size_t>(agg.num_aggregates), 0);
  for (std::size_t v = 0; v < agg.labels.size(); ++v) {
    coarse.vertex_weight[static_cast<std::size_t>(agg.labels[v])] += fine.vertex_weight[v];
  }
  return coarse;
}

}  // namespace parmis::multilevel
