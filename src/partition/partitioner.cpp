#include "partition/partitioner.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <memory>
#include <numeric>
#include <stdexcept>

#include "core/aggregation.hpp"
#include "core/coarsener.hpp"
#include "graph/ops.hpp"
#include "graph/traversal.hpp"
#include "multilevel/builder.hpp"
#include "obs/trace.hpp"
#include "random/hash.hpp"
#include "resilience/fault.hpp"

namespace parmis::partition {

namespace {

/// Per-side weights of a bisection.
struct SideWeights {
  std::int64_t w[2]{0, 0};
};

SideWeights side_weights(const WeightedGraph& g, std::span<const char> side) {
  SideWeights sw;
  for (ordinal_t v = 0; v < g.graph.num_rows; ++v) {
    sw.w[static_cast<int>(side[static_cast<std::size_t>(v)])] +=
        g.vertex_weight[static_cast<std::size_t>(v)];
  }
  return sw;
}

/// Weighted gain of moving v to the other side: (cut edges removed) −
/// (cut edges created).
std::int64_t move_gain(const WeightedGraph& g, std::span<const char> side, ordinal_t v) {
  const char s = side[static_cast<std::size_t>(v)];
  std::int64_t gain = 0;
  for (offset_t j = g.graph.row_map[v]; j < g.graph.row_map[v + 1]; ++j) {
    const ordinal_t u = g.graph.entries[static_cast<std::size_t>(j)];
    const std::int64_t w = g.edge_weight[static_cast<std::size_t>(j)];
    gain += side[static_cast<std::size_t>(u)] != s ? w : -w;
  }
  return gain;
}

/// Internal bisection with an arbitrary target fraction for side 0.
Bisection grow_bisection_frac(const WeightedGraph& g, double target_fraction,
                              std::uint64_t seed) {
  const ordinal_t n = g.graph.num_rows;
  Bisection b;
  b.side.assign(static_cast<std::size_t>(n), 1);
  if (n == 0) return b;

  const std::int64_t total = g.total_vertex_weight();
  const std::int64_t target =
      static_cast<std::int64_t>(std::llround(target_fraction * static_cast<double>(total)));

  // BFS-grow side 0 from a pseudo-peripheral seed; jump to a fresh seed if
  // a whole component is consumed before the target weight is reached.
  std::int64_t grown = 0;
  std::vector<char> visited(static_cast<std::size_t>(n), 0);
  std::vector<ordinal_t> queue;
  ordinal_t scan = 0;
  const ordinal_t first =
      graph::pseudo_peripheral_vertex(g.graph, static_cast<ordinal_t>(
          rng::hash_xorshift_star(seed, 0) % static_cast<std::uint64_t>(n)));
  queue.push_back(first);
  visited[static_cast<std::size_t>(first)] = 1;
  std::size_t head = 0;
  while (grown < target) {
    if (head == queue.size()) {
      // Find the next unvisited vertex (new component).
      while (scan < n && visited[static_cast<std::size_t>(scan)]) ++scan;
      if (scan == n) break;
      visited[static_cast<std::size_t>(scan)] = 1;
      queue.push_back(scan);
    }
    const ordinal_t v = queue[head++];
    b.side[static_cast<std::size_t>(v)] = 0;
    grown += g.vertex_weight[static_cast<std::size_t>(v)];
    for (ordinal_t u : g.graph.row(v)) {
      if (!visited[static_cast<std::size_t>(u)]) {
        visited[static_cast<std::size_t>(u)] = 1;
        queue.push_back(u);
      }
    }
  }
  b.cut_weight = cut_weight(g, b.side);
  return b;
}

/// Greedy boundary refinement toward per-side weight caps.
std::int64_t refine_frac(const WeightedGraph& g, Bisection& b, int passes,
                         double target_fraction, double tolerance) {
  obs::Span span("partition.refine");
  const ordinal_t n = g.graph.num_rows;
  span.arg("rows", n);
  const std::int64_t total = g.total_vertex_weight();
  const double ideal[2] = {target_fraction * static_cast<double>(total),
                           (1.0 - target_fraction) * static_cast<double>(total)};
  SideWeights sw = side_weights(g, b.side);

  auto overflow = [&](const SideWeights& w) {
    double over = 0;
    for (int s = 0; s < 2; ++s) {
      over += std::max(0.0, static_cast<double>(w.w[s]) - ideal[s] * (1.0 + tolerance));
    }
    return over;
  };

  std::int64_t moved_total = 0;
  std::vector<std::pair<std::int64_t, ordinal_t>> candidates;
  for (int pass = 0; pass < passes; ++pass) {
    // Collect boundary vertices with non-negative gain, best gain first
    // (ties by id: deterministic).
    candidates.clear();
    for (ordinal_t v = 0; v < n; ++v) {
      const std::int64_t gain = move_gain(g, b.side, v);
      if (gain >= 0) candidates.emplace_back(-gain, v);
    }
    std::sort(candidates.begin(), candidates.end());

    std::int64_t moved = 0;
    for (const auto& [neg_gain, v] : candidates) {
      // Re-evaluate: earlier moves in this pass may have changed the gain.
      const std::int64_t gain = move_gain(g, b.side, v);
      if (gain < 0) continue;
      const char s = b.side[static_cast<std::size_t>(v)];
      SideWeights next = sw;
      next.w[static_cast<int>(s)] -= g.vertex_weight[static_cast<std::size_t>(v)];
      next.w[1 - static_cast<int>(s)] += g.vertex_weight[static_cast<std::size_t>(v)];
      const bool balance_ok = overflow(next) <= overflow(sw);
      // Zero-gain moves are allowed only when they strictly improve
      // balance; positive-gain moves only when they don't worsen it.
      if (gain == 0 && overflow(next) >= overflow(sw)) continue;
      if (!balance_ok) continue;
      b.side[static_cast<std::size_t>(v)] = static_cast<char>(1 - s);
      sw = next;
      b.cut_weight -= gain;
      ++moved;
    }
    moved_total += moved;
    if (moved == 0) break;
  }
  span.arg("moved", moved_total);
  assert(b.cut_weight == cut_weight(g, b.side));
  return moved_total;
}

/// Builder configuration for the options' multilevel V-cycle: coarsen to
/// `coarse_target`, stop only on a full stall (the historical guard), and
/// derive fresh per-level seeds so successive levels decorrelate.
multilevel::Options builder_options(const PartitionOptions& opts) {
  multilevel::Options mo;
  mo.coarsener = opts.coarsener;
  mo.max_levels = opts.max_levels;
  mo.min_coarse_size = opts.coarse_target;
  mo.rate_floor = 1.0;
  mo.mis2 = opts.mis2;
  mo.seed = opts.seed;
  mo.reseed_per_level = true;
  return mo;
}

Bisection multilevel_bisect_frac(const WeightedGraph& fine, double target_fraction,
                                 const PartitionOptions& opts,
                                 const multilevel::Builder& builder,
                                 multilevel::HierarchyHandle& mh) {
  obs::Span span("partition.bisect");
  span.arg("rows", fine.graph.num_rows);
  if (PARMIS_FAULT_POINT("partition.bisect_fail")) {
    throw std::runtime_error("injected fault: multilevel bisection failed");
  }
  // Coarsen all the way down through the unified Builder (one weighted
  // hierarchy per bisection; aggregation scratch and step slots are reused
  // across the recursive-bisection tree),
  // bisect the coarsest level, then project back up refining the boundary
  // at every level.
  const std::vector<multilevel::Step>& steps = builder.build_weighted(fine, mh);

  const WeightedGraph& coarsest = steps.empty() ? fine : steps.back().coarse;
  Bisection b = grow_bisection_frac(coarsest, target_fraction, opts.seed);
  refine_frac(coarsest, b, opts.refine_passes, target_fraction, opts.imbalance_tolerance);

  for (std::size_t l = steps.size(); l-- > 0;) {
    const WeightedGraph& fg = l == 0 ? fine : steps[l - 1].coarse;
    const std::vector<ordinal_t>& labels = steps[l].aggregation.labels;
    Bisection up;
    up.side.resize(static_cast<std::size_t>(fg.graph.num_rows));
    for (ordinal_t v = 0; v < fg.graph.num_rows; ++v) {
      up.side[static_cast<std::size_t>(v)] =
          b.side[static_cast<std::size_t>(labels[static_cast<std::size_t>(v)])];
    }
    up.cut_weight = cut_weight(fg, up.side);
    refine_frac(fg, up, opts.refine_passes, target_fraction, opts.imbalance_tolerance);
    b = std::move(up);
  }
  return b;
}

void partition_recursive(const WeightedGraph& g, std::span<const ordinal_t> to_parent,
                         ordinal_t k, ordinal_t part_offset, const PartitionOptions& opts,
                         const multilevel::Builder& builder, multilevel::HierarchyHandle& mh,
                         std::vector<ordinal_t>& out) {
  if (k == 1) {
    for (ordinal_t v = 0; v < g.graph.num_rows; ++v) {
      out[static_cast<std::size_t>(to_parent[static_cast<std::size_t>(v)])] = part_offset;
    }
    return;
  }
  const ordinal_t k0 = k / 2;
  const double frac = static_cast<double>(k0) / static_cast<double>(k);
  const Bisection b = multilevel_bisect_frac(g, frac, opts, builder, mh);

  // Split into the two induced weighted subgraphs and recurse.
  for (int s = 0; s < 2; ++s) {
    std::vector<char> keep(static_cast<std::size_t>(g.graph.num_rows));
    for (ordinal_t v = 0; v < g.graph.num_rows; ++v) {
      keep[static_cast<std::size_t>(v)] = b.side[static_cast<std::size_t>(v)] == s;
    }
    const graph::InducedSubgraph sub = graph::induced_subgraph(g.graph, keep);
    WeightedGraph sg;
    sg.graph = sub.graph;
    sg.vertex_weight.resize(static_cast<std::size_t>(sub.graph.num_rows));
    sg.edge_weight.assign(static_cast<std::size_t>(sub.graph.num_entries()), 1);
    // Edge weights of the induced subgraph: match entries by position.
    for (ordinal_t sv = 0; sv < sub.graph.num_rows; ++sv) {
      const ordinal_t v = sub.to_original[static_cast<std::size_t>(sv)];
      sg.vertex_weight[static_cast<std::size_t>(sv)] =
          g.vertex_weight[static_cast<std::size_t>(v)];
      offset_t so = sub.graph.row_map[sv];
      for (offset_t j = g.graph.row_map[v]; j < g.graph.row_map[v + 1]; ++j) {
        const ordinal_t u = g.graph.entries[static_cast<std::size_t>(j)];
        if (keep[static_cast<std::size_t>(u)]) {
          sg.edge_weight[static_cast<std::size_t>(so++)] =
              g.edge_weight[static_cast<std::size_t>(j)];
        }
      }
    }
    std::vector<ordinal_t> sub_to_parent(static_cast<std::size_t>(sub.graph.num_rows));
    for (ordinal_t sv = 0; sv < sub.graph.num_rows; ++sv) {
      sub_to_parent[static_cast<std::size_t>(sv)] =
          to_parent[static_cast<std::size_t>(sub.to_original[static_cast<std::size_t>(sv)])];
    }
    partition_recursive(sg, sub_to_parent, s == 0 ? k0 : k - k0,
                        s == 0 ? part_offset : part_offset + k0, opts, builder, mh, out);
  }
}

}  // namespace

std::int64_t cut_weight(const WeightedGraph& g, std::span<const char> side) {
  std::int64_t cut = 0;
  for (ordinal_t v = 0; v < g.graph.num_rows; ++v) {
    for (offset_t j = g.graph.row_map[v]; j < g.graph.row_map[v + 1]; ++j) {
      const ordinal_t u = g.graph.entries[static_cast<std::size_t>(j)];
      if (side[static_cast<std::size_t>(u)] != side[static_cast<std::size_t>(v)]) {
        cut += g.edge_weight[static_cast<std::size_t>(j)];
      }
    }
  }
  return cut / 2;
}

std::int64_t edge_cut(graph::GraphView g, std::span<const ordinal_t> part) {
  std::int64_t cut = 0;
  for (ordinal_t v = 0; v < g.num_rows; ++v) {
    for (ordinal_t u : g.row(v)) {
      if (part[static_cast<std::size_t>(u)] != part[static_cast<std::size_t>(v)]) ++cut;
    }
  }
  return cut / 2;
}

Bisection grow_bisection(const WeightedGraph& g, std::uint64_t seed) {
  return grow_bisection_frac(g, 0.5, seed);
}

std::int64_t refine_bisection(const WeightedGraph& g, Bisection& b, int passes,
                              double imbalance_tolerance) {
  return refine_frac(g, b, passes, 0.5, imbalance_tolerance);
}

Bisection multilevel_bisect(const WeightedGraph& g, const PartitionOptions& opts) {
  const multilevel::Builder builder(builder_options(opts));
  multilevel::HierarchyHandle mh;
  return multilevel_bisect_frac(g, 0.5, opts, builder, mh);
}

std::int64_t cut_weight_kway(const WeightedGraph& g, std::span<const ordinal_t> part) {
  std::int64_t cut = 0;
  for (ordinal_t v = 0; v < g.graph.num_rows; ++v) {
    for (offset_t j = g.graph.row_map[v]; j < g.graph.row_map[v + 1]; ++j) {
      const ordinal_t u = g.graph.entries[static_cast<std::size_t>(j)];
      if (part[static_cast<std::size_t>(u)] != part[static_cast<std::size_t>(v)]) {
        cut += g.edge_weight[static_cast<std::size_t>(j)];
      }
    }
  }
  return cut / 2;
}

double imbalance_weighted(const WeightedGraph& g, std::span<const ordinal_t> part, ordinal_t k) {
  if (part.empty() || k <= 0) return 0;
  std::vector<std::int64_t> weight(static_cast<std::size_t>(k), 0);
  for (ordinal_t v = 0; v < g.graph.num_rows; ++v) {
    weight[static_cast<std::size_t>(part[static_cast<std::size_t>(v)])] +=
        g.vertex_weight[static_cast<std::size_t>(v)];
  }
  const std::int64_t max_w = *std::max_element(weight.begin(), weight.end());
  const double ideal = static_cast<double>(g.total_vertex_weight()) / k;
  return ideal > 0 ? static_cast<double>(max_w) / ideal - 1.0 : 0.0;
}

std::vector<ordinal_t> partition_labels_weighted(const WeightedGraph& g, ordinal_t k,
                                                 const PartitionOptions& opts) {
  if (k < 1) throw std::invalid_argument("partition_labels_weighted: k must be >= 1");
  std::vector<ordinal_t> part(static_cast<std::size_t>(g.graph.num_rows), 0);
  if (g.graph.num_rows == 0 || k == 1) return part;

  std::vector<ordinal_t> identity(static_cast<std::size_t>(g.graph.num_rows));
  std::iota(identity.begin(), identity.end(), 0);
  // One Builder + one hierarchy handle for the whole recursive-bisection
  // tree: aggregation scratch and per-level step slots are reused across
  // every level of every bisection.
  const multilevel::Builder builder(builder_options(opts));
  multilevel::HierarchyHandle mh;
  partition_recursive(g, identity, k, 0, opts, builder, mh, part);
  return part;
}

Partition partition_weighted(const WeightedGraph& g, ordinal_t k, const PartitionOptions& opts) {
  Partition p;
  p.k = k;
  p.part = partition_labels_weighted(g, k, opts);
  p.edge_cut = cut_weight_kway(g, p.part);
  p.imbalance = imbalance_weighted(g, p.part, k);
  return p;
}

Partition partition_graph(graph::GraphView g, ordinal_t k, const PartitionOptions& opts) {
  // With unit weights the weighted cut and imbalance coincide with the
  // unweighted definitions this entry point has always reported.
  return partition_weighted(WeightedGraph::unit(g), k, opts);
}

}  // namespace parmis::partition
