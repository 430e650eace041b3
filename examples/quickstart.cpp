/// \file quickstart.cpp
/// \brief Smallest end-to-end use of the library: build a graph, compute a
/// distance-2 maximal independent set under an explicit execution context,
/// verify it, and aggregate around it through a reusable handle.
///
/// Run: ./quickstart [grid_side]

#include <cstdio>
#include <stdexcept>

#include "core/aggregation.hpp"
#include "core/mis2.hpp"
#include "core/verify.hpp"
#include "graph/generators.hpp"
#include "graph/ops.hpp"
#include "graph_inputs.hpp"
#include "parallel/context.hpp"

int main(int argc, char** argv) {
  using namespace parmis;
  ordinal_t side = 50;
  try {
    if (argc > 1) side = examples::parse_size_arg(argv[1], "grid side", 2, 2);
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "%s\n", e.what());
    return 1;
  }

  // 1. Build a problem: a `side x side` 2D Poisson matrix, then take its
  //    loop-free adjacency (all MIS/coarsening algorithms operate on
  //    symmetric adjacency structure, not on matrix values).
  const graph::CrsMatrix a = graph::laplace2d(side, side);
  const graph::CrsGraph g = graph::remove_self_loops(graph::GraphView(a));
  std::printf("graph: %d vertices, %lld edges (avg degree %.2f)\n", g.num_rows,
              static_cast<long long>(g.num_entries() / 2), graph::GraphView(g).avg_degree());

  // 2. Pick an execution context explicitly (OpenMP with the hardware
  //    default thread count here; Context::serial() forces the reference
  //    backend). validate() reports what the request resolves to in this
  //    build — e.g. an OpenMP request in a serial-only build falls back.
  const Context ctx = Context::openmp();
  const Context::Validation v = ctx.validate();
  if (v.fell_back) std::printf("context: %s\n", v.message.c_str());

  // 3. Compute the MIS-2 (Algorithm 1 of the paper) through a handle. The
  //    handle owns all scratch; rerunning it (other graphs, other levels)
  //    allocates nothing once warm. Options default to all four
  //    optimizations (xorshift* priorities, worklists, packed tuples,
  //    SIMD). One-shot callers can use core::mis2(g) instead.
  core::Mis2Handle mis_handle(ctx);
  const core::Mis2Result& mis = mis_handle.run(g);
  std::printf("MIS-2: %d vertices in %d iterations\n", mis.set_size(), mis.iterations);
  std::printf("first members:");
  for (ordinal_t i = 0; i < std::min<ordinal_t>(8, mis.set_size()); ++i) {
    std::printf(" %d", mis.members[static_cast<std::size_t>(i)]);
  }
  std::printf(" ...\n");

  // 4. Verify independence + maximality (cheap: O(V + E) with 2-hop scans).
  std::printf("valid MIS-2: %s\n", core::verify_mis2(g, mis.in_set) ? "yes" : "NO (bug!)");

  // 5. Coarsen the graph around MIS-2 roots (Algorithm 3) with a coarsen
  //    handle — the same shape AMG setup and the multilevel partitioners
  //    reuse across hierarchy levels.
  core::CoarsenHandle coarsen_handle(ctx);
  const core::Aggregation& agg = coarsen_handle.aggregate_mis2(g);
  const core::AggregationStats stats = core::aggregation_stats(agg);
  std::printf("aggregation: %d aggregates (coarsening ratio %.1fx), sizes %d..%d avg %.1f\n",
              stats.num_aggregates, static_cast<double>(g.num_rows) / stats.num_aggregates,
              stats.min_size, stats.max_size, stats.avg_size);
  std::printf("warm handle scratch: %.1f KiB (reused on every further call)\n",
              static_cast<double>(coarsen_handle.scratch_bytes()) / 1024.0);
  return 0;
}
