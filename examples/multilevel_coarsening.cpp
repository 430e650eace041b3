/// \file multilevel_coarsening.cpp
/// \brief The multilevel-partitioning use case (paper §II, Gilbert et al.):
/// recursively coarsen a graph until it is small enough for a direct
/// method, reporting per-level statistics. The per-level scheme comes from
/// the core Coarsener registry ("mis2", "mis2-basic", "hem").
///
/// Run: ./multilevel_coarsening [n] [target] [coarsener]

#include <cstdio>
#include <stdexcept>
#include <string>

#include "core/coarsener.hpp"
#include "graph/rgg.hpp"
#include "graph_inputs.hpp"
#include "multilevel/builder.hpp"
#include "obs/timer.hpp"

int main(int argc, char** argv) {
  using namespace parmis;
  // Check every argument before generating the graph.
  ordinal_t n = 200000;
  ordinal_t target = 64;
  const std::string coarsener = argc > 3 ? argv[3] : "mis2";
  const core::CoarsenerSpec* spec = nullptr;
  try {
    if (argc > 1) n = examples::parse_size_arg(argv[1], "n");
    if (argc > 2) target = examples::parse_size_arg(argv[2], "target");
    spec = &core::coarseners().find(coarsener);
  } catch (const std::logic_error& e) {
    std::fprintf(stderr, "%s\n", e.what());
    return 1;
  }

  // A mesh-like unstructured graph (what a partitioner would see).
  const graph::CrsGraph g = graph::random_geometric_3d(n, 16.0, 1);
  std::printf("input: %d vertices, %lld edges\n", g.num_rows,
              static_cast<long long>(g.num_entries() / 2));
  std::printf("coarsener: %s (%s)\n", coarsener.c_str(), spec->description.c_str());

  multilevel::Options opts;
  opts.min_coarse_size = target;
  opts.coarsener = coarsener;
  // One hierarchy handle across all levels: every aggregation after the
  // first level reuses the same scratch, and so would a repeat build.
  multilevel::HierarchyHandle handle;
  Timer timer;
  const std::vector<multilevel::Step>& steps = multilevel::Builder(opts).build(g, handle);
  const double elapsed = timer.seconds();

  std::printf("%-6s %12s %14s %10s %8s\n", "level", "vertices", "edges", "ratio", "mis2-it");
  ordinal_t prev = g.num_rows;
  for (std::size_t l = 0; l < steps.size(); ++l) {
    const graph::CrsGraph& coarse = steps[l].coarse.graph;
    const core::Aggregation& agg = steps[l].aggregation;
    std::printf("%-6zu %12d %14lld %9.2fx %8d\n", l + 1, coarse.num_rows,
                static_cast<long long>(coarse.num_entries() / 2),
                static_cast<double>(prev) / coarse.num_rows,
                agg.phase1_iterations + agg.phase2_iterations);
    prev = coarse.num_rows;
  }
  std::printf("coarsened %d -> %d vertices in %zu levels, %.3f s total\n", g.num_rows, prev,
              steps.size(), elapsed);

  // Partition-style sanity: project every fine vertex to its coarse id.
  std::vector<ordinal_t> part(static_cast<std::size_t>(g.num_rows));
  for (ordinal_t v = 0; v < g.num_rows; ++v) {
    ordinal_t c = v;
    for (const multilevel::Step& step : steps) {
      c = step.aggregation.labels[static_cast<std::size_t>(c)];
    }
    part[static_cast<std::size_t>(v)] = c;
  }
  std::printf("projection of vertex 0 -> coarse vertex %d\n", part[0]);
  return 0;
}
