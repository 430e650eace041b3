/// \file parmis_tool.cpp
/// \brief Command-line front end: run the library's algorithms on a Matrix
/// Market file or a generated problem.
///
/// Usage:
///   parmis_tool [--trace=FILE] [--trace-sample=N] [--digest] <input> <command> [k]
///
/// input:
///   path/to/matrix.mtx          any Matrix Market coordinate file
///   gen:laplace3d:NX            NX^3 7-point grid
///   gen:laplace2d:NX            NX^2 5-point grid
///   gen:elasticity:NX           NX^3 27-point, 3 dof
///   gen:rgg:N:DEG               3D random geometric graph
///   gen:powerlaw:N[:EXP]        power-law degrees, exponent EXP (default 2.2)
///   reg:NAME                    a Table II surrogate (e.g. reg:Serena)
///
/// command: stats | mis2 | aggregate | color-d1 | color-d2 | partition K [ALGO]
///
/// `partition` accepts any registered partitioner name (see
/// `graph_partition --list`); the default is multilevel-mis2.
///
/// The input matrix is symmetrized and stripped of self loops before any
/// graph algorithm runs, so general matrices are accepted.
///
/// `--trace=FILE` records obs spans for the run and writes a Chrome
/// trace-event file (chrome://tracing / Perfetto).
///
/// `--digest` appends a `digest: 0x...` line hashing the command's result
/// array (check::digest, FNV-1a) — one word to diff across machines and
/// backends when checking the bit-identity contract. With `aggregate` it
/// also contracts the aggregation and adds a `coarse_digest: 0x...` line
/// hashing the quotient graph (`core::coarse_graph`).

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "check/digest.hpp"
#include "coloring/d1_coloring.hpp"
#include "coloring/d2_coloring.hpp"
#include "coloring/verify.hpp"
#include "core/aggregation.hpp"
#include "core/coarsen.hpp"
#include "core/mis2.hpp"
#include "core/verify.hpp"
#include "graph_inputs.hpp"
#include "obs/timer.hpp"
#include "obs/trace.hpp"
#include "partition/interface.hpp"

namespace {

using namespace parmis;
using examples::load_graph;

}  // namespace

int main(int argc, char** argv) {
  // Leading options are consumed before the positional arguments.
  std::string trace_path;
  int trace_sample = 1;
  bool want_digest = false;
  int first = 1;
  for (; first < argc; ++first) {
    if (!std::strncmp(argv[first], "--trace=", 8)) {
      trace_path = argv[first] + 8;
    } else if (!std::strncmp(argv[first], "--trace-sample=", 15)) {
      trace_sample = std::atoi(argv[first] + 15);
    } else if (!std::strcmp(argv[first], "--digest")) {
      want_digest = true;
    } else {
      break;
    }
  }
  argv += first - 1;
  argc -= first - 1;
  if (argc < 3) {
    std::fprintf(stderr,
                 "usage: %s [--trace=FILE] [--trace-sample=N] [--digest] <input> "
                 "<stats|mis2|aggregate|color-d1|color-d2|partition K [ALGO]>\n"
                 "  input: file.mtx | gen:laplace3d:NX | gen:laplace2d:NX |\n"
                 "         gen:elasticity:NX | gen:rgg:N:DEG | gen:powerlaw:N[:EXP] | reg:NAME\n",
                 argv[0]);
    return 1;
  }
  if (!trace_path.empty()) obs::set_tracing(true, trace_sample);
  graph::CrsGraph g;
  try {
    g = load_graph(argv[1]);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "cannot load '%s': %s\n", argv[1], e.what());
    return 1;
  }
  const std::string cmd = argv[2];
  // `digest: 0x...` trailer for --digest; same digest = same bits.
  auto print_digest = [&](std::uint64_t h) {
    if (want_digest) std::printf("digest: %s\n", check::digest_hex(h).c_str());
  };

  const graph::DegreeStats stats = graph::degree_stats(g);
  std::printf("graph: %d vertices, %lld edges, degree min/avg/max = %d/%.2f/%d\n", g.num_rows,
              static_cast<long long>(g.num_entries() / 2), stats.min_degree, stats.avg_degree,
              stats.max_degree);
  if (cmd == "stats") {
    print_digest(check::digest(g));
    return 0;
  }

  Timer timer;
  if (cmd == "mis2") {
    const core::Mis2Result r = core::mis2(g);
    std::printf("MIS-2: %d vertices, %d iterations, %.3f s, valid=%s\n", r.set_size(),
                r.iterations, timer.seconds(), core::verify_mis2(g, r.in_set) ? "yes" : "NO");
    print_digest(check::digest(r.in_set));
  } else if (cmd == "aggregate") {
    const core::Aggregation agg = core::aggregate_mis2(g);
    const core::AggregationStats s = core::aggregation_stats(agg);
    std::printf("aggregation: %d aggregates (%.1fx), sizes %d..%d avg %.1f, %.3f s, valid=%s\n",
                s.num_aggregates, static_cast<double>(g.num_rows) / s.num_aggregates,
                s.min_size, s.max_size, s.avg_size, timer.seconds(),
                core::verify_aggregation(g, agg) ? "yes" : "NO");
    print_digest(check::digest(agg.labels));
    if (want_digest) {
      std::printf("coarse_digest: %s\n",
                  check::digest_hex(check::digest(core::coarse_graph(g, agg))).c_str());
    }
  } else if (cmd == "color-d1") {
    const coloring::Coloring c = coloring::parallel_d1_coloring(g);
    std::printf("distance-1 coloring: %d colors, %d rounds, %.3f s, valid=%s\n", c.num_colors,
                c.rounds, timer.seconds(), coloring::verify_d1_coloring(g, c) ? "yes" : "NO");
    print_digest(check::digest(c.colors));
  } else if (cmd == "color-d2") {
    const coloring::Coloring c = coloring::parallel_d2_coloring(g);
    std::printf("distance-2 coloring: %d colors, %d rounds, %.3f s, valid=%s\n", c.num_colors,
                c.rounds, timer.seconds(), coloring::verify_d2_coloring(g, c) ? "yes" : "NO");
    print_digest(check::digest(c.colors));
  } else if (cmd == "partition") {
    const ordinal_t k = argc > 3 ? static_cast<ordinal_t>(std::atoi(argv[3])) : 8;
    if (k < 1) {
      std::fprintf(stderr, "partition: K must be a positive integer\n");
      return 1;
    }
    const std::string algo = argc > 4 ? argv[4] : "multilevel-mis2";
    std::unique_ptr<partition::Partitioner> p;
    try {
      p = partition::partitioners().find(algo).make();
    } catch (const std::out_of_range& e) {
      std::fprintf(stderr, "%s (see graph_partition --list)\n", e.what());
      return 1;
    }
    const partition::WeightedGraph wg = partition::WeightedGraph::unit(std::move(g));
    const partition::PartitionResult r = p->run(wg, k);
    std::printf("partition k=%d (%s): edge cut %lld (%.2f%% of edges), comm volume %lld,\n"
                "  boundary %.2f%%, imbalance %.2f%%, %.3f s\n",
                k, algo.c_str(), static_cast<long long>(r.quality.edge_cut),
                100.0 * r.quality.cut_fraction(), static_cast<long long>(r.quality.comm_volume),
                100.0 * r.quality.boundary_fraction, 100.0 * r.quality.imbalance, r.seconds);
    print_digest(check::digest(r.part));
  } else {
    std::fprintf(stderr, "unknown command '%s'\n", cmd.c_str());
    return 1;
  }

  if (!trace_path.empty()) {
    obs::set_tracing(false);
    if (!obs::write_chrome_trace(trace_path)) {
      std::fprintf(stderr, "cannot write trace file '%s'\n", trace_path.c_str());
      return 1;
    }
    std::printf("trace: %llu events -> %s (load in chrome://tracing or Perfetto)\n",
                static_cast<unsigned long long>(obs::total_events()), trace_path.c_str());
  }
  return 0;
}
