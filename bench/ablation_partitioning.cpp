/// \file ablation_partitioning.cpp
/// \brief Extension experiment (paper §VII future work / §II, Gilbert et
/// al.): every partitioner in the pluggable registry — multilevel with
/// MIS-2 aggregation vs heavy-edge matching, the streaming LDG and
/// label-propagation algorithms, and the block baseline — compared on edge
/// cut, communication volume, balance, and time over mesh-like inputs.
/// The closing geomean reproduces the original MIS-2-vs-HEM ablation.

#include <cmath>
#include <cstdio>
#include <vector>

#include "bench_common.hpp"
#include "graph/generators.hpp"
#include "graph/ops.hpp"
#include "graph/rgg.hpp"
#include "partition/interface.hpp"

int main(int argc, char** argv) {
  using namespace parmis;
  const bench::Args args = bench::Args::parse(argc, argv);

  struct Case {
    const char* name;
    graph::CrsGraph g;
  };
  const double s = args.scale;
  std::vector<Case> cases;
  cases.push_back({"grid2d", graph::remove_self_loops(graph::GraphView(graph::laplace2d(
                                 static_cast<ordinal_t>(600 * std::sqrt(s)),
                                 static_cast<ordinal_t>(600 * std::sqrt(s)))))});
  cases.push_back({"grid3d", graph::remove_self_loops(graph::GraphView(graph::laplace3d(
                                 static_cast<ordinal_t>(70 * std::cbrt(s)),
                                 static_cast<ordinal_t>(70 * std::cbrt(s)),
                                 static_cast<ordinal_t>(70 * std::cbrt(s)))))});
  cases.push_back({"rgg3d", graph::random_geometric_3d(
                                static_cast<ordinal_t>(400000 * s), 14.0, 3)});
  cases.push_back({"rgg2d", graph::random_geometric_2d(
                                static_cast<ordinal_t>(400000 * s), 7.0, 4)});

  const ordinal_t k = 8;
  std::printf("Extension: k=%d partitioning across the full algorithm registry (scale=%.2f)\n",
              k, args.scale);
  std::printf("%-10s %10s %-16s | %12s %7s %10s %8s %7s | %8s\n", "graph", "|V|", "algorithm",
              "cut", "cut%", "commvol", "bdry%", "imbal%", "time");
  bench::print_rule(110);

  std::vector<double> mis2_cuts, hem_cuts;
  for (const Case& c : cases) {
    const partition::WeightedGraph wg = partition::WeightedGraph::unit(c.g);
    for (const partition::PartitionerSpec& spec : partition::partitioners().specs()) {
      const partition::PartitionResult r = spec.make()->run(wg, k);
      const partition::QualityReport& q = r.quality;
      std::printf("%-10s %10d %-16s | %12lld %6.2f%% %10lld %7.2f%% %6.2f%% | %7.2fs\n", c.name,
                  c.g.num_rows, spec.name.c_str(), static_cast<long long>(q.edge_cut),
                  100.0 * q.cut_fraction(), static_cast<long long>(q.comm_volume),
                  100.0 * q.boundary_fraction, 100.0 * q.imbalance, r.seconds);
      if (spec.name == "multilevel-mis2") mis2_cuts.push_back(static_cast<double>(q.edge_cut));
      if (spec.name == "multilevel-hem") hem_cuts.push_back(static_cast<double>(q.edge_cut));
    }
    bench::print_rule(110);
  }

  std::vector<double> ratios;
  for (std::size_t i = 0; i < mis2_cuts.size() && i < hem_cuts.size(); ++i) {
    ratios.push_back(hem_cuts[i] == 0 ? 1.0 : mis2_cuts[i] / hem_cuts[i]);
  }
  std::printf("geomean cut ratio (mis2/hem, <1 means MIS-2 coarsening wins): %.3f\n",
              bench::geomean(ratios));
  return 0;
}
