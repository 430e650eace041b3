/// \file hierarchy_ablation.cpp
/// \brief Multilevel-hierarchy ablation: cold-build vs warm-rebuild time
/// and per-level operator complexity for every registered coarsener on the
/// RGG and power-law generators, in Galerkin mode through the unified
/// `multilevel::Builder`.
///
/// The hierarchy-side companion of bench/solver_ablation: quantifies what
/// the coarsening scheme costs at setup time, what the operator-complexity
/// cap saves on skewed inputs (the AMG+HEM power-law blowup fix), and what
/// the reusable `SetupWorkspace` buys when a fixed-structure hierarchy is
/// rebuilt with new values (time-stepping): warm rebuilds replay the
/// Galerkin products value-only with zero heap allocations.
///
/// Emits one JSON object per (graph, coarsener) cell (stdout + `--out`,
/// default BENCH_hierarchy_ablation.json). Rows are `obs::Report` objects
/// built by `obs::add_hierarchy`, so the telemetry keys (levels,
/// operator/grid complexity, cold/warm build times) are exactly the ones
/// `linear_solve --json` and bench/solver_ablation report.
///
/// Usage: bench_hierarchy_ablation [--scale=F] [--trials=N] [--cap=C]
///                                 [--out=PATH]

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "core/coarsener.hpp"
#include "graph/generators.hpp"
#include "graph/rgg.hpp"
#include "multilevel/builder.hpp"
#include "obs/telemetry.hpp"

namespace parmis {
namespace {

struct Options {
  double scale = 0.25;
  int trials = 3;
  double cap = 10.0;
  std::string out = "BENCH_hierarchy_ablation.json";
};

Options parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const char* s = argv[i];
    if (!std::strncmp(s, "--scale=", 8)) {
      o.scale = std::atof(s + 8);
    } else if (!std::strncmp(s, "--trials=", 9)) {
      o.trials = std::atoi(s + 9);
    } else if (!std::strncmp(s, "--cap=", 6)) {
      o.cap = std::atof(s + 6);
    } else if (!std::strncmp(s, "--out=", 6)) {
      o.out = s + 6;
    } else if (!std::strcmp(s, "--full")) {
      o.scale = 1.0;
    } else {
      std::fprintf(stderr, "usage: %s [--scale=F] [--trials=N] [--cap=C] [--out=PATH]\n",
                   argv[0]);
      std::exit(1);
    }
  }
  return o;
}

}  // namespace
}  // namespace parmis

int main(int argc, char** argv) {
  using namespace parmis;
  const Options opt = parse(argc, argv);

  struct Input {
    std::string name;
    graph::CrsGraph g;
  };
  const ordinal_t n = std::max<ordinal_t>(4000, static_cast<ordinal_t>(100000 * opt.scale));
  std::vector<Input> inputs;
  inputs.push_back({"rgg_uniform", graph::random_geometric_3d(n, 12.0, 7)});
  inputs.push_back(
      {"power_law_skewed",
       graph::power_law_graph(n, 2.2, 4, std::max<ordinal_t>(64, n / 60), 42)});

  obs::JsonArrayWriter out(opt.out);
  if (!out.ok()) {
    std::fprintf(stderr, "cannot open %s\n", opt.out.c_str());
    return 1;
  }

  std::printf("# hierarchy_ablation: trials=%d scale=%.3f cap=%.1f\n", opt.trials, opt.scale,
              opt.cap);

  for (const Input& in : inputs) {
    const graph::CrsMatrix a = graph::laplacian_matrix(in.g, 1.0);
    // The value-perturbed matrix warm rebuilds replay (same structure).
    graph::CrsMatrix a2 = a;
    for (scalar_t& v : a2.values) v *= 1.01;

    for (const core::CoarsenerSpec& spec : core::coarseners().specs()) {
      multilevel::Options mo;
      mo.coarsener = spec.name;
      mo.min_coarse_size = 200;
      mo.complexity_cap = opt.cap;
      mo.rate_floor = 0.9;
      const multilevel::Builder builder(mo);

      multilevel::HierarchyHandle handle;
      Timer cold_timer;
      (void)builder.build_galerkin(a, handle);
      const double cold_s = cold_timer.seconds();

      const double warm_s = bench::time_mean_s(opt.trials, [&] {
        (void)builder.rebuild_galerkin(a2, handle);
      });

      obs::Report report;
      report.set("bench", "hierarchy_ablation");
      obs::add_graph(report, in.name, a.num_rows, a.num_entries());
      report.set("coarsener", spec.name);
      obs::add_hierarchy(report, handle.build_stats());
      // The adapter reports the builder's own timings; this bench's
      // numbers are externally timed means over --trials, so overwrite
      // the two time keys with the measured values (same key names).
      report.set("cold_build_seconds", cold_s);
      report.set("warm_rebuild_seconds", warm_s);
      report.set("scratch_bytes", static_cast<std::uint64_t>(handle.scratch_bytes()));
      report.set("scratch_grows", handle.stats().scratch_grows);
      const std::string json = report.to_json();
      std::printf("%s\n", json.c_str());
      out.row(json);
    }
  }
  if (!out.close()) {
    std::fprintf(stderr, "write error on %s\n", opt.out.c_str());
    return 1;
  }
  std::printf("# wrote %s\n", opt.out.c_str());
  return 0;
}
