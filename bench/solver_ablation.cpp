/// \file solver_ablation.cpp
/// \brief Solver-stack ablation: time-to-tolerance and iteration counts for
/// every registered solver × preconditioner combination (× coarsener for
/// the coarsening preconditioners) on the RGG and power-law generators.
///
/// The solver-side companion of bench/balance_ablation: quantifies what
/// each preconditioner buys on a uniform-degree geometric input versus a
/// skewed-degree power-law input, and what the coarsening scheme (the
/// paper's MIS-2 aggregation vs basic MIS-2 vs HEM) changes for cluster-GS
/// and AMG. Solves A x = b with A = Laplacian(G) + I, b deterministic,
/// x0 = 0; solve time is the mean over `--trials` warm repetitions through
/// one `SolveHandle` (setup paid once, reported separately).
///
/// Emits one JSON object per cell (stdout + `--out`, default
/// BENCH_solver_ablation.json). Rows are `obs::Report` objects built by the
/// telemetry adapters, so the keys are identical to `linear_solve --json`
/// and bench/hierarchy_ablation — one schema everywhere.
///
/// Usage: bench_solver_ablation [--scale=F] [--trials=N] [--tol=T]
///                              [--maxit=N] [--out=PATH]

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "core/coarsener.hpp"
#include "graph/generators.hpp"
#include "graph/rgg.hpp"
#include "obs/telemetry.hpp"
#include "resilience/status.hpp"
#include "solver/amg.hpp"
#include "solver/handle.hpp"
#include "solver/vector_ops.hpp"

namespace parmis {
namespace {

struct Options {
  double scale = 0.25;
  int trials = 3;
  double tol = 1e-8;
  int maxit = 400;
  std::string out = "BENCH_solver_ablation.json";
};

Options parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const char* s = argv[i];
    if (!std::strncmp(s, "--scale=", 8)) {
      o.scale = std::atof(s + 8);
    } else if (!std::strncmp(s, "--trials=", 9)) {
      o.trials = std::atoi(s + 9);
    } else if (!std::strncmp(s, "--tol=", 6)) {
      o.tol = std::atof(s + 6);
    } else if (!std::strncmp(s, "--maxit=", 8)) {
      o.maxit = std::atoi(s + 8);
    } else if (!std::strncmp(s, "--out=", 6)) {
      o.out = s + 6;
    } else if (!std::strcmp(s, "--full")) {
      o.scale = 1.0;
    } else {
      std::fprintf(stderr, "usage: %s [--scale=F] [--trials=N] [--tol=T] [--maxit=N] [--out=PATH]\n",
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
  auto emit = [&](const obs::Report& report) {
    const std::string json = report.to_json();
    std::printf("%s\n", json.c_str());
    out.row(json);
  };

  solver::IterOptions iter_opts;
  iter_opts.tolerance = opt.tol;
  iter_opts.max_iterations = opt.maxit;

  std::printf("# solver_ablation: trials=%d scale=%.3f tol=%.1e maxit=%d\n", opt.trials,
              opt.scale, opt.tol, opt.maxit);

  for (const Input& in : inputs) {
    const graph::CrsMatrix a = graph::laplacian_matrix(in.g, 1.0);
    const std::vector<scalar_t> b = solver::random_vector(a.num_rows, 1);
    std::vector<scalar_t> x(static_cast<std::size_t>(a.num_rows), 0);

    for (const std::string& pname : solver::preconditioners().names()) {
      const std::vector<std::string> coarseners =
          solver::preconditioners().find(pname).uses_coarsener ? core::coarseners().names()
                                                               : std::vector<std::string>{"-"};
      for (const std::string& cname : coarseners) {
        solver::SolveHandle handle;
        handle.set_preconditioner(pname);
        if (cname != "-") {
          handle.prec_options().coarsener = cname;
          handle.prec_options().amg.hierarchy.coarsener = cname;
        }
        Timer setup_timer;
        try {
          handle.setup(a);
        } catch (const std::exception& e) {
          // A combo whose setup fails still gets a row (status
          // "setup_failed" / "singular_operator") instead of being
          // silently dropped from the sweep — absent rows read as
          // "not measured", not "failed".
          const auto* classified = dynamic_cast<const resilience::SolveError*>(&e);
          for (const std::string& sname : solver::solvers().names()) {
            obs::Report report;
            report.set("bench", "solver_ablation");
            obs::add_graph(report, in.name, a.num_rows, a.num_entries());
            report.set("solver", sname);
            report.set("prec", pname);
            report.set("coarsener", cname);
            report.set("converged", false);
            report.set("status",
                       std::string(resilience::to_string(
                           classified ? classified->status()
                                      : resilience::SolveStatus::SetupFailed)));
            if (classified && classified->info().reason[0] != '\0') {
              report.set("failure_reason", std::string(classified->info().reason));
            }
            emit(report);
          }
          continue;
        }
        const double setup_s = setup_timer.seconds();

        for (const std::string& sname : solver::solvers().names()) {
          handle.set_solver(sname);
          const double solve_s = bench::time_mean_s(opt.trials, [&] {
            std::fill(x.begin(), x.end(), 0.0);
            (void)handle.solve(a, b, x, iter_opts);
          });
          const solver::IterResult& r = handle.result();
          obs::Report report;
          report.set("bench", "solver_ablation");
          obs::add_graph(report, in.name, a.num_rows, a.num_entries());
          report.set("solver", sname);
          report.set("prec", pname);
          report.set("coarsener", cname);
          obs::add_iter_result(report, r);
          report.set("setup_seconds", setup_s);
          report.set("solve_seconds", solve_s);
          // Hierarchy telemetry for the multigrid rows (same adapter — so
          // the same keys — as bench/hierarchy_ablation and linear_solve).
          if (const auto* amg =
                  dynamic_cast<const solver::AmgHierarchy*>(handle.preconditioner())) {
            obs::add_hierarchy(report, amg->hierarchy_stats());
          }
          emit(report);
        }
      }
    }
  }
  if (!out.close()) {
    std::fprintf(stderr, "write error on %s\n", opt.out.c_str());
    return 1;
  }
  std::printf("# wrote %s\n", opt.out.c_str());
  return 0;
}
