/// \file amg_laplace3d.cpp
/// \brief The Table V scenario as an application: solve a 3D Poisson
/// problem with CG preconditioned by smoothed-aggregation AMG, using MIS-2
/// aggregation (Algorithm 3) for the hierarchy.
///
/// Run: ./amg_laplace3d [grid_side] [scheme]
///   scheme in {serial, serial-d2c, nb-d2c, mis2-basic, mis2-agg}
///   or any registered coarsener name ("mis2", "hem", ... — see
///   `linear_solve --list`), routed through `AmgOptions::hierarchy`.

#include <cstdio>
#include <cstring>
#include <memory>
#include <stdexcept>
#include <string>

#include "core/coarsener.hpp"
#include "graph/generators.hpp"
#include "graph_inputs.hpp"
#include "obs/timer.hpp"
#include "solver/amg.hpp"
#include "solver/handle.hpp"
#include "solver/vector_ops.hpp"

int main(int argc, char** argv) {
  using namespace parmis;
  ordinal_t side = 40;
  try {
    if (argc > 1) side = examples::parse_size_arg(argv[1], "grid side", 2, 3);
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "%s\n", e.what());
    return 1;
  }
  solver::AmgOptions amg_opts;
  std::string scheme_name = solver::to_string(solver::AggregationScheme::Mis2Agg);
  if (argc > 2) {
    const char* s = argv[2];
    const struct {
      const char* arg;
      solver::AggregationScheme scheme;
    } table5[] = {{"serial", solver::AggregationScheme::SerialAgg},
                  {"serial-d2c", solver::AggregationScheme::SerialD2C},
                  {"nb-d2c", solver::AggregationScheme::NBD2C},
                  {"mis2-basic", solver::AggregationScheme::Mis2Basic},
                  {"mis2-agg", solver::AggregationScheme::Mis2Agg}};
    bool table5_scheme = false;
    for (const auto& entry : table5) {
      if (std::strcmp(s, entry.arg) != 0) continue;
      solver::set_aggregation_scheme(amg_opts.hierarchy, entry.scheme);
      scheme_name = solver::to_string(entry.scheme);
      table5_scheme = true;
    }
    if (!table5_scheme) {
      // Not a Table V scheme: try the core coarsener registry.
      try {
        (void)core::coarseners().find(s);
      } catch (const std::out_of_range& e) {
        std::fprintf(stderr, "%s\n", e.what());
        return 1;
      }
      amg_opts.hierarchy.coarsener = s;
      scheme_name = s;
    }
  }

  std::printf("Laplace3D %d^3 (%d unknowns), aggregation: %s\n", side, side * side * side,
              scheme_name.c_str());

  graph::CrsMatrix a = graph::laplace3d(side, side, side);

  // Setup: build the AMG hierarchy (aggregation + prolongators + RAP).
  auto owned = std::make_unique<solver::AmgHierarchy>(
      solver::AmgHierarchy::build(std::move(a), amg_opts));
  const solver::AmgHierarchy& amg = *owned;
  std::printf("hierarchy: %d levels, operator complexity %.2f\n", amg.num_levels(),
              amg.operator_complexity());
  for (int l = 0; l < amg.num_levels(); ++l) {
    std::printf("  level %d: %8d rows, %10lld entries\n", l, amg.level(l).a.num_rows,
                static_cast<long long>(amg.level(l).a.num_entries()));
  }
  std::printf("setup: %.3f s (aggregation %.3f s)\n", amg.setup_seconds(),
              amg.aggregation_seconds());

  // Solve to the paper's tolerance (1e-12) with 2-sweep Jacobi smoothing.
  const graph::CrsMatrix& a0 = amg.level(0).a;
  const std::vector<scalar_t> b = solver::random_vector(a0.num_rows, 42);
  std::vector<scalar_t> x(static_cast<std::size_t>(a0.num_rows), 0);
  solver::IterOptions cg_opts;
  cg_opts.tolerance = 1e-12;
  cg_opts.max_iterations = 500;

  // The handle solves with the hierarchy built above instead of its own.
  solver::SolveHandle handle("cg", "amg");
  handle.adopt_preconditioner(std::move(owned), a0);
  Timer solve_timer;
  const solver::IterResult& r = handle.solve(a0, b, x, cg_opts);
  std::printf("solve: %s in %d iterations, %.3f s (relative residual %.2e)\n",
              r.converged ? "converged" : "DID NOT CONVERGE", r.iterations,
              solve_timer.seconds(), r.relative_residual);
  return r.converged ? 0 : 1;
}
