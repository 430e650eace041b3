/// \file cluster_gs_gmres.cpp
/// \brief The Table VI scenario as an application: GMRES preconditioned by
/// symmetric Gauss-Seidel, comparing the classic point multicolor method
/// against the paper's cluster multicolor method (Algorithm 4) — driven
/// through the registry-keyed `SolveHandle` API.
///
/// Run: ./cluster_gs_gmres [grid_side]

#include <cstdio>
#include <stdexcept>

#include "graph/generators.hpp"
#include "graph_inputs.hpp"
#include "obs/timer.hpp"
#include "solver/cluster_gs.hpp"
#include "solver/gauss_seidel.hpp"
#include "solver/handle.hpp"
#include "solver/vector_ops.hpp"

int main(int argc, char** argv) {
  using namespace parmis;
  ordinal_t side = 20;
  try {
    // elasticity3d: three unknowns per grid point.
    if (argc > 1) side = examples::parse_size_arg(argv[1], "grid side", 2, 3, 3);
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "%s\n", e.what());
    return 1;
  }

  // An elasticity-like problem — the matrix family where Table VI shows
  // the largest cluster-GS gains.
  const graph::CrsMatrix a = graph::elasticity3d(side, side, side);
  std::printf("Elasticity3D %d^3: %d unknowns, %lld entries\n", side, a.num_rows,
              static_cast<long long>(a.num_entries()));

  const std::vector<scalar_t> b = solver::random_vector(a.num_rows, 7);
  solver::IterOptions opts;
  opts.tolerance = 1e-8;
  opts.max_iterations = 800;  // the paper's cap

  auto run = [&](const char* prec, const char* label) {
    solver::SolveHandle handle("gmres", prec);
    Timer setup;
    handle.setup(a);  // preconditioner built here, reused by every solve
    const double setup_s = setup.seconds();
    std::vector<scalar_t> x(static_cast<std::size_t>(a.num_rows), 0);
    Timer apply;
    const solver::IterResult& r = handle.solve(a, b, x, opts);
    std::printf("%s: setup %.4f s | solve %.3f s | %d iters%s\n", label, setup_s,
                apply.seconds(), r.iterations, r.converged ? "" : " (no convergence)");
    return handle;
  };

  (void)run("gs", "point   multicolor SGS");
  const solver::SolveHandle handle = run("cluster-gs", "cluster multicolor SGS");

  // The cached preconditioner stays inspectable through the handle.
  const auto* cluster =
      dynamic_cast<const solver::ClusterGsPreconditioner*>(handle.preconditioner());
  if (cluster) {
    std::printf("  (%d clusters over %d rows in %d colors; coloring ran on the %.1fx "
                "smaller coarse graph)\n",
                cluster->gs().num_clusters(), a.num_rows, cluster->gs().num_colors(),
                static_cast<double>(a.num_rows) / cluster->gs().num_clusters());
  }
  std::printf("  handle telemetry: %llu solve(s), %llu iterations, %llu prec setup(s)\n",
              static_cast<unsigned long long>(handle.stats().solves),
              static_cast<unsigned long long>(handle.stats().iterations),
              static_cast<unsigned long long>(handle.stats().prec_setups));
  return 0;
}
