/// \file table6_cluster_gs.cpp
/// \brief Reproduces Table VI: point vs cluster multicolor symmetric
/// Gauss-Seidel as GMRES preconditioners on five systems (setup time,
/// total apply/solve time, iteration counts; tol 1e-8, cap 800).
///
/// Paper shape to reproduce: the cluster method is faster in *both* setup
/// (it colors a much smaller coarse graph) and apply, with iteration
/// counts at or slightly below the point method (5% geometric mean).
///
/// Matrix values: the two Galeri problems are generated exactly; the
/// SuiteSparse systems (bodyy5, Geo_1438, Serena) use the registry's
/// Laplacian-valued surrogates, which are better conditioned than the
/// originals, so absolute iteration counts land below the paper's.

#include <cstdio>
#include <memory>
#include <vector>

#include "bench_common.hpp"
#include "solver/cluster_gs.hpp"
#include "solver/gauss_seidel.hpp"
#include "solver/handle.hpp"
#include "solver/vector_ops.hpp"

int main(int argc, char** argv) {
  using namespace parmis;
  const bench::Args args = bench::Args::parse(argc, argv);

  const char* systems[] = {"bodyy5", "Elasticity3D_60", "Geo_1438", "Laplace3D_100", "Serena"};

  std::printf("Table VI: point vs cluster multicolor SGS-preconditioned GMRES "
              "(scale=%.2f, tol 1e-8, cap 800)\n", args.scale);
  std::printf("%-16s | %10s %10s | %10s %10s | %7s %7s\n", "system", "P.Setup", "C.Setup",
              "P.Apply", "C.Apply", "P.It", "C.It");
  bench::print_rule(90);

  std::vector<double> iter_ratios;
  for (const char* name : systems) {
    // bodyy5 is small; always run it at paper scale.
    const double scale = std::string(name) == "bodyy5" ? 1.0 : args.scale;
    const graph::CrsMatrix a = graph::experiment_matrices().find(name).build(scale);
    const std::vector<scalar_t> b = solver::random_vector(a.num_rows, 3);
    solver::IterOptions opts;
    opts.tolerance = 1e-8;
    opts.max_iterations = 800;

    std::unique_ptr<solver::PointGsPreconditioner> point_prec;
    const double point_setup_s = bench::time_once_s("table6.point_setup", [&] {
      point_prec = std::make_unique<solver::PointGsPreconditioner>(a);
    });

    std::unique_ptr<solver::ClusterGsPreconditioner> cluster_prec;
    const double cluster_setup_s = bench::time_once_s("table6.cluster_setup", [&] {
      cluster_prec = std::make_unique<solver::ClusterGsPreconditioner>(a);
    });

    // Each handle solves with the setup timed above instead of its own.
    solver::SolveHandle point("gmres", "gs");
    point.adopt_preconditioner(std::move(point_prec), a);
    std::vector<scalar_t> xp(static_cast<std::size_t>(a.num_rows), 0);
    solver::IterResult pr;
    const double point_apply_s = bench::time_once_s(
        "table6.point_solve", [&] { pr = point.solve(a, b, xp, opts); });

    solver::SolveHandle cluster("gmres", "cluster-gs");
    cluster.adopt_preconditioner(std::move(cluster_prec), a);
    std::vector<scalar_t> xc(static_cast<std::size_t>(a.num_rows), 0);
    solver::IterResult cr;
    const double cluster_apply_s = bench::time_once_s(
        "table6.cluster_solve", [&] { cr = cluster.solve(a, b, xc, opts); });

    if (pr.converged && cr.converged) {
      iter_ratios.push_back(static_cast<double>(cr.iterations) / pr.iterations);
    }
    std::printf("%-16s | %10.4f %10.4f | %10.3f %10.3f | %7d %7d%s\n", name, point_setup_s,
                cluster_setup_s, point_apply_s, cluster_apply_s, pr.iterations, cr.iterations,
                (pr.converged && cr.converged) ? "" : "  (no convergence)");
  }
  bench::print_rule(90);
  std::printf("cluster/point iteration ratio (geomean): %.3f   (paper: 0.95)\n",
              bench::geomean(iter_ratios));
  return 0;
}
