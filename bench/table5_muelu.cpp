/// \file table5_muelu.cpp
/// \brief Reproduces Table V: a smoothed-aggregation multigrid V-cycle
/// preconditioner for CG on Laplace3D, setup with each of the five
/// aggregation schemes. Reports CG iterations to 1e-12, aggregation time,
/// total setup time, solve time, and measured determinism.
///
/// Paper (100^3 Laplace3D on V100): Serial Agg 25 it / 0.673s agg;
/// Serial D2C 23 it; NB D2C 31.3 it; MIS2 Basic 49 it; MIS2 Agg 22 it with
/// 0.0352s agg — the shape to reproduce: MIS2 Agg has the fewest
/// iterations and near-fastest aggregation; MIS2 Basic aggregates fastest
/// but needs ~2x the iterations; Serial Agg's aggregation is orders of
/// magnitude slower.
///
/// Default --scale=0.25 gives a 63^3 grid; --full gives the paper's 100^3.

#include <cstdio>
#include <cmath>
#include <memory>
#include <vector>

#include "bench_common.hpp"
#include "graph/generators.hpp"
#include "graph/ops.hpp"
#include "parallel/execution.hpp"
#include "solver/amg.hpp"
#include "solver/handle.hpp"
#include "solver/vector_ops.hpp"

int main(int argc, char** argv) {
  using namespace parmis;
  const bench::Args args = bench::Args::parse(argc, argv);
  const ordinal_t side =
      std::max<ordinal_t>(16, static_cast<ordinal_t>(std::lround(100.0 * std::cbrt(args.scale))));

  std::printf("Table V: MueLu-style SA-AMG on Laplace3D %d^3 (CG tol 1e-12, 2 Jacobi sweeps)\n",
              side);
  std::printf("%-12s %6s %10s %10s %10s %6s\n", "scheme", "iters", "agg(s)", "setup(s)",
              "solve(s)", "det");
  bench::print_rule(65);

  const solver::AggregationScheme schemes[] = {
      solver::AggregationScheme::SerialAgg, solver::AggregationScheme::SerialD2C,
      solver::AggregationScheme::NBD2C, solver::AggregationScheme::Mis2Basic,
      solver::AggregationScheme::Mis2Agg};

  for (solver::AggregationScheme scheme : schemes) {
    graph::CrsMatrix a = graph::laplace3d(side, side, side);

    solver::AmgOptions amg_opts;
    solver::set_aggregation_scheme(amg_opts.hierarchy, scheme);
    auto owned = std::make_unique<solver::AmgHierarchy>(
        solver::AmgHierarchy::build(std::move(a), amg_opts));
    const solver::AmgHierarchy& amg = *owned;

    const graph::CrsMatrix& a0 = amg.level(0).a;
    const std::vector<scalar_t> b = solver::random_vector(a0.num_rows, 11);
    std::vector<scalar_t> x(static_cast<std::size_t>(a0.num_rows), 0);
    solver::IterOptions cg_opts;
    cg_opts.tolerance = 1e-12;
    cg_opts.max_iterations = 500;
    solver::SolveHandle handle("cg", "amg");
    handle.adopt_preconditioner(std::move(owned), a0);
    solver::IterResult r;
    const double solve_s = bench::time_once_s(
        "table5.solve", [&] { r = handle.solve(a0, b, x, cg_opts); });

    // Measured determinism: identical aggregation labels across two thread
    // counts and a repeat run.
    const graph::CrsGraph adj =
        graph::remove_self_loops(graph::GraphView(graph::laplace3d(side, side, side)));
    bool deterministic = true;
    {
      core::Aggregation ref;
      {
        par::ScopedExecution scope(par::Backend::OpenMP, 1);
        ref = solver::run_aggregation(adj, scheme, amg_opts.hierarchy.mis2);
      }
      for (int threads : {0, 0}) {  // two full-parallel repeats
        par::ScopedExecution scope(par::Backend::OpenMP, threads);
        const core::Aggregation again =
            solver::run_aggregation(adj, scheme, amg_opts.hierarchy.mis2);
        deterministic = deterministic && again.labels == ref.labels;
      }
    }

    std::printf("%-12s %6d %10.4f %10.4f %10.4f %6s%s\n", solver::to_string(scheme),
                r.iterations, amg.aggregation_seconds(), amg.setup_seconds(), solve_s,
                deterministic ? "yes" : "no", r.converged ? "" : "  (NOT CONVERGED)");
  }
  std::printf("\n(paper, 100^3 on V100: SerialAgg 25it/0.673s agg; SerialD2C 23it; NB D2C\n"
              " 31.3it; MIS2 Basic 49it/0.0226s; MIS2 Agg 22it/0.0352s agg, det: Serial Agg,\n"
              " MIS2 Basic and MIS2 Agg only)\n");
  return 0;
}
