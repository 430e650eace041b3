/// \file selftest.cpp
/// \brief The benchmark's own checks: seeded inputs are reproducible and
/// seed-sensitive, and the correctness checks the workloads count in
/// `failed` reject deliberately corrupted outputs.
#include <cmath>
#include <cstdio>

#include "check/digest.hpp"
#include "common.hpp"
#include "solver/handle.hpp"
#include "solver/vector_ops.hpp"

namespace perfbench {

int run_selftest() {
  int failures = 0;
  auto expect = [&](bool cond, const char* what) {
    std::printf("%s %s\n", cond ? "PASS" : "FAIL", what);
    if (!cond) ++failures;
  };
  using parmis::check::digest;

  expect(digest(coarsen_input(Size::Tiny, 7)) == digest(coarsen_input(Size::Tiny, 7)),
         "coarsen_rgg: same seed gives the same input digest");
  expect(digest(coarsen_input(Size::Tiny, 7)) != digest(coarsen_input(Size::Tiny, 8)),
         "coarsen_rgg: different seeds give different input digests");
  expect(digest(powerlaw_operator(Size::Tiny, 7)) == digest(powerlaw_operator(Size::Tiny, 7)),
         "powerlaw: same seed gives the same input digest");
  expect(digest(powerlaw_operator(Size::Tiny, 7)) != digest(powerlaw_operator(Size::Tiny, 8)),
         "powerlaw: different seeds give different input digests");
  expect(mix(7, 5, 3) == mix(7, 5, 3) && mix(7, 5, 3) != mix(8, 5, 3),
         "rhs seeds: reproducible per seed, distinct across seeds");

  {
    const parmis::graph::CrsGraph g = coarsen_input(Size::Tiny, 3);
    parmis::core::CoarsenHandle serial(parmis::Context::serial());
    parmis::core::Aggregation agg = serial.aggregate_mis2(g);
    const std::uint64_t ref = aggregation_digest(agg);
    parmis::core::CoarsenHandle par(kernel_context(RunConfig{}));
    expect(aggregation_ok(g, par.aggregate_mis2(g), ref, true),
           "aggregation: OpenMP run passes the check against the serial reference");
    agg.labels[0] = (agg.labels[0] + 1) % agg.num_aggregates;
    expect(!aggregation_ok(g, agg, ref, true), "aggregation: one flipped label fails the check");
  }

  {
    const parmis::graph::CrsMatrix a = powerlaw_operator(Size::Tiny, 3);
    const std::vector<scalar_t> b = parmis::solver::random_vector(a.num_rows, 11);
    std::vector<scalar_t> x(b.size(), 0.0);
    parmis::solver::SolveHandle h("cg", "amg", kernel_context(RunConfig{}));
    parmis::solver::IterOptions io;
    io.tolerance = 1e-8;
    const bool converged = h.solve(a, b, x, io).converged;
    expect(converged && true_relative_residual(a, b, x) <= 1e-8,
           "solve: converged solution passes the true-residual check");
    x[x.size() / 2] += 1e-3 * (1.0 + std::abs(x[x.size() / 2]));
    expect(true_relative_residual(a, b, x) > 1e-8,
           "solve: one perturbed solution entry fails the true-residual check");
  }
  std::printf("selftest: %d failure(s)\n", failures);
  return failures;
}

}  // namespace perfbench
