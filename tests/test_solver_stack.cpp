/// \file test_solver_stack.cpp
/// \brief Tests for the unified solver-stack API: the string-keyed Solver /
/// Preconditioner registries, `SolveHandle` (zero-allocation warm solves,
/// preconditioner caching, registry composition with the core coarseners),
/// and the per-handle telemetry counters.

#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/coarsener.hpp"
#include "graph/generators.hpp"
#include "graph/ops.hpp"
#include "graph/rgg.hpp"
#include "graph/spmv.hpp"
#include "solver/gauss_seidel.hpp"
#include "solver/handle.hpp"
#include "solver/interface.hpp"
#include "solver/vector_ops.hpp"
#include "test_utils.hpp"

namespace parmis::solver {
namespace {

/// Well-conditioned SPD test matrix: graph Laplacian + I of a 3D mesh.
/// λ ∈ [1, 2·maxdeg + 1], so the condition number stays under Chebyshev's
/// default eig_ratio of 20 and every registered solver converges on it.
const graph::CrsMatrix& mesh_matrix() {
  static const graph::CrsMatrix a =
      graph::laplacian_matrix(test::adjacency_of(graph::laplace3d(10, 10, 10)), 1.0);
  return a;
}

/// A larger matrix of the same family (capacity-reuse tests).
const graph::CrsMatrix& rgg_matrix() {
  static const graph::CrsMatrix a =
      graph::laplacian_matrix(graph::random_geometric_3d(4000, 12.0, 11), 1.0);
  return a;
}

double residual_norm(const graph::CrsMatrix& a, std::span<const scalar_t> b,
                     std::span<const scalar_t> x) {
  std::vector<scalar_t> r(b.size());
  graph::spmv(a, x, r);
  axpby(1.0, b, -1.0, r);
  return norm2(r);
}

// ------------------------------------------------------------ registries

TEST(SolverRegistry, NamesAndLookup) {
  const std::vector<std::string> names = solvers().names();
  ASSERT_GE(names.size(), 3u);
  EXPECT_EQ(names.front(), "cg");  // the Table V outer solver leads
  for (const std::string& name : names) {
    const SolverSpec& spec = solvers().find(name);
    EXPECT_EQ(spec.name, name);
    EXPECT_NE(spec.solve, nullptr) << name;
  }
}

TEST(PreconditionerRegistry, NamesAndLookup) {
  const std::vector<std::string> names = preconditioners().names();
  ASSERT_GE(names.size(), 5u);
  EXPECT_EQ(names.front(), "none");
}

TEST(PreconditionerRegistry, EveryEntryBuildsAndApplies) {
  const graph::CrsMatrix& a = mesh_matrix();
  const std::vector<scalar_t> r = random_vector(a.num_rows, 3);
  for (const std::string& name : preconditioners().names()) {
    const auto prec = preconditioners().find(name).make(a, {}, Context::default_ctx());
    ASSERT_NE(prec, nullptr) << name;
    std::vector<scalar_t> z(static_cast<std::size_t>(a.num_rows), 0);
    prec->apply(r, z);
    // M^{-1} r of an SPD approximation must be a nonzero vector.
    EXPECT_GT(norm2(z), 0.0) << name;
  }
}

// ----------------------------------------------------------- SolveHandle

TEST(SolveHandle, UnknownNamesThrowAndLeaveHandleUsable) {
  SolveHandle h;
  EXPECT_THROW(h.set_solver("no-such-solver"), std::out_of_range);
  EXPECT_THROW(h.set_preconditioner("no-such-prec"), std::out_of_range);
  EXPECT_THROW(SolveHandle("cg", "no-such-prec"), std::out_of_range);
  // The failed sets left the defaults in place.
  EXPECT_EQ(h.solver_name(), "cg");
  EXPECT_EQ(h.preconditioner_name(), "none");
  const graph::CrsMatrix& a = mesh_matrix();
  const std::vector<scalar_t> b = random_vector(a.num_rows, 4);
  std::vector<scalar_t> x(static_cast<std::size_t>(a.num_rows), 0);
  EXPECT_TRUE(h.solve(a, b, x).converged);
}

TEST(SolveHandle, EverySolverPreconditionerPairConverges) {
  const graph::CrsMatrix& a = mesh_matrix();
  const std::vector<scalar_t> b = random_vector(a.num_rows, 5);
  IterOptions opts;
  opts.tolerance = 1e-8;
  opts.max_iterations = 600;
  for (const std::string& sname : solvers().names()) {
    for (const std::string& pname : preconditioners().names()) {
      SolveHandle h(sname, pname);
      std::vector<scalar_t> x(static_cast<std::size_t>(a.num_rows), 0);
      const IterResult& r = h.solve(a, b, x, opts);
      EXPECT_TRUE(r.converged) << sname << "+" << pname;
      EXPECT_LE(residual_norm(a, b, x) / norm2(b), 1e-6) << sname << "+" << pname;
    }
  }
}

TEST(SolveHandle, WarmSolvesAreAllocationFreeAndBitIdentical) {
  const graph::CrsMatrix& a = mesh_matrix();
  const std::vector<scalar_t> b = random_vector(a.num_rows, 6);
  IterOptions opts;
  opts.track_history = true;  // history storage is part of the contract
  for (const std::string& sname : solvers().names()) {
    // Solvers that ignore preconditioning never build one ("chebyshev").
    const std::uint64_t expect_setups =
        solvers().find(sname).uses_preconditioner ? 1u : 0u;
    SolveHandle h(sname, "jacobi");
    std::vector<scalar_t> x(static_cast<std::size_t>(a.num_rows), 0);
    h.solve(a, b, x, opts);
    const std::vector<scalar_t> first_x = x;
    const int first_iters = h.result().iterations;
    const std::size_t warm_capacity = h.scratch_bytes();
    EXPECT_GT(warm_capacity, 0u) << sname;
    const std::uint64_t cold_grows = h.stats().scratch_grows;
    EXPECT_GE(cold_grows, 1u) << sname;

    for (int rep = 0; rep < 3; ++rep) {
      std::fill(x.begin(), x.end(), 0.0);
      const IterResult& again = h.solve(a, b, x, opts);
      // Zero-allocation warm-solve contract: capacity and the growth
      // counter are both frozen...
      EXPECT_EQ(h.scratch_bytes(), warm_capacity) << sname << " rep=" << rep;
      EXPECT_EQ(h.stats().scratch_grows, cold_grows) << sname << " rep=" << rep;
      // ...the preconditioner was not rebuilt...
      EXPECT_EQ(h.stats().prec_setups, expect_setups) << sname << " rep=" << rep;
      // ...and the results are bit-identical.
      EXPECT_EQ(x, first_x) << sname << " rep=" << rep;
      EXPECT_EQ(again.iterations, first_iters) << sname << " rep=" << rep;
    }
  }
}

TEST(SolveHandle, InvalidateDropsChebyshevSetupState) {
  // invalidate() must reach *all* matrix-dependent setup state, including
  // the workspace-cached Chebyshev smoother — the escape hatch for a
  // matrix whose values changed in place (same address and structure).
  const graph::CrsMatrix& a = mesh_matrix();
  const std::vector<scalar_t> b = random_vector(a.num_rows, 15);
  SolveHandle h("chebyshev", "none");
  std::vector<scalar_t> x(static_cast<std::size_t>(a.num_rows), 0);
  h.solve(a, b, x);
  const std::uint64_t cold_grows = h.stats().scratch_grows;

  std::fill(x.begin(), x.end(), 0.0);
  h.solve(a, b, x);
  EXPECT_EQ(h.stats().scratch_grows, cold_grows);  // warm: smoother reused

  h.invalidate();
  std::fill(x.begin(), x.end(), 0.0);
  h.solve(a, b, x);
  // The smoother rebuild is an allocation event even though its memory is
  // outside scratch_bytes() — grow_events catches it.
  EXPECT_EQ(h.stats().scratch_grows, cold_grows + 1);
}

TEST(SolveHandle, SmallerMatrixReusesCapacityOfLarger) {
  // Size-compatible warm solves: after solving on the big matrix, a solve
  // on a smaller one must fit entirely in the existing scratch. "jacobi"
  // rebuilds its (matrix-sized) state, but the handle's iteration scratch
  // does not grow.
  SolveHandle h("gmres", "jacobi");
  const std::vector<scalar_t> b_big = random_vector(rgg_matrix().num_rows, 7);
  std::vector<scalar_t> x_big(static_cast<std::size_t>(rgg_matrix().num_rows), 0);
  h.solve(rgg_matrix(), b_big, x_big);
  const std::size_t big_capacity = h.scratch_bytes();
  const std::uint64_t big_grows = h.stats().scratch_grows;

  const std::vector<scalar_t> b_small = random_vector(mesh_matrix().num_rows, 8);
  std::vector<scalar_t> x_small(static_cast<std::size_t>(mesh_matrix().num_rows), 0);
  const IterResult& r = h.solve(mesh_matrix(), b_small, x_small);
  EXPECT_TRUE(r.converged);
  EXPECT_EQ(h.scratch_bytes(), big_capacity);
  EXPECT_EQ(h.stats().scratch_grows, big_grows);
  EXPECT_EQ(h.stats().prec_setups, 2u);  // one per matrix
}

TEST(SolveHandle, TelemetryCountersAccumulate) {
  const graph::CrsMatrix& a = mesh_matrix();
  const std::vector<scalar_t> b = random_vector(a.num_rows, 9);
  SolveHandle h("cg", "gs");
  EXPECT_EQ(h.stats().solves, 0u);
  EXPECT_EQ(h.stats().prec_setups, 0u);

  std::vector<scalar_t> x(static_cast<std::size_t>(a.num_rows), 0);
  std::uint64_t expect_iters = 0;
  for (int rep = 1; rep <= 3; ++rep) {
    std::fill(x.begin(), x.end(), 0.0);
    const IterResult& r = h.solve(a, b, x);
    expect_iters += static_cast<std::uint64_t>(r.iterations);
    EXPECT_EQ(h.stats().solves, static_cast<std::uint64_t>(rep));
    EXPECT_EQ(h.stats().iterations, expect_iters);
    EXPECT_EQ(h.stats().converged, static_cast<std::uint64_t>(rep));
    EXPECT_EQ(h.stats().prec_setups, 1u);
  }

  // invalidate() forces one rebuild on the next solve.
  h.invalidate();
  std::fill(x.begin(), x.end(), 0.0);
  h.solve(a, b, x);
  EXPECT_EQ(h.stats().prec_setups, 2u);
  EXPECT_EQ(h.stats().solves, 4u);
}

TEST(SolveHandle, ResidualHistoryIsRecorded) {
  const graph::CrsMatrix& a = mesh_matrix();
  const std::vector<scalar_t> b = random_vector(a.num_rows, 10);
  SolveHandle h("cg", "none");
  IterOptions opts;
  opts.track_history = true;
  opts.tolerance = 1e-10;
  std::vector<scalar_t> x(static_cast<std::size_t>(a.num_rows), 0);
  const IterResult& r = h.solve(a, b, x, opts);
  ASSERT_EQ(r.history.size(), static_cast<std::size_t>(r.iterations) + 1);
  EXPECT_LT(r.history.back(), r.history.front());
  EXPECT_LE(r.history.back(), opts.tolerance);
}

TEST(SolveHandle, MatchesFreeFunctionShims) {
  // The handle adds validation and attempt records around the registry
  // solver, nothing numeric: its solve equals the bare solver core run on
  // a fresh workspace.
  const graph::CrsMatrix& a = mesh_matrix();
  const std::vector<scalar_t> b = random_vector(a.num_rows, 11);
  IterOptions opts;
  opts.tolerance = 1e-9;

  {
    SolveHandle h("cg", "none");
    std::vector<scalar_t> xh(static_cast<std::size_t>(a.num_rows), 0);
    std::vector<scalar_t> xf = xh;
    const IterResult& rh = h.solve(a, b, xh, opts);
    SolveWorkspace ws;
    IterResult rf;
    solvers().find("cg").solve(a, b, xf, 1, opts, nullptr, ws, std::span<IterResult>(&rf, 1),
                               {});
    EXPECT_EQ(xh, xf);  // bitwise
    EXPECT_EQ(rh.iterations, rf.iterations);
  }
  {
    SolveHandle h("gmres", "gs");
    std::vector<scalar_t> xh(static_cast<std::size_t>(a.num_rows), 0);
    std::vector<scalar_t> xf = xh;
    const IterResult& rh = h.solve(a, b, xh, opts);
    PointGsPreconditioner prec(a);  // the registry's "gs" at default sweeps
    SolveWorkspace ws;
    IterResult rf;
    solvers().find("gmres").solve(a, b, xf, 1, opts, &prec, ws,
                                  std::span<IterResult>(&rf, 1), {});
    EXPECT_EQ(xh, xf);
    EXPECT_EQ(rh.iterations, rf.iterations);
  }
}

TEST(SolveWorkspace, PoolSlotsStartOnCacheLines) {
  // The K-wide kernels load whole rows of these buffers; at K = 8 a row of
  // doubles is one cache line only when the buffer starts on one. Small
  // and large (mmap-backed) sizes, fresh and grown slots.
  SolveWorkspace ws;
  for (const std::size_t n : {std::size_t{3}, std::size_t{80000}, std::size_t{160000}}) {
    for (std::size_t slot = 0; slot < 3; ++slot) {
      const std::span<scalar_t> v = ws.vec(slot, n);
      EXPECT_EQ(reinterpret_cast<std::uintptr_t>(v.data()) % par::lane_buffer_align, 0u)
          << "slot " << slot << " n " << n;
    }
  }
}

TEST(SolveHandle, AmgComposesWithEveryRegisteredCoarsener) {
  const graph::CrsMatrix& a = mesh_matrix();
  const std::vector<scalar_t> b = random_vector(a.num_rows, 12);
  IterOptions opts;
  opts.tolerance = 1e-10;
  opts.max_iterations = 100;
  for (const std::string& coarsener : core::coarseners().names()) {
    SolveHandle h("cg", "amg");
    h.prec_options().amg.hierarchy.min_coarse_size = 200;
    h.prec_options().amg.hierarchy.coarsener = coarsener;
    std::vector<scalar_t> x(static_cast<std::size_t>(a.num_rows), 0);
    const IterResult& r = h.solve(a, b, x, opts);
    EXPECT_TRUE(r.converged) << "amg coarsener=" << coarsener;
    // The hierarchy really was built through the named coarsener.
    ASSERT_NE(h.preconditioner(), nullptr);
    EXPECT_EQ(h.preconditioner()->name(), "sa-amg(" + coarsener + ")");
  }
}

TEST(SolveHandle, ClusterGsComposesWithRegistryCoarseners) {
  const graph::CrsMatrix& a = mesh_matrix();
  const std::vector<scalar_t> b = random_vector(a.num_rows, 13);
  IterOptions opts;
  opts.tolerance = 1e-8;
  opts.max_iterations = 300;
  for (const std::string& coarsener : {"mis2", "hem"}) {
    SolveHandle h("gmres", "cluster-gs");
    h.prec_options().coarsener = coarsener;
    std::vector<scalar_t> x(static_cast<std::size_t>(a.num_rows), 0);
    EXPECT_TRUE(h.solve(a, b, x, opts).converged) << "cluster-gs coarsener=" << coarsener;
  }
}

TEST(SolveHandle, OptionsContextOverridesHandleContext) {
  // A handle pinned to one context solves under opts.ctx when set; results
  // stay bit-identical (the determinism contract makes this observable
  // only through identical outputs, so assert exactly that).
  const graph::CrsMatrix& a = mesh_matrix();
  const std::vector<scalar_t> b = random_vector(a.num_rows, 14);
  SolveHandle serial_h("cg", "jacobi", Context::serial());
  std::vector<scalar_t> x1(static_cast<std::size_t>(a.num_rows), 0);
  serial_h.solve(a, b, x1);

  SolveHandle default_h("cg", "jacobi");
  IterOptions opts;
  opts.ctx = Context::serial();
  std::vector<scalar_t> x2(static_cast<std::size_t>(a.num_rows), 0);
  default_h.solve(a, b, x2, opts);
  EXPECT_EQ(x1, x2);
}

}  // namespace
}  // namespace parmis::solver
