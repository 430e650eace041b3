/// \file test_resilience.cpp
/// \brief Tests for the resilience layer: the failure taxonomy, the
/// fallback-policy grammar, the in-loop IterGuard, breakdown/stagnation/
/// timeout/non-finite detection through `SolveHandle`, classified setup
/// throws, chain recovery, cross-backend determinism of the whole recovery
/// path, and the fault-injection registry (check builds) / its zero-cost
/// release contract (release builds).

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "check/digest.hpp"
#include "check/validate.hpp"
#include "graph/builders.hpp"
#include "graph/generators.hpp"
#include "obs/timer.hpp"
#include "parallel/context.hpp"
#include "resilience/fault.hpp"
#include "resilience/guard.hpp"
#include "resilience/policy.hpp"
#include "resilience/status.hpp"
#include "solver/amg.hpp"
#include "solver/dense_lu.hpp"
#include "solver/handle.hpp"
#include "solver/jacobi.hpp"
#include "solver/vector_ops.hpp"
#include "test_utils.hpp"

namespace parmis {
namespace {

using resilience::FailureInfo;
using resilience::FallbackPolicy;
using resilience::SolveError;
using resilience::SolveStatus;

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
constexpr double kInf = std::numeric_limits<double>::infinity();

// ------------------------------------------------------------- taxonomy

TEST(ResilienceTaxonomy, NamesAreStableAndUnique) {
  const std::vector<SolveStatus>& all = resilience::all_statuses();
  ASSERT_EQ(all.size(), 9u);
  std::vector<std::string> names;
  for (SolveStatus s : all) names.emplace_back(resilience::to_string(s));
  for (std::size_t i = 0; i < names.size(); ++i) {
    EXPECT_FALSE(names[i].empty());
    for (std::size_t j = i + 1; j < names.size(); ++j) EXPECT_NE(names[i], names[j]);
  }
  // The spellings are part of the --json / CI contract; pin a few.
  EXPECT_STREQ(resilience::to_string(SolveStatus::Converged), "converged");
  EXPECT_STREQ(resilience::to_string(SolveStatus::MaxIterations), "max_iterations");
  EXPECT_STREQ(resilience::to_string(SolveStatus::NonFiniteInput), "non_finite_input");
  EXPECT_FALSE(resilience::is_failure(SolveStatus::Converged));
  for (SolveStatus s : all) {
    if (s != SolveStatus::Converged) EXPECT_TRUE(resilience::is_failure(s));
  }
}

TEST(ResilienceTaxonomy, SolveErrorCarriesClassification) {
  const FailureInfo info{"setup", "setup.lu.singular_pivot", -1, 7};
  try {
    throw SolveError(SolveStatus::SingularOperator, info, "pivot 7 is singular");
  } catch (const std::runtime_error& e) {  // pre-taxonomy catch sites still work
    const auto* classified = dynamic_cast<const SolveError*>(&e);
    ASSERT_NE(classified, nullptr);
    EXPECT_EQ(classified->status(), SolveStatus::SingularOperator);
    EXPECT_STREQ(classified->info().reason, "setup.lu.singular_pivot");
    EXPECT_EQ(classified->info().index, 7);
    EXPECT_STREQ(e.what(), "pivot 7 is singular");
  }
}

// ------------------------------------------------------- fallback policy

TEST(ResilienceFallbackPolicy, ParseRoundTrip) {
  const FallbackPolicy p = FallbackPolicy::parse("amg+cg, jacobi+cg ,none+gmres");
  ASSERT_EQ(p.chain.size(), 3u);
  EXPECT_EQ(p.chain[0].prec, "amg");
  EXPECT_EQ(p.chain[0].solver, "cg");
  EXPECT_EQ(p.chain[2].prec, "none");
  EXPECT_EQ(p.chain[2].solver, "gmres");
  EXPECT_EQ(p.to_string(), "amg+cg,jacobi+cg,none+gmres");
  EXPECT_TRUE(FallbackPolicy::parse("").empty());
  EXPECT_EQ(p.budget(), 3u);
  FallbackPolicy capped = p;
  capped.max_attempts = 2;
  EXPECT_EQ(capped.budget(), 2u);
  capped.max_attempts = 9;
  EXPECT_EQ(capped.budget(), 3u);
}

TEST(ResilienceFallbackPolicy, MalformedSpecThrows) {
  EXPECT_THROW((void)FallbackPolicy::parse("cg"), std::invalid_argument);
  EXPECT_THROW((void)FallbackPolicy::parse("+cg"), std::invalid_argument);
  EXPECT_THROW((void)FallbackPolicy::parse("amg+"), std::invalid_argument);
  EXPECT_THROW((void)FallbackPolicy::parse("amg+cg+extra"), std::invalid_argument);
}

TEST(ResilienceFallbackPolicy, OnClauseParsesAndRoundTrips) {
  const FallbackPolicy p =
      FallbackPolicy::parse("amg+cg on:breakdown|setup_failed, jacobi+cg ,none+gmres on:timeout");
  ASSERT_EQ(p.chain.size(), 3u);
  EXPECT_EQ(p.chain[0].prec, "amg");
  EXPECT_EQ(p.chain[0].solver, "cg");
  ASSERT_EQ(p.chain[0].retry_on.size(), 2u);
  EXPECT_TRUE(p.chain[0].allows_retry(SolveStatus::Breakdown));
  EXPECT_TRUE(p.chain[0].allows_retry(SolveStatus::SetupFailed));
  EXPECT_FALSE(p.chain[0].allows_retry(SolveStatus::Stagnated));
  // No clause = the unconditional historical behavior.
  EXPECT_TRUE(p.chain[1].retry_on.empty());
  EXPECT_TRUE(p.chain[1].allows_retry(SolveStatus::Stagnated));
  ASSERT_EQ(p.chain[2].retry_on.size(), 1u);
  EXPECT_EQ(p.chain[2].retry_on[0], SolveStatus::Timeout);
  EXPECT_EQ(p.to_string(), "amg+cg on:breakdown|setup_failed,jacobi+cg,none+gmres on:timeout");
  // Round trip through parse again: the grammar is closed under to_string.
  EXPECT_EQ(FallbackPolicy::parse(p.to_string()).to_string(), p.to_string());
}

TEST(ResilienceFallbackPolicy, OnClauseRejectsUnknownStatus) {
  EXPECT_THROW((void)FallbackPolicy::parse("amg+cg on:explode"), std::invalid_argument);
  EXPECT_THROW((void)FallbackPolicy::parse("amg+cg on:"), std::invalid_argument);
  EXPECT_FALSE(resilience::status_from_string("explode").has_value());
  ASSERT_TRUE(resilience::status_from_string("breakdown").has_value());
  EXPECT_EQ(*resilience::status_from_string("breakdown"), SolveStatus::Breakdown);
  // Every taxonomy spelling round-trips through the inverse.
  for (SolveStatus s : resilience::all_statuses()) {
    ASSERT_TRUE(resilience::status_from_string(resilience::to_string(s)).has_value());
    EXPECT_EQ(*resilience::status_from_string(resilience::to_string(s)), s);
  }
}

// ------------------------------------------------------------ iter guard

TEST(ResilienceIterGuard, ClassifiesResidualSequences) {
  FailureInfo info;
  {
    resilience::IterGuard g({});
    EXPECT_EQ(g.check(kNaN, 4, info), SolveStatus::Breakdown);
    EXPECT_STREQ(info.reason, "solve.residual.nonfinite");
    EXPECT_EQ(info.iteration, 4);
  }
  {
    resilience::IterGuard g({0, 1e3, 0, 1e-3});
    EXPECT_EQ(g.check(1.0, 0, info), SolveStatus::Converged);
    EXPECT_EQ(g.check(0.5, 1, info), SolveStatus::Converged);
    EXPECT_EQ(g.check(2e3, 2, info), SolveStatus::Diverged);
    EXPECT_STREQ(info.reason, "solve.residual.diverged");
  }
  {
    resilience::IterGuard g({0, 0, 3, 1e-3});  // stagnation window 3, no divergence guard
    EXPECT_EQ(g.check(1.0, 0, info), SolveStatus::Converged);
    EXPECT_EQ(g.check(1.0, 1, info), SolveStatus::Converged);
    EXPECT_EQ(g.check(1.0, 2, info), SolveStatus::Converged);
    EXPECT_EQ(g.check(1.0, 3, info), SolveStatus::Stagnated);
    EXPECT_STREQ(info.reason, "solve.residual.stagnated");
  }
  {
    resilience::IterGuard g({0.05, 0, 0, 1e-3});  // 0.05 ms deadline
    SolveStatus s = SolveStatus::Converged;
    for (int it = 0; it < 100000000 && s == SolveStatus::Converged; ++it) {
      s = g.check(0.5, it, info);
    }
    EXPECT_EQ(s, SolveStatus::Timeout);
    EXPECT_STREQ(info.reason, "solve.deadline");
  }
}

// -------------------------------------------- detection via SolveHandle

TEST(ResilienceDetection, CgBreaksDownOnIndefiniteSystem) {
  // A = diag(1, -1), b = (1, 1), x0 = 0: p^T A p = 0 exactly on the first
  // iteration — the textbook CG breakdown.
  const graph::CrsMatrix a = graph::matrix_from_coo(2, 2, {{0, 0, 1}, {1, 1, -1}});
  const std::vector<scalar_t> b{1, 1};
  std::vector<scalar_t> x(2, 0);
  solver::SolveHandle h;
  const solver::IterResult& r = h.solve(a, b, x);
  EXPECT_EQ(r.status, SolveStatus::Breakdown);
  EXPECT_FALSE(r.converged);
  EXPECT_STREQ(r.failure.reason, "solver.cg.breakdown.pap");
  EXPECT_STREQ(r.failure.stage, "iterate");
  ASSERT_EQ(r.attempts.size(), 1u);
  EXPECT_EQ(r.attempts[0].status, SolveStatus::Breakdown);
  EXPECT_EQ(h.stats().failures, 1u);
}

TEST(ResilienceDetection, GmresStagnatesOnSingularSystem) {
  // Pure graph Laplacian (no diagonal shift) is singular; a generic b has a
  // component in the null space, so the residual floors far above tol and
  // the stagnation guard is the only way out before max_iterations.
  const graph::CrsMatrix a = graph::laplacian_matrix(test::cycle_graph(64), 0.0);
  const std::vector<scalar_t> b = solver::random_vector(a.num_rows, 3);
  std::vector<scalar_t> x(static_cast<std::size_t>(a.num_rows), 0);
  solver::SolveHandle h("gmres");
  solver::IterOptions opts;
  opts.max_iterations = 300;
  opts.stagnation_window = 10;
  const solver::IterResult& r = h.solve(a, b, x, opts);
  EXPECT_EQ(r.status, SolveStatus::Stagnated);
  EXPECT_STREQ(r.failure.reason, "solve.residual.stagnated");
  EXPECT_LT(r.iterations, opts.max_iterations);
  EXPECT_TRUE(check::all_finite(x));
}

TEST(ResilienceDetection, NonFiniteInputRejectedUpFront) {
  const graph::CrsMatrix a = graph::laplacian_matrix(test::path_graph(8), 1.0);
  std::vector<scalar_t> b(8, 1.0), x(8, 0.0);
  solver::SolveHandle h;

  b[3] = kNaN;
  const solver::IterResult& rb = h.solve(a, b, x);
  EXPECT_EQ(rb.status, SolveStatus::NonFiniteInput);
  EXPECT_STREQ(rb.failure.reason, "input.b.nonfinite");
  EXPECT_STREQ(rb.failure.stage, "input");
  EXPECT_EQ(rb.failure.index, 3);
  EXPECT_EQ(rb.iterations, 0);
  EXPECT_TRUE(rb.attempts.empty());  // no attempt ran

  b[3] = 1.0;
  x[5] = kInf;
  const solver::IterResult& rx = h.solve(a, b, x);
  EXPECT_EQ(rx.status, SolveStatus::NonFiniteInput);
  EXPECT_STREQ(rx.failure.reason, "input.x0.nonfinite");
  EXPECT_EQ(rx.failure.index, 5);
  EXPECT_EQ(h.stats().failures, 2u);

  x[5] = 0.0;
  const solver::IterResult& ok = h.solve(a, b, x);
  EXPECT_EQ(ok.status, SolveStatus::Converged);
}

TEST(ResilienceDetection, TimeoutReturnsFiniteBestIterate) {
  const graph::CrsMatrix a = graph::laplace2d(64, 64);
  const std::vector<scalar_t> b = solver::random_vector(a.num_rows, 7);
  std::vector<scalar_t> x(static_cast<std::size_t>(a.num_rows), 0);
  solver::SolveHandle h;
  solver::IterOptions opts;
  opts.tolerance = 1e-30;  // unreachable: the deadline is the only exit
  opts.max_iterations = 100000000;
  opts.timeout_ms = 5;
  const solver::IterResult& r = h.solve(a, b, x, opts);
  EXPECT_EQ(r.status, SolveStatus::Timeout);
  EXPECT_STREQ(r.failure.reason, "solve.deadline");
  EXPECT_TRUE(check::all_finite(x));
  EXPECT_TRUE(std::isfinite(r.relative_residual));
}

TEST(ResilienceDetection, MaxIterationsAndZeroRhsStatuses) {
  const graph::CrsMatrix a = graph::laplace2d(16, 16);
  const std::vector<scalar_t> b = solver::random_vector(a.num_rows, 1);
  std::vector<scalar_t> x(static_cast<std::size_t>(a.num_rows), 0);
  solver::SolveHandle h;
  solver::IterOptions opts;
  opts.max_iterations = 2;
  opts.tolerance = 1e-12;
  EXPECT_EQ(h.solve(a, b, x, opts).status, SolveStatus::MaxIterations);

  const std::vector<scalar_t> zero(b.size(), 0.0);
  std::fill(x.begin(), x.end(), 1.0);
  const solver::IterResult& r = h.solve(a, zero, x, opts);
  EXPECT_EQ(r.status, SolveStatus::Converged);
  for (scalar_t v : x) EXPECT_EQ(v, 0.0);
}

// -------------------------------------------------------- fallback chain

TEST(ResilienceFallback, ChainRecoversFromBreakdown) {
  // CG breaks down on the indefinite system; the chain's GMRES entry
  // retries from the original x0 and solves it exactly: x = (1, -1).
  const graph::CrsMatrix a = graph::matrix_from_coo(2, 2, {{0, 0, 1}, {1, 1, -1}});
  const std::vector<scalar_t> b{1, 1};
  std::vector<scalar_t> x(2, 0);
  solver::SolveHandle h;
  h.set_fallback("none+cg,none+gmres");
  const solver::IterResult& r = h.solve(a, b, x);
  EXPECT_EQ(r.status, SolveStatus::Converged);
  EXPECT_TRUE(r.converged);
  ASSERT_EQ(r.attempts.size(), 2u);
  EXPECT_EQ(r.attempts[0].solver, "cg");
  EXPECT_EQ(r.attempts[0].status, SolveStatus::Breakdown);
  EXPECT_EQ(r.attempts[1].solver, "gmres");
  EXPECT_EQ(r.attempts[1].status, SolveStatus::Converged);
  EXPECT_NEAR(x[0], 1.0, 1e-10);
  EXPECT_NEAR(x[1], -1.0, 1e-10);
  EXPECT_EQ(h.stats().fallback_attempts, 1u);
  EXPECT_EQ(h.stats().failures, 0u);  // the chain as a whole succeeded
}

TEST(ResilienceFallback, OnClauseGatesTheChain) {
  // Same indefinite system as above: CG's status is Breakdown. A chain
  // whose first entry only falls through on stagnation must STOP after
  // the breakdown — GMRES never runs and the failure is reported.
  const graph::CrsMatrix a = graph::matrix_from_coo(2, 2, {{0, 0, 1}, {1, 1, -1}});
  const std::vector<scalar_t> b{1, 1};
  {
    std::vector<scalar_t> x(2, 0);
    solver::SolveHandle h;
    h.set_fallback("none+cg on:stagnated,none+gmres");
    const solver::IterResult& r = h.solve(a, b, x);
    EXPECT_EQ(r.status, SolveStatus::Breakdown);
    ASSERT_EQ(r.attempts.size(), 1u);
    EXPECT_EQ(h.stats().fallback_attempts, 0u);
  }
  // The same chain gated on breakdown proceeds and recovers.
  {
    std::vector<scalar_t> x(2, 0);
    solver::SolveHandle h;
    h.set_fallback("none+cg on:breakdown,none+gmres");
    const solver::IterResult& r = h.solve(a, b, x);
    EXPECT_EQ(r.status, SolveStatus::Converged);
    ASSERT_EQ(r.attempts.size(), 2u);
    EXPECT_NEAR(x[0], 1.0, 1e-10);
    EXPECT_NEAR(x[1], -1.0, 1e-10);
  }
}

TEST(ResilienceFallback, SpecValidatedAgainstRegistries) {
  solver::SolveHandle h;
  EXPECT_THROW(h.set_fallback("bogus+cg"), std::out_of_range);
  EXPECT_THROW(h.set_fallback("none+bogus"), std::out_of_range);
  EXPECT_THROW(h.set_fallback("cg"), std::invalid_argument);
  h.set_fallback("none+gmres");
  EXPECT_FALSE(h.fallback().empty());
  h.set_fallback("");
  EXPECT_TRUE(h.fallback().empty());
}

TEST(ResilienceFallback, OutcomeBitIdenticalAcrossContexts) {
  // The whole failure-then-fallback path — detection, attempt sequence, and
  // the final iterate — must not depend on backend, thread count, or
  // schedule. Run the same chained solve under three contexts and compare
  // attempt statuses and the bitwise digest of x.
  const graph::CrsMatrix a = graph::laplacian_matrix(test::cycle_graph(200), 0.0);
  const std::vector<scalar_t> b = solver::random_vector(a.num_rows, 11);

  Context omp_static = Context::openmp(4);
  omp_static.schedule = par::Schedule::Static;
  Context omp_edge = Context::openmp(4);
  omp_edge.schedule = par::Schedule::EdgeBalanced;
  const std::vector<Context> contexts{Context::serial(), omp_static, omp_edge};

  std::vector<std::uint64_t> digests;
  std::vector<std::vector<SolveStatus>> sequences;
  for (const Context& ctx : contexts) {
    solver::SolveHandle h(ctx);
    h.set_fallback("none+cg,none+gmres");
    solver::IterOptions opts;
    opts.max_iterations = 80;
    opts.stagnation_window = 8;
    std::vector<scalar_t> x(static_cast<std::size_t>(a.num_rows), 0);
    const solver::IterResult& r = h.solve(a, b, x, opts);
    EXPECT_TRUE(resilience::is_failure(r.status));  // singular system: chain exhausts
    std::vector<SolveStatus> seq;
    for (const solver::AttemptInfo& at : r.attempts) seq.push_back(at.status);
    sequences.push_back(std::move(seq));
    digests.push_back(check::digest(x));
  }
  for (std::size_t i = 1; i < contexts.size(); ++i) {
    EXPECT_EQ(sequences[i], sequences[0]);
    EXPECT_EQ(digests[i], digests[0]) << "context " << i << " produced different bits";
  }
}

// ------------------------------------------------ classified setup throws

TEST(ResilienceSetup, JacobiZeroDiagonalClassified) {
  // Off-diagonal-only matrix: every diagonal entry is (implicitly) zero.
  const graph::CrsMatrix a = graph::matrix_from_coo(2, 2, {{0, 1, 1}, {1, 0, 1}});
  try {
    (void)solver::inverted_diagonal(a);
    FAIL() << "expected SolveError";
  } catch (const SolveError& e) {
    EXPECT_EQ(e.status(), SolveStatus::SingularOperator);
    EXPECT_STREQ(e.info().reason, "setup.jacobi.zero_diagonal");
    EXPECT_STREQ(e.info().stage, "setup");
    EXPECT_EQ(e.info().index, 0);  // first offending row
  }
}

TEST(ResilienceSetup, DenseLuSingularPivotClassified) {
  // Rank-1 matrix: elimination zeroes the second column -> pivot 1 is 0.
  const graph::CrsMatrix a =
      graph::matrix_from_coo(2, 2, {{0, 0, 1}, {0, 1, 2}, {1, 0, 2}, {1, 1, 4}});
  try {
    solver::DenseLU lu(a);
    FAIL() << "expected SolveError";
  } catch (const SolveError& e) {
    EXPECT_EQ(e.status(), SolveStatus::SingularOperator);
    EXPECT_STREQ(e.info().reason, "setup.lu.singular_pivot");
    EXPECT_EQ(e.info().index, 1);
  }
}

TEST(ResilienceSetup, SingularOperatorRecoverableThroughChain) {
  // A Jacobi-preconditioned attempt on a zero-diagonal matrix fails in
  // setup with SingularOperator; the unpreconditioned GMRES entry solves
  // the (permutation) system anyway.
  const graph::CrsMatrix a = graph::matrix_from_coo(2, 2, {{0, 1, 1}, {1, 0, 1}});
  const std::vector<scalar_t> b{5, 7};
  std::vector<scalar_t> x(2, 0);
  solver::SolveHandle h;
  h.set_fallback("jacobi+gmres,none+gmres");
  const solver::IterResult& r = h.solve(a, b, x);
  ASSERT_EQ(r.attempts.size(), 2u);
  EXPECT_EQ(r.attempts[0].status, SolveStatus::SingularOperator);
  EXPECT_EQ(r.attempts[1].status, SolveStatus::Converged);
  EXPECT_EQ(r.status, SolveStatus::Converged);
  EXPECT_NEAR(x[0], 7.0, 1e-10);
  EXPECT_NEAR(x[1], 5.0, 1e-10);
}

#if PARMIS_FAULT_ENABLED

// ------------------------------------------- fault injection (check build)

/// Every fault test starts and ends disarmed, so no armed point can leak
/// into an unrelated test (the registry is process-global).
class ResilienceFault : public ::testing::Test {
 protected:
  void SetUp() override { resilience::disarm_faults(); }
  void TearDown() override { resilience::disarm_faults(); }
};

TEST_F(ResilienceFault, RegistryIsDeterministicAndOneShot) {
  resilience::arm_fault("t.point", 2);
  EXPECT_TRUE(resilience::faults_armed());
  EXPECT_FALSE(resilience::fault_fires("t.point"));  // hit 1
  EXPECT_TRUE(resilience::fault_fires("t.point"));   // hit 2: fires...
  EXPECT_FALSE(resilience::fault_fires("t.point"));  // ...and is spent
  EXPECT_EQ(resilience::fault_hits("t.point"), 3u);

  resilience::disarm_faults();
  EXPECT_EQ(resilience::arm_faults_spec("a@3,b"), 2);
  EXPECT_TRUE(resilience::faults_armed());
  EXPECT_THROW((void)resilience::arm_faults_spec("x@"), std::invalid_argument);
  EXPECT_THROW((void)resilience::arm_faults_spec("x@zero"), std::invalid_argument);
  EXPECT_THROW((void)resilience::arm_faults_spec("@2"), std::invalid_argument);

  const std::vector<const char*>& known = resilience::known_fault_points();
  EXPECT_GE(known.size(), 10u);
  for (std::size_t i = 0; i < known.size(); ++i) {
    for (std::size_t j = i + 1; j < known.size(); ++j) {
      EXPECT_STRNE(known[i], known[j]);
    }
  }
}

TEST_F(ResilienceFault, InjectedBreakdownRecoversBitIdenticallyAcrossBackends) {
  // The acceptance scenario: a fault-injected first attempt breaks down,
  // the chain recovers, and the recovered solution is bit-identical across
  // backends and schedules (the fault counter advances at serial points).
  const graph::CrsMatrix a = graph::laplace2d(24, 24);
  const std::vector<scalar_t> b = solver::random_vector(a.num_rows, 5);

  Context omp_static = Context::openmp(4);
  omp_static.schedule = par::Schedule::Static;
  const std::vector<Context> contexts{Context::serial(), Context::openmp(4), omp_static};

  std::vector<std::uint64_t> digests;
  for (const Context& ctx : contexts) {
    resilience::disarm_faults();
    resilience::arm_fault("cg.pap", 3);  // break down on CG iteration 3
    solver::SolveHandle h(ctx);
    h.set_fallback("none+cg,none+gmres");
    solver::IterOptions opts;
    opts.tolerance = 1e-10;
    opts.max_iterations = 500;
    std::vector<scalar_t> x(static_cast<std::size_t>(a.num_rows), 0);
    const solver::IterResult& r = h.solve(a, b, x, opts);
    ASSERT_EQ(r.attempts.size(), 2u);
    EXPECT_EQ(r.attempts[0].status, SolveStatus::Breakdown);
    EXPECT_STREQ(r.attempts[0].failure.reason, "solver.cg.breakdown.pap");
    EXPECT_EQ(r.attempts[1].status, SolveStatus::Converged);
    EXPECT_EQ(r.status, SolveStatus::Converged);
    digests.push_back(check::digest(x));
  }
  for (std::size_t i = 1; i < digests.size(); ++i) {
    EXPECT_EQ(digests[i], digests[0]) << "context " << i << " recovered different bits";
  }
}

TEST_F(ResilienceFault, PoisonFaultsClassifiedAsBreakdown) {
  const graph::CrsMatrix a = graph::laplace2d(16, 16);
  const std::vector<scalar_t> b = solver::random_vector(a.num_rows, 2);
  const struct {
    const char* solver;
    const char* fault;
  } cases[] = {{"cg", "cg.poison"}, {"gmres", "gmres.poison"}, {"chebyshev", "chebyshev.poison"}};
  for (const auto& c : cases) {
    resilience::disarm_faults();
    resilience::arm_fault(c.fault, 2);
    solver::SolveHandle h(c.solver);
    std::vector<scalar_t> x(static_cast<std::size_t>(a.num_rows), 0);
    const solver::IterResult& r = h.solve(a, b, x);
    // The NaN is caught either by the residual guard or by a solver's own
    // recurrence check (GMRES sees it first in the Hessenberg update);
    // either way the classification is Breakdown at iterate stage.
    EXPECT_EQ(r.status, SolveStatus::Breakdown) << c.fault;
    EXPECT_STREQ(r.failure.stage, "iterate");
    EXPECT_NE(r.failure.reason[0], '\0');
  }
}

TEST_F(ResilienceFault, DivergenceFaultClassified) {
  const graph::CrsMatrix a = graph::laplace2d(16, 16);
  const std::vector<scalar_t> b = solver::random_vector(a.num_rows, 2);
  resilience::arm_fault("cg.diverge", 2);
  solver::SolveHandle h;
  std::vector<scalar_t> x(static_cast<std::size_t>(a.num_rows), 0);
  const solver::IterResult& r = h.solve(a, b, x);
  EXPECT_EQ(r.status, SolveStatus::Diverged);
  EXPECT_STREQ(r.failure.reason, "solve.residual.diverged");
}

TEST_F(ResilienceFault, WorkspaceAllocationFailureIsSetupFailed) {
  const graph::CrsMatrix a = graph::laplace2d(8, 8);
  const std::vector<scalar_t> b(static_cast<std::size_t>(a.num_rows), 1.0);
  resilience::arm_fault("workspace.alloc");
  solver::SolveHandle h;
  std::vector<scalar_t> x(static_cast<std::size_t>(a.num_rows), 0);
  const solver::IterResult& r = h.solve(a, b, x);
  EXPECT_EQ(r.status, SolveStatus::SetupFailed);
  EXPECT_STREQ(r.failure.reason, "setup.allocation");
  EXPECT_EQ(h.stats().failures, 1u);
}

TEST_F(ResilienceFault, AmgBottomSolveDegradesGracefully) {
  const graph::CrsMatrix a = graph::laplace2d(32, 32);

  std::vector<std::unique_ptr<solver::AmgHierarchy>> hierarchies;
  const auto build = [&] {
    return std::make_unique<solver::AmgHierarchy>(solver::AmgHierarchy::build(a, {}));
  };
  hierarchies.push_back(build());
  EXPECT_STREQ(hierarchies.back()->bottom_solve(), "lu");

  // Coarsest factorization reported singular -> diagonally perturbed LU.
  resilience::arm_fault("amg.coarse_singular");
  hierarchies.push_back(build());
  EXPECT_STREQ(hierarchies.back()->bottom_solve(), "lu-perturbed");

  // Even the perturbed factorization failing -> smoother-only bottom.
  resilience::disarm_faults();
  resilience::arm_fault("amg.coarse_singular");
  resilience::arm_fault("lu.zero_pivot");
  hierarchies.push_back(build());
  EXPECT_STREQ(hierarchies.back()->bottom_solve(), "smoother");

  // All three hierarchies still precondition a convergent CG solve.
  for (std::unique_ptr<solver::AmgHierarchy>& prec : hierarchies) {
    const std::string bottom = prec->bottom_solve();
    solver::SolveHandle h("cg", "amg");
    h.adopt_preconditioner(std::move(prec), a);
    const std::vector<scalar_t> b = solver::random_vector(a.num_rows, 9);
    std::vector<scalar_t> x(static_cast<std::size_t>(a.num_rows), 0);
    solver::IterOptions opts;
    opts.max_iterations = 200;
    EXPECT_TRUE(h.solve(a, b, x, opts).converged) << bottom;
  }
}

TEST_F(ResilienceFault, AmgSetupThrowRecoverableThroughChain) {
  const graph::CrsMatrix a = graph::laplace2d(16, 16);
  const std::vector<scalar_t> b = solver::random_vector(a.num_rows, 4);
  resilience::arm_fault("amg.setup_throw");
  solver::SolveHandle h;
  h.set_fallback("amg+cg,none+cg");
  std::vector<scalar_t> x(static_cast<std::size_t>(a.num_rows), 0);
  const solver::IterResult& r = h.solve(a, b, x);
  ASSERT_EQ(r.attempts.size(), 2u);
  EXPECT_EQ(r.attempts[0].status, SolveStatus::SetupFailed);
  EXPECT_EQ(r.attempts[1].status, SolveStatus::Converged);
  EXPECT_EQ(r.status, SolveStatus::Converged);
}

#else  // !PARMIS_FAULT_ENABLED

// --------------------------------------- release contract: zero-cost sites

TEST(ResilienceFault, CompiledOutSitesNeverFire) {
  // Arming still works (drivers parse --fault uniformly), but a
  // compiled-out site never consults the registry: no hit is recorded and
  // the branch is constant-false.
  resilience::arm_fault("release.site");
  int fired = 0;
  if (PARMIS_FAULT_POINT("release.site")) ++fired;
  EXPECT_EQ(fired, 0);
  EXPECT_EQ(resilience::fault_hits("release.site"), 0u);
  resilience::disarm_faults();
}

TEST(ResilienceFault, MillionDisabledSitesAreFree) {
  // Mirror of the PARMIS_CHECK zero-overhead pin: a million disabled fault
  // points must cost (approximately) nothing.
  obs::Timer timer;
  std::uint64_t fired = 0;
  for (int i = 0; i < 1000000; ++i) {
    if (PARMIS_FAULT_POINT("hot.site")) ++fired;
  }
  const double ms = timer.milliseconds();
  EXPECT_EQ(fired, 0u);
  EXPECT_LT(ms, 500.0) << "disabled fault points are not free";
}

#endif  // PARMIS_FAULT_ENABLED

}  // namespace
}  // namespace parmis
