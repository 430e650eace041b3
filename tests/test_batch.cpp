/// \file test_batch.cpp
/// \brief Batched multi-RHS solving tests: single-RHS vs batch-column
/// bit-identity across backends and schedules, the zero-allocation warm
/// `solve_batch` contract, per-column fault/input isolation, and the
/// batched serving path including the async customize pipeline.

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "check/alloc_guard.hpp"
#include "check/digest.hpp"
#include "graph/generators.hpp"
#include "graph/ops.hpp"
#include "parallel/context.hpp"
#include "resilience/fault.hpp"
#include "resilience/status.hpp"
#include "serve/pipeline.hpp"
#include "serve/replay.hpp"
#include "serve/service.hpp"
#include "solver/handle.hpp"
#include "solver/multivector.hpp"
#include "solver/options.hpp"
#include "solver/vector_ops.hpp"
#include "test_utils.hpp"

namespace parmis {
namespace {

solver::IterOptions tight_opts() {
  solver::IterOptions o;
  o.tolerance = 1e-8;
  o.max_iterations = 500;
  return o;
}

/// Per-column reference: K independent single-RHS solves through
/// `solver_name`, rhs seeds 1..K, x0 = 0. Returns (digest, iterations)
/// per column.
std::vector<std::pair<std::uint64_t, int>> looped_reference(const graph::CrsMatrix& a,
                                                            const std::string& solver_name,
                                                            const std::string& prec, int k,
                                                            const solver::IterOptions& opts) {
  solver::SolveHandle h(solver_name, prec);
  const std::size_t un = static_cast<std::size_t>(a.num_rows);
  std::vector<scalar_t> b(un);
  std::vector<scalar_t> x(un);
  std::vector<std::pair<std::uint64_t, int>> out;
  for (int c = 0; c < k; ++c) {
    solver::random_fill(b, static_cast<std::uint64_t>(1 + c));
    solver::fill(x, 0.0);
    const solver::IterResult& r = h.solve(a, b, x, opts);
    EXPECT_TRUE(r.converged) << solver_name << " column " << c;
    out.emplace_back(check::digest(x), r.iterations);
  }
  return out;
}

/// Two attempt records agree in everything but their wall clock.
void expect_same_attempts(const std::vector<solver::AttemptInfo>& want,
                          const std::vector<solver::AttemptInfo>& got, const std::string& where) {
  ASSERT_EQ(want.size(), got.size()) << where;
  for (std::size_t i = 0; i < want.size(); ++i) {
    const std::string at = where + " attempt " + std::to_string(i);
    EXPECT_EQ(want[i].solver, got[i].solver) << at;
    EXPECT_EQ(want[i].prec, got[i].prec) << at;
    EXPECT_EQ(want[i].status, got[i].status) << at;
    EXPECT_EQ(want[i].iterations, got[i].iterations) << at;
    EXPECT_EQ(want[i].relative_residual, got[i].relative_residual) << at;
    EXPECT_EQ(std::string(want[i].failure.reason), std::string(got[i].failure.reason)) << at;
  }
}

/// The batched rhs multi-vector matching `looped_reference`'s seeds.
std::vector<scalar_t> batched_rhs(const graph::CrsMatrix& a, int k) {
  const std::size_t un = static_cast<std::size_t>(a.num_rows);
  std::vector<scalar_t> bm(un * static_cast<std::size_t>(k));
  std::vector<scalar_t> col(un);
  for (int c = 0; c < k; ++c) {
    solver::random_fill(col, static_cast<std::uint64_t>(1 + c));
    solver::scatter_column(col, a.num_rows, k, c, bm);
  }
  return bm;
}

/// Column c of a `batch_name` batch must be bit-identical to a
/// `single_name` single-RHS solve of that column: same solution bits,
/// iteration count, residual history and taxonomy status — for every
/// preconditioner × backend × thread count × schedule cell. "cg"/"gmres"
/// run one core for `solve` (K = 1) and `solve_batch` (K), every
/// preconditioner one `apply_multi`, and "block-cg"/"block-gmres" are
/// their aliases. The matrix crosses
/// reduce_chunk (17^3 = 4913 rows) so the chunked reduction tree in mv_dot
/// is exercised. K = 3 takes the runtime-width lane loops, K = 17 crosses
/// the 16-lane register group.
void expect_batch_columns_match_single_rhs(const char* single_name, const char* batch_name) {
  const graph::CrsMatrix a = graph::laplace3d(17, 17, 17);
  const std::size_t un = static_cast<std::size_t>(a.num_rows);
  const std::vector<int> widths = {1, 3, 8, 17};
  const int kmax = 17;
  solver::IterOptions opts = tight_opts();
  opts.track_history = true;

  struct Column {
    std::uint64_t digest;
    solver::IterResult result;
  };
  for (const char* pname : {"none", "jacobi", "gs", "cluster-gs", "amg"}) {
    // Reference: one `solve` per column under the default context.
    std::vector<Column> ref;
    {
      solver::SolveHandle h(single_name, pname);
      std::vector<scalar_t> b(un);
      std::vector<scalar_t> x(un);
      for (int c = 0; c < kmax; ++c) {
        solver::random_fill(b, static_cast<std::uint64_t>(1 + c));
        solver::fill(x, 0.0);
        const solver::IterResult& r = h.solve(a, b, x, opts);
        EXPECT_TRUE(r.converged) << single_name << "+" << pname << " column " << c;
        ref.push_back({check::digest(x), r});
      }
    }
    for (const par::Schedule s : {par::Schedule::Static, par::Schedule::EdgeBalanced}) {
      for (const auto& [backend, threads] :
           std::vector<std::pair<par::Backend, int>>{{par::Backend::Serial, 1},
                                                     {par::Backend::OpenMP, 1},
                                                     {par::Backend::OpenMP, 4}}) {
        Context ctx;
        ctx.backend = backend;
        ctx.num_threads = threads;
        ctx.schedule = s;
        solver::SolveHandle h(batch_name, pname, ctx);
        for (const int k : widths) {
          const std::vector<scalar_t> bm = batched_rhs(a, k);
          std::vector<scalar_t> xm(un * static_cast<std::size_t>(k), 0.0);
          std::vector<scalar_t> xc(un);
          const solver::BatchResult& br = h.solve_batch(a, bm, xm, k, opts);
          ASSERT_EQ(k, br.k);
          for (int c = 0; c < k; ++c) {
            const std::size_t uc = static_cast<std::size_t>(c);
            const solver::IterResult& got = br.results[uc];
            const solver::IterResult& want = ref[uc].result;
            const std::string where = std::string(batch_name) + "+" + pname + " k=" +
                                      std::to_string(k) + " col=" + std::to_string(c) +
                                      " backend=" + std::to_string(static_cast<int>(backend)) +
                                      " threads=" + std::to_string(threads) +
                                      " schedule=" + std::to_string(static_cast<int>(s));
            EXPECT_EQ(want.status, got.status) << where;
            EXPECT_EQ(want.iterations, got.iterations) << where;
            EXPECT_EQ(want.history, got.history) << where;
            solver::gather_column(xm, a.num_rows, k, c, std::span<scalar_t>(xc));
            EXPECT_EQ(check::digest_hex(ref[uc].digest), check::digest_hex(check::digest(xc)))
                << where;
          }
        }
      }
    }
  }
}

TEST(Batch, BlockCgMatchesLoopedAcrossBackendsAndSchedules) {
  expect_batch_columns_match_single_rhs("cg", "block-cg");
}

TEST(Batch, BlockGmresMatchesLooped) {
  expect_batch_columns_match_single_rhs("gmres", "block-gmres");
}

TEST(Batch, ChebyshevBatchMatchesSolve) {
  // "chebyshev" is one K-wide core like the Krylov solvers: column c of a
  // batch equals a `solve` of that column in bits, iterations and history.
  // The columns finish at different iterations (179, 180, 180, 185), so
  // the first ones freeze while the rest keep sweeping: a frozen column's
  // lanes of x must not move again. K = 1 and K run the same body, so the
  // digests and iteration counts are also pinned to the values the
  // per-column single-RHS solver produced before the core went K-wide.
  const graph::CrsMatrix a = graph::laplace2d(14, 11);
  const int k = 4;
  const std::size_t un = static_cast<std::size_t>(a.num_rows);
  solver::IterOptions opts = tight_opts();
  opts.track_history = true;
  // Random right-hand sides (seeds 1..3) and a unit spike at the middle row.
  std::vector<scalar_t> bm = batched_rhs(a, k);
  for (std::size_t i = 0; i < un; ++i) bm[i * k + 3] = i == un / 2 ? 1.0 : 0.0;
  const std::vector<std::pair<const char*, int>> pinned = {{"0xd9e1783c56e4042f", 179},
                                                           {"0xdb92f2f1fae49791", 180},
                                                           {"0x8c36d23f91c2e6c3", 180},
                                                           {"0xa414cba967099c71", 185}};

  solver::SolveHandle single("chebyshev", "none");
  solver::SolveHandle batch("chebyshev", "none");
  std::vector<scalar_t> xm(un * k, 0.0);
  const solver::BatchResult& br = batch.solve_batch(a, bm, xm, k, opts);
  std::vector<scalar_t> bc(un);
  std::vector<scalar_t> xc(un);
  for (int c = 0; c < k; ++c) {
    const std::size_t uc = static_cast<std::size_t>(c);
    const std::string where = "col " + std::to_string(c);
    solver::gather_column(bm, a.num_rows, k, c, std::span<scalar_t>(bc));
    std::vector<scalar_t> x(un, 0.0);
    const solver::IterResult& want = single.solve(a, bc, x, opts);
    EXPECT_TRUE(want.converged) << where;
    EXPECT_EQ(pinned[uc].first, check::digest_hex(check::digest(x))) << where;
    EXPECT_EQ(pinned[uc].second, want.iterations) << where;

    const solver::IterResult& got = br.results[uc];
    EXPECT_EQ(want.status, got.status) << where;
    EXPECT_EQ(want.iterations, got.iterations) << where;
    EXPECT_EQ(want.history, got.history) << where;
    solver::gather_column(xm, a.num_rows, k, c, std::span<scalar_t>(xc));
    EXPECT_EQ(pinned[uc].first, check::digest_hex(check::digest(xc))) << where;
  }
}

TEST(Batch, WarmBatchedSolveIsAllocationFree) {
  // n = 1000 <= reduce_chunk so the fused reductions take the
  // no-partials path; after the cold solve sizes every pool, a warm
  // solve_batch must perform zero heap allocations (enforced by the
  // handle's own AllocGuard in check builds, and asserted directly here).
  const graph::CrsMatrix a = graph::laplace3d(10, 10, 10);
  const int k = 4;
  const std::size_t un = static_cast<std::size_t>(a.num_rows);
  const std::vector<scalar_t> bm = batched_rhs(a, k);
  std::vector<scalar_t> xm(un * k);
  const solver::IterOptions opts = tight_opts();

  for (const char* sname : {"block-cg", "block-gmres"}) {
    solver::SolveHandle h(sname, "jacobi");
    solver::fill(xm, 0.0);
    const solver::BatchResult& cold = h.solve_batch(a, bm, xm, k, opts);
    EXPECT_TRUE(cold.all_converged()) << sname;
    const std::uint64_t digest0 = check::digest(xm);

    solver::fill(xm, 0.0);
    check::AllocGuard guard;
    (void)h.solve_batch(a, bm, xm, k, opts);
    if (check::counting_available()) {
      EXPECT_EQ(0u, guard.allocations()) << sname << ": warm batched solve allocated";
    }
    EXPECT_EQ(digest0, check::digest(xm)) << sname << ": warm rerun changed bits";
  }
}

TEST(Batch, NonFiniteColumnIsExcludedAndIsolated) {
  // A NaN in one column's rhs must not leak into its batchmates: the
  // column is excluded up front with NonFiniteInput, its x lanes stay
  // untouched, and the other columns converge to exactly the bits they
  // produce in a clean batch.
  const graph::CrsMatrix a = graph::laplace2d(12, 12);
  const int k = 3;
  const std::size_t un = static_cast<std::size_t>(a.num_rows);
  const solver::IterOptions opts = tight_opts();
  const std::vector<std::pair<std::uint64_t, int>> ref =
      looped_reference(a, "cg", "jacobi", k, opts);

  std::vector<scalar_t> bm = batched_rhs(a, k);
  bm[5 * k + 1] = std::numeric_limits<scalar_t>::quiet_NaN();  // poison column 1
  solver::SolveHandle h("block-cg", "jacobi");
  std::vector<scalar_t> xm(un * k, 0.0);
  const solver::BatchResult& br = h.solve_batch(a, bm, xm, k, opts);

  EXPECT_EQ(resilience::SolveStatus::NonFiniteInput, br.results[1].status);
  EXPECT_FALSE(br.results[1].converged);
  EXPECT_NE(0, br.excluded[1]);
  EXPECT_FALSE(br.all_converged());
  EXPECT_EQ(2, br.converged_count());

  std::vector<scalar_t> xc(un);
  for (const int c : {0, 2}) {
    const std::size_t uc = static_cast<std::size_t>(c);
    EXPECT_TRUE(br.results[uc].converged) << "col " << c;
    solver::gather_column(xm, a.num_rows, k, c, std::span<scalar_t>(xc));
    EXPECT_EQ(ref[uc].first, check::digest(xc)) << "col " << c;
  }
  // The excluded column's lanes were never written: still exactly x0 = 0.
  solver::gather_column(xm, a.num_rows, k, 1, std::span<scalar_t>(xc));
  for (std::size_t i = 0; i < un; ++i) {
    ASSERT_EQ(0.0, xc[i]) << "excluded lane written at row " << i;
  }
}

TEST(Batch, SetupFailuresAreClassifiedPerColumn) {
  // A preconditioner setup that throws is an attempt outcome in a batch
  // exactly as in `solve`: every live column carries the classified
  // status, reason and attempt record, and nothing escapes as an
  // exception. Each handle first converges a tracked warm solve, so the
  // failed attempt must also drop that solve's residual history.
  const graph::CrsMatrix laplace = graph::laplace2d(32, 32);
  graph::CrsMatrix zero_diag = laplace;
  for (offset_t j = zero_diag.row_map[5]; j < zero_diag.row_map[6]; ++j) {
    if (zero_diag.entries[static_cast<std::size_t>(j)] == 5) {
      zero_diag.values[static_cast<std::size_t>(j)] = 0.0;
    }
  }
  struct Case {
    const char* name;
    const graph::CrsMatrix* a;
    const char* prec;
    const char* coarsener;
    resilience::SolveStatus status;
    const char* reason;
  };
  const std::vector<Case> cases = {
      {"unknown coarsener", &laplace, "amg", "no-such-coarsener",
       resilience::SolveStatus::SetupFailed, "setup.exception"},
      {"zero diagonal", &zero_diag, "jacobi", "mis2", resilience::SolveStatus::SingularOperator,
       "setup.jacobi.zero_diagonal"},
  };
  const int k = 3;
  solver::IterOptions opts = tight_opts();
  opts.track_history = true;
  for (const Case& tc : cases) {
    const graph::CrsMatrix& a = *tc.a;
    const std::size_t un = static_cast<std::size_t>(a.num_rows);
    // The warm solve runs on the clean Laplacian with the default
    // coarsener; then the case's coarsener and matrix take over.
    const auto break_setup = [&](solver::SolveHandle& h) {
      h.prec_options().amg.hierarchy.coarsener = tc.coarsener;
      h.invalidate();
    };
    solver::SolveHandle single("cg", tc.prec);
    std::vector<scalar_t> b(un);
    std::vector<scalar_t> x(un, 0.0);
    solver::random_fill(b, 1);
    ASSERT_TRUE(single.solve(laplace, b, x, opts).converged) << tc.name;
    ASSERT_FALSE(single.result().history.empty()) << tc.name;
    break_setup(single);
    solver::fill(x, 0.0);
    const solver::IterResult want = single.solve(a, b, x, opts);
    EXPECT_EQ(tc.status, want.status) << tc.name;
    EXPECT_EQ(std::string(tc.reason), std::string(want.failure.reason)) << tc.name;
    EXPECT_EQ(0, want.iterations) << tc.name;
    EXPECT_TRUE(want.history.empty()) << tc.name;
    EXPECT_TRUE(single.result().history.empty()) << tc.name;

    solver::SolveHandle h("cg", tc.prec);
    std::vector<scalar_t> xm(un * k, 0.0);
    const std::vector<scalar_t> bm = batched_rhs(a, k);
    ASSERT_TRUE(h.solve_batch(laplace, bm, xm, k, opts).all_converged()) << tc.name;
    break_setup(h);
    solver::fill(xm, 0.0);
    const solver::BatchResult* br = nullptr;
    ASSERT_NO_THROW(br = &h.solve_batch(a, bm, xm, k, opts)) << tc.name;
    for (int c = 0; c < k; ++c) {
      const solver::IterResult& got = br->results[static_cast<std::size_t>(c)];
      const std::string where = std::string(tc.name) + " col " + std::to_string(c);
      EXPECT_EQ(0, br->excluded[static_cast<std::size_t>(c)]) << where;
      EXPECT_EQ(want.status, got.status) << where;
      EXPECT_FALSE(got.converged) << where;
      EXPECT_EQ(0, got.iterations) << where;
      EXPECT_TRUE(got.history.empty()) << where;
      EXPECT_EQ(std::string(want.failure.reason), std::string(got.failure.reason)) << where;
      expect_same_attempts(want.attempts, got.attempts, where);
    }
  }
}

#if PARMIS_FAULT_ENABLED
TEST(Batch, FaultPoisonsOnlyItsColumn) {
  // The injected CG breakdown hits column 0's recurrence; its batchmates
  // must converge with their own clean statuses — per-RHS taxonomy, not
  // batch-wide failure.
  const graph::CrsMatrix a = graph::laplace2d(10, 10);
  const int k = 3;
  const std::size_t un = static_cast<std::size_t>(a.num_rows);
  solver::SolveHandle h("block-cg", "jacobi");
  std::vector<scalar_t> xm(un * k, 0.0);
  resilience::arm_faults_spec("cg.pap");
  const solver::BatchResult& br = h.solve_batch(a, batched_rhs(a, k), xm, k, tight_opts());
  resilience::disarm_faults();

  EXPECT_EQ(resilience::SolveStatus::Breakdown, br.results[0].status);
  EXPECT_FALSE(br.results[0].converged);
  for (const int c : {1, 2}) {
    EXPECT_EQ(resilience::SolveStatus::Converged, br.results[static_cast<std::size_t>(c)].status)
        << "col " << c;
  }
}

TEST(Batch, ChainsRunPerColumn) {
  // The injected CG breakdown hits column 0 only, so only column 0 walks
  // the chain on to GMRES: its outcome equals a chained `solve` of that
  // column under the same fault, and its batchmates finish in one attempt
  // with the bits of a chain-less batch.
  const graph::CrsMatrix a = graph::laplace2d(10, 10);
  const int k = 3;
  const std::size_t un = static_cast<std::size_t>(a.num_rows);
  const char* chain = "none+cg,none+gmres";
  const std::vector<scalar_t> bm = batched_rhs(a, k);

  solver::SolveHandle single("block-cg", "none");
  single.set_fallback(chain);
  std::vector<scalar_t> b0(un);
  std::vector<scalar_t> x0(un, 0.0);
  solver::gather_column(bm, a.num_rows, k, 0, std::span<scalar_t>(b0));
  resilience::arm_faults_spec("cg.pap");
  const solver::IterResult want = single.solve(a, b0, x0, tight_opts());
  resilience::disarm_faults();
  ASSERT_EQ(2u, want.attempts.size());
  EXPECT_EQ(resilience::SolveStatus::Breakdown, want.attempts[0].status);
  EXPECT_EQ(resilience::SolveStatus::Converged, want.status);

  solver::SolveHandle plain("block-cg", "none");
  std::vector<scalar_t> xp(un * k, 0.0);
  resilience::arm_faults_spec("cg.pap");
  (void)plain.solve_batch(a, bm, xp, k, tight_opts());
  resilience::disarm_faults();

  solver::SolveHandle h("block-cg", "none");
  h.set_fallback(chain);
  std::vector<scalar_t> xm(un * k, 0.0);
  resilience::arm_faults_spec("cg.pap");
  const solver::BatchResult& br = h.solve_batch(a, bm, xm, k, tight_opts());
  resilience::disarm_faults();

  std::vector<scalar_t> xc(un);
  std::vector<scalar_t> xref(un);
  const solver::IterResult& got0 = br.results[0];
  EXPECT_EQ(want.status, got0.status);
  EXPECT_EQ(want.iterations, got0.iterations);
  expect_same_attempts(want.attempts, got0.attempts, "col 0");
  solver::gather_column(xm, a.num_rows, k, 0, std::span<scalar_t>(xc));
  EXPECT_EQ(check::digest_hex(check::digest(x0)), check::digest_hex(check::digest(xc)));
  for (const int c : {1, 2}) {
    const solver::IterResult& got = br.results[static_cast<std::size_t>(c)];
    EXPECT_EQ(resilience::SolveStatus::Converged, got.status) << "col " << c;
    EXPECT_EQ(1u, got.attempts.size()) << "col " << c;
    solver::gather_column(xm, a.num_rows, k, c, std::span<scalar_t>(xc));
    solver::gather_column(xp, a.num_rows, k, c, std::span<scalar_t>(xref));
    EXPECT_EQ(check::digest_hex(check::digest(xref)), check::digest_hex(check::digest(xc)))
        << "col " << c;
  }
}
#endif

// ------------------------------------------------------------- serving

serve::Service::Options block_service_options() {
  serve::Service::Options o;
  o.pool.solver = "block-cg";
  o.pool.prec = "jacobi";
  o.pool.size = 2;
  return o;
}

TEST(Batch, ServiceSolveBatchMatchesSolve) {
  // A batched wave through the service must produce, per request, the
  // identical outcome the one-at-a-time path produces: same digest, same
  // iteration count, same epoch.
  const graph::CrsMatrix a = graph::laplace2d(16, 16);
  const std::size_t nreq = 10;

  serve::Service looped(block_service_options(), a);
  const std::vector<serve::ServeRequest> reqs =
      serve::make_requests(nreq, 7, looped.epoch(), 0);
  std::vector<serve::RequestOutcome> ref;
  for (const serve::ServeRequest& r : reqs) ref.push_back(looped.solve(r));

  serve::Service batched(block_service_options(), a);
  const std::vector<serve::RequestOutcome> got = batched.solve_batch(reqs, 4);
  ASSERT_EQ(ref.size(), got.size());
  for (std::size_t i = 0; i < ref.size(); ++i) {
    EXPECT_EQ(ref[i].id, got[i].id);
    EXPECT_EQ(ref[i].epoch, got[i].epoch);
    EXPECT_EQ(ref[i].converged, got[i].converged) << "request " << i;
    EXPECT_EQ(ref[i].iterations, got[i].iterations) << "request " << i;
    EXPECT_EQ(check::digest_hex(ref[i].solution_digest),
              check::digest_hex(got[i].solution_digest))
        << "request " << i;
    expect_same_attempts(ref[i].attempts, got[i].attempts, "request " + std::to_string(i));
  }
}

TEST(Batch, PipelinePredictsEpochsAndRecoversFailures) {
  const graph::CrsMatrix a = graph::laplace2d(12, 12);
  serve::Service service(block_service_options(), a);
  const std::uint64_t epoch0 = service.epoch();

  serve::CustomizePipeline pipeline(service);
  std::vector<scalar_t> values(service.current()->a->values);
  for (scalar_t& v : values) v *= 1.5;
  const std::uint64_t e1 = pipeline.submit(values);
  EXPECT_EQ(epoch0 + 1, e1);
  pipeline.drain();
  EXPECT_EQ(e1, service.epoch());
  EXPECT_TRUE(pipeline.failures().empty());

  // A submission whose replay throws must still publish its predicted
  // epoch (via republish) so consumers pinned to it never block.
  const std::vector<scalar_t> bad(3, 1.0);  // wrong length -> customize throws
  const std::uint64_t e2 = pipeline.submit(bad);
  EXPECT_EQ(epoch0 + 2, e2);
  pipeline.drain();
  EXPECT_EQ(e2, service.epoch());
  const std::vector<serve::CustomizePipeline::Failure> failures = pipeline.failures();
  ASSERT_EQ(1u, failures.size());
  EXPECT_EQ(e2, failures[0].epoch);
  EXPECT_FALSE(failures[0].what.empty());
}

TEST(Batch, BatchedReplayDeterministicAcrossSwap) {
  // The end-to-end epoch-determinism check: a threaded batched replay
  // with a live async customize swap must reproduce the serial unbatched
  // replay's combined digest bit for bit.
  const graph::CrsMatrix a = graph::laplace2d(16, 16);
  const std::size_t nreq = 16;
  const std::size_t customize_at = 8;

  std::uint64_t reference = 0;
  {
    serve::Service service(block_service_options(), a);
    const std::vector<serve::ServeRequest> reqs =
        serve::make_requests(nreq, 1, service.epoch(), customize_at);
    serve::ReplayOptions ropts;
    ropts.threads = 1;
    ropts.customize_at = customize_at;
    const serve::ReplayResult r = serve::replay(service, reqs, ropts);
    EXPECT_EQ(nreq, r.stats.converged);
    reference = r.stats.combined_digest;
  }

  for (const int threads : {1, 2}) {
    serve::Service service(block_service_options(), a);
    const std::vector<serve::ServeRequest> reqs =
        serve::make_requests(nreq, 1, service.epoch(), customize_at);
    serve::ReplayOptions ropts;
    ropts.threads = threads;
    ropts.customize_at = customize_at;
    ropts.batch = 4;
    const serve::ReplayResult r = serve::replay(service, reqs, ropts);
    EXPECT_EQ(nreq, r.stats.converged) << "threads=" << threads;
    EXPECT_EQ(check::digest_hex(reference), check::digest_hex(r.stats.combined_digest))
        << "threads=" << threads;
  }
}

}  // namespace
}  // namespace parmis
