/// \file test_spmm.cpp
/// \brief SpMM and multi-vector kernel tests: per-column bit-identity to
/// the single-vector kernels (the contract every block solver leans on),
/// schedule/backend determinism, and the masked-freeze semantics of the
/// deflation ops.

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "check/digest.hpp"
#include "graph/builders.hpp"
#include "graph/generators.hpp"
#include "graph/ops.hpp"
#include "graph/spmm.hpp"
#include "graph/spmv.hpp"
#include "parallel/context.hpp"
#include "solver/amg.hpp"
#include "solver/jacobi.hpp"
#include "solver/multivector.hpp"
#include "solver/vector_ops.hpp"
#include "test_utils.hpp"

namespace parmis {
namespace {

std::uint64_t bits(scalar_t v) { return std::bit_cast<std::uint64_t>(v); }

/// Matrices the SpMM tests sweep: stencils plus a hub-skewed Laplacian,
/// so both regular and adversarial row-length distributions are covered.
std::vector<graph::CrsMatrix> spmm_matrices() {
  std::vector<graph::CrsMatrix> ms;
  ms.push_back(graph::laplace3d(7, 7, 7));
  ms.push_back(graph::laplace2d(15, 13));
  ms.push_back(graph::laplacian_matrix(graph::power_law_graph(500, 2.2, 4, 80, 42), 1.0));
  return ms;
}

TEST(Spmm, MatchesSpmvPerColumn) {
  // Column c of spmm must be bit-identical to spmv on the gathered column
  // — each row accumulates serially in entry order per column, exactly
  // like the single-vector kernel. K values take every lane-width instance
  // and cross the register-block width, so both the full-group and
  // remainder lanes are exercised.
  for (const graph::CrsMatrix& a : spmm_matrices()) {
    const ordinal_t n = a.num_rows;
    const std::size_t un = static_cast<std::size_t>(n);
    for (const int k : {1, 2, 3, 4, 8, 16, 17}) {
      const std::size_t uk = static_cast<std::size_t>(k);
      std::vector<scalar_t> x(un * uk);
      std::vector<scalar_t> y(un * uk);
      solver::random_fill(x, 7);
      graph::spmm(a, x, y, k);

      std::vector<scalar_t> xc(un);
      std::vector<scalar_t> yc(un);
      std::vector<scalar_t> ref(un);
      for (int c = 0; c < k; ++c) {
        solver::gather_column(x, n, k, c, std::span<scalar_t>(xc));
        solver::gather_column(y, n, k, c, std::span<scalar_t>(yc));
        graph::spmv(a, xc, ref);
        for (std::size_t i = 0; i < un; ++i) {
          ASSERT_EQ(bits(ref[i]), bits(yc[i])) << "rows=" << n << " k=" << k << " col=" << c
                                               << " row=" << i;
        }
      }
    }
  }
}

TEST(Spmm, AlphaBetaMatchesSpmvPerColumn) {
  // The accumulate overload: y = alpha*A*x + beta*y, per column equal bit
  // for bit to spmv followed by the same fma-free combine. K = 1 is the
  // shape the AMG prolongation runs for a single right-hand side.
  const graph::CrsMatrix a = graph::laplace3d(6, 5, 7);
  const ordinal_t n = a.num_rows;
  const std::size_t un = static_cast<std::size_t>(n);
  for (const int k : {1, 5}) {
    const std::size_t uk = static_cast<std::size_t>(k);
    std::vector<scalar_t> x(un * uk);
    std::vector<scalar_t> y(un * uk);
    solver::random_fill(x, 11);
    solver::random_fill(y, 13);

    std::vector<scalar_t> xc(un);
    std::vector<scalar_t> ax(un);
    std::vector<scalar_t> ref(un);
    std::vector<std::vector<scalar_t>> refs;
    for (int c = 0; c < k; ++c) {
      solver::gather_column(x, n, k, c, std::span<scalar_t>(xc));
      solver::gather_column(y, n, k, c, std::span<scalar_t>(ref));
      graph::spmv(a, xc, ax);
      for (std::size_t i = 0; i < un; ++i) ref[i] = 0.75 * ax[i] + -1.25 * ref[i];
      refs.push_back(ref);
    }

    graph::spmm(0.75, a, x, -1.25, y, k);
    std::vector<scalar_t> yc(un);
    for (int c = 0; c < k; ++c) {
      solver::gather_column(y, n, k, c, std::span<scalar_t>(yc));
      for (std::size_t i = 0; i < un; ++i) {
        ASSERT_EQ(bits(refs[static_cast<std::size_t>(c)][i]), bits(yc[i]))
            << "k=" << k << " col=" << c << " row=" << i;
      }
    }
  }
}

TEST(Spmm, AlphaBetaFormOneColumn) {
  const graph::CrsMatrix a = graph::matrix_from_coo(2, 2, {{0, 0, 1}, {1, 1, 1}});
  std::vector<scalar_t> x{3, 4};
  std::vector<scalar_t> y{10, 20};
  graph::spmm(2.0, a, x, -1.0, y, 1);
  EXPECT_DOUBLE_EQ(y[0], 2 * 3 - 10);
  EXPECT_DOUBLE_EQ(y[1], 2 * 4 - 20);
}

TEST(Spmm, OneColumnShapesMatchEightLaneColumns) {
  // At K = 1 the K-wide kernels switch to the single-vector code shape:
  // spmm runs spmv's row loop and Jacobi apply_multi the two-pass form
  // (elementwise first sweep, then full sweeps) instead of the fused
  // first+second sweep. Both are code-generation choices, so a one-column
  // call must give the bits of the same column inside a K-lane call, for
  // every lane-width instance of the row kernel.
  const std::vector<graph::CrsMatrix> matrices = {
      graph::laplacian_matrix(graph::power_law_graph(3000, 2.2, 3, 300, 5), 1.0),
      graph::laplace3d(12, 12, 12)};
  for (const graph::CrsMatrix& a : matrices) {
    const ordinal_t n = a.num_rows;
    const std::size_t un = static_cast<std::size_t>(n);
    std::vector<scalar_t> xc(un);
    std::vector<scalar_t> yc(un);
    std::vector<scalar_t> lane(un);
    for (const int k : {2, 3, 4, 8, 16, 17}) {
      const std::size_t uk = static_cast<std::size_t>(k);
      std::vector<scalar_t> xm(un * uk);
      std::vector<scalar_t> ym(un * uk);
      solver::random_fill(xm, 21);
      for (const auto& [backend, threads] : std::vector<std::pair<par::Backend, int>>{
               {par::Backend::Serial, 1}, {par::Backend::OpenMP, 4}}) {
        Context ctx;
        ctx.backend = backend;
        ctx.num_threads = threads;
        Context::Scope scope(ctx);
        graph::spmm(a, xm, ym, k);
        for (int c = 0; c < k; ++c) {
          solver::gather_column(xm, n, k, c, std::span<scalar_t>(xc));
          graph::spmm(a, xc, yc, 1);
          solver::gather_column(ym, n, k, c, std::span<scalar_t>(lane));
          ASSERT_EQ(check::digest(lane), check::digest(yc))
              << "spmm k=" << k << " col=" << c << " rows=" << n << " threads=" << threads;
        }
        for (const int sweeps : {1, 2, 3}) {
          const solver::JacobiPreconditioner jac(a, sweeps);
          jac.apply_multi(xm, ym, n, k);
          for (int c = 0; c < k; ++c) {
            solver::gather_column(xm, n, k, c, std::span<scalar_t>(xc));
            jac.apply_multi(xc, yc, n, 1);
            solver::gather_column(ym, n, k, c, std::span<scalar_t>(lane));
            ASSERT_EQ(check::digest(lane), check::digest(yc))
                << "jacobi k=" << k << " sweeps=" << sweeps << " col=" << c << " rows=" << n
                << " threads=" << threads;
          }
        }
      }
    }
  }
}

TEST(Spmm, DeterministicAcrossBackendsAndSchedules) {
  // One digest per (backend, threads, schedule) cell; all must be equal —
  // the same contract spmv carries, extended to the K-wide kernel.
  const graph::CrsMatrix a =
      graph::laplacian_matrix(graph::power_law_graph(3000, 2.2, 3, 300, 5), 1.0);
  const ordinal_t n = a.num_rows;
  const int k = 8;
  std::vector<scalar_t> x(static_cast<std::size_t>(n) * k);
  std::vector<scalar_t> y(static_cast<std::size_t>(n) * k);
  solver::random_fill(x, 3);

  std::uint64_t reference = 0;
  bool first = true;
  for (const par::Schedule s : {par::Schedule::Static, par::Schedule::EdgeBalanced}) {
    for (const auto& [backend, threads] :
         std::vector<std::pair<par::Backend, int>>{{par::Backend::Serial, 1},
                                                   {par::Backend::OpenMP, 1},
                                                   {par::Backend::OpenMP, 3},
                                                   {par::Backend::OpenMP, 8}}) {
      Context ctx;
      ctx.backend = backend;
      ctx.num_threads = threads;
      ctx.schedule = s;
      Context::Scope scope(ctx);
      solver::fill(y, 0.0);
      graph::spmm(a, x, y, k);
      const std::uint64_t d = check::digest(y);
      if (first) {
        reference = d;
        first = false;
      } else {
        EXPECT_EQ(check::digest_hex(reference), check::digest_hex(d))
            << "backend=" << static_cast<int>(backend) << " threads=" << threads
            << " schedule=" << static_cast<int>(s);
      }
    }
  }
}

/// The (backend, threads) cells of the determinism sweeps below.
const std::vector<std::pair<par::Backend, int>> kSweepConfigs = {
    {par::Backend::Serial, 1}, {par::Backend::OpenMP, 1}, {par::Backend::OpenMP, 3},
    {par::Backend::OpenMP, 4}};

TEST(Spmm, FewLongRowsDeterministicAcrossConfigs) {
  // R of the first AMG level of gen:powerlaw:10000 (the serving workload's
  // operator): a few hundred rows carrying a quarter million entries, so
  // the work gate, not the row count, sends the product parallel. Every
  // (backend, threads, schedule) cell must give the same bits at K = 1
  // (the flat row loop) and K = 8 (the wide build), in both forms.
  const graph::CrsGraph g = graph::power_law_graph(10000, 2.2, 4, 166, 42);
  const solver::AmgHierarchy h =
      solver::AmgHierarchy::build(graph::laplacian_matrix(g, 1.0), {});
  ASSERT_GE(h.num_levels(), 2);
  const graph::CrsMatrix& r = h.level(0).r;
  ASSERT_LT(r.num_rows, static_cast<ordinal_t>(par::parallel_for_grain));
  ASSERT_GE(static_cast<std::int64_t>(r.num_entries()), par::balanced_work_grain);
  for (const int k : {1, 8}) {
    const std::size_t uk = static_cast<std::size_t>(k);
    std::vector<scalar_t> x(static_cast<std::size_t>(r.num_cols) * uk);
    solver::random_fill(x, 23);
    std::vector<scalar_t> y0(static_cast<std::size_t>(r.num_rows) * uk);
    solver::random_fill(y0, 29);
    std::uint64_t ref_assign = 0;
    std::uint64_t ref_axpby = 0;
    bool first = true;
    for (const par::Schedule s :
         {par::Schedule::Static, par::Schedule::EdgeBalanced, par::Schedule::Dynamic}) {
      for (const auto& [backend, threads] : kSweepConfigs) {
        Context ctx;
        ctx.backend = backend;
        ctx.num_threads = threads;
        ctx.schedule = s;
        Context::Scope scope(ctx);
        std::vector<scalar_t> y(y0.size());
        graph::spmm(r, x, y, k);
        const std::uint64_t assign = check::digest(y);
        y = y0;
        graph::spmm(0.7, r, x, -1.3, y, k);
        const std::uint64_t axpby = check::digest(y);
        if (first) {
          ref_assign = assign;
          ref_axpby = axpby;
          first = false;
        }
        const std::string where = "k=" + std::to_string(k) +
                                  " backend=" + std::to_string(static_cast<int>(backend)) +
                                  " threads=" + std::to_string(threads) +
                                  " schedule=" + std::to_string(static_cast<int>(s));
        EXPECT_EQ(check::digest_hex(ref_assign), check::digest_hex(assign)) << where;
        EXPECT_EQ(check::digest_hex(ref_axpby), check::digest_hex(axpby)) << where;
      }
    }
  }
}

TEST(SpmmMultivector, DotDeterministicAcrossThreadCounts) {
  // 8,192 rows is two reduction chunks (serial below the chunk-count
  // gate), 70,000 rows is 18 (parallel from 3 threads). Where the chunks
  // run must never move a bit: every cell equals the Serial one.
  for (const ordinal_t n : {8192, 70000}) {
    for (const int k : {1, 3, 8}) {
      const std::size_t nk = static_cast<std::size_t>(n) * static_cast<std::size_t>(k);
      std::vector<scalar_t> a(nk);
      std::vector<scalar_t> b(nk);
      solver::random_fill(a, 41);
      solver::random_fill(b, 43);
      std::vector<std::uint64_t> ref;
      for (const auto& [backend, threads] : kSweepConfigs) {
        par::ScopedExecution scope(backend, threads);
        std::vector<scalar_t> dots(static_cast<std::size_t>(k));
        solver::mv_dot(a, b, n, k, dots);
        std::vector<std::uint64_t> got;
        for (const scalar_t d : dots) got.push_back(bits(d));
        if (k == 1) got.push_back(bits(solver::dot(a, b)));
        if (ref.empty()) ref = got;
        EXPECT_EQ(ref, got) << "n=" << n << " k=" << k
                            << " backend=" << static_cast<int>(backend)
                            << " threads=" << threads;
      }
    }
  }
}

TEST(SpmmMultivector, DotAndNormsBitIdenticalToScalarKernels) {
  // n > reduce_chunk so the chunked tree is exercised: mv_dot must mirror
  // parallel_reduce's chunk boundaries and combine order per column, for
  // every lane-width instance.
  const ordinal_t n = 6000;
  const std::size_t un = static_cast<std::size_t>(n);
  std::vector<scalar_t> ac(un);
  std::vector<scalar_t> bc(un);
  for (const int k : {1, 2, 3, 4, 8, 16, 17}) {
    const std::size_t uk = static_cast<std::size_t>(k);
    std::vector<scalar_t> a(un * uk);
    std::vector<scalar_t> b(un * uk);
    solver::random_fill(a, 17);
    solver::random_fill(b, 19);

    std::vector<scalar_t> dots(uk);
    std::vector<scalar_t> norms(uk);
    solver::mv_dot(a, b, n, k, dots);
    solver::mv_norms(a, n, k, norms);

    for (int c = 0; c < k; ++c) {
      solver::gather_column(a, n, k, c, std::span<scalar_t>(ac));
      solver::gather_column(b, n, k, c, std::span<scalar_t>(bc));
      EXPECT_EQ(bits(solver::dot(ac, bc)), bits(dots[static_cast<std::size_t>(c)]))
          << "k " << k << " col " << c;
      EXPECT_EQ(bits(solver::norm2(ac)), bits(norms[static_cast<std::size_t>(c)]))
          << "k " << k << " col " << c;
    }
  }
}

TEST(SpmmMultivector, MaskedOpsLeaveFrozenLanesUntouched) {
  // Deflation semantics: a frozen column's lanes must keep their exact
  // bits — including negative zero and NaN — because freezing is an
  // explicit branch, not a zero coefficient.
  const ordinal_t n = 32;
  const int k = 3;
  const std::size_t un = static_cast<std::size_t>(n);
  std::vector<scalar_t> x(un * k);
  std::vector<scalar_t> y(un * k);
  solver::random_fill(x, 23);
  solver::random_fill(y, 29);
  // Poison the frozen column (index 1) with the adversarial bit patterns.
  y[0 * k + 1] = -0.0;
  y[1 * k + 1] = std::numeric_limits<scalar_t>::quiet_NaN();
  const std::vector<scalar_t> y0 = y;

  const std::vector<char> active = {1, 0, 1};
  solver::mv_axpby_masked(2.0, x, -0.5, y, n, k, active);
  for (std::size_t i = 0; i < un; ++i) {
    EXPECT_EQ(bits(y0[i * k + 1]), bits(y[i * k + 1])) << "frozen lane, row " << i;
    EXPECT_EQ(bits(2.0 * x[i * k + 0] + -0.5 * y0[i * k + 0]), bits(y[i * k + 0])) << "row " << i;
    EXPECT_EQ(bits(2.0 * x[i * k + 2] + -0.5 * y0[i * k + 2]), bits(y[i * k + 2])) << "row " << i;
  }

  // Per-column-coefficient variants honor the same mask.
  std::vector<scalar_t> y2 = y0;
  const std::vector<scalar_t> alpha = {0.25, 123.0, -4.0};
  solver::mv_axpy_cols(alpha, x, y2, n, k, active);
  for (std::size_t i = 0; i < un; ++i) {
    EXPECT_EQ(bits(y0[i * k + 1]), bits(y2[i * k + 1])) << "frozen lane, row " << i;
    EXPECT_EQ(bits(0.25 * x[i * k + 0] + y0[i * k + 0]), bits(y2[i * k + 0])) << "row " << i;
  }

  std::vector<scalar_t> y3 = y0;
  solver::mv_xpay_cols(x, alpha, y3, n, k, active);
  for (std::size_t i = 0; i < un; ++i) {
    EXPECT_EQ(bits(y0[i * k + 1]), bits(y3[i * k + 1])) << "frozen lane, row " << i;
    EXPECT_EQ(bits(x[i * k + 0] + 0.25 * y0[i * k + 0]), bits(y3[i * k + 0])) << "row " << i;
  }

  // All columns active: the branch-free path of every lane-width instance,
  // over enough rows for several parallel chunks, lane by lane against the
  // scalar expression.
  const ordinal_t rows = 1500;
  const std::size_t urows = static_cast<std::size_t>(rows);
  for (const int kc : {1, 2, 3, 4, 8, 16, 17}) {
    const std::size_t ukc = static_cast<std::size_t>(kc);
    std::vector<scalar_t> xa(urows * ukc);
    std::vector<scalar_t> ya(urows * ukc);
    std::vector<scalar_t> coef(ukc);
    solver::random_fill(xa, 31);
    solver::random_fill(ya, 37);
    solver::random_fill(coef, 41);
    const std::vector<char> all(ukc, 1);
    std::vector<scalar_t> ax = ya;
    solver::mv_axpy_cols(coef, xa, ax, rows, kc, all);
    std::vector<scalar_t> xp = ya;
    solver::mv_xpay_cols(xa, coef, xp, rows, kc, all);
    for (std::size_t i = 0; i < urows; ++i) {
      for (std::size_t c = 0; c < ukc; ++c) {
        const std::size_t at = i * ukc + c;
        ASSERT_EQ(bits(coef[c] * xa[at] + ya[at]), bits(ax[at]))
            << "axpy k=" << kc << " row " << i << " col " << c;
        ASSERT_EQ(bits(xa[at] + coef[c] * ya[at]), bits(xp[at]))
            << "xpay k=" << kc << " row " << i << " col " << c;
      }
    }
  }
}

TEST(SpmmMultivector, GatherScatterRoundTrip) {
  const ordinal_t n = 50;
  const int k = 4;
  const std::size_t un = static_cast<std::size_t>(n);
  std::vector<scalar_t> mv(un * k, 0.0);
  std::vector<scalar_t> col(un);
  std::vector<scalar_t> back(un);
  for (int c = 0; c < k; ++c) {
    solver::random_fill(col, static_cast<std::uint64_t>(100 + c));
    solver::scatter_column(col, n, k, c, mv);
    solver::gather_column(mv, n, k, c, std::span<scalar_t>(back));
    for (std::size_t i = 0; i < un; ++i) {
      ASSERT_EQ(bits(col[i]), bits(back[i])) << "col " << c << " row " << i;
    }
  }
}

}  // namespace
}  // namespace parmis
