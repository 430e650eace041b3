/// \file test_check.cpp
/// \brief The parmis::check subsystem: validators name the violated
/// invariant, digests carry bit-identity across configurations, the
/// AllocGuard interposer catches warm-path allocations, hardened loaders
/// reject corrupt input at the boundary, and release builds compile every
/// PARMIS_CHECK site to nothing.

#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <fstream>
#include <limits>
#include <string>
#include <vector>

#include "core/mis2.hpp"

#include "../examples/graph_inputs.hpp"
#include "check/alloc_guard.hpp"
#include "check/check.hpp"
#include "check/digest.hpp"
#include "check/validate.hpp"
#include "core/aggregation.hpp"
#include "core/coarsen.hpp"
#include "graph/generators.hpp"
#include "graph/matrix_market.hpp"
#include "graph/ops.hpp"
#include "parallel/execution.hpp"
#include "solver/handle.hpp"
#include "test_utils.hpp"

namespace parmis {
namespace {

graph::CrsGraph small_path_graph() {
  // 0 - 1 - 2 - 3, symmetric, sorted, loop-free.
  graph::CrsGraph g;
  g.num_rows = 4;
  g.num_cols = 4;
  g.row_map = {0, 1, 3, 5, 6};
  g.entries = {1, 0, 2, 1, 3, 2};
  return g;
}

// ------------------------------------------------------------- validators

TEST(CheckValidate, PassesOnWellFormedStructures) {
  const graph::CrsGraph g = small_path_graph();
  EXPECT_TRUE(check::validate(graph::GraphView(g),
                              {.require_loop_free = true, .require_symmetric = true}));
  const graph::CrsMatrix a = graph::laplacian_matrix(g, 1.0);
  EXPECT_TRUE(check::validate(a, {.structure = {}, .require_finite = true,
                                  .require_square = true}));
}

TEST(CheckValidate, NamesTheViolatedCrsInvariant) {
  graph::CrsGraph g = small_path_graph();
  g.row_map[2] = 0;  // non-monotone
  check::Result r = check::validate(graph::GraphView(g));
  EXPECT_FALSE(r);
  EXPECT_EQ(r.invariant, "crs.row_map.monotone");
  EXPECT_NE(r.diagnostic().find("crs.row_map.monotone"), std::string::npos);

  g = small_path_graph();
  g.entries[0] = 17;  // out of range
  r = check::validate(graph::GraphView(g));
  EXPECT_EQ(r.invariant, "crs.entries.in_range");

  g = small_path_graph();
  g.entries[1] = 2;
  g.entries[2] = 0;  // row 1 = {2, 0}: unsorted
  r = check::validate(graph::GraphView(g));
  EXPECT_EQ(r.invariant, "crs.entries.sorted");

  g = small_path_graph();
  g.entries[2] = 0;  // row 1 = {0, 0}: duplicate
  r = check::validate(graph::GraphView(g));
  EXPECT_EQ(r.invariant, "crs.entries.unique");

  g = small_path_graph();
  g.entries[0] = 0;  // self loop at row 0
  r = check::validate(graph::GraphView(g), {.require_loop_free = true});
  EXPECT_EQ(r.invariant, "crs.entries.loop_free");

  g = small_path_graph();
  g.entries[5] = 0;  // (3,0) present, (0,3) absent
  r = check::validate(graph::GraphView(g), {.require_symmetric = true});
  EXPECT_EQ(r.invariant, "crs.symmetric");
}

TEST(CheckValidate, NamesTheViolatedMatrixInvariant) {
  graph::CrsMatrix a = graph::laplacian_matrix(small_path_graph(), 1.0);
  a.values[1] = std::numeric_limits<scalar_t>::quiet_NaN();
  const check::Result r = check::validate(a);
  EXPECT_FALSE(r);
  EXPECT_EQ(r.invariant, "matrix.values.finite");

  graph::CrsMatrix b = graph::laplacian_matrix(small_path_graph(), 1.0);
  b.values.pop_back();
  EXPECT_EQ(check::validate(b).invariant, "matrix.values.parallel");
}

TEST(CheckValidate, NamesTheViolatedAggregationInvariant) {
  const graph::CrsGraph g = test::adjacency_of(graph::laplace2d(8, 8));
  core::Aggregation agg = core::aggregate_mis2(g);
  EXPECT_TRUE(check::validate(agg, g.num_rows));

  core::Aggregation bad = agg;
  bad.labels[0] = bad.num_aggregates + 3;
  EXPECT_EQ(check::validate(bad, g.num_rows).invariant, "aggregation.labels.in_range");

  bad = agg;
  // Empty aggregate 0: move all its members to aggregate 1.
  for (ordinal_t& l : bad.labels) {
    if (l == 0) l = 1;
  }
  EXPECT_EQ(check::validate(bad, g.num_rows).invariant, "aggregation.surjective");

  bad = agg;
  bad.roots[0] = bad.roots[1];  // root 0 now labeled with aggregate 1
  EXPECT_EQ(check::validate(bad, g.num_rows).invariant, "aggregation.roots.labeled");
}

TEST(CheckValidate, NamesTheViolatedEdgeWeightInvariant) {
  const graph::CrsGraph g = test::adjacency_of(graph::laplace2d(6, 6));
  std::vector<ordinal_t> w(static_cast<std::size_t>(g.num_entries()), 1);
  EXPECT_TRUE(check::validate_edge_weights(g, w));

  w[0] = 2;  // (0, c) now outweighs its mate (c, 0)
  EXPECT_EQ(check::validate_edge_weights(g, w).invariant, "weights.symmetric");

  w.pop_back();
  EXPECT_EQ(check::validate_edge_weights(g, w).invariant, "weights.parallel");
}

TEST(CheckValidate, NamesTheViolatedPartitionInvariant) {
  std::vector<ordinal_t> part = {0, 1, 2, 0, 1, 2};
  EXPECT_TRUE(check::validate_partition(part, 3));

  part[2] = 5;
  EXPECT_EQ(check::validate_partition(part, 3).invariant, "partition.labels.in_range");

  part = {0, 0, 2, 0, 0, 2};  // part 1 empty
  EXPECT_EQ(check::validate_partition(part, 3).invariant, "partition.parts.nonempty");
  // ... but emptiness is not reportable when |V| < k.
  EXPECT_TRUE(check::validate_partition(std::vector<ordinal_t>{0, 1}, 3));
}

TEST(CheckValidate, NamesTheViolatedProlongatorInvariant) {
  // A valid tentative prolongator: 4 fine rows, 2 aggregates.
  graph::CrsMatrix p;
  p.num_rows = 4;
  p.num_cols = 2;
  p.row_map = {0, 1, 2, 3, 4};
  p.entries = {0, 0, 1, 1};
  p.values = {0.7, 0.7, 0.7, 0.7};
  EXPECT_TRUE(check::validate_prolongator(p, 4, 2, /*require_column_partition=*/true));

  graph::CrsMatrix bad = p;
  bad.entries = {0, 0, 0, 0};  // column 1 never hit
  EXPECT_EQ(check::validate_prolongator(bad, 4, 2).invariant, "prolongator.columns.covered");

  bad = p;
  bad.row_map = {0, 1, 1, 3, 4};  // row 1 contributes to no aggregate
  bad.entries = {0, 0, 1, 1};
  EXPECT_EQ(check::validate_prolongator(bad, 4, 2).invariant, "prolongator.rows.nonempty");

  bad = p;
  bad.row_map = {0, 2, 2, 3, 4};  // row 0 smeared over two aggregates
  bad.entries = {0, 1, 0, 1};
  EXPECT_EQ(check::validate_prolongator(bad, 4, 2, true).invariant,
            "prolongator.column_partition");

  bad = p;
  EXPECT_EQ(check::validate_prolongator(bad, 5, 2).invariant, "prolongator.shape");
}

// ---------------------------------------------------------------- digests

TEST(CheckDigest, KnownFnvVectorsAndHex) {
  // FNV-1a 64 of "a" = 0xaf63dc4c8601ec8c (published test vector).
  check::Digest d;
  d.update("a", 1);
  EXPECT_EQ(check::digest_hex(d.value()), "0xaf63dc4c8601ec8c");
  // Empty input hashes to the offset basis.
  EXPECT_EQ(check::Digest{}.value(), check::kFnvBasis);
}

TEST(CheckDigest, OrderAndBitPatternSensitivity) {
  const std::vector<ordinal_t> ab = {1, 2};
  const std::vector<ordinal_t> ba = {2, 1};
  EXPECT_NE(check::digest(ab), check::digest(ba));
  EXPECT_NE(check::digest_combine(1, 2), check::digest_combine(2, 1));
  // +0.0 and -0.0 differ by bit pattern — exactly what a bit-identity
  // contract wants.
  EXPECT_NE(check::digest(std::vector<scalar_t>{0.0}),
            check::digest(std::vector<scalar_t>{-0.0}));
}

TEST(CheckDigest, MatchesAcrossBackendsAndSchedules) {
  // The digest of an aggregation labeling is one word of bit-identity
  // evidence: identical across Serial/OpenMP and every deterministic
  // schedule.
  const graph::CrsGraph g = graph::random_geometric_3d(2000, 12.0, 7);
  std::uint64_t reference = 0;
  bool first = true;
  for (const par::Schedule s : {par::Schedule::Static, par::Schedule::EdgeBalanced}) {
    std::vector<std::pair<par::Backend, int>> cfgs = {{par::Backend::Serial, 1}};
#ifdef PARMIS_HAVE_OPENMP
    cfgs.emplace_back(par::Backend::OpenMP, 3);
    cfgs.emplace_back(par::Backend::OpenMP, 0);
#endif
    for (const auto& [backend, threads] : cfgs) {
      Context ctx;
      ctx.backend = backend;
      ctx.num_threads = threads;
      ctx.schedule = s;
      core::CoarsenHandle handle(ctx);
      const std::uint64_t d = check::digest(handle.aggregate_mis2(g).labels);
      if (first) {
        reference = d;
        first = false;
      } else {
        EXPECT_EQ(check::digest_hex(d), check::digest_hex(reference))
            << "backend=" << static_cast<int>(backend) << " threads=" << threads
            << " schedule=" << static_cast<int>(s);
      }
    }
  }
}

// ------------------------------------------------- contract enforcement

#if PARMIS_CHECK_ENABLED

TEST(CheckAllocGuard, CountsThisThreadsAllocations) {
  ASSERT_TRUE(check::counting_available());
  check::AllocGuard guard;
  EXPECT_EQ(guard.allocations(), 0u);
  {
    // A deliberate warm-path-style allocation: the guard must see it.
    std::vector<int> leaky(1024, 1);
    EXPECT_GT(leaky.back(), 0);
  }
  EXPECT_GT(guard.allocations(), 0u);
}

TEST(CheckInvariants, CorruptMatrixIsRejectedAtSolveEntry) {
  graph::CrsMatrix a = graph::laplacian_matrix(small_path_graph(), 1.0);
  a.values[0] = std::numeric_limits<scalar_t>::infinity();
  solver::SolveHandle handle("cg", "jacobi");
  std::vector<scalar_t> b(4, 1.0), x(4, 0.0);
  try {
    handle.solve(a, b, x, {});
    FAIL() << "corrupt matrix accepted";
  } catch (const check::CheckError& e) {
    EXPECT_NE(std::string(e.what()).find("matrix.values.finite"), std::string::npos) << e.what();
  }
}

TEST(CheckInvariants, CorruptGraphIsRejectedAtMis2Entry) {
  graph::CrsGraph g = small_path_graph();
  g.entries[5] = 0;  // break symmetry: (3,0) without (0,3)
  EXPECT_THROW((void)core::mis2(g), check::CheckError);
}

TEST(CheckInvariants, AsymmetricEdgeWeightsAreRejectedAtContraction) {
  const graph::CrsGraph g = test::adjacency_of(graph::laplace2d(8, 8));
  const core::Aggregation agg = core::aggregate_mis2(g);
  std::vector<ordinal_t> w(static_cast<std::size_t>(g.num_entries()), 1);
  std::vector<ordinal_t> coarse_w;
  (void)core::coarse_graph(g, agg, w, coarse_w);
  w[0] = 2;  // (0, c) weighs 2, (c, 0) still 1
  EXPECT_THROW((void)core::coarse_graph(g, agg, w, coarse_w), check::CheckError);
}

#else  // !PARMIS_CHECK_ENABLED

TEST(CheckZeroOverhead, DisabledSitesNeverEvaluateTheirCondition) {
  // In release builds a PARMIS_CHECK site is an unevaluated operand: the
  // condition is syntax-checked but never run.
  int calls = 0;
  auto expensive = [&]() {
    ++calls;
    return true;
  };
  PARMIS_CHECK(expensive());
  PARMIS_CHECK_MSG(expensive(), "never built");
  EXPECT_EQ(calls, 0);
  EXPECT_EQ(check::counting_available(), false);
  EXPECT_EQ(check::thread_allocations(), 0u);
}

TEST(CheckZeroOverhead, MillionDisabledSitesAreFree) {
  // Timing-bound companion to the compile-out test (same budget shape as
  // the obs disabled-span test): a million disabled check sites must cost
  // nothing measurable. Generous bound — CI machines are noisy.
  volatile int sink = 0;
  const auto t0 = std::chrono::steady_clock::now();
  for (int i = 0; i < 1'000'000; ++i) {
    PARMIS_CHECK(sink == 0);
    PARMIS_CHECK_MSG(sink == 0, "free");
  }
  const double ms =
      std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - t0).count();
  EXPECT_LT(ms, 500.0);
}

#endif  // PARMIS_CHECK_ENABLED

// --------------------------------------------------- hardened input paths

class TempFile {
 public:
  explicit TempFile(const std::string& contents) {
    path_ = testing::TempDir() + "parmis_check_input.mtx";
    std::ofstream out(path_);
    out << contents;
  }
  ~TempFile() { std::remove(path_.c_str()); }
  [[nodiscard]] const std::string& path() const { return path_; }

 private:
  std::string path_;
};

TEST(CheckLoaders, MatrixMarketRejectsOutOfRangeIndexWithLocation) {
  const TempFile f(
      "%%MatrixMarket matrix coordinate real general\n"
      "3 3 2\n"
      "1 1 1.0\n"
      "7 2 1.0\n");
  try {
    (void)graph::read_matrix_market(f.path());
    FAIL() << "out-of-range entry accepted";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("(7, 2)"), std::string::npos) << e.what();
  }
}

TEST(CheckLoaders, MatrixMarketRejectsNonFiniteValues) {
  // "nan" either fails the numeric parse or parses non-finite; both paths
  // must reject the file rather than build a poisoned matrix.
  const TempFile f(
      "%%MatrixMarket matrix coordinate real general\n"
      "2 2 1\n"
      "1 1 nan\n");
  EXPECT_THROW((void)graph::read_matrix_market(f.path()), std::runtime_error);
}

TEST(CheckLoaders, GenSpecRejectsGarbageAndOverflow) {
  // Garbage numerics: std::atoi would have silently produced 0.
  EXPECT_THROW((void)examples::load_graph("gen:rgg:bogus:14"), std::runtime_error);
  EXPECT_THROW((void)examples::load_graph("gen:laplace2d:12cows"), std::runtime_error);
  // Ordinal overflow: 9999999999 wraps to a negative int32 under atoi.
  EXPECT_THROW((void)examples::load_graph("gen:rgg:9999999999:14"), std::runtime_error);
  // Grid whose vertex count (2000^3) overflows the 32-bit ordinal.
  EXPECT_THROW((void)examples::load_graph("gen:laplace3d:2000"), std::runtime_error);
  // Sane specs still load.
  EXPECT_EQ(examples::load_graph("gen:laplace2d:4").num_rows, 16);
}

TEST(CheckLoaders, SizeArgRejectsGarbageSmallAndOverflow) {
  EXPECT_EQ(examples::parse_size_arg("40", "side", 2, 3), 40);
  EXPECT_EQ(examples::parse_size_arg("1290", "side", 2, 3), 1290);  // 1290^3 < 2^31
  EXPECT_THROW((void)examples::parse_size_arg("1291", "side", 2, 3), std::invalid_argument);
  EXPECT_THROW((void)examples::parse_size_arg("-3", "side"), std::invalid_argument);
  EXPECT_THROW((void)examples::parse_size_arg("1", "side"), std::invalid_argument);
  EXPECT_THROW((void)examples::parse_size_arg("", "side"), std::invalid_argument);
  EXPECT_THROW((void)examples::parse_size_arg("12x", "side"), std::invalid_argument);
  EXPECT_THROW((void)examples::parse_size_arg("99999999999999999999", "n"),
               std::invalid_argument);
  EXPECT_EQ(examples::parse_size_arg("2147483647", "n"), max_ordinal);
  EXPECT_THROW((void)examples::parse_size_arg("2147483648", "n"), std::invalid_argument);
}

}  // namespace
}  // namespace parmis
