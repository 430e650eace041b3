/// \file test_balanced_for.cpp
/// \brief Tests for the cost-aware scheduling layer: chunk-boundary
/// properties of `balanced_chunk_bound`, exactly-once coverage of
/// `balanced_for` under every schedule, the balanced reductions, the work
/// gate of `balanced_chunks_by_work`, the single-pass SpGEMM (equivalence
/// against the historical two-pass reference — including a few-row dense
/// Galerkin product and its replay, and the fused Galerkin kernel at every
/// vector remainder of its wide-vector builds — plus the
/// traversal-counter regression guard), and the parallel transpose.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <map>
#include <mutex>
#include <numeric>
#include <string>
#include <vector>

#include "core/mis2.hpp"
#include "graph/generators.hpp"
#include "graph/ops.hpp"
#include "graph/rgg.hpp"
#include "graph/spgemm.hpp"
#include "graph/spmv.hpp"
#include "multilevel/builder.hpp"
#include "parallel/balanced_for.hpp"
#include "parallel/context.hpp"
#include "parallel/execution.hpp"
#include "test_utils.hpp"

namespace parmis {
namespace {

using par::Backend;
using par::Execution;
using par::Schedule;
using par::ScopedExecution;

/// Prefix-sum a cost-per-index vector into the (n+1)-entry prefix array
/// balanced_chunk_bound consumes.
std::vector<offset_t> prefix_of(const std::vector<offset_t>& costs) {
  std::vector<offset_t> p(costs.size() + 1, 0);
  std::partial_sum(costs.begin(), costs.end(), p.begin() + 1);
  return p;
}

/// All boundaries of the nchunks-way partition, [b_0 .. b_nchunks].
std::vector<ordinal_t> bounds_of(const std::vector<offset_t>& prefix, int nchunks) {
  const ordinal_t n = static_cast<ordinal_t>(prefix.size() - 1);
  std::vector<ordinal_t> b;
  for (int t = 0; t <= nchunks; ++t) {
    b.push_back(par::balanced_chunk_bound(n, prefix.data(), nchunks, t));
  }
  return b;
}

/// Every partition must be a contiguous, ascending cover of [0, n).
void expect_valid_partition(const std::vector<ordinal_t>& b, ordinal_t n) {
  ASSERT_GE(b.size(), 2u);
  EXPECT_EQ(b.front(), 0);
  EXPECT_EQ(b.back(), n);
  for (std::size_t i = 1; i < b.size(); ++i) EXPECT_LE(b[i - 1], b[i]) << i;
}

TEST(BalancedChunkBound, AllEqualCostsMatchesUniformSplit) {
  const std::vector<offset_t> prefix = prefix_of(std::vector<offset_t>(100, 5));
  const std::vector<ordinal_t> b = bounds_of(prefix, 4);
  expect_valid_partition(b, 100);
  EXPECT_EQ(b, (std::vector<ordinal_t>{0, 25, 50, 75, 100}));
}

TEST(BalancedChunkBound, OneGiantRowEndsItsChunk) {
  // Row 10 carries ~all the cost. Its chunk must close immediately after
  // it — the cheap tail [11, 40) must not pile onto the hub's chunk.
  std::vector<offset_t> costs(40, 1);
  costs[10] = 10000;
  const std::vector<offset_t> prefix = prefix_of(costs);
  const std::vector<ordinal_t> b = bounds_of(prefix, 4);
  expect_valid_partition(b, 40);
  int owner = -1;
  for (int c = 0; c < 4; ++c) {
    if (b[c] <= 10 && 10 < b[c + 1]) owner = c;
  }
  ASSERT_NE(owner, -1);
  EXPECT_EQ(b[owner + 1], 11) << "giant row should end its chunk";
  // Every per-chunk target lands inside the giant row, so it absorbs the
  // middle boundaries: only the first chunk holds it, the last holds the
  // tail.
  EXPECT_EQ(b, (std::vector<ordinal_t>{0, 11, 11, 11, 40}));
}

TEST(BalancedChunkBound, EmptyRowsAttachRight) {
  // Zero-cost rows between two heavy rows go with the chunk that starts at
  // the next costly row; trailing empties still reach the last chunk.
  std::vector<offset_t> costs{8, 0, 0, 0, 8, 0, 0};
  const std::vector<offset_t> prefix = prefix_of(costs);
  const std::vector<ordinal_t> b = bounds_of(prefix, 2);
  expect_valid_partition(b, 7);
  // Half the total (8) is reached at index 1... the first index whose
  // prefix >= 8 is row 1, so chunk 0 = [0,1), chunk 1 = [1,7).
  EXPECT_EQ(b[1], 1);
}

TEST(BalancedChunkBound, ZeroTotalCostFallsBackToUniform) {
  const std::vector<offset_t> prefix(31, 0);  // 30 rows, all cost 0
  const std::vector<ordinal_t> b = bounds_of(prefix, 3);
  EXPECT_EQ(b, (std::vector<ordinal_t>{0, 10, 20, 30}));
}

TEST(BalancedChunkBound, MoreChunksThanRows) {
  const std::vector<offset_t> prefix = prefix_of({3, 3});
  const std::vector<ordinal_t> b = bounds_of(prefix, 8);
  expect_valid_partition(b, 2);
}

TEST(BalancedChunkBound, BoundariesDependOnlyOnCosts) {
  // Same cost array, any thread configuration: identical boundaries.
  std::vector<offset_t> costs(1000);
  for (std::size_t i = 0; i < costs.size(); ++i) {
    costs[i] = static_cast<offset_t>((i * 37) % 101);
  }
  const std::vector<offset_t> prefix = prefix_of(costs);
  const std::vector<ordinal_t> ref = bounds_of(prefix, 6);
  for (int threads : {1, 2, 5}) {
    ScopedExecution scope(Backend::OpenMP, threads);
    EXPECT_EQ(bounds_of(prefix, 6), ref) << threads;
  }
}

class BalancedForSchedule : public ::testing::TestWithParam<Schedule> {};

TEST_P(BalancedForSchedule, CoversEveryIndexOnce) {
  std::vector<offset_t> costs(20000);
  for (std::size_t i = 0; i < costs.size(); ++i) {
    costs[i] = static_cast<offset_t>(i % 400 == 0 ? 5000 : 1);  // skewed
  }
  const std::vector<offset_t> prefix = prefix_of(costs);
  const std::pair<Backend, int> cfgs[] = {
      {Backend::Serial, 1}, {Backend::OpenMP, 3}, {Backend::OpenMP, 0}};
  for (auto [backend, threads] : cfgs) {
    ScopedExecution scope(backend, threads, GetParam());
    std::vector<int> hits(costs.size(), 0);
    par::balanced_for(static_cast<ordinal_t>(costs.size()), prefix.data(),
                      [&](ordinal_t i) { ++hits[static_cast<std::size_t>(i)]; });
    EXPECT_TRUE(std::all_of(hits.begin(), hits.end(), [](int h) { return h == 1; }))
        << "backend=" << static_cast<int>(backend) << " threads=" << threads;
  }
}

TEST_P(BalancedForSchedule, NullPrefixAndEmptyRange) {
  ScopedExecution scope(Backend::OpenMP, 2, GetParam());
  int count = 0;
  par::balanced_for(ordinal_t{0}, static_cast<const offset_t*>(nullptr),
                    [&](ordinal_t) { ++count; });
  EXPECT_EQ(count, 0);
  std::vector<int> hits(5000, 0);
  par::balanced_for(ordinal_t{5000}, static_cast<const offset_t*>(nullptr),
                    [&](ordinal_t i) { ++hits[static_cast<std::size_t>(i)]; });
  EXPECT_TRUE(std::all_of(hits.begin(), hits.end(), [](int h) { return h == 1; }));
}

INSTANTIATE_TEST_SUITE_P(Schedules, BalancedForSchedule,
                         ::testing::Values(Schedule::Static, Schedule::EdgeBalanced,
                                           Schedule::Dynamic));

TEST(BalancedChunks, ChunkIdsWithinCountAndDisjoint) {
  ScopedExecution scope(Backend::OpenMP, 4, Schedule::EdgeBalanced);
  std::vector<offset_t> costs(10000, 1);
  costs[0] = 100000;
  const std::vector<offset_t> prefix = prefix_of(costs);
  const int nc = par::balanced_chunk_count();
  std::vector<int> owner(costs.size(), -1);
  par::balanced_chunks(static_cast<ordinal_t>(costs.size()), prefix.data(),
                       [&](int chunk, ordinal_t lo, ordinal_t hi) {
                         ASSERT_GE(chunk, 0);
                         ASSERT_LT(chunk, nc);
                         for (ordinal_t i = lo; i < hi; ++i) {
                           owner[static_cast<std::size_t>(i)] = chunk;
                         }
                       });
  EXPECT_TRUE(std::all_of(owner.begin(), owner.end(), [](int o) { return o >= 0; }));
  // Ascending chunk ids over ascending indices (contiguous partition).
  EXPECT_TRUE(std::is_sorted(owner.begin(), owner.end()));
}

TEST(BalancedReduce, IntegralSumMatchesSerialUnderAllConfigs) {
  std::vector<offset_t> costs(30000);
  for (std::size_t i = 0; i < costs.size(); ++i) {
    costs[i] = static_cast<offset_t>((i * 13) % 97);
  }
  const std::vector<offset_t> prefix = prefix_of(costs);
  const ordinal_t n = static_cast<ordinal_t>(costs.size());
  auto f = [&](ordinal_t i) -> std::int64_t { return costs[static_cast<std::size_t>(i)] * 3 + 1; };
  std::int64_t expected = 0;
  for (ordinal_t i = 0; i < n; ++i) expected += f(i);
  for (Schedule s : {Schedule::Static, Schedule::EdgeBalanced}) {
    const std::pair<Backend, int> cfgs[] = {
        {Backend::Serial, 1}, {Backend::OpenMP, 2}, {Backend::OpenMP, 0}};
    for (auto [backend, threads] : cfgs) {
      ScopedExecution scope(backend, threads, s);
      EXPECT_EQ(par::balanced_reduce_sum<std::int64_t>(n, prefix.data(), f), expected);
      EXPECT_EQ(par::balanced_count_if(n, prefix.data(),
                                       [&](ordinal_t i) { return f(i) % 2 == 0; }),
                std::count_if(costs.begin(), costs.end(),
                              [](offset_t c) { return (c * 3 + 1) % 2 == 0; }));
    }
  }
}

/// Chunk ids `balanced_chunks_by_work` runs for an `n`-iteration loop over
/// `prefix`, ascending; checks the chunks cover [0, n) exactly once.
std::vector<int> work_gated_chunks(ordinal_t n, const offset_t* prefix) {
  std::vector<int> owner(static_cast<std::size_t>(n), -1);
  std::vector<int> ids;
  std::mutex mu;
  par::balanced_chunks_by_work(n, prefix, [&](int chunk, ordinal_t lo, ordinal_t hi) {
    for (ordinal_t i = lo; i < hi; ++i) {
      EXPECT_EQ(owner[static_cast<std::size_t>(i)], -1) << i;
      owner[static_cast<std::size_t>(i)] = chunk;
    }
    std::lock_guard<std::mutex> lock(mu);
    ids.push_back(chunk);
  });
  EXPECT_TRUE(std::all_of(owner.begin(), owner.end(), [](int o) { return o >= 0; }));
  EXPECT_TRUE(std::is_sorted(owner.begin(), owner.end()));
  std::sort(ids.begin(), ids.end());
  return ids;
}

TEST(BalancedChunksByWork, FewHeavyRowsSplitFewLightRowsStayWhole) {
  // 300 iterations: below the 512-iteration count gate of balanced_chunks.
  const ordinal_t n = 300;
  const std::vector<offset_t> heavy = prefix_of(std::vector<offset_t>(300, 1000));
  const std::vector<offset_t> light = prefix_of(std::vector<offset_t>(300, 2));
  ASSERT_GE(heavy.back(), par::balanced_work_grain);
  ASSERT_LT(light.back(), par::balanced_work_grain);
#ifdef PARMIS_HAVE_OPENMP
  const std::vector<int> split{0, 1, 2};
#else
  const std::vector<int> split{0};  // OpenMP requests resolve to Serial
#endif
  for (Schedule s : {Schedule::Static, Schedule::EdgeBalanced, Schedule::Dynamic}) {
    {
      ScopedExecution scope(Backend::OpenMP, 3, s);
      EXPECT_EQ(work_gated_chunks(n, heavy.data()), split)
          << "schedule " << static_cast<int>(s);
      EXPECT_EQ(work_gated_chunks(n, light.data()), std::vector<int>{0});
      // The generic gate is untouched: the heavy loop stays one chunk there.
      int calls = 0;
      par::balanced_chunks(n, heavy.data(), [&](int, ordinal_t, ordinal_t) { ++calls; });
      EXPECT_EQ(calls, 1);
    }
    {
      ScopedExecution scope(Backend::Serial, 1, s);
      EXPECT_EQ(work_gated_chunks(n, heavy.data()), std::vector<int>{0});
    }
  }
}

TEST(BalancedChunksByWork, EmptyRangeAndNullPrefixAreSafe) {
  const std::vector<offset_t> one = prefix_of({});
  for (Backend backend : {Backend::Serial, Backend::OpenMP}) {
    ScopedExecution scope(backend, 3, Schedule::EdgeBalanced);
    EXPECT_TRUE(work_gated_chunks(0, static_cast<const offset_t*>(nullptr)).empty());
    EXPECT_TRUE(work_gated_chunks(0, one.data()).empty());
    // A null prefix (what a serial SpGEMM passes) leaves only the count gate.
    EXPECT_EQ(work_gated_chunks(300, static_cast<const offset_t*>(nullptr)),
              std::vector<int>{0});
    const std::vector<int> many = work_gated_chunks(5000, static_cast<const offset_t*>(nullptr));
    EXPECT_EQ(many.size(), static_cast<std::size_t>(par::balanced_chunk_count()));
  }
}

// ---------------------------------------------------------------- SpGEMM

/// The historical two-pass SpGEMM, kept as the equivalence reference: a
/// dense-accumulator pass with identical per-row accumulation order, so
/// the fused kernel must match it bit-for-bit (entries *and* values).
graph::CrsMatrix spgemm_two_pass_reference(const graph::CrsMatrix& a,
                                           const graph::CrsMatrix& b) {
  graph::CrsMatrix c;
  c.num_rows = a.num_rows;
  c.num_cols = b.num_cols;
  c.row_map.assign(static_cast<std::size_t>(a.num_rows) + 1, 0);
  std::vector<scalar_t> acc(static_cast<std::size_t>(b.num_cols), 0);
  std::vector<char> seen(static_cast<std::size_t>(b.num_cols), 0);
  std::vector<ordinal_t> touched;
  auto accumulate_row = [&](ordinal_t i) {
    touched.clear();
    for (offset_t ja = a.row_map[i]; ja < a.row_map[i + 1]; ++ja) {
      const ordinal_t k = a.entries[static_cast<std::size_t>(ja)];
      const scalar_t av = a.values[static_cast<std::size_t>(ja)];
      for (offset_t jb = b.row_map[k]; jb < b.row_map[k + 1]; ++jb) {
        const ordinal_t j = b.entries[static_cast<std::size_t>(jb)];
        const scalar_t bv = b.values[static_cast<std::size_t>(jb)];
        if (!seen[static_cast<std::size_t>(j)]) {
          seen[static_cast<std::size_t>(j)] = 1;
          acc[static_cast<std::size_t>(j)] = av * bv;
          touched.push_back(j);
        } else {
          acc[static_cast<std::size_t>(j)] += av * bv;
        }
      }
    }
  };
  for (ordinal_t i = 0; i < a.num_rows; ++i) {
    accumulate_row(i);
    c.row_map[static_cast<std::size_t>(i) + 1] =
        c.row_map[static_cast<std::size_t>(i)] + static_cast<offset_t>(touched.size());
    for (ordinal_t j : touched) seen[static_cast<std::size_t>(j)] = 0;
  }
  c.entries.resize(static_cast<std::size_t>(c.row_map.back()));
  c.values.resize(static_cast<std::size_t>(c.row_map.back()));
  for (ordinal_t i = 0; i < a.num_rows; ++i) {  // the redundant second pass
    accumulate_row(i);
    std::sort(touched.begin(), touched.end());
    offset_t o = c.row_map[i];
    for (ordinal_t j : touched) {
      c.entries[static_cast<std::size_t>(o)] = j;
      c.values[static_cast<std::size_t>(o)] = acc[static_cast<std::size_t>(j)];
      ++o;
      seen[static_cast<std::size_t>(j)] = 0;
    }
  }
  return c;
}

graph::CrsMatrix skewed_test_matrix() {
  const graph::CrsGraph g = graph::power_law_graph(900, 2.2, 2, 150, 3);
  return graph::laplacian_matrix(g, 0.5);
}

TEST(SpgemmFused, MatchesTwoPassReferenceBitExactly) {
  const graph::CrsMatrix a = skewed_test_matrix();
  const graph::CrsMatrix ref = spgemm_two_pass_reference(a, a);
  for (Schedule s : {Schedule::Static, Schedule::EdgeBalanced, Schedule::Dynamic}) {
    const std::pair<Backend, int> cfgs[] = {
        {Backend::Serial, 1}, {Backend::OpenMP, 3}, {Backend::OpenMP, 0}};
    for (auto [backend, threads] : cfgs) {
      ScopedExecution scope(backend, threads, s);
      const graph::CrsMatrix c = graph::spgemm(a, a);
      EXPECT_EQ(c.row_map, ref.row_map);
      EXPECT_EQ(c.entries, ref.entries);
      EXPECT_EQ(c.values, ref.values);  // bit-exact: same accumulation order
    }
  }
}

TEST(SpgemmFused, SinglePassTraversalCounter) {
  const graph::CrsMatrix a = skewed_test_matrix();
  const std::pair<Backend, int> cfgs[] = {{Backend::Serial, 1}, {Backend::OpenMP, 0}};
  for (auto [backend, threads] : cfgs) {
    ScopedExecution scope(backend, threads, Schedule::EdgeBalanced);
    graph::spgemm_reset_stats();
    (void)graph::spgemm(a, a);
    // One inner product per output row — the two-pass kernel would report
    // 2 * num_rows here.
    EXPECT_EQ(graph::spgemm_rows_traversed(), a.num_rows);
  }
  // The fused Galerkin product forms each fine row's A·P row once and
  // never traverses a coarse row.
  multilevel::HierarchyHandle h;
  const std::vector<multilevel::OperatorLevel>& ops =
      multilevel::Builder(multilevel::Options{}).build_galerkin(a, h);
  ASSERT_GE(ops.size(), 2u);
  for (auto [backend, threads] : cfgs) {
    ScopedExecution scope(backend, threads, Schedule::EdgeBalanced);
    graph::FusedGalerkinScratch scratch;
    graph::spgemm_reset_stats();
    (void)graph::galerkin_fused(ops[0].a, ops[0].p, scratch);
    EXPECT_EQ(graph::spgemm_rows_traversed(), a.num_rows);
  }
}

/// Value bit patterns: `==` on doubles equates +0.0 with -0.0, and the
/// signed-zero column below must match in sign too.
std::vector<std::uint64_t> bits_of(const std::vector<scalar_t>& v) {
  std::vector<std::uint64_t> out(v.size());
  std::transform(v.begin(), v.end(), out.begin(),
                 [](scalar_t x) { return std::bit_cast<std::uint64_t>(x); });
  return out;
}

/// Rows of `a·b` by the cold kernel's two per-row shortcuts.
struct RowKinds {
  int fills_early = 0;     // every column touched before the row's last A entry
  int dense_unfilled = 0;  // ≥ 1/8 of the columns (dense emit), never full
};

RowKinds classify_rows(const graph::CrsMatrix& a, const graph::CrsMatrix& b) {
  RowKinds kinds;
  const std::size_t ncols = static_cast<std::size_t>(b.num_cols);
  for (ordinal_t i = 0; i < a.num_rows; ++i) {
    std::vector<char> seen(ncols, 0);
    std::size_t count = 0;
    for (offset_t ja = a.row_map[i]; ja < a.row_map[i + 1]; ++ja) {
      for (ordinal_t j : b.row(a.entries[static_cast<std::size_t>(ja)])) {
        count += seen[static_cast<std::size_t>(j)] == 0 ? 1 : 0;
        seen[static_cast<std::size_t>(j)] = 1;
      }
      if (count == ncols && ja + 1 < a.row_map[i + 1]) {
        ++kinds.fills_early;
        break;
      }
    }
    if (count < ncols && count * 8 >= ncols) ++kinds.dense_unfilled;
  }
  return kinds;
}

TEST(SpgemmFused, FewRowsDenseProductMatchesReferenceAcrossConfigs) {
  // The coarse Galerkin product R·(A·P) of a power-law Laplacian's first
  // AMG level: a few dozen rows, most of them fully dense, carrying enough
  // flops to pass the SpGEMM work gate although far below the 512-row
  // count gate.
  const graph::CrsMatrix a =
      graph::laplacian_matrix(graph::power_law_graph(2000, 2.2, 4, 64, 42), 1.0);
  multilevel::HierarchyHandle h;
  const std::vector<multilevel::OperatorLevel>& ops =
      multilevel::Builder(multilevel::Options{}).build_galerkin(a, h);
  ASSERT_GE(ops.size(), 2u);
  const graph::CrsMatrix& r = ops[0].r;
  graph::CrsMatrix ap;
  {
    ScopedExecution scope(Backend::Serial, 1);
    ap = graph::spgemm(ops[0].a, ops[0].p);
  }
  // Reshape A·P so the product has every kind of row the kernels special-
  // case. Column 0 becomes zeros of alternating sign: its contributions to
  // each product row sum to exactly zero, with a sign set by the
  // accumulation order. Column 1 becomes -0.0 throughout, so rows fed only
  // by positive R entries (all of them here) end in -0.0, the case a replay
  // seeded with +0.0 would get wrong. Column 2 survives in a single row,
  // k* = the second-to-last column of R's row 0: product rows that do not
  // reach k* stay one column short of full — past the dense-emit threshold
  // but never full — while product row 0 meets column 2 only at its
  // second-to-last entry, so it fills there, one entry before its end,
  // after sitting one column short across whole rows of A·P.
  ASSERT_GE(ap.num_cols, 3);
  ASSERT_GE(r.row_map[1] - r.row_map[0], 2);
  const ordinal_t k_star = r.entries[static_cast<std::size_t>(r.row_map[1]) - 2];
  {
    graph::CrsMatrix shaped;
    shaped.num_rows = ap.num_rows;
    shaped.num_cols = ap.num_cols;
    shaped.row_map.assign(1, 0);
    for (ordinal_t k = 0; k < ap.num_rows; ++k) {
      bool col2_done = k != k_star;
      for (offset_t jb = ap.row_map[k]; jb < ap.row_map[k + 1]; ++jb) {
        const ordinal_t j = ap.entries[static_cast<std::size_t>(jb)];
        scalar_t v = ap.values[static_cast<std::size_t>(jb)];
        if (j == 0) v = (k % 2 == 0) ? 0.0 : -0.0;
        if (j == 1) v = -0.0;
        if (j >= 2 && !col2_done) {
          shaped.entries.push_back(2);
          shaped.values.push_back(0.5);
          col2_done = true;
        }
        if (j == 2) continue;
        shaped.entries.push_back(j);
        shaped.values.push_back(v);
      }
      if (!col2_done) {
        shaped.entries.push_back(2);
        shaped.values.push_back(0.5);
      }
      shaped.row_map.push_back(static_cast<offset_t>(shaped.entries.size()));
    }
    ap = std::move(shaped);
  }

  const RowKinds kinds = classify_rows(r, ap);
  EXPECT_GT(kinds.fills_early, 0);
  EXPECT_GT(kinds.dense_unfilled, 0);
  std::int64_t flops = 0;
  for (ordinal_t k : r.entries) flops += ap.row_map[k + 1] - ap.row_map[k];
  ASSERT_LT(r.num_rows, par::parallel_for_grain);
  ASSERT_GE(flops, par::balanced_work_grain);
  const graph::CrsMatrix ref = spgemm_two_pass_reference(r, ap);
  int negative_zeros = 0;
  int positive_zeros = 0;
  for (std::size_t e = 0; e < ref.entries.size(); ++e) {
    if (ref.entries[e] > 1) continue;
    EXPECT_EQ(ref.values[e], 0.0);
    ++(std::signbit(ref.values[e]) ? negative_zeros : positive_zeros);
  }
  EXPECT_GT(negative_zeros, 0);
  EXPECT_GT(positive_zeros, 0);

  const std::vector<std::uint64_t> ref_bits = bits_of(ref.values);
  const std::pair<Backend, int> cfgs[] = {
      {Backend::Serial, 1}, {Backend::OpenMP, 1}, {Backend::OpenMP, 3}, {Backend::OpenMP, 4}};
  for (Schedule s : {Schedule::Static, Schedule::EdgeBalanced, Schedule::Dynamic}) {
    for (auto [backend, threads] : cfgs) {
      ScopedExecution scope(backend, threads, s);
      const std::string where = "backend=" + std::to_string(static_cast<int>(backend)) +
                                " threads=" + std::to_string(threads) +
                                " schedule=" + std::to_string(static_cast<int>(s));
      const graph::CrsMatrix c = graph::spgemm(r, ap);
      EXPECT_EQ(c.row_map, ref.row_map) << where;
      EXPECT_EQ(c.entries, ref.entries) << where;
      EXPECT_EQ(bits_of(c.values), ref_bits) << where;

      graph::CrsMatrix replay = c;
      std::fill(replay.values.begin(), replay.values.end(),
                std::numeric_limits<scalar_t>::quiet_NaN());
      graph::spgemm_numeric(r, ap, replay);
      EXPECT_EQ(bits_of(replay.values), ref_bits) << where;
    }
  }

  // The fused Galerkin product Pᵀ·A·P against the two CRS products it
  // replaces, on a level large enough for three tiles of A·P rows. P is
  // reshaped on the same pattern: column 0 holds zeros of alternating sign,
  // column 1 holds -0.0, and column 2 holds ±1 by row parity. A's values
  // are small integers, so every product and sum through column 2 is exact
  // and some of them cancel to exactly +0.0.
  const graph::CrsMatrix big =
      graph::laplacian_matrix(graph::power_law_graph(4000, 2.2, 4, 64, 42), 1.0);
  multilevel::HierarchyHandle big_h;
  const std::vector<multilevel::OperatorLevel>& big_ops =
      multilevel::Builder(multilevel::Options{}).build_galerkin(big, big_h);
  ASSERT_GE(big_ops.size(), 2u);
  const graph::CrsMatrix& fa = big_ops[0].a;
  graph::CrsMatrix fp = big_ops[0].p;
  ASSERT_TRUE(graph::fused_galerkin_applies(fa, fp));
  ASSERT_GE(fp.num_cols, 3);
  ASSERT_GT(fa.num_rows, 2 * (graph::fused_tile_entries / fp.num_cols));
  for (ordinal_t i = 0; i < fp.num_rows; ++i) {
    for (offset_t e = fp.row_map[i]; e < fp.row_map[i + 1]; ++e) {
      const ordinal_t col = fp.entries[static_cast<std::size_t>(e)];
      scalar_t& v = fp.values[static_cast<std::size_t>(e)];
      if (col == 0) v = (i % 2 == 0) ? 0.0 : -0.0;
      if (col == 1) v = -0.0;
      if (col == 2) v = (i % 2 == 0) ? 1.0 : -1.0;
    }
  }
  const graph::CrsMatrix fap = spgemm_two_pass_reference(fa, fp);
  const graph::CrsMatrix fref = spgemm_two_pass_reference(graph::transpose_matrix(fp), fap);
  int full_rows = 0;
  int cancelled = 0;
  for (ordinal_t i = 0; i < fap.num_rows; ++i) {
    full_rows += fap.degree(i) == fap.num_cols ? 1 : 0;
    for (offset_t e = fap.row_map[i]; e < fap.row_map[i + 1]; ++e) {
      const scalar_t v = fap.values[static_cast<std::size_t>(e)];
      const bool plus_zero = std::bit_cast<std::uint64_t>(v) == 0;
      cancelled += fap.entries[static_cast<std::size_t>(e)] == 2 && plus_zero ? 1 : 0;
    }
  }
  EXPECT_GT(full_rows, 0);
  EXPECT_LT(full_rows, fap.num_rows);  // partial rows take the masked update
  EXPECT_GT(cancelled, 0);
  int fused_negative_zeros = 0;
  int fused_positive_zeros = 0;
  for (scalar_t v : fref.values) {
    if (v != 0.0) continue;
    ++(std::signbit(v) ? fused_negative_zeros : fused_positive_zeros);
  }
  EXPECT_GT(fused_negative_zeros, 0);
  EXPECT_GT(fused_positive_zeros, 0);

  const std::vector<std::uint64_t> fref_bits = bits_of(fref.values);
  graph::FusedGalerkinScratch scratch;
  for (Schedule s : {Schedule::Static, Schedule::EdgeBalanced, Schedule::Dynamic}) {
    for (auto [backend, threads] : cfgs) {
      ScopedExecution scope(backend, threads, s);
      const std::string where = "fused backend=" + std::to_string(static_cast<int>(backend)) +
                                " threads=" + std::to_string(threads) +
                                " schedule=" + std::to_string(static_cast<int>(s));
      const graph::CrsMatrix c = graph::galerkin_fused(fa, fp, scratch);
      EXPECT_EQ(c.row_map, fref.row_map) << where;
      EXPECT_EQ(c.entries, fref.entries) << where;
      EXPECT_EQ(bits_of(c.values), fref_bits) << where;

      graph::CrsMatrix replay = c;
      std::fill(replay.values.begin(), replay.values.end(),
                std::numeric_limits<scalar_t>::quiet_NaN());
      graph::galerkin_fused_numeric(fa, fp, scratch, replay);
      EXPECT_EQ(bits_of(replay.values), fref_bits) << where;
    }
  }
}

/// The `PARMIS_WIDE_KERNEL` build the loader binds on this CPU: the same
/// priority the multi-versioning resolver applies (parallel/simd.hpp).
const char* wide_kernel_build() {
#if (defined(__GNUC__) || defined(__clang__)) && defined(__x86_64__) && defined(__ELF__)
  if (__builtin_cpu_supports("avx512f")) return "avx512f";
  if (__builtin_cpu_supports("avx2")) return "avx2";
  return "default";
#else
  return "single build";
#endif
}

TEST(SpgemmFused, WideKernelRemaindersMatchReference) {
  // Synthetic P at coarse widths that land on every vector remainder and
  // on a partial last bitset word: 1, 7, 63 lanes (one partial word), 64
  // (one full word), 65 and 130 (a full word plus a partial one). Values
  // are inexact fractions of both signs and some -0.0, so a reassociated
  // or contracted lane would show in the bits; every fifth P row is empty,
  // so A·P rows stay partial even at small widths.
  std::printf("[ wide kernel ] fused Galerkin product runs the %s build\n", wide_kernel_build());
  const graph::CrsMatrix a =
      graph::laplacian_matrix(graph::power_law_graph(3000, 2.2, 3, 80, 11), 0.3);
  const std::pair<Backend, int> cfgs[] = {
      {Backend::Serial, 1}, {Backend::OpenMP, 1}, {Backend::OpenMP, 3}, {Backend::OpenMP, 4}};
  for (const ordinal_t nc : {1, 7, 63, 64, 65, 130}) {
    graph::CrsMatrix p;
    p.num_rows = a.num_rows;
    p.num_cols = nc;
    p.row_map.assign(1, 0);
    for (ordinal_t i = 0; i < a.num_rows; ++i) {
      if (i % 5 != 4) {
        const ordinal_t c0 = (i * 7 + 3) % nc;
        const ordinal_t c1 = (i * 13 + 5) % nc;
        p.entries.push_back(std::min(c0, c1));
        p.values.push_back(i % 11 == 0 ? -0.0 : 0.1 * ((i * 29) % 17) - 0.75);
        if (c1 != c0) {
          p.entries.push_back(std::max(c0, c1));
          p.values.push_back(1.0 / (3.0 + (i % 7)));
        }
      }
      p.row_map.push_back(static_cast<offset_t>(p.entries.size()));
    }
    const graph::CrsMatrix ref =
        spgemm_two_pass_reference(graph::transpose_matrix(p), spgemm_two_pass_reference(a, p));
    const std::vector<std::uint64_t> ref_bits = bits_of(ref.values);
    graph::FusedGalerkinScratch scratch;
    for (auto [backend, threads] : cfgs) {
      ScopedExecution scope(backend, threads);
      const std::string where = "nc=" + std::to_string(nc) +
                                " backend=" + std::to_string(static_cast<int>(backend)) +
                                " threads=" + std::to_string(threads);
      const graph::CrsMatrix c = graph::galerkin_fused(a, p, scratch);
      EXPECT_EQ(c.row_map, ref.row_map) << where;
      EXPECT_EQ(c.entries, ref.entries) << where;
      EXPECT_EQ(bits_of(c.values), ref_bits) << where;

      graph::CrsMatrix replay = c;
      std::fill(replay.values.begin(), replay.values.end(),
                std::numeric_limits<scalar_t>::quiet_NaN());
      graph::galerkin_fused_numeric(a, p, scratch, replay);
      EXPECT_EQ(bits_of(replay.values), ref_bits) << where;
    }
  }
}

TEST(TransposeParallel, MatchesSerialReferenceAcrossConfigs) {
  const graph::CrsMatrix a = skewed_test_matrix();
  // Reference: the classical serial counting sort.
  graph::CrsMatrix ref;
  {
    ScopedExecution scope(Backend::Serial, 1);
    ref = graph::transpose_matrix(a);
  }
  // Transpose of a symmetric matrix is itself — sanity on the reference.
  EXPECT_EQ(ref.row_map, a.row_map);
  EXPECT_EQ(ref.entries, a.entries);
  for (Schedule s : {Schedule::Static, Schedule::EdgeBalanced}) {
    for (int threads : {2, 3, 0}) {
      ScopedExecution scope(Backend::OpenMP, threads, s);
      const graph::CrsMatrix t = graph::transpose_matrix(a);
      EXPECT_EQ(t.row_map, ref.row_map);
      EXPECT_EQ(t.entries, ref.entries);
      EXPECT_EQ(t.values, ref.values);
    }
  }
}

TEST(TransposeParallel, RectangularAndEmpty) {
  // Rectangular: 3x5 with a dense-ish pattern, checked by hand via COO.
  std::vector<graph::Triplet> trips{{0, 4, 1.0}, {0, 0, 2.0}, {1, 2, 3.0},
                                    {2, 2, 4.0}, {2, 3, 5.0}};
  const graph::CrsMatrix a = graph::matrix_from_coo(3, 5, trips);
  ScopedExecution scope(Backend::OpenMP, 0, Schedule::EdgeBalanced);
  const graph::CrsMatrix t = graph::transpose_matrix(a);
  EXPECT_EQ(t.num_rows, 5);
  EXPECT_EQ(t.num_cols, 3);
  std::multimap<std::pair<ordinal_t, ordinal_t>, scalar_t> expect;
  for (const auto& tr : trips) expect.insert({{tr.col, tr.row}, tr.value});
  for (ordinal_t i = 0; i < t.num_rows; ++i) {
    for (offset_t j = t.row_map[i]; j < t.row_map[i + 1]; ++j) {
      const auto it = expect.find({i, t.entries[static_cast<std::size_t>(j)]});
      ASSERT_NE(it, expect.end());
      EXPECT_DOUBLE_EQ(it->second, t.values[static_cast<std::size_t>(j)]);
    }
  }
  EXPECT_EQ(t.num_entries(), static_cast<offset_t>(trips.size()));

  const graph::CrsMatrix none = graph::transpose_matrix(graph::CrsMatrix{});
  EXPECT_EQ(none.num_rows, 0);
  EXPECT_EQ(none.num_entries(), 0);
}

// ------------------------------------------------------- schedule results

TEST(ScheduleInvariance, Mis2AndSpmvIdenticalUnderStaticAndEdgeBalanced) {
  const graph::CrsGraph g = graph::power_law_graph(3000, 2.2, 3, 300, 21);
  const graph::CrsMatrix m = graph::laplacian_matrix(g, 1.0);
  std::vector<scalar_t> x(static_cast<std::size_t>(m.num_rows));
  for (std::size_t i = 0; i < x.size(); ++i) x[i] = 1.0 / static_cast<double>(i + 1);

  std::vector<ordinal_t> ref_members;
  std::vector<scalar_t> ref_y;
  bool first = true;
  for (Schedule s : {Schedule::Static, Schedule::EdgeBalanced}) {
    const std::pair<Backend, int> cfgs[] = {
        {Backend::Serial, 1}, {Backend::OpenMP, 2}, {Backend::OpenMP, 0}};
    for (auto [backend, threads] : cfgs) {
      Context ctx;
      ctx.backend = backend;
      ctx.num_threads = threads;
      ctx.schedule = s;
      core::Mis2Handle handle(ctx);
      const std::vector<ordinal_t> members = handle.run(g).members;
      std::vector<scalar_t> y(x.size(), 0);
      {
        Context::Scope scope(ctx);
        graph::spmv(m, x, y);
      }
      if (first) {
        ref_members = members;
        ref_y = y;
        first = false;
      } else {
        EXPECT_EQ(members, ref_members)
            << "schedule=" << static_cast<int>(s) << " threads=" << threads;
        EXPECT_EQ(y, ref_y) << "schedule=" << static_cast<int>(s) << " threads=" << threads;
      }
    }
  }
}

TEST(ScheduleContext, DefaultCtxSnapshotsAndScopePins) {
  EXPECT_EQ(Context{}.schedule, Schedule::EdgeBalanced);
  {
    ScopedExecution outer(Backend::Serial, 1, Schedule::Static);
    EXPECT_EQ(Context::default_ctx().schedule, Schedule::Static);
    Context ctx;
    ctx.schedule = Schedule::Dynamic;
    {
      Context::Scope scope(ctx);
      EXPECT_EQ(Execution::schedule(), Schedule::Dynamic);
    }
    EXPECT_EQ(Execution::schedule(), Schedule::Static);  // restored
  }
}

}  // namespace
}  // namespace parmis
