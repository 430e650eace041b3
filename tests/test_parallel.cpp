/// \file test_parallel.cpp
/// \brief Unit and property tests for the portable execution layer:
/// parallel_for, deterministic reductions, blocked scans, compaction, and
/// the SIMD gather reductions.

#include <gtest/gtest.h>

#include <numeric>
#include <vector>

#include "check/alloc_guard.hpp"
#include "parallel/execution.hpp"
#include "parallel/parallel_for.hpp"
#include "parallel/parallel_reduce.hpp"
#include "parallel/parallel_scan.hpp"
#include "parallel/simd.hpp"

namespace parmis {
namespace {

using par::Backend;
using par::Execution;
using par::ScopedExecution;

TEST(Execution, BackendSelection) {
  ScopedExecution scope(Backend::Serial, 0);
  EXPECT_EQ(Execution::backend(), Backend::Serial);
  EXPECT_EQ(Execution::num_threads(), 1);
  EXPECT_FALSE(Execution::is_parallel());
}

TEST(Execution, ThreadCountClamp) {
  ScopedExecution scope(Backend::OpenMP, 3);
#ifdef PARMIS_HAVE_OPENMP
  EXPECT_EQ(Execution::num_threads(), 3);
#else
  EXPECT_EQ(Execution::num_threads(), 1);
#endif
}

TEST(Execution, ScopedRestores) {
  const Backend before = Execution::backend();
  const int threads_before = Execution::num_threads();
  {
    ScopedExecution scope(Backend::Serial, 1);
    EXPECT_EQ(Execution::backend(), Backend::Serial);
  }
  EXPECT_EQ(Execution::backend(), before);
  EXPECT_EQ(Execution::num_threads(), threads_before);
}

TEST(ParallelFor, CoversEveryIndexOnce) {
  const std::int64_t n = 100000;
  std::vector<int> hits(n, 0);
  par::parallel_for(n, [&](std::int64_t i) { ++hits[static_cast<std::size_t>(i)]; });
  EXPECT_TRUE(std::all_of(hits.begin(), hits.end(), [](int h) { return h == 1; }));
}

TEST(ParallelFor, EmptyAndTinyRanges) {
  int count = 0;
  par::parallel_for(std::int64_t{0}, [&](std::int64_t) { ++count; });
  EXPECT_EQ(count, 0);
  par::parallel_for(std::int64_t{1}, [&](std::int64_t) { ++count; });
  EXPECT_EQ(count, 1);
}

TEST(ParallelForRange, OffsetsApplied) {
  std::vector<std::int64_t> seen;
  std::vector<char> flag(20, 0);
  par::parallel_for_range<std::int64_t>(5, 15, [&](std::int64_t i) {
    flag[static_cast<std::size_t>(i)] = 1;
  });
  for (std::int64_t i = 0; i < 20; ++i) {
    EXPECT_EQ(flag[static_cast<std::size_t>(i)], (i >= 5 && i < 15) ? 1 : 0) << i;
  }
}

TEST(ParallelReduce, SumMatchesSerial) {
  const std::int64_t n = 123457;
  const std::int64_t total =
      par::reduce_sum<std::int64_t>(n, [](std::int64_t i) { return i; });
  EXPECT_EQ(total, n * (n - 1) / 2);
}

TEST(ParallelReduce, MinMaxIdentities) {
  EXPECT_EQ(par::reduce_min<int>(std::int64_t{0}, [](std::int64_t) { return 1; }, 42), 42);
  EXPECT_EQ(par::reduce_max<int>(std::int64_t{0}, [](std::int64_t) { return 1; }, -7), -7);
  const int mn = par::reduce_min<int>(
      std::int64_t{10000}, [](std::int64_t i) { return static_cast<int>((i * 7919) % 1001); },
      1 << 30);
  EXPECT_EQ(mn, 0);
}

TEST(ParallelReduce, FloatSumIsThreadCountInvariant) {
  // The raison d'être of the fixed-chunk reduction: bit-identical floating
  // sums regardless of parallelism.
  const std::int64_t n = 1 << 18;
  auto f = [](std::int64_t i) { return 1.0 / static_cast<double>(i + 1); };
  double serial_val = 0, two_thread_val = 0, many_thread_val = 0;
  {
    ScopedExecution scope(Backend::Serial, 1);
    serial_val = par::reduce_sum<double>(n, f);
  }
  {
    ScopedExecution scope(Backend::OpenMP, 2);
    two_thread_val = par::reduce_sum<double>(n, f);
  }
  {
    ScopedExecution scope(Backend::OpenMP, 0);
    many_thread_val = par::reduce_sum<double>(n, f);
  }
  EXPECT_EQ(serial_val, two_thread_val);
  EXPECT_EQ(serial_val, many_thread_val);
}

TEST(ParallelReduce, NonCommutativeJoinOrdered) {
  // join = string-like fold encoded in integers: (a, b) -> a * 31 + b.
  // Only a strictly left-to-right combine yields the serial answer.
  const std::int64_t n = 50000;
  auto f = [](std::int64_t i) { return static_cast<std::uint64_t>(i % 97); };
  auto join = [](std::uint64_t a, std::uint64_t b) { return a * 31 + b; };
  std::uint64_t serial_acc = 0;
  for (std::int64_t i = 0; i < n; ++i) serial_acc = join(serial_acc, f(i));

  // The chunked reduce applies join between chunk partials, which is NOT
  // the same as elementwise for non-associative joins; but determinism
  // still demands identical output across thread counts.
  std::uint64_t v1, v2;
  {
    ScopedExecution scope(Backend::OpenMP, 2);
    v1 = par::parallel_reduce<std::uint64_t>(n, f, join, std::uint64_t{0});
  }
  {
    ScopedExecution scope(Backend::OpenMP, 0);
    v2 = par::parallel_reduce<std::uint64_t>(n, f, join, std::uint64_t{0});
  }
  EXPECT_EQ(v1, v2);
}

TEST(CountIf, MatchesSerialFilter) {
  const std::int64_t n = 99991;
  const std::int64_t c = par::count_if(n, [](std::int64_t i) { return i % 3 == 0; });
  EXPECT_EQ(c, (n + 2) / 3);
}

class ScanTest : public ::testing::TestWithParam<std::int64_t> {};

TEST_P(ScanTest, ExclusiveMatchesStd) {
  const std::int64_t n = GetParam();
  std::vector<std::int64_t> data(static_cast<std::size_t>(n));
  for (std::int64_t i = 0; i < n; ++i) data[static_cast<std::size_t>(i)] = (i * 37) % 11;
  std::vector<std::int64_t> expected(data.size());
  std::exclusive_scan(data.begin(), data.end(), expected.begin(), std::int64_t{0});
  const std::int64_t expected_total = std::accumulate(data.begin(), data.end(), std::int64_t{0});

  std::vector<std::int64_t> got = data;
  const std::int64_t total = par::exclusive_scan_inplace(std::span<std::int64_t>(got));
  EXPECT_EQ(total, expected_total);
  EXPECT_EQ(got, expected);
}

TEST_P(ScanTest, InclusiveMatchesStd) {
  const std::int64_t n = GetParam();
  std::vector<std::int64_t> data(static_cast<std::size_t>(n));
  for (std::int64_t i = 0; i < n; ++i) data[static_cast<std::size_t>(i)] = (i * 13) % 7 - 3;
  std::vector<std::int64_t> expected(data.size());
  std::inclusive_scan(data.begin(), data.end(), expected.begin());

  std::vector<std::int64_t> got = data;
  par::inclusive_scan_inplace(std::span<std::int64_t>(got));
  EXPECT_EQ(got, expected);
}

INSTANTIATE_TEST_SUITE_P(Sizes, ScanTest,
                         ::testing::Values(0, 1, 2, 100, 8191, 8192, 8193, 50000, 262144));

// Past `scan_block * scan_max_blocks` elements the block widens instead of
// multiplying; at every length a parallel scan stays exact and off the heap.
TEST(Scan, WideInputsAreExactAndAllocationFree) {
  ScopedExecution scope(Backend::OpenMP, 3);
  const std::int64_t wide = par::scan_block * par::scan_max_blocks + 12345;
  EXPECT_GT(par::scan_block_width(wide), par::scan_block);
  for (const std::int64_t n : {par::scan_block + 1, std::int64_t{100000}, wide}) {
    std::vector<std::int32_t> data(static_cast<std::size_t>(n));
    for (std::int64_t i = 0; i < n; ++i) data[static_cast<std::size_t>(i)] = (i * 37) % 11;
    std::vector<std::int32_t> expected(data.size());
    std::exclusive_scan(data.begin(), data.end(), expected.begin(), std::int32_t{0});
    const check::AllocGuard guard;
    const std::int32_t total = par::exclusive_scan_inplace(std::span<std::int32_t>(data));
    if (check::counting_available()) EXPECT_EQ(0u, guard.allocations()) << "n=" << n;
    EXPECT_EQ(total, expected.back() + static_cast<std::int32_t>(((n - 1) * 37) % 11)) << n;
    EXPECT_EQ(data, expected) << "n=" << n;
  }
}

TEST(Compact, StableFilter) {
  const ordinal_t n = 100000;
  std::vector<ordinal_t> out;
  par::compact_into(
      n, [](ordinal_t i) { return i % 7 == 2; }, [](ordinal_t i) { return i * 2; }, out);
  ASSERT_FALSE(out.empty());
  ordinal_t expect = 2;
  for (ordinal_t v : out) {
    EXPECT_EQ(v, expect * 2 / 2 * 2);  // even doubling preserved
    EXPECT_EQ(v / 2 % 7, 2);
    EXPECT_GE(v / 2, expect);
    expect = v / 2 + 7;
  }
  EXPECT_EQ(static_cast<ordinal_t>(out.size()), (n - 3) / 7 + 1);
}

TEST(Compact, EmptyInput) {
  std::vector<int> out{1, 2, 3};
  par::compact_into(
      ordinal_t{0}, [](ordinal_t) { return true; }, [](ordinal_t i) { return int(i); }, out);
  EXPECT_TRUE(out.empty());
}

TEST(Compact, AllKeptPreservesOrder) {
  const ordinal_t n = 20000;
  std::vector<ordinal_t> out;
  par::compact_into(
      n, [](ordinal_t) { return true; }, [](ordinal_t i) { return i; }, out);
  ASSERT_EQ(static_cast<ordinal_t>(out.size()), n);
  for (ordinal_t i = 0; i < n; ++i) EXPECT_EQ(out[static_cast<std::size_t>(i)], i);
}

TEST(Simd, MinGatherMatchesSerial) {
  const ordinal_t n = 1000;
  std::vector<std::uint32_t> values(n);
  std::vector<ordinal_t> entries;
  for (ordinal_t i = 0; i < n; ++i) {
    values[static_cast<std::size_t>(i)] = static_cast<std::uint32_t>((i * 2654435761u) % 100000);
    if (i % 3 == 0) entries.push_back(i);
  }
  const std::uint32_t init = 99999999u;
  std::uint32_t expected = init;
  for (ordinal_t e : entries) expected = std::min(expected, values[static_cast<std::size_t>(e)]);
  EXPECT_EQ(par::simd_min_gather(values.data(), entries.data(), 0,
                                 static_cast<offset_t>(entries.size()), init),
            expected);
}

TEST(Simd, MinGatherEmptyRangeReturnsInit) {
  std::vector<std::uint32_t> values{5};
  std::vector<ordinal_t> entries{0};
  EXPECT_EQ(par::simd_min_gather(values.data(), entries.data(), 0, 0, 123u), 123u);
}

TEST(Simd, CountEqualGather) {
  std::vector<std::uint32_t> values{7, 3, 7, 9, 7, 7};
  std::vector<ordinal_t> entries{0, 1, 2, 3, 4, 5};
  EXPECT_EQ(par::simd_count_equal_gather(values.data(), entries.data(), 0, 6, 7u), 4);
  EXPECT_EQ(par::simd_count_equal_gather(values.data(), entries.data(), 0, 6, 1u), 0);
  EXPECT_EQ(par::simd_count_equal_gather(values.data(), entries.data(), 2, 3, 7u), 1);
}

}  // namespace
}  // namespace parmis
