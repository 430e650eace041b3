#pragma once
/// \file parallel_scan.hpp
/// \brief Deterministic blocked parallel prefix sum ("scan").
///
/// Algorithm 1 compacts its two worklists every iteration with a parallel
/// prefix sum (paper §V-B); the theoretical analysis (§IV) charges
/// O(log V) depth and O(n log n) work to it. The implementation here is the
/// classic three-phase blocked scan: (1) per-block partial sums in parallel,
/// (2) serial exclusive scan of the (few) block totals, (3) per-block
/// refill in parallel. The block width depends on the input length only,
/// so the result — and even the intermediate block decomposition — is
/// independent of the thread count. Callers scan integers, whose sums are
/// exact under any blocking.

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "parallel/execution.hpp"
#include "parallel/parallel_for.hpp"

namespace parmis::par {

/// Minimum block width of the blocked scan.
inline constexpr std::int64_t scan_block = 8192;

/// Most blocks one scan uses. Longer inputs widen the block instead, so
/// the block totals fit a fixed array on the stack: a scan never touches
/// the heap, which keeps the handles' warm runs allocation-free.
inline constexpr std::int64_t scan_max_blocks = 256;

/// Block width for `n` elements: `scan_block`, widened so that at most
/// `scan_max_blocks` blocks cover `n`. A function of `n` alone, never of
/// the thread count.
inline std::int64_t scan_block_width(std::int64_t n) {
  return std::max(scan_block, (n + scan_max_blocks - 1) / scan_max_blocks);
}

namespace detail {

/// The blocked scan behind both entry points; returns the grand total.
template <bool Inclusive, typename T>
T scan_inplace(std::span<T> data) {
  const std::int64_t n = static_cast<std::int64_t>(data.size());
  auto scan_range = [&](std::int64_t lo, std::int64_t hi, T acc) {
    for (std::int64_t i = lo; i < hi; ++i) {
      const T v = data[i];
      data[i] = Inclusive ? acc + v : acc;
      acc += v;
    }
    return acc;
  };
  const std::int64_t width = scan_block_width(n);
  const std::int64_t nblocks = (n + width - 1) / width;
  if (nblocks <= 1 || !Execution::is_parallel()) return scan_range(0, n, T{0});

  T block_total[scan_max_blocks];
  parallel_for_grained(nblocks, 2, [&](std::int64_t b) {
    const std::int64_t hi = std::min(n, (b + 1) * width);
    T acc{0};
    for (std::int64_t i = b * width; i < hi; ++i) acc += data[i];
    block_total[b] = acc;
  });
  T running{0};
  for (std::int64_t b = 0; b < nblocks; ++b) {
    const T v = block_total[b];
    block_total[b] = running;
    running += v;
  }
  parallel_for_grained(nblocks, 2, [&](std::int64_t b) {
    scan_range(b * width, std::min(n, (b + 1) * width), block_total[b]);
  });
  return running;
}

}  // namespace detail

/// In-place exclusive prefix sum over `data`; returns the grand total.
/// `data[i]` becomes `sum(data[0..i-1])`, `data[0]` becomes 0.
template <typename T>
T exclusive_scan_inplace(std::span<T> data) {
  return detail::scan_inplace<false>(data);
}

/// In-place inclusive prefix sum; returns the grand total.
template <typename T>
T inclusive_scan_inplace(std::span<T> data) {
  return detail::scan_inplace<true>(data);
}

/// Stable parallel stream compaction with caller-provided flag scratch:
/// appends to `out` every `i in [0, n)` for which `pred(i)` holds, mapped
/// through `make(i)`, preserving index order. `flags` is resized to `n`
/// (reusing its capacity); pass the same vector across calls to make warm
/// compactions allocation-free. This is the worklist-maintenance primitive
/// from paper §V-B.
///
/// Deterministic: the output order equals the serial filter order.
template <typename Index, typename Out, typename Pred, typename Make>
void compact_into_scratch(Index n, Pred&& pred, Make&& make, std::vector<Out>& out,
                          std::vector<std::int64_t>& flags) {
  const std::int64_t len = static_cast<std::int64_t>(n);
  out.clear();
  if (len == 0) return;

  flags.resize(static_cast<std::size_t>(len));
  parallel_for(len, [&](std::int64_t i) {
    flags[static_cast<std::size_t>(i)] = pred(static_cast<Index>(i)) ? 1 : 0;
  });
  const std::int64_t total = exclusive_scan_inplace(
      std::span<std::int64_t>(flags.data(), static_cast<std::size_t>(len)));
  out.resize(static_cast<std::size_t>(total));
  parallel_for(len, [&](std::int64_t i) {
    const bool keep = (i + 1 < len ? flags[static_cast<std::size_t>(i) + 1] : total) !=
                      flags[static_cast<std::size_t>(i)];
    if (keep) {
      out[static_cast<std::size_t>(flags[static_cast<std::size_t>(i)])] =
          make(static_cast<Index>(i));
    }
  });
}

/// `compact_into_scratch` with throwaway flag scratch.
template <typename Index, typename Out, typename Pred, typename Make>
void compact_into(Index n, Pred&& pred, Make&& make, std::vector<Out>& out) {
  std::vector<std::int64_t> flags;
  compact_into_scratch(n, std::forward<Pred>(pred), std::forward<Make>(make), out, flags);
}

}  // namespace parmis::par
