#pragma once
/// \file parallel_reduce.hpp
/// \brief Deterministic parallel reductions.
///
/// Floating-point addition is not associative, so a naive
/// `#pragma omp parallel for reduction(+:...)` produces results that depend
/// on the thread count. Determinism across backends and thread counts is a
/// headline property of the paper, and the solvers in this repository
/// (CG/GMRES iteration counts!) must not drift when threads change.
///
/// The scheme here: the range is cut into fixed-size chunks (independent of
/// the thread count), each chunk is reduced serially left-to-right, and the
/// per-chunk partials are combined serially in chunk order. Every partial is
/// computed identically no matter which thread ran it, so the final value is
/// bit-reproducible.

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <type_traits>
#include <vector>

#include "parallel/execution.hpp"
#include "parallel/parallel_for.hpp"

namespace parmis::par {

/// Chunk width for deterministic reductions. Fixed (never derived from the
/// thread count) so the combine tree is invariant.
inline constexpr std::int64_t reduce_chunk = 4096;

/// Chunk count from which a reduction runs its chunks in parallel
/// (65,536 elements). The gate counts chunks, not elements: a chunk is
/// 4096 iterations of work, so the element grain of `parallel_for` would
/// keep every reduction below two million elements on one thread. Where
/// the chunks run never changes the combine tree.
inline constexpr std::int64_t reduce_parallel_chunks = 16;

namespace detail {

/// Thread-local growable buffer for the per-chunk partials of
/// `parallel_reduce`. Reductions are called from warm solver loops that
/// promise zero heap allocations per call (`SolveHandle`'s AllocGuard
/// contract); a per-call `std::vector` would break that promise the first
/// time n exceeds `reduce_chunk`. The buffer grows monotonically and is
/// reused by every reduction on the thread; only the calling thread touches
/// it (the inner `parallel_for` workers write through the pointer, which is
/// safe: slots are disjoint per chunk).
inline std::byte* reduce_scratch(std::size_t bytes) {
  thread_local std::vector<std::byte> buf;
  if (buf.size() < bytes) buf.resize(bytes);
  return buf.data();
}

}  // namespace detail

/// Deterministic reduction of `f(i)` over `i in [0, n)` with a binary
/// `join` and an `identity` element. `join` need not be commutative; the
/// combine order is always ascending index order.
template <typename T, typename Index, typename F, typename Join>
T parallel_reduce(Index n, F&& f, Join&& join, T identity) {
  const std::int64_t len = static_cast<std::int64_t>(n);
  if (len <= 0) return identity;

  const std::int64_t nchunks = (len + reduce_chunk - 1) / reduce_chunk;
  if (nchunks == 1) {
    T acc = identity;
    for (Index i = 0; i < n; ++i) acc = join(acc, f(i));
    return acc;
  }

  // The chunked combine runs even on the serial backend so the reduction
  // tree — and therefore the floating-point result — is identical for
  // every backend and thread count. Trivial accumulator types (every
  // solver reduction) stage their partials in the thread-local scratch so
  // warm reductions allocate nothing; other types fall back to a vector.
  const auto run = [&](T* partial) {
    parallel_for_grained(nchunks, reduce_parallel_chunks, [&](std::int64_t c) {
      const Index lo = static_cast<Index>(c * reduce_chunk);
      const Index hi = static_cast<Index>(std::min<std::int64_t>(len, (c + 1) * reduce_chunk));
      T acc = identity;
      for (Index i = lo; i < hi; ++i) acc = join(acc, f(i));
      partial[static_cast<std::size_t>(c)] = acc;
    });
    T acc = identity;
    for (std::int64_t c = 0; c < nchunks; ++c) acc = join(acc, partial[c]);
    return acc;
  };
  if constexpr (std::is_trivially_copyable_v<T> && std::is_trivially_destructible_v<T>) {
    return run(reinterpret_cast<T*>(
        detail::reduce_scratch(static_cast<std::size_t>(nchunks) * sizeof(T))));
  } else {
    std::vector<T> partial(static_cast<std::size_t>(nchunks), identity);
    return run(partial.data());
  }
}

/// Deterministic sum of `f(i)` over `[0, n)`.
template <typename T, typename Index, typename F>
T reduce_sum(Index n, F&& f) {
  return parallel_reduce<T>(
      n, f, [](T a, T b) { return a + b; }, T{0});
}

/// Deterministic minimum of `f(i)` over `[0, n)`; returns `identity` when
/// the range is empty.
template <typename T, typename Index, typename F>
T reduce_min(Index n, F&& f, T identity) {
  return parallel_reduce<T>(
      n, f, [](T a, T b) { return b < a ? b : a; }, identity);
}

/// Deterministic maximum of `f(i)` over `[0, n)`.
template <typename T, typename Index, typename F>
T reduce_max(Index n, F&& f, T identity) {
  return parallel_reduce<T>(
      n, f, [](T a, T b) { return a < b ? b : a; }, identity);
}

/// Deterministic count of indices satisfying a predicate.
template <typename Index, typename Pred>
std::int64_t count_if(Index n, Pred&& pred) {
  return reduce_sum<std::int64_t>(n, [&](Index i) -> std::int64_t { return pred(i) ? 1 : 0; });
}

}  // namespace parmis::par
