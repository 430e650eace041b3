#pragma once
/// \file balanced_for.hpp
/// \brief Cost-aware (edge-balanced) loop partitioning.
///
/// `parallel_for` splits an index range into equal *counts* per thread —
/// fine when every iteration costs the same, pathological when iteration
/// `i` walks row `i` of a skewed-degree graph: one thread draws the hub
/// rows and serializes the sweep. The primitives here split by equal
/// *cost* instead: the caller hands a prefix-sum cost array (usually just
/// `row_map`, whose differences are the row degrees), and chunk boundaries
/// are found by binary search into it — the merge-path partition.
///
/// Determinism: chunk boundaries are a pure function of
/// (range, cost array, chunk count), never of thread timing, and every
/// loop body in this library writes only its own slot, so results stay
/// bit-identical across backends and thread counts under `Static` and
/// `EdgeBalanced`. `Schedule::Dynamic` opts out of reproducible work
/// *placement* (results of own-slot bodies are still identical); it is
/// excluded from the determinism contract.
///
/// The policy is selected through `Execution::schedule()` — thread-local,
/// pinned by `Context::Scope` like the backend — so a kernel written
/// against `balanced_for` serves all three schedules with one body.

#include <algorithm>
#include <cstdint>
#include <type_traits>
#include <utility>
#include <vector>

#include "obs/trace.hpp"
#include "parallel/execution.hpp"
#include "parallel/parallel_for.hpp"

#ifdef PARMIS_HAVE_OPENMP
#include <omp.h>
#endif

namespace parmis::par {

/// Number of chunks `balanced_chunks` will create under the current
/// configuration. Stable between consecutive calls on the same thread with
/// unchanged configuration — callers allocate per-chunk scratch (arenas,
/// histograms) against this count.
inline int balanced_chunk_count() {
  return Execution::is_parallel() ? Execution::num_threads() : 1;
}

/// Boundary `t` of the cost-balanced partition of `[0, n)` into `nchunks`
/// chunks: chunk `c` is `[bound(c), bound(c+1))`. `prefix` has `n + 1`
/// non-decreasing entries (`prefix[i+1] - prefix[i]` = cost of iteration
/// `i`; a CRS `row_map` qualifies verbatim). Boundary `t` is the smallest
/// index whose prefix cost reaches `t/nchunks` of the total, so zero-cost
/// runs (empty rows) attach to the chunk on their right and a giant row
/// occupies its chunk alone once its cost exceeds the per-chunk target.
/// Falls back to the equal-count partition when the total cost is zero.
template <typename Index, typename Cost>
Index balanced_chunk_bound(Index n, const Cost* prefix, int nchunks, int t) {
  if (t <= 0) return Index{0};
  if (t >= nchunks) return n;
  const std::int64_t total = static_cast<std::int64_t>(prefix[n]) - prefix[0];
  if (total <= 0) {
    return static_cast<Index>((static_cast<std::int64_t>(n) * t) / nchunks);
  }
  const std::int64_t target =
      static_cast<std::int64_t>(prefix[0]) + (total * t) / nchunks;
  const Cost* it = std::lower_bound(prefix, prefix + n + 1, target,
                                    [](Cost a, std::int64_t b) {
                                      return static_cast<std::int64_t>(a) < b;
                                    });
  return static_cast<Index>(it - prefix);
}

namespace detail {

#ifdef PARMIS_HAVE_OPENMP
/// The chunk body shared by `balanced_chunks` and
/// `balanced_chunks_by_work`: one OpenMP region running all
/// `balanced_chunk_count()` chunks. The gate (whether to parallelize at
/// all) is the caller's; everything after it — boundaries, striding,
/// chunk spans — is common, so both entry points cut identical chunks.
template <typename Index, typename Cost, typename F>
void run_balanced_chunks_parallel(Index n, const Cost* prefix, bool sample_chunks, F& f) {
  const int nchunks = balanced_chunk_count();
  const bool by_cost = prefix != nullptr && Execution::schedule() != Schedule::Static;
#pragma omp parallel num_threads(nchunks)
  {
    // The runtime may grant fewer threads than requested; stride so all
    // nchunks chunks run regardless (boundaries never depend on the
    // granted count).
    const int granted = omp_get_num_threads();
    for (int c = omp_get_thread_num(); c < nchunks; c += granted) {
      const Index lo = by_cost
                           ? balanced_chunk_bound(n, prefix, nchunks, c)
                           : static_cast<Index>((static_cast<std::int64_t>(n) * c) / nchunks);
      const Index hi = by_cost
                           ? balanced_chunk_bound(n, prefix, nchunks, c + 1)
                           : static_cast<Index>((static_cast<std::int64_t>(n) * (c + 1)) / nchunks);
      if (lo < hi) {
        if (sample_chunks) {
          obs::Span span("par.chunk");
          span.arg("chunk", c);
          span.arg("items", static_cast<std::int64_t>(hi - lo));
          f(c, lo, hi);
        } else {
          f(c, lo, hi);
        }
      }
    }
  }
}
#endif

/// The serial leg of both entry points: the whole range as chunk 0.
template <typename Index, typename F>
void run_balanced_chunks_serial(Index n, bool sample_chunks, F& f) {
  if (sample_chunks) {
    obs::Span span("par.chunk");
    span.arg("chunk", 0);
    span.arg("items", static_cast<std::int64_t>(n));
    f(0, Index{0}, n);
  } else {
    f(0, Index{0}, n);
  }
}

}  // namespace detail

/// Execute `f(chunk, begin, end)` over a contiguous, ascending partition of
/// `[0, n)` into `balanced_chunk_count()` chunks, one chunk per thread.
/// Boundaries are cost-balanced through `prefix` (see
/// `balanced_chunk_bound`), or equal-count when `prefix` is null or the
/// schedule is `Static`. Chunks are disjoint and each runs entirely on one
/// thread, so per-chunk scratch indexed by the chunk id is race-free.
///
/// Two consecutive calls with the same (n, prefix, configuration) produce
/// identical boundaries — the counting-sort builders rely on this to pair
/// a histogram pass with a placement pass.
template <typename Index, typename Cost, typename F>
void balanced_chunks(Index n, const Cost* prefix, F&& f) {
  if (n <= 0) return;
  // Per-chunk wall-time spans, decimated by TraceOptions::chunk_sample_every
  // — the measured-cost feedback the work-stealing ROADMAP item needs.
  // One sampling decision per loop, taken before the parallel region so
  // every chunk of a sampled loop records.
  const bool sample_chunks = obs::chunk_sampling_due();
#ifdef PARMIS_HAVE_OPENMP
  if (Execution::is_parallel() && static_cast<std::int64_t>(n) >= parallel_for_grain) {
    detail::run_balanced_chunks_parallel(n, prefix, sample_chunks, f);
    return;
  }
#endif
  (void)prefix;
  detail::run_balanced_chunks_serial(n, sample_chunks, f);
}

/// Total cost, in `prefix` units, at which `balanced_chunks_by_work` goes
/// parallel however few iterations carry it.
inline constexpr std::int64_t balanced_work_grain = std::int64_t{1} << 16;

/// `balanced_chunks` gated by *work* as well as by count: the loop goes
/// parallel when it has at least `parallel_for_grain` iterations (the
/// generic gate) or when its total cost `prefix[n] - prefix[0]` reaches
/// `balanced_work_grain`. For loops whose iterations are few but heavy —
/// the 276 dense rows of a coarse Galerkin product carry tens of millions
/// of flops — where the count gate alone would run everything on one
/// thread. Chunks, boundaries and the determinism guarantees are those of
/// `balanced_chunks` (same chunk body); `Static` keeps equal-count
/// boundaries, so `prefix` then only drives the gate. A null `prefix`
/// leaves only the count gate.
template <typename Index, typename Cost, typename F>
void balanced_chunks_by_work(Index n, const Cost* prefix, F&& f) {
  if (n <= 0) return;
  const bool sample_chunks = obs::chunk_sampling_due();
#ifdef PARMIS_HAVE_OPENMP
  if (Execution::is_parallel() &&
      (static_cast<std::int64_t>(n) >= parallel_for_grain ||
       (prefix != nullptr &&
        static_cast<std::int64_t>(prefix[n]) - static_cast<std::int64_t>(prefix[0]) >=
            balanced_work_grain))) {
    detail::run_balanced_chunks_parallel(n, prefix, sample_chunks, f);
    return;
  }
#endif
  (void)prefix;
  detail::run_balanced_chunks_serial(n, sample_chunks, f);
}

/// Execute `f(i)` for every `i` in `[0, n)` under the active `Schedule`:
/// `Static` = equal-count chunks (the `parallel_for` partition),
/// `EdgeBalanced` = equal-cost chunks through `prefix`, `Dynamic` = OpenMP
/// dynamic scheduling. Iterations must be independent, exactly as for
/// `parallel_for`. Pass the cost prefix of the per-iteration work — for a
/// loop that walks row `i` of a CRS structure, that is the `row_map`
/// itself. A null `prefix` degrades EdgeBalanced to Static.
template <typename Index, typename Cost, typename F>
void balanced_for(Index n, const Cost* prefix, F&& f) {
  if (n <= 0) return;
#ifdef PARMIS_HAVE_OPENMP
  if (Execution::is_parallel() && static_cast<std::int64_t>(n) >= parallel_for_grain &&
      Execution::schedule() == Schedule::Dynamic) {
    const int nt = Execution::num_threads();
#pragma omp parallel for schedule(dynamic, 64) num_threads(nt)
    for (Index i = 0; i < n; ++i) {
      f(i);
    }
    return;
  }
#endif
  balanced_chunks(n, prefix, [&](int, Index lo, Index hi) {
    for (Index i = lo; i < hi; ++i) f(i);
  });
}

/// Cost-balanced sum of `f(i)` over `[0, n)`. Integral accumulators only:
/// chunk boundaries vary with the thread count, so only exactly-associative
/// sums are invariant under them (floating-point reductions must keep using
/// the fixed-chunk `reduce_sum`).
template <typename T, typename Index, typename Cost, typename F>
T balanced_reduce_sum(Index n, const Cost* prefix, F&& f) {
  static_assert(std::is_integral_v<T>,
                "balanced_reduce_sum requires an exactly-associative (integral) "
                "accumulator; use par::reduce_sum for floating point");
  if (n <= 0) return T{0};
  std::vector<T> partial(static_cast<std::size_t>(balanced_chunk_count()), T{0});
  balanced_chunks(n, prefix, [&](int c, Index lo, Index hi) {
    T acc{0};
    for (Index i = lo; i < hi; ++i) acc += f(i);
    partial[static_cast<std::size_t>(c)] = acc;
  });
  T acc{0};
  for (const T& p : partial) acc += p;
  return acc;
}

/// Cost-balanced count of indices satisfying `pred`.
template <typename Index, typename Cost, typename Pred>
std::int64_t balanced_count_if(Index n, const Cost* prefix, Pred&& pred) {
  return balanced_reduce_sum<std::int64_t>(
      n, prefix, [&](Index i) -> std::int64_t { return pred(i) ? 1 : 0; });
}

/// True when the active configuration will consult a cost prefix — the
/// guard kernels use to skip *building* one (a Static or serial run never
/// reads it).
inline bool schedule_uses_costs() {
  return Execution::schedule() != Schedule::Static && Execution::is_parallel();
}

/// Cross-chunk cursor scan shared by the two-pass chunked counting sorts
/// (transpose, aggregate-member grouping). On entry
/// `counts[q * nkeys + k]` holds chunk `q`'s occurrence count of key `k`
/// (from a histogram pass over `balanced_chunks`); on exit it holds chunk
/// `q`'s starting cursor *within* key `k`'s output segment, and
/// `offsets[k + 1]` the total occurrences of `k` (`offsets[0]` is left
/// untouched; callers prefix-scan `offsets` afterwards). The placement
/// pass must then re-run `balanced_chunks` with identical inputs — its
/// boundary-repeatability guarantee is what pairs the two passes.
template <typename Index, typename C>
void chunked_cursor_scan(Index nkeys, int nchunks, std::vector<C>& counts,
                         std::vector<C>& offsets) {
  parallel_for(nkeys, [&](Index k) {
    C run{0};
    for (int q = 0; q < nchunks; ++q) {
      C& slot = counts[static_cast<std::size_t>(q) * static_cast<std::size_t>(nkeys) +
                       static_cast<std::size_t>(k)];
      const C v = slot;
      slot = run;
      run += v;
    }
    offsets[static_cast<std::size_t>(k) + 1] = run;
  });
}

}  // namespace parmis::par
