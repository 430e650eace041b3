#pragma once
/// \file simd.hpp
/// \brief Inner-loop SIMD reductions over contiguous adjacency lists.
///
/// Paper §V-D: the innermost loops of Algorithm 1 iterate over a vertex's
/// neighbors computing `min`, `forall`, and `exists` reductions. On GPUs
/// Kokkos maps these to warp/wavefront ("vector level") parallelism; the
/// host-CPU analogue is SIMD vectorization of the same contiguous CRS rows.
/// The paper enables the vector level only when the average degree is at
/// least 16 (`simd_degree_threshold`); below that the per-row setup overhead
/// outweighs the gain. These helpers are branch-free single loops annotated
/// with `omp simd` so the compiler can vectorize the reduction.
///
/// The library targets the baseline ISA of its platform (SSE2 on x86-64).
/// A kernel whose speed is set by the vector width rather than by memory
/// is marked `PARMIS_WIDE_KERNEL`: on x86-64 ELF the compiler emits an
/// AVX-512F, an AVX2 and a baseline build of it, and the loader binds the
/// widest one the CPU supports. Each build inlines everything it calls
/// (`flatten`): a callee left out of line is built once, at the baseline
/// width, and runs that way under every build. Only kernels whose lanes
/// are independent (no cross-lane reduction, no reassociation) may carry
/// it, and the library is built with `-ffp-contract=off`, so every build
/// computes the same per-lane operations in the same order: same bits on
/// every CPU.
///
/// The K-wide kernels (row-major multi-vectors, K lanes per row) get their
/// lane count as a compile-time constant through `with_lane_width`, the one
/// lane-width dispatch of the library, so their per-row lane loops unroll
/// and keep the lanes in registers. Their K > 1 forms are wide kernels too:
/// the lanes of a row are independent columns, each accumulated in its own
/// order. The macro goes on a non-template function that runs the dispatch
/// (clang rejects multiversioned function templates), and K = 1 never
/// reaches it: one lane has nothing to spread over a wider vector.

#include <cstddef>
#include <cstdint>
#include <type_traits>
#include <vector>

#include "common/config.hpp"

#if (defined(__GNUC__) || defined(__clang__)) && defined(__x86_64__) && defined(__ELF__)
#define PARMIS_WIDE_KERNEL \
  __attribute__((target_clones("avx512f", "avx2", "default"), flatten))
#else
#define PARMIS_WIDE_KERNEL
#endif

namespace parmis::par {

/// Widest lane count `with_lane_width` fixes at compile time: a K-wide
/// kernel takes a wider batch in groups of at most this many lanes.
inline constexpr int lane_group = 16;

/// Alignment of the buffers the K-wide kernels gather rows from: one cache
/// line. An 8-lane row of doubles is 64 bytes; at the 16-byte offset that
/// large `malloc` blocks start at, every such row straddles two lines and
/// every full-row load of the AVX-512 build splits.
inline constexpr std::size_t lane_buffer_align = 64;

/// Allocator of `lane_vector`: every block starts on a cache line. It
/// takes `lane_buffer_align` bytes more than asked from the plain
/// `operator new`, starts the block at the next line boundary and keeps
/// the raw pointer in the word before it. (The aligned `operator new`
/// goes through glibc's `memalign`; with it, the mesh serving benchmark's
/// peak RSS rose by about 8%.)
template <typename T>
struct LaneAllocator {
  using value_type = T;
  LaneAllocator() = default;
  template <typename U>
  LaneAllocator(const LaneAllocator<U>&) noexcept {}
  T* allocate(std::size_t n) {
    std::byte* raw = static_cast<std::byte*>(::operator new(n * sizeof(T) + lane_buffer_align));
    const std::size_t skip =
        lane_buffer_align - reinterpret_cast<std::uintptr_t>(raw) % lane_buffer_align;
    std::byte* block = raw + skip;  // skip >= alignof(void*): room for raw
    reinterpret_cast<std::byte**>(block)[-1] = raw;
    return reinterpret_cast<T*>(block);
  }
  void deallocate(T* p, std::size_t) noexcept {
    ::operator delete(reinterpret_cast<std::byte**>(p)[-1]);
  }
  friend bool operator==(const LaneAllocator&, const LaneAllocator&) noexcept { return true; }
};

/// A multi-vector buffer whose rows start on cache lines whenever a row is
/// a multiple of 64 bytes (K = 8 or 16 doubles).
template <typename T>
using lane_vector = std::vector<T, LaneAllocator<T>>;

/// Run `f(kw)` with the lane count `kk` as `std::integral_constant<int, kk>`
/// for the widths 16, 8, 4, 2 and 1, and as the plain `int` otherwise.
/// `f` is generic in `kw` and loops `for (int k = 0; k < kw; ++k)`: the
/// constant instances get a fixed trip count, the `int` one reads the width
/// at run time. Per lane the body is the same, so the width taken is a
/// code-generation choice, never a bits choice.
template <typename F>
void with_lane_width(int kk, F&& f) {
  switch (kk) {
    case 16: return f(std::integral_constant<int, 16>{});
    case 8: return f(std::integral_constant<int, 8>{});
    case 4: return f(std::integral_constant<int, 4>{});
    case 2: return f(std::integral_constant<int, 2>{});
    case 1: return f(std::integral_constant<int, 1>{});
    default: return f(kk);
  }
}

/// Average-degree threshold from paper §V-D: vector-level parallelism is
/// profitable only for rows of at least ~16 entries.
inline constexpr double simd_degree_threshold = 16.0;

/// Minimum of `values[entries[j]]` over `j in [begin, end)`, starting from
/// `init`. Used for the Refresh-Column min-tuple gather (Algorithm 1 line 18).
template <typename Word>
inline Word simd_min_gather(const Word* values, const ordinal_t* entries, offset_t begin,
                            offset_t end, Word init) {
  Word m = init;
#if defined(_OPENMP)
#pragma omp simd reduction(min : m)
#endif
  for (offset_t j = begin; j < end; ++j) {
    const Word w = values[entries[j]];
    m = w < m ? w : m;
  }
  return m;
}

/// Count of `j in [begin, end)` with `values[entries[j]] == match`.
/// `forall(== match)` is `count == end - begin`; `exists(== match)` is
/// `count != 0` (Algorithm 1 lines 25 and 28).
template <typename Word>
inline offset_t simd_count_equal_gather(const Word* values, const ordinal_t* entries,
                                        offset_t begin, offset_t end, Word match) {
  offset_t count = 0;
#if defined(_OPENMP)
#pragma omp simd reduction(+ : count)
#endif
  for (offset_t j = begin; j < end; ++j) {
    count += values[entries[j]] == match ? 1 : 0;
  }
  return count;
}

/// Whether some `j in [begin, end)` has `values[entries[j]] == match`
/// (Algorithm 1 line 28's `exists`). Tests blocks of 8 gathers at once and
/// stops at the first block with a hit, so rows with an early match read
/// only part of their neighbors.
template <typename Word>
inline bool simd_any_equal_gather(const Word* values, const ordinal_t* entries, offset_t begin,
                                  offset_t end, Word match) {
  constexpr offset_t kBlock = 8;
  offset_t j = begin;
  for (; j + kBlock <= end; j += kBlock) {
    int hit = 0;
#if defined(_OPENMP)
#pragma omp simd reduction(| : hit)
#endif
    for (offset_t l = 0; l < kBlock; ++l) hit |= values[entries[j + l]] == match ? 1 : 0;
    if (hit != 0) return true;
  }
  for (; j < end; ++j) {
    if (values[entries[j]] == match) return true;
  }
  return false;
}

}  // namespace parmis::par
