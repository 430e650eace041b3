#pragma once
/// \file spgemm.hpp
/// \brief Sparse general matrix-matrix multiply and related matrix algebra.
///
/// SpGEMM backs two parts of the reproduction: the Galerkin triple product
/// R·A·P in the smoothed-aggregation AMG substrate (Table V) and the
/// Tuminaro–Tong "MIS-1 of G²" aggregation baseline from the related work.
/// Rows are computed independently with a per-thread dense accumulator and
/// emitted sorted, so the product is deterministic for any thread count.
///
/// The product is *single-pass*: each row's inner product runs exactly
/// once, into a per-chunk arena, and a scatter pass copies arenas into the
/// final CRS arrays after the row-length scan (no symbolic/numeric
/// re-traversal).
///
/// Parallelism follows the work, not the row count. On a parallel context
/// `spgemm`, `spgemm_symbolic` and the `spgemm_numeric` replay build the
/// flop prefix of the product (`1 + Σ_k deg_B(k)` per row) and run through
/// `par::balanced_chunks_by_work`: a product goes parallel once its flops
/// reach `par::balanced_work_grain`, however few rows carry them. That is
/// the case that matters for AMG setup — a coarse Galerkin product
/// `R·(A·P)` with a few hundred fully dense rows carries most of the
/// level's flops, and the generic 512-row gate would leave it on one
/// thread. Under `Schedule::EdgeBalanced` chunks hold equal flops; under
/// `Static` equal row counts.
///
/// Two per-row shortcuts skip sparsity a row does not have, both leaving
/// the per-row accumulation order — and so every output bit — unchanged:
/// - *full-row switch*: once a row has touched every output column, the
///   rest of it accumulates without the stamp test;
/// - *dense emit*: a row that touched at least 1/8 of the columns is
///   emitted by reading its columns off the stamp array in ascending order
///   instead of sorting its touched list.

#include <cstdint>
#include <span>
#include <vector>

#include "graph/crs.hpp"

namespace parmis::graph {

/// C = A * B. Requires a.num_cols == b.num_rows. Output rows sorted.
[[nodiscard]] CrsMatrix spgemm(const CrsMatrix& a, const CrsMatrix& b);

/// Value-only replay of C = A * B into an existing product: `c` must hold
/// the exact sparsity `spgemm(a, b)` would produce (same row_map/entries);
/// only `c.values` is rewritten, in the same per-row accumulation order as
/// `spgemm`, so the values are bit-identical to a fresh product, signed
/// zeros included. Performs zero heap allocations on warm calls (a thread
/// that already ran a product of this size, see `spgemm_warm_thread`) —
/// the kernel behind warm multilevel (Galerkin) rebuilds when matrix
/// values change but structure is fixed.
void spgemm_numeric(const CrsMatrix& a, const CrsMatrix& b, CrsMatrix& c);

/// Pre-size the calling thread's SpGEMM scratch for products with at most
/// `n` output columns and at most `n` rows. The zero-allocation guarantee
/// of `spgemm_numeric` is per *thread*: the dense accumulator and the flop
/// prefix of a parallel replay are thread_local, so the first product a
/// fresh thread ever runs allocates them. Callers that replay into a
/// guarded warm path from a thread that never ran a cold build (e.g. a
/// serving runtime's customize thread) call this first; on an already-warm
/// thread it is a no-op.
void spgemm_warm_thread(ordinal_t n);

/// Structure-only product: pattern of A * B (no values).
[[nodiscard]] CrsGraph spgemm_symbolic(GraphView a, GraphView b);

/// C = alpha * A + beta * B (same shape; sorted-row merge). Entries whose
/// sum is exactly zero are kept, preserving the structural union.
[[nodiscard]] CrsMatrix matrix_add(scalar_t alpha, const CrsMatrix& a, scalar_t beta,
                                   const CrsMatrix& b);

/// Value-only replay of C = alpha * A + beta * B: `c` must hold the exact
/// sparsity `matrix_add(alpha, a, beta, b)` would produce; only `c.values`
/// is rewritten. Zero heap allocations.
void matrix_add_numeric(scalar_t alpha, const CrsMatrix& a, scalar_t beta, const CrsMatrix& b,
                        CrsMatrix& c);

/// Transpose with values (used for R = Pᵀ in AMG). Output rows sorted.
[[nodiscard]] CrsMatrix transpose_matrix(const CrsMatrix& a);

/// Entry permutation of the transpose: entry `j` of `a` lands at entry
/// `perm[j]` of `transpose_matrix(a)`. Lets a caller replay a transpose's
/// values without recomputing its structure.
[[nodiscard]] std::vector<offset_t> transpose_permutation(const CrsMatrix& a);

/// Value-only transpose replay through a permutation from
/// `transpose_permutation`: `t.values[perm[j]] = a.values[j]`. `t` must be
/// the structural transpose of `a`. Zero heap allocations.
void transpose_numeric(const CrsMatrix& a, std::span<const offset_t> perm, CrsMatrix& t);

/// Diagonal of a square matrix; zero where a row has no diagonal entry.
[[nodiscard]] std::vector<scalar_t> extract_diagonal(const CrsMatrix& a);

/// `extract_diagonal` into a caller-owned buffer of size `num_rows` (the
/// zero-allocation variant warm multilevel rebuilds use).
void extract_diagonal(const CrsMatrix& a, std::span<scalar_t> d);

/// Instrumentation: number of row inner-products computed by `spgemm` /
/// `spgemm_symbolic` since the last reset (process-wide, relaxed atomic).
/// A single-pass product traverses each output row exactly once, so after
/// one `spgemm(a, b)` the counter advances by exactly `a.num_rows` — the
/// regression guard against reintroducing the two-pass traversal.
[[nodiscard]] std::int64_t spgemm_rows_traversed();

/// Reset the `spgemm_rows_traversed` counter to zero.
void spgemm_reset_stats();

}  // namespace parmis::graph
