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
/// `spgemm` and the `spgemm_numeric` replay build the flop prefix of the
/// product (`1 + Σ_k deg_B(k)` per row) and run through
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
///
/// **Fused Galerkin product.** `galerkin_fused` computes the coarse operator
/// `Pᵀ·A·P` without storing `A·P`. It serves the coarse levels whose dense
/// `nc × nc` block is no larger than the level operator
/// (`fused_galerkin_applies`: `nc² ≤ nnz(A)`). There `A·P` is typically
/// almost dense, and building it as CRS (arenas, zero-fill, scatter copy,
/// then streaming it from memory once per coarse row) costs more than its
/// flops. Fine rows go in tiles of about `fused_tile_entries` `A·P` slots:
/// - each thread forms its share of the tile's `A·P` rows, in the entry
///   order of `spgemm`, straight into dense tile rows seeded with -0.0, with
///   a lane mask for each row's structure;
/// - then each thread owns a contiguous range of coarse rows, balanced by
///   their `P` column counts, and walks the tile's rows in ascending order:
///   for each `(a, P[i,a])` it owns, `C[a][j] += P[i,a]·AP[i,j]` across the
///   row, into a dense block seeded with -0.0. Columns the `A·P` row lacks
///   add -0.0 through a branch-free select, so the update vectorizes. A cold
///   build also ORs the row's structure into a bitset per coarse row;
/// - the dense block is finally written out as CRS (or, on a replay, read
///   into the existing pattern).
///
/// The result is bit-identical to `spgemm(transpose_matrix(p), spgemm(a,
/// p))`. -0.0 is the exact additive identity (`-0.0 + x == x` bit for bit,
/// +0.0 included), so a slot seeded with it and then only added to holds
/// what `spgemm`'s first `=` and later `+=` produce. `A·P`'s rows therefore
/// hold the same bits, and each `C[a][j]` receives the same products
/// `P[i,a]·AP[i,j]` in the same ascending-`i` order in which `spgemm` walks
/// row `a` of `R = Pᵀ`. Tiling, chunking, schedule and thread count decide
/// only which thread adds a product, never the order in which one entry
/// receives them.
///
/// The two tile kernels (`A·P` row formation and the `Pᵀ` scatter) are
/// `PARMIS_WIDE_KERNEL`s: on x86-64 ELF they are built for AVX-512F, AVX2
/// and the baseline (SSE2), and the loader picks the widest build the CPU
/// has. The bits cannot move between builds. The scatter's lanes are
/// independent — each is one multiply, one bit-select and one add on its
/// own column — so a wider vector changes no per-lane operation and no
/// order. The row kernel's flop loop stays scalar (its stores are indirect);
/// only its fills and its structure bitset, which is integer work, widen.
/// The library is built with `-ffp-contract=off`, so no build fuses a
/// multiply and an add into an FMA. The row kernel prefetches the `P` rows
/// of the `A` entries a few steps ahead; a prefetch moves no value.
///
/// **Smoothed prolongator.** `smoothed_prolongator` builds the
/// smoothed-aggregation prolongator `P = P̂ − ω·D⁻¹·A·P̂` without a general
/// product, reading the aggregate label and weight that the tentative
/// prolongator `P̂` (one entry per row) holds for each `A` entry. Two
/// parallel sweeps over the fine rows: the first counts each row's distinct
/// aggregates, the second accumulates `A·P̂` in `A`'s entry order, first
/// `=` then `+=`, as `spgemm` does, applies `D⁻¹` and writes `D⁻¹·A·P̂` and
/// `P` straight into their final arrays (no per-chunk arenas, no copy).
/// `P`'s pattern is the product's, because `A`'s structural diagonal puts
/// column `label(i)` into row `i`, so no merge runs. A row is emitted in
/// column order by one of two walks, chosen per row:
/// - when the row's touched count is at least `nc/64` (the words of an
///   `nc`-bit set), it walks a per-thread `nc`-bit set word by word with
///   count-trailing-zeros;
/// - otherwise it sorts its touched list, which on a wide level (`nc` in
///   the thousands, a few columns per row) is far cheaper than the walk.
/// The result equals scaling `spgemm(a, phat)`'s rows by `D⁻¹` and then
/// `matrix_add(1.0, phat, -omega, ·)`, bit for bit.
///
/// **Transpose permutation.** `transpose_matrix(a, perm)` also writes,
/// from its parallel placement pass, where each entry of `a` lands in the
/// transpose, so a value-only replay (`transpose_numeric`) skips the
/// counting sort.

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
/// of `spgemm_numeric` and `galerkin_fused_numeric` is per *thread*: the
/// dense accumulator and the flop prefix of a parallel replay are
/// thread_local, so the first product a fresh thread ever runs allocates
/// them. Callers that replay into a guarded warm path from a thread that
/// never ran a cold build (e.g. a serving runtime's customize thread) call
/// this first; on an already-warm thread it is a no-op.
void spgemm_warm_thread(ordinal_t n);

/// `A·P` slots per tile of the fused Galerkin product: a tile holds
/// `max(1, fused_tile_entries / nc)` fine rows.
inline constexpr std::int64_t fused_tile_entries = std::int64_t{1} << 18;

/// Caller-owned scratch of the fused Galerkin product: the dense coarse
/// block and the tile buffers. Owning it outside the kernel (a multilevel
/// level keeps one) is what makes a replay allocation-free on any thread.
struct FusedGalerkinScratch {
  std::vector<scalar_t> dense;          ///< nc × nc coarse block, row-major
  std::vector<std::uint64_t> present;   ///< structure of `dense`: one nc-bit set per row
  std::vector<scalar_t> tile_vals;      ///< tile rows × nc: A·P rows of one tile, dense
  std::vector<std::uint64_t> tile_mask; ///< their structure, one lane per column (all ones = entry)
  std::vector<std::uint64_t> tile_bits; ///< the same structure as one nc-bit set per row
  std::vector<offset_t> owner_cost;     ///< nc + 1 scatter-flop prefix over coarse rows

  /// Size every buffer for an `rows`-row level with `nc` coarse columns
  /// (no-op when already sized so).
  void size_for(ordinal_t rows, ordinal_t nc);
  [[nodiscard]] std::size_t capacity_bytes() const;
};

/// The fused-product gate: true when the dense `nc × nc` coarse block of
/// `Pᵀ·A·P` is no larger than the level operator `a` (`nc² ≤ nnz(a)`),
/// `nc = p.num_cols`. Structural only, so a value-only replay always takes
/// the path its cold build took.
[[nodiscard]] bool fused_galerkin_applies(const CrsMatrix& a, const CrsMatrix& p);

/// C = Pᵀ·A·P through the fused kernel (see the file comment), with `A·P`
/// never stored. `a` is square, `p` has `a.num_rows` rows. Bit-identical to
/// `spgemm(transpose_matrix(p), spgemm(a, p))`, structure included. Sizes
/// `scratch` for the level.
[[nodiscard]] CrsMatrix galerkin_fused(const CrsMatrix& a, const CrsMatrix& p,
                                       FusedGalerkinScratch& scratch);

/// Value-only replay of `galerkin_fused` into `c`, which must hold the
/// pattern the cold product produced; only `c.values` is rewritten, bit-
/// identical to a cold product. Zero heap allocations on the calling thread
/// once `scratch` is sized for the level (`size_for`) and the thread's flop
/// prefix is warm (`spgemm_warm_thread`).
void galerkin_fused_numeric(const CrsMatrix& a, const CrsMatrix& p,
                            FusedGalerkinScratch& scratch, CrsMatrix& c);

/// C = alpha * A + beta * B (same shape; sorted-row merge). Entries whose
/// sum is exactly zero are kept, preserving the structural union.
[[nodiscard]] CrsMatrix matrix_add(scalar_t alpha, const CrsMatrix& a, scalar_t beta,
                                   const CrsMatrix& b);

/// Smoothed-aggregation prolongator without a general product (see the
/// file comment): `ap = D⁻¹·(A·P̂)` and `p = P̂ − omega·ap`, with
/// `D⁻¹ = inv_diag`. `a` is
/// square with a structural diagonal; `phat` has `a.num_rows` rows and
/// exactly one entry per row. Bit-identical to `spgemm(a, phat)` with row
/// `i` scaled by `inv_diag[i]`, followed by `matrix_add(1.0, phat, -omega,
/// ap)`; `ap` and `p` share one pattern. Throws `std::invalid_argument` if
/// some row `i` of `A·P̂` lacks column `label(i)` (no structural diagonal).
void smoothed_prolongator(const CrsMatrix& a, const CrsMatrix& phat,
                          std::span<const scalar_t> inv_diag, scalar_t omega, CrsMatrix& ap,
                          CrsMatrix& p);

/// Value-only replay of `smoothed_prolongator` into `ap` and `p`, which
/// must hold the pattern the cold pass produced; only their values are
/// rewritten, bit-identical to a cold pass. Runs through the thread's
/// SpGEMM accumulator: zero heap allocations once that is warm
/// (`spgemm_warm_thread`).
void smoothed_prolongator_numeric(const CrsMatrix& a, const CrsMatrix& phat,
                                  std::span<const scalar_t> inv_diag, scalar_t omega,
                                  CrsMatrix& ap, CrsMatrix& p);

/// Transpose with values (used for R = Pᵀ in AMG). Output rows sorted.
[[nodiscard]] CrsMatrix transpose_matrix(const CrsMatrix& a);

/// `transpose_matrix` that also writes its entry permutation: entry `j` of
/// `a` lands at entry `perm[j]` of the transpose (`perm` is resized to
/// `a.num_entries()`). Lets a caller replay the transpose's values without
/// recomputing its structure.
[[nodiscard]] CrsMatrix transpose_matrix(const CrsMatrix& a, std::vector<offset_t>& perm);

/// Value-only transpose replay through the permutation `transpose_matrix`
/// wrote: `t.values[perm[j]] = a.values[j]`. `t` must be the structural
/// transpose of `a`. Zero heap allocations.
void transpose_numeric(const CrsMatrix& a, std::span<const offset_t> perm, CrsMatrix& t);

/// Diagonal of a square matrix; zero where a row has no diagonal entry.
[[nodiscard]] std::vector<scalar_t> extract_diagonal(const CrsMatrix& a);

/// `extract_diagonal` into a caller-owned buffer of size `num_rows` (the
/// zero-allocation variant warm multilevel rebuilds use).
void extract_diagonal(const CrsMatrix& a, std::span<scalar_t> d);

/// Instrumentation: number of row inner-products computed by `spgemm` /
/// `galerkin_fused` since the last reset (process-wide,
/// relaxed atomic). A single-pass product traverses each output row exactly
/// once, so after one `spgemm(a, b)` the counter advances by exactly
/// `a.num_rows` — the regression guard against reintroducing the two-pass
/// traversal. The fused Galerkin product counts its fine rows, each of
/// whose `A·P` row it forms once. `smoothed_prolongator` is not a general
/// product and does not count.
[[nodiscard]] std::int64_t spgemm_rows_traversed();

/// Reset the `spgemm_rows_traversed` counter to zero.
void spgemm_reset_stats();

}  // namespace parmis::graph
