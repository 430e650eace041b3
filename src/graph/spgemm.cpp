#include "graph/spgemm.hpp"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cassert>
#include <cstdint>
#include <numeric>
#include <span>
#include <stdexcept>

#include "check/check.hpp"
#include "check/validate.hpp"
#include "obs/trace.hpp"
#include "parallel/balanced_for.hpp"
#include "parallel/parallel_for.hpp"
#include "parallel/parallel_scan.hpp"
#include "parallel/simd.hpp"

namespace parmis::graph {

namespace {

/// Per-thread dense accumulator with stamp-based clearing. `thread_local`
/// so repeated SpGEMM calls reuse the allocation.
struct Workspace {
  std::vector<std::uint64_t> stamp_of;
  std::vector<scalar_t> acc;
  std::vector<ordinal_t> touched;
  std::uint64_t stamp{0};
  /// Flop-cost prefix of the product this thread is driving (see
  /// `product_cost_prefix`); kept so warm replays reuse its capacity.
  std::vector<offset_t> cost;
  /// Touched columns of the current `smoothed_prolongator` row as an
  /// `ncols`-bit set; all zero between rows.
  std::vector<std::uint64_t> bits;

  void ensure(ordinal_t ncols) {
    if (stamp_of.size() < static_cast<std::size_t>(ncols)) {
      stamp_of.assign(static_cast<std::size_t>(ncols), 0);
      acc.assign(static_cast<std::size_t>(ncols), 0);
      bits.assign((static_cast<std::size_t>(ncols) + 63) / 64, 0);
      stamp = 0;
    }
  }
};

thread_local Workspace t_ws;

std::atomic<std::int64_t> g_rows_traversed{0};

/// Work-gate and equal-flop chunking cost of A·B: the prefix of
/// `1 + Σ_{k ∈ A.row(i)} deg_B(k)`, the exact inner-product work of output
/// row `i`. Built whenever the context is parallel — the work gate of
/// `balanced_chunks_by_work` reads it even under `Static` — into the calling
/// thread's workspace, so a warm replay on a thread that already ran the
/// cold product allocates nothing. Null on a serial context, which never
/// reads it. The scan is serial: O(rows), negligible next to the product,
/// and free of the parallel scan's block-total scratch.
const offset_t* product_cost_prefix(GraphView a, const offset_t* b_row_map) {
  if (!par::Execution::is_parallel()) return nullptr;
  std::vector<offset_t>& cost = t_ws.cost;
  cost.resize(static_cast<std::size_t>(a.num_rows) + 1);
  par::parallel_for(a.num_rows, [&](ordinal_t i) {
    offset_t w = 1;
    for (ordinal_t k : a.row(i)) {
      w += b_row_map[k + 1] - b_row_map[k];
    }
    cost[static_cast<std::size_t>(i) + 1] = w;
  });
  cost[0] = 0;
  for (std::size_t i = 1; i < cost.size(); ++i) cost[i] += cost[i - 1];
  return cost.data();
}

/// Put the current row's touched columns in ascending order. A row that
/// touched at least 1/8 of the `ncols` output columns is re-read off the
/// stamp array in column order — O(ncols) instead of an O(t log t) sort,
/// and a plain iota once the row is full. The sequence is the same either
/// way, so the emitted row is identical.
void sort_touched(Workspace& ws, ordinal_t ncols) {
  const std::size_t t = ws.touched.size();
  const std::size_t n = static_cast<std::size_t>(ncols);
  if (t * 8 < n) {
    std::sort(ws.touched.begin(), ws.touched.end());
  } else if (t == n) {
    std::iota(ws.touched.begin(), ws.touched.end(), ordinal_t{0});
  } else {
    ws.touched.clear();  // keeps capacity: the refill below never allocates
    for (ordinal_t j = 0; j < ncols; ++j) {
      if (ws.stamp_of[static_cast<std::size_t>(j)] == ws.stamp) ws.touched.push_back(j);
    }
  }
}

/// One arena per chunk: rows land in the arena of the chunk that computed
/// them and are scattered into the final CRS arrays after the length scan.
struct Arena {
  std::vector<ordinal_t> cols;
  std::vector<scalar_t> vals;
};

}  // namespace

CrsMatrix spgemm(const CrsMatrix& a, const CrsMatrix& b) {
  assert(a.num_cols == b.num_rows);
  PARMIS_CHECK_MSG(a.num_cols == b.num_rows, "spgemm operand shapes do not chain");
  PARMIS_CHECK_OK(check::validate(a));
  PARMIS_CHECK_OK(check::validate(b));
  obs::Span span("spgemm.numeric");
  span.arg("rows", a.num_rows);
  CrsMatrix c;
  c.num_rows = a.num_rows;
  c.num_cols = b.num_cols;
  c.row_map.assign(static_cast<std::size_t>(a.num_rows) + 1, 0);
  if (a.num_rows == 0) return c;

  const offset_t* cost = product_cost_prefix(GraphView(a), b.row_map.data());
  std::vector<Arena> arenas(static_cast<std::size_t>(par::balanced_chunk_count()));
  std::vector<int> arena_of(static_cast<std::size_t>(a.num_rows));
  std::vector<offset_t> arena_off(static_cast<std::size_t>(a.num_rows));

  // The single traversal. The accumulation order within a row is fixed by
  // the entry order of A and B (never by scheduling), and columns are
  // emitted sorted, so entries *and values* are bit-deterministic for any
  // chunking.
  const std::size_t ncols = static_cast<std::size_t>(b.num_cols);
  par::balanced_chunks_by_work(a.num_rows, cost, [&](int chunk, ordinal_t lo, ordinal_t hi) {
    Arena& ar = arenas[static_cast<std::size_t>(chunk)];
    Workspace& ws = t_ws;
    ws.ensure(b.num_cols);
    for (ordinal_t i = lo; i < hi; ++i) {
      ++ws.stamp;
      ws.touched.clear();
      offset_t ja = a.row_map[i];
      const offset_t ja_end = a.row_map[i + 1];
      for (; ja < ja_end && ws.touched.size() < ncols; ++ja) {
        const ordinal_t k = a.entries[static_cast<std::size_t>(ja)];
        const scalar_t av = a.values[static_cast<std::size_t>(ja)];
        for (offset_t jb = b.row_map[k]; jb < b.row_map[k + 1]; ++jb) {
          const ordinal_t j = b.entries[static_cast<std::size_t>(jb)];
          const scalar_t bv = b.values[static_cast<std::size_t>(jb)];
          if (ws.stamp_of[static_cast<std::size_t>(j)] != ws.stamp) {
            ws.stamp_of[static_cast<std::size_t>(j)] = ws.stamp;
            ws.acc[static_cast<std::size_t>(j)] = av * bv;
            ws.touched.push_back(j);
          } else {
            ws.acc[static_cast<std::size_t>(j)] += av * bv;
          }
        }
      }
      // Full-row switch: once every column is live the stamp test can only
      // answer "seen", so the rest of the row accumulates unchecked, in the
      // same entry order — identical bits.
      for (; ja < ja_end; ++ja) {
        const ordinal_t k = a.entries[static_cast<std::size_t>(ja)];
        const scalar_t av = a.values[static_cast<std::size_t>(ja)];
        for (offset_t jb = b.row_map[k]; jb < b.row_map[k + 1]; ++jb) {
          ws.acc[static_cast<std::size_t>(b.entries[static_cast<std::size_t>(jb)])] +=
              av * b.values[static_cast<std::size_t>(jb)];
        }
      }
      sort_touched(ws, b.num_cols);
      arena_of[static_cast<std::size_t>(i)] = chunk;
      arena_off[static_cast<std::size_t>(i)] = static_cast<offset_t>(ar.cols.size());
      for (ordinal_t j : ws.touched) {
        ar.cols.push_back(j);
        ar.vals.push_back(ws.acc[static_cast<std::size_t>(j)]);
      }
      c.row_map[static_cast<std::size_t>(i) + 1] = static_cast<offset_t>(ws.touched.size());
    }
    g_rows_traversed.fetch_add(hi - lo, std::memory_order_relaxed);
  });

  par::inclusive_scan_inplace(
      std::span<offset_t>(c.row_map.data() + 1, static_cast<std::size_t>(a.num_rows)));
  c.entries.resize(static_cast<std::size_t>(c.row_map.back()));
  c.values.resize(static_cast<std::size_t>(c.row_map.back()));
  par::balanced_for(a.num_rows, c.row_map.data(), [&](ordinal_t i) {
    const Arena& ar = arenas[static_cast<std::size_t>(arena_of[static_cast<std::size_t>(i)])];
    const std::ptrdiff_t src = static_cast<std::ptrdiff_t>(arena_off[static_cast<std::size_t>(i)]);
    const offset_t len = c.row_map[i + 1] - c.row_map[i];
    std::copy_n(ar.cols.begin() + src, len,
                c.entries.begin() + static_cast<std::ptrdiff_t>(c.row_map[i]));
    std::copy_n(ar.vals.begin() + src, len,
                c.values.begin() + static_cast<std::ptrdiff_t>(c.row_map[i]));
  });
  PARMIS_CHECK_OK(check::validate(c));
  return c;
}

void spgemm_numeric(const CrsMatrix& a, const CrsMatrix& b, CrsMatrix& c) {
  assert(a.num_cols == b.num_rows);
  assert(c.num_rows == a.num_rows && c.num_cols == b.num_cols);
  PARMIS_CHECK_MSG(a.num_cols == b.num_rows, "spgemm_numeric operand shapes do not chain");
  PARMIS_CHECK_MSG(c.num_rows == a.num_rows && c.num_cols == b.num_cols,
                   "spgemm_numeric product shape does not match operands");
  PARMIS_CHECK(c.values.size() == c.entries.size());
  if (a.num_rows == 0) return;
  obs::Span span("spgemm.replay");
  span.arg("rows", a.num_rows);

  // With the product's sparsity known, each row resets its accumulator
  // slots, replays the inner products in the exact entry order of `spgemm`,
  // and reads the row back off the fixed column pattern. Slots reset to
  // -0.0, the exact additive identity (-0.0 + x == x bit for bit, +0.0
  // included), so the first `+=` reproduces the cold product's `= av * bv`
  // even when that product is a signed zero. The same flop prefix and work
  // gate as the cold product spread a few heavy rows over every thread.
  const offset_t* cost = product_cost_prefix(GraphView(a), b.row_map.data());
  par::balanced_chunks_by_work(a.num_rows, cost, [&](int, ordinal_t lo, ordinal_t hi) {
    Workspace& ws = t_ws;
    ws.ensure(b.num_cols);
    for (ordinal_t i = lo; i < hi; ++i) {
      for (offset_t jc = c.row_map[i]; jc < c.row_map[i + 1]; ++jc) {
        ws.acc[static_cast<std::size_t>(c.entries[static_cast<std::size_t>(jc)])] = -0.0;
      }
      for (offset_t ja = a.row_map[i]; ja < a.row_map[i + 1]; ++ja) {
        const ordinal_t k = a.entries[static_cast<std::size_t>(ja)];
        const scalar_t av = a.values[static_cast<std::size_t>(ja)];
        for (offset_t jb = b.row_map[k]; jb < b.row_map[k + 1]; ++jb) {
          ws.acc[static_cast<std::size_t>(b.entries[static_cast<std::size_t>(jb)])] +=
              av * b.values[static_cast<std::size_t>(jb)];
        }
      }
      for (offset_t jc = c.row_map[i]; jc < c.row_map[i + 1]; ++jc) {
        c.values[static_cast<std::size_t>(jc)] =
            ws.acc[static_cast<std::size_t>(c.entries[static_cast<std::size_t>(jc)])];
      }
    }
  });
}

namespace {

ordinal_t fused_tile_rows(ordinal_t rows, ordinal_t nc) {
  const std::int64_t per_tile = std::max<std::int64_t>(1, fused_tile_entries / std::max(nc, 1));
  return static_cast<ordinal_t>(std::min<std::int64_t>(rows, per_tile));
}

/// `A` entries the fused row kernel looks ahead when it prefetches `P` rows.
constexpr offset_t kPrefetchAhead = 8;

/// Hint that `addr` will be read soon; moves no data the program sees.
inline void prefetch_read(const void* addr) {
#if defined(__GNUC__) || defined(__clang__)
  __builtin_prefetch(addr);
#else
  (void)addr;
#endif
}

/// Bits of -0.0, the addend of a column an A·P row does not have.
constexpr std::uint64_t kNegZeroBits = std::uint64_t{1} << 63;

/// 64-bit words of an nc-column structure bitset.
std::size_t bitset_words(ordinal_t nc) { return (static_cast<std::size_t>(nc) + 63) / 64; }

}  // namespace

// The fused product's two per-tile kernels. Each is one body built for
// every ISA `PARMIS_WIDE_KERNEL` names; neither reassociates anything, so
// every build writes the same bits (see the header). Named-namespace
// linkage: the multi-versioning dispatch is an ifunc, the best-trodden
// path for an externally visible symbol.
namespace detail {

/// `C[j] += pv·AP[j]` over columns `[lo, hi)` of one dense row, where
/// columns the `A·P` row lacks (`mask[j] == 0`) add -0.0, the exact
/// identity. Per lane: one multiply, one bit-select, one add — no
/// cross-lane operation.
inline void fused_masked_axpy(scalar_t* __restrict crow, const scalar_t* __restrict vals,
                              const std::uint64_t* __restrict mask, scalar_t pv, std::size_t lo,
                              std::size_t hi) {
  for (std::size_t j = lo; j < hi; ++j) {
    const std::uint64_t prod = std::bit_cast<std::uint64_t>(pv * vals[j]);
    crow[j] += std::bit_cast<scalar_t>((prod & mask[j]) | (~mask[j] & kNegZeroBits));
  }
}

/// Rows `[t0 + lo, t0 + hi)` of `A·P`, each formed once, in `spgemm`'s
/// entry order, straight into its dense tile row (row `r` of the tile at
/// `tile_vals + r·nc`) seeded with -0.0, with a lane mask recording its
/// structure without a branch per flop. The flop loop stays scalar. With
/// `tile_bits` (a cold build) the mask is also packed into an nc-bit
/// bitset per row, one register-built word at a time. The `P` row of the
/// `A` entry `kPrefetchAhead` steps on is prefetched, across row ends.
PARMIS_WIDE_KERNEL
void fused_ap_rows(const CrsMatrix& a, const CrsMatrix& p, ordinal_t t0, ordinal_t lo,
                   ordinal_t hi, scalar_t* tile_vals, std::uint64_t* tile_mask,
                   std::uint64_t* tile_bits) {
  const std::size_t ncs = static_cast<std::size_t>(p.num_cols);
  const std::size_t words = bitset_words(p.num_cols);
  const offset_t prefetch_end = a.row_map[t0 + hi];
  for (ordinal_t r = lo; r < hi; ++r) {
    const ordinal_t i = t0 + r;
    scalar_t* vals = tile_vals + static_cast<std::size_t>(r) * ncs;
    std::uint64_t* mask = tile_mask + static_cast<std::size_t>(r) * ncs;
    std::fill_n(vals, ncs, -0.0);
    std::fill_n(mask, ncs, std::uint64_t{0});
    for (offset_t ja = a.row_map[i]; ja < a.row_map[i + 1]; ++ja) {
      if (ja + kPrefetchAhead < prefetch_end) {
        const auto ahead = static_cast<std::size_t>(
            p.row_map[a.entries[static_cast<std::size_t>(ja + kPrefetchAhead)]]);
        prefetch_read(p.entries.data() + ahead);
        prefetch_read(p.values.data() + ahead);
      }
      const ordinal_t k = a.entries[static_cast<std::size_t>(ja)];
      const scalar_t av = a.values[static_cast<std::size_t>(ja)];
      for (offset_t jb = p.row_map[k]; jb < p.row_map[k + 1]; ++jb) {
        const auto j = static_cast<std::size_t>(p.entries[static_cast<std::size_t>(jb)]);
        vals[j] += av * p.values[static_cast<std::size_t>(jb)];
        mask[j] = ~std::uint64_t{0};
      }
    }
    if (tile_bits == nullptr) continue;
    std::uint64_t* bits = tile_bits + static_cast<std::size_t>(r) * words;
    const std::size_t full = ncs / 64;
    for (std::size_t w = 0; w < full; ++w) {
      std::uint64_t word = 0;
      for (std::size_t b = 0; b < 64; ++b) word |= (mask[w * 64 + b] & 1) << b;
      bits[w] = word;
    }
    if (full < words) {
      std::uint64_t word = 0;
      for (std::size_t b = 0; b < ncs - full * 64; ++b) word |= (mask[full * 64 + b] & 1) << b;
      bits[full] = word;
    }
  }
}

/// Scatter of the tile's `A·P` rows (fine rows `[t0, t1)`) through `Pᵀ`
/// into the coarse rows `[lo, hi)` of the dense block: the tile's rows in
/// ascending order, and for each `(c, P[i,c])` with `c` owned,
/// `C[c][:] += P[i,c]·AP[i,:]`. With `tile_bits` (a cold build) each
/// coarse row's structure bitset in `present` also ORs in the row's.
PARMIS_WIDE_KERNEL
void fused_scatter_tile(const CrsMatrix& p, ordinal_t t0, ordinal_t t1, ordinal_t lo,
                        ordinal_t hi, const scalar_t* tile_vals, const std::uint64_t* tile_mask,
                        const std::uint64_t* tile_bits, scalar_t* dense, std::uint64_t* present) {
  const std::size_t ncs = static_cast<std::size_t>(p.num_cols);
  const std::size_t words = bitset_words(p.num_cols);
  const std::size_t body = ncs & ~std::size_t{7};
  for (ordinal_t i = t0; i < t1; ++i) {
    const std::size_t r = static_cast<std::size_t>(i - t0);
    for (offset_t e = p.row_map[i]; e < p.row_map[i + 1]; ++e) {
      const ordinal_t c = p.entries[static_cast<std::size_t>(e)];
      if (c < lo || c >= hi) continue;
      scalar_t* crow = dense + static_cast<std::size_t>(c) * ncs;
      const scalar_t* vals = tile_vals + r * ncs;
      const std::uint64_t* mask = tile_mask + r * ncs;
      const scalar_t pv = p.values[static_cast<std::size_t>(e)];
      // A multiple-of-8 body, then the rest: below -O3, GCC vectorizes
      // only loops that need no scalar remainder.
      fused_masked_axpy(crow, vals, mask, pv, 0, body);
      fused_masked_axpy(crow, vals, mask, pv, body, ncs);
      if (tile_bits == nullptr) continue;
      const std::uint64_t* bits = tile_bits + r * words;
      std::uint64_t* cbits = present + static_cast<std::size_t>(c) * words;
      for (std::size_t w = 0; w < words; ++w) cbits[w] |= bits[w];
    }
  }
}

}  // namespace detail

namespace {

/// The fused kernel proper: `Pᵀ·A·P` into `s.dense` and, with `kPattern`,
/// its structure into the bitsets `s.present` (see the header for the
/// order argument).
template <bool kPattern>
void fused_galerkin_dense(const CrsMatrix& a, const CrsMatrix& p, FusedGalerkinScratch& s) {
  const ordinal_t n = a.num_rows;
  const ordinal_t nc = p.num_cols;
  const std::size_t ncs = static_cast<std::size_t>(nc);
  const std::size_t words = bitset_words(nc);
  s.size_for(n, nc);
  std::uint64_t* const tile_bits = kPattern ? s.tile_bits.data() : nullptr;
  std::uint64_t* const present = kPattern ? s.present.data() : nullptr;

  // Every (i, P[i,a]) costs its owner one nc-wide row update, so coarse
  // rows are balanced by their P column counts (in flops, for the gate).
  const offset_t* cost = product_cost_prefix(GraphView(a), p.row_map.data());
  const offset_t* owner_cost = nullptr;
  if (cost != nullptr) {
    std::fill(s.owner_cost.begin(), s.owner_cost.end(), offset_t{0});
    for (const ordinal_t c : p.entries) s.owner_cost[static_cast<std::size_t>(c) + 1] += nc;
    for (std::size_t c = 1; c <= ncs; ++c) s.owner_cost[c] += s.owner_cost[c - 1];
    owner_cost = s.owner_cost.data();
  }

  // Seed: -0.0 is the exact additive identity, so every entry's first `+=`
  // reproduces `spgemm`'s first `=`. Each owner touches its rows first.
  par::balanced_chunks_by_work(nc, owner_cost, [&](int, ordinal_t lo, ordinal_t hi) {
    const std::size_t rows = static_cast<std::size_t>(hi - lo);
    std::fill_n(s.dense.data() + static_cast<std::size_t>(lo) * ncs, rows * ncs, -0.0);
    if constexpr (kPattern) {
      std::fill_n(present + static_cast<std::size_t>(lo) * words, rows * words,
                  std::uint64_t{0});
    }
  });

  const ordinal_t tile = fused_tile_rows(n, nc);
  for (ordinal_t t0 = 0; t0 < n; t0 += tile) {
    const ordinal_t t1 = std::min(n, t0 + tile);
    par::balanced_chunks_by_work(
        t1 - t0, cost != nullptr ? cost + t0 : nullptr, [&](int, ordinal_t lo, ordinal_t hi) {
          detail::fused_ap_rows(a, p, t0, lo, hi, s.tile_vals.data(), s.tile_mask.data(),
                                tile_bits);
        });
    par::balanced_chunks_by_work(nc, owner_cost, [&](int, ordinal_t lo, ordinal_t hi) {
      detail::fused_scatter_tile(p, t0, t1, lo, hi, s.tile_vals.data(), s.tile_mask.data(),
                                 tile_bits, s.dense.data(), present);
    });
  }
}

void check_fused_operands(const CrsMatrix& a, const CrsMatrix& p) {
  assert(a.num_rows == a.num_cols && p.num_rows == a.num_rows);
  PARMIS_CHECK_MSG(a.num_rows == a.num_cols && p.num_rows == a.num_rows,
                   "galerkin_fused operand shapes do not chain");
}

}  // namespace

void FusedGalerkinScratch::size_for(ordinal_t rows, ordinal_t nc) {
  const std::size_t block = static_cast<std::size_t>(nc) * static_cast<std::size_t>(nc);
  const std::size_t tile = static_cast<std::size_t>(fused_tile_rows(rows, nc));
  const std::size_t words = bitset_words(nc);
  dense.resize(block);
  present.resize(static_cast<std::size_t>(nc) * words);
  tile_vals.resize(tile * static_cast<std::size_t>(nc));
  tile_mask.resize(tile * static_cast<std::size_t>(nc));
  tile_bits.resize(tile * words);
  owner_cost.resize(static_cast<std::size_t>(nc) + 1);
}

std::size_t FusedGalerkinScratch::capacity_bytes() const {
  return dense.capacity() * sizeof(scalar_t) + present.capacity() * sizeof(std::uint64_t) +
         tile_vals.capacity() * sizeof(scalar_t) + tile_mask.capacity() * sizeof(std::uint64_t) +
         tile_bits.capacity() * sizeof(std::uint64_t) + owner_cost.capacity() * sizeof(offset_t);
}

bool fused_galerkin_applies(const CrsMatrix& a, const CrsMatrix& p) {
  const std::int64_t nc = p.num_cols;
  return nc * nc <= static_cast<std::int64_t>(a.num_entries());
}

CrsMatrix galerkin_fused(const CrsMatrix& a, const CrsMatrix& p, FusedGalerkinScratch& scratch) {
  check_fused_operands(a, p);
  PARMIS_CHECK_OK(check::validate(a));
  PARMIS_CHECK_OK(check::validate(p));
  obs::Span span("spgemm.galerkin_fused");
  span.arg("rows", a.num_rows);
  span.arg("nc", p.num_cols);
  const ordinal_t nc = p.num_cols;
  const std::size_t ncs = static_cast<std::size_t>(nc);
  CrsMatrix c;
  c.num_rows = nc;
  c.num_cols = nc;
  c.row_map.assign(ncs + 1, 0);
  if (nc == 0) return c;
  fused_galerkin_dense<true>(a, p, scratch);
  g_rows_traversed.fetch_add(a.num_rows, std::memory_order_relaxed);

  // Emit: each coarse row's present columns, ascending.
  const std::size_t words = bitset_words(nc);
  par::parallel_for(nc, [&](ordinal_t r) {
    const std::uint64_t* bits = scratch.present.data() + static_cast<std::size_t>(r) * words;
    offset_t count = 0;
    for (std::size_t w = 0; w < words; ++w) count += std::popcount(bits[w]);
    c.row_map[static_cast<std::size_t>(r) + 1] = count;
  });
  for (std::size_t r = 1; r <= ncs; ++r) c.row_map[r] += c.row_map[r - 1];
  c.entries.resize(static_cast<std::size_t>(c.row_map.back()));
  c.values.resize(static_cast<std::size_t>(c.row_map.back()));
  par::parallel_for(nc, [&](ordinal_t r) {
    const std::uint64_t* bits = scratch.present.data() + static_cast<std::size_t>(r) * words;
    const scalar_t* row = scratch.dense.data() + static_cast<std::size_t>(r) * ncs;
    std::size_t o = static_cast<std::size_t>(c.row_map[r]);
    for (std::size_t j = 0; j < ncs; ++j) {
      if (((bits[j / 64] >> (j % 64)) & 1) == 0) continue;
      c.entries[o] = static_cast<ordinal_t>(j);
      c.values[o] = row[j];
      ++o;
    }
  });
  PARMIS_CHECK_OK(check::validate(c));
  return c;
}

void galerkin_fused_numeric(const CrsMatrix& a, const CrsMatrix& p,
                            FusedGalerkinScratch& scratch, CrsMatrix& c) {
  check_fused_operands(a, p);
  assert(c.num_rows == p.num_cols && c.num_cols == p.num_cols);
  PARMIS_CHECK_MSG(c.num_rows == p.num_cols && c.num_cols == p.num_cols,
                   "galerkin_fused_numeric product shape does not match operands");
  PARMIS_CHECK(c.values.size() == c.entries.size());
  if (p.num_cols == 0) return;
  obs::Span span("spgemm.galerkin_fused_replay");
  span.arg("rows", a.num_rows);
  span.arg("nc", p.num_cols);
  fused_galerkin_dense<false>(a, p, scratch);
  const std::size_t ncs = static_cast<std::size_t>(p.num_cols);
  par::parallel_for(c.num_rows, [&](ordinal_t r) {
    const scalar_t* row = scratch.dense.data() + static_cast<std::size_t>(r) * ncs;
    for (offset_t e = c.row_map[r]; e < c.row_map[r + 1]; ++e) {
      c.values[static_cast<std::size_t>(e)] =
          row[static_cast<std::size_t>(c.entries[static_cast<std::size_t>(e)])];
    }
  });
}

void spgemm_warm_thread(ordinal_t n) {
  t_ws.ensure(n);
  t_ws.cost.reserve(static_cast<std::size_t>(n) + 1);
}

CrsMatrix matrix_add(scalar_t alpha, const CrsMatrix& a, scalar_t beta, const CrsMatrix& b) {
  assert(a.num_rows == b.num_rows && a.num_cols == b.num_cols);
  CrsMatrix c;
  c.num_rows = a.num_rows;
  c.num_cols = a.num_cols;
  c.row_map.assign(static_cast<std::size_t>(a.num_rows) + 1, 0);

  auto merged_count = [&](ordinal_t i) {
    auto ra = a.row(i);
    auto rb = b.row(i);
    std::size_t ia = 0, ib = 0;
    offset_t count = 0;
    while (ia < ra.size() || ib < rb.size()) {
      if (ib >= rb.size() || (ia < ra.size() && ra[ia] < rb[ib])) {
        ++ia;
      } else if (ia >= ra.size() || rb[ib] < ra[ia]) {
        ++ib;
      } else {
        ++ia;
        ++ib;
      }
      ++count;
    }
    return count;
  };

  // Per-row merge work is degree-shaped; A's row_map is the (half of the)
  // cost, close enough to balance the sweep.
  par::balanced_for(a.num_rows, a.row_map.data(), [&](ordinal_t i) {
    c.row_map[static_cast<std::size_t>(i) + 1] = merged_count(i);
  });
  for (ordinal_t i = 0; i < a.num_rows; ++i) {
    c.row_map[static_cast<std::size_t>(i) + 1] += c.row_map[static_cast<std::size_t>(i)];
  }
  c.entries.resize(static_cast<std::size_t>(c.row_map.back()));
  c.values.resize(static_cast<std::size_t>(c.row_map.back()));

  par::balanced_for(a.num_rows, c.row_map.data(), [&](ordinal_t i) {
    auto ra = a.row(i);
    auto rb = b.row(i);
    auto va = a.row_values(i);
    auto vb = b.row_values(i);
    std::size_t ia = 0, ib = 0;
    offset_t o = c.row_map[i];
    while (ia < ra.size() || ib < rb.size()) {
      ordinal_t col;
      scalar_t val;
      if (ib >= rb.size() || (ia < ra.size() && ra[ia] < rb[ib])) {
        col = ra[ia];
        val = alpha * va[ia];
        ++ia;
      } else if (ia >= ra.size() || rb[ib] < ra[ia]) {
        col = rb[ib];
        val = beta * vb[ib];
        ++ib;
      } else {
        col = ra[ia];
        val = alpha * va[ia] + beta * vb[ib];
        ++ia;
        ++ib;
      }
      c.entries[static_cast<std::size_t>(o)] = col;
      c.values[static_cast<std::size_t>(o)] = val;
      ++o;
    }
  });
  return c;
}

namespace {

/// Shapes `smoothed_prolongator` relies on: `a` square, `phat` one entry
/// per row (its `row_map` is the identity), `inv_diag` one scale per row.
void check_prolongator_operands(const CrsMatrix& a, const CrsMatrix& phat,
                                std::span<const scalar_t> inv_diag) {
  assert(a.num_rows == a.num_cols && phat.num_rows == a.num_rows);
  assert(inv_diag.size() == static_cast<std::size_t>(a.num_rows));
  PARMIS_CHECK_MSG(a.num_rows == a.num_cols && phat.num_rows == a.num_rows &&
                       inv_diag.size() == static_cast<std::size_t>(a.num_rows),
                   "smoothed_prolongator operand shapes do not chain");
  PARMIS_CHECK_MSG(phat.num_entries() == static_cast<offset_t>(phat.num_rows),
                   "smoothed_prolongator needs one tentative-prolongator entry per row");
}

/// `P` from `D⁻¹·A·P̂`: `matrix_add(1.0, phat, -omega, ap)`'s value for an
/// entry of row `i` in column `j`, where `P̂` row `i` is `(own, w)`.
inline scalar_t prolongator_value(ordinal_t j, scalar_t apv, ordinal_t own, scalar_t w,
                                  scalar_t beta) {
  constexpr scalar_t alpha = 1.0;
  return j == own ? alpha * w + beta * apv : beta * apv;
}

}  // namespace

void smoothed_prolongator(const CrsMatrix& a, const CrsMatrix& phat,
                          std::span<const scalar_t> inv_diag, scalar_t omega, CrsMatrix& ap,
                          CrsMatrix& p) {
  check_prolongator_operands(a, phat, inv_diag);
  PARMIS_CHECK_OK(check::validate(a));
  obs::Span span("spgemm.smoothed_prolongator");
  span.arg("rows", a.num_rows);
  const ordinal_t n = a.num_rows;
  const ordinal_t nc = phat.num_cols;
  const std::size_t words = bitset_words(nc);
  ap.num_rows = n;
  ap.num_cols = nc;
  ap.row_map.assign(static_cast<std::size_t>(n) + 1, 0);

  // `P̂` row `k` is `(label(k), w(k))`, so `A·P̂` row `i` is one gather per
  // `A` entry. The row's touched columns live in the thread's bitset, all
  // zero between rows. First the row lengths: distinct labels per row.
  std::atomic<bool> missing_diagonal{false};
  par::balanced_chunks(n, a.row_map.data(), [&](int, ordinal_t lo, ordinal_t hi) {
    Workspace& ws = t_ws;
    ws.ensure(nc);
    std::uint64_t* const bits = ws.bits.data();
    for (ordinal_t i = lo; i < hi; ++i) {
      offset_t count = 0;
      for (offset_t ja = a.row_map[i]; ja < a.row_map[i + 1]; ++ja) {
        const auto j = static_cast<std::size_t>(
            phat.entries[static_cast<std::size_t>(a.entries[static_cast<std::size_t>(ja)])]);
        const std::uint64_t bit = std::uint64_t{1} << (j % 64);
        count += (bits[j / 64] & bit) == 0 ? 1 : 0;
        bits[j / 64] |= bit;
      }
      const auto own = static_cast<std::size_t>(phat.entries[static_cast<std::size_t>(i)]);
      if (((bits[own / 64] >> (own % 64)) & 1) == 0) {
        missing_diagonal.store(true, std::memory_order_relaxed);
      }
      for (offset_t ja = a.row_map[i]; ja < a.row_map[i + 1]; ++ja) {
        bits[static_cast<std::size_t>(
                 phat.entries[static_cast<std::size_t>(a.entries[static_cast<std::size_t>(ja)])]) /
             64] = 0;
      }
      ap.row_map[static_cast<std::size_t>(i) + 1] = count;
    }
  });
  if (missing_diagonal.load(std::memory_order_relaxed)) {
    throw std::invalid_argument(
        "smoothed_prolongator: a row of A·P̂ lacks its own aggregate (no structural diagonal)");
  }
  par::inclusive_scan_inplace(
      std::span<offset_t>(ap.row_map.data() + 1, static_cast<std::size_t>(n)));
  const std::size_t nnz = static_cast<std::size_t>(ap.row_map.back());
  ap.entries.resize(nnz);
  ap.values.resize(nnz);
  p.num_rows = n;
  p.num_cols = nc;
  p.row_map = ap.row_map;
  p.entries.resize(nnz);
  p.values.resize(nnz);

  // Then the values, straight into both outputs: each row accumulates in
  // `A`'s entry order with `spgemm`'s first `=` and later `+=`, and is
  // emitted in column order — by walking the bitset when its words are no
  // more than the row's columns, else by sorting the (short) touched list.
  const scalar_t beta = -omega;
  par::balanced_chunks(n, a.row_map.data(), [&](int, ordinal_t lo, ordinal_t hi) {
    Workspace& ws = t_ws;
    ws.ensure(nc);
    std::uint64_t* const bits = ws.bits.data();
    scalar_t* const acc = ws.acc.data();
    for (ordinal_t i = lo; i < hi; ++i) {
      ws.touched.clear();
      for (offset_t ja = a.row_map[i]; ja < a.row_map[i + 1]; ++ja) {
        const ordinal_t k = a.entries[static_cast<std::size_t>(ja)];
        const ordinal_t j = phat.entries[static_cast<std::size_t>(k)];
        const scalar_t prod =
            a.values[static_cast<std::size_t>(ja)] * phat.values[static_cast<std::size_t>(k)];
        std::uint64_t& word = bits[static_cast<std::size_t>(j) / 64];
        const std::uint64_t bit = std::uint64_t{1} << (static_cast<std::size_t>(j) % 64);
        if ((word & bit) == 0) {
          word |= bit;
          acc[static_cast<std::size_t>(j)] = prod;
          ws.touched.push_back(j);
        } else {
          acc[static_cast<std::size_t>(j)] += prod;
        }
      }

      const scalar_t scale = inv_diag[static_cast<std::size_t>(i)];
      const ordinal_t own = phat.entries[static_cast<std::size_t>(i)];
      const scalar_t w = phat.values[static_cast<std::size_t>(i)];
      auto o = static_cast<std::size_t>(ap.row_map[i]);
      const auto emit = [&](ordinal_t j) {
        const scalar_t apv = acc[static_cast<std::size_t>(j)] * scale;
        ap.entries[o] = j;
        ap.values[o] = apv;
        p.entries[o] = j;
        p.values[o] = prolongator_value(j, apv, own, w, beta);
        ++o;
      };
      if (words <= ws.touched.size()) {
        for (std::size_t wi = 0; wi < words; ++wi) {
          std::uint64_t word = bits[wi];
          bits[wi] = 0;
          while (word != 0) {
            emit(static_cast<ordinal_t>(wi * 64 + static_cast<std::size_t>(std::countr_zero(word))));
            word &= word - 1;
          }
        }
      } else {
        std::sort(ws.touched.begin(), ws.touched.end());
        for (const ordinal_t j : ws.touched) {
          bits[static_cast<std::size_t>(j) / 64] = 0;
          emit(j);
        }
      }
      assert(o == static_cast<std::size_t>(ap.row_map[i + 1]));
    }
  });
  PARMIS_CHECK_OK(check::validate(ap));
  PARMIS_CHECK_OK(check::validate(p));
}

void smoothed_prolongator_numeric(const CrsMatrix& a, const CrsMatrix& phat,
                                  std::span<const scalar_t> inv_diag, scalar_t omega,
                                  CrsMatrix& ap, CrsMatrix& p) {
  check_prolongator_operands(a, phat, inv_diag);
  assert(ap.num_rows == a.num_rows && p.num_rows == a.num_rows);
  PARMIS_CHECK_MSG(ap.num_rows == a.num_rows && p.num_rows == a.num_rows &&
                       ap.num_entries() == p.num_entries(),
                   "smoothed_prolongator_numeric pattern does not match operands");
  if (a.num_rows == 0) return;
  obs::Span span("spgemm.smoothed_prolongator_replay");
  span.arg("rows", a.num_rows);

  // The cold pass with its pattern known: slots reset to -0.0, the exact
  // additive identity, so the first `+=` reproduces the cold `=`; then the
  // same products in the same `A` entry order, read back off the pattern.
  const scalar_t beta = -omega;
  par::balanced_chunks(a.num_rows, a.row_map.data(), [&](int, ordinal_t lo, ordinal_t hi) {
    Workspace& ws = t_ws;
    ws.ensure(phat.num_cols);
    scalar_t* const acc = ws.acc.data();
    for (ordinal_t i = lo; i < hi; ++i) {
      for (offset_t e = ap.row_map[i]; e < ap.row_map[i + 1]; ++e) {
        acc[static_cast<std::size_t>(ap.entries[static_cast<std::size_t>(e)])] = -0.0;
      }
      for (offset_t ja = a.row_map[i]; ja < a.row_map[i + 1]; ++ja) {
        const auto k = static_cast<std::size_t>(a.entries[static_cast<std::size_t>(ja)]);
        acc[static_cast<std::size_t>(phat.entries[k])] +=
            a.values[static_cast<std::size_t>(ja)] * phat.values[k];
      }
      const scalar_t scale = inv_diag[static_cast<std::size_t>(i)];
      const ordinal_t own = phat.entries[static_cast<std::size_t>(i)];
      const scalar_t w = phat.values[static_cast<std::size_t>(i)];
      for (offset_t e = ap.row_map[i]; e < ap.row_map[i + 1]; ++e) {
        const auto se = static_cast<std::size_t>(e);
        const ordinal_t j = ap.entries[se];
        const scalar_t apv = acc[static_cast<std::size_t>(j)] * scale;
        ap.values[se] = apv;
        p.values[se] = prolongator_value(j, apv, own, w, beta);
      }
    }
  });
}

namespace {

/// The parallel counting-sort transpose; with `perm`, the placement pass
/// also records where each entry of `a` lands.
CrsMatrix transpose_into(const CrsMatrix& a, offset_t* perm) {
  PARMIS_SPAN("spgemm.transpose");
  CrsMatrix t;
  t.num_rows = a.num_cols;
  t.num_cols = a.num_rows;
  t.row_map.assign(static_cast<std::size_t>(a.num_cols) + 1, 0);
  t.entries.resize(static_cast<std::size_t>(a.num_entries()));
  t.values.resize(static_cast<std::size_t>(a.num_entries()));
  if (a.num_rows == 0 || a.num_cols == 0 || a.num_entries() == 0) return t;

  // Parallel counting sort. Rows are cut into the same cost-balanced
  // chunks twice (balanced_chunks guarantees identical boundaries for
  // identical inputs); the histogram pass counts each chunk's entries per
  // column, the per-column scan turns counts into chunk-local starting
  // cursors, and the placement pass writes entries at those cursors. A
  // column's entries arrive ordered by (chunk, row-within-chunk) = source
  // row ascending for *any* contiguous chunking, so the result — rows
  // sorted by original row id — is identical to the serial transpose, and
  // so is the permutation.
  const std::size_t ncols = static_cast<std::size_t>(a.num_cols);
  const int nchunks = par::balanced_chunk_count();
  std::vector<offset_t> counts(static_cast<std::size_t>(nchunks) * ncols, 0);

  par::balanced_chunks(a.num_rows, a.row_map.data(), [&](int chunk, ordinal_t lo, ordinal_t hi) {
    offset_t* cnt = counts.data() + static_cast<std::size_t>(chunk) * ncols;
    for (ordinal_t i = lo; i < hi; ++i) {
      for (ordinal_t col : a.row(i)) {
        ++cnt[static_cast<std::size_t>(col)];
      }
    }
  });

  par::chunked_cursor_scan(a.num_cols, nchunks, counts, t.row_map);
  par::inclusive_scan_inplace(
      std::span<offset_t>(t.row_map.data() + 1, static_cast<std::size_t>(a.num_cols)));

  par::balanced_chunks(a.num_rows, a.row_map.data(), [&](int chunk, ordinal_t lo, ordinal_t hi) {
    offset_t* cursor = counts.data() + static_cast<std::size_t>(chunk) * ncols;
    for (ordinal_t i = lo; i < hi; ++i) {
      for (offset_t j = a.row_map[i]; j < a.row_map[i + 1]; ++j) {
        const ordinal_t col = a.entries[static_cast<std::size_t>(j)];
        const offset_t o = t.row_map[static_cast<std::size_t>(col)] +
                           cursor[static_cast<std::size_t>(col)]++;
        t.entries[static_cast<std::size_t>(o)] = i;
        t.values[static_cast<std::size_t>(o)] = a.values[static_cast<std::size_t>(j)];
        if (perm != nullptr) perm[static_cast<std::size_t>(j)] = o;
      }
    }
  });
  return t;
}

}  // namespace

CrsMatrix transpose_matrix(const CrsMatrix& a) { return transpose_into(a, nullptr); }

CrsMatrix transpose_matrix(const CrsMatrix& a, std::vector<offset_t>& perm) {
  perm.resize(static_cast<std::size_t>(a.num_entries()));
  return transpose_into(a, perm.data());
}

void transpose_numeric(const CrsMatrix& a, std::span<const offset_t> perm, CrsMatrix& t) {
  assert(perm.size() == static_cast<std::size_t>(a.num_entries()));
  assert(t.num_rows == a.num_cols && t.num_cols == a.num_rows);
  par::balanced_for(a.num_rows, a.row_map.data(), [&](ordinal_t i) {
    for (offset_t j = a.row_map[i]; j < a.row_map[i + 1]; ++j) {
      t.values[static_cast<std::size_t>(perm[static_cast<std::size_t>(j)])] =
          a.values[static_cast<std::size_t>(j)];
    }
  });
}

std::vector<scalar_t> extract_diagonal(const CrsMatrix& a) {
  std::vector<scalar_t> d(static_cast<std::size_t>(a.num_rows), 0);
  extract_diagonal(a, d);
  return d;
}

void extract_diagonal(const CrsMatrix& a, std::span<scalar_t> d) {
  assert(a.num_rows == a.num_cols);
  assert(d.size() == static_cast<std::size_t>(a.num_rows));
  par::balanced_for(a.num_rows, a.row_map.data(), [&](ordinal_t i) {
    auto cols = a.row(i);
    auto it = std::lower_bound(cols.begin(), cols.end(), i);
    d[static_cast<std::size_t>(i)] =
        (it != cols.end() && *it == i)
            ? a.values[static_cast<std::size_t>(a.row_map[i] + (it - cols.begin()))]
            : 0.0;
  });
}

std::int64_t spgemm_rows_traversed() {
  return g_rows_traversed.load(std::memory_order_relaxed);
}

void spgemm_reset_stats() { g_rows_traversed.store(0, std::memory_order_relaxed); }

}  // namespace parmis::graph
