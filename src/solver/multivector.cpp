#include "solver/multivector.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdint>
#include <type_traits>
#include <vector>

#include "parallel/parallel_for.hpp"
#include "parallel/parallel_reduce.hpp"
#include "parallel/simd.hpp"

namespace parmis::solver {

namespace {

/// Elementwise helper: run `f(i)` over rows through `parallel_for` (safe for
/// any backend — every row's K lanes are written by exactly one iteration).
template <typename F>
void mv_foreach_row(ordinal_t n, F&& f) {
  par::parallel_for(n, std::forward<F>(f));
}

/// Fused dot over rows [lo, hi) of lanes [0, kw) of a multi-vector with
/// row stride `stride` (see `par::with_lane_width`): the accumulators stay
/// in a local array, in registers, and the per-row multiply-add unrolls
/// across lanes. Per lane the accumulation order is the serial
/// in-row-order sum whatever the width form.
template <typename Lanes>
void dot_rows(const scalar_t* a, const scalar_t* b, std::size_t stride, std::int64_t lo,
              std::int64_t hi, Lanes kw, scalar_t* __restrict acc) {
  scalar_t sum[par::lane_group];
  for (int c = 0; c < kw; ++c) sum[c] = acc[c];
  for (std::int64_t i = lo; i < hi; ++i) {
    const std::size_t base = static_cast<std::size_t>(i) * stride;
    for (int c = 0; c < kw; ++c) {
      sum[c] += a[base + static_cast<std::size_t>(c)] * b[base + static_cast<std::size_t>(c)];
    }
  }
  for (int c = 0; c < kw; ++c) acc[c] = sum[c];
}

bool all_active(std::span<const char> active, int k_count) {
  for (int c = 0; c < k_count; ++c) {
    if (!active[static_cast<std::size_t>(c)]) return false;
  }
  return true;
}

/// Rows-per-chunk of the branch-free fast paths below. The ops are
/// elementwise (each lane written by exactly one iteration), so the
/// partition never affects bits — chunking only amortizes dispatch. The
/// width equals `parallel_for_grain`, so a one-column vector goes parallel
/// at the same length, and splits as evenly, as `axpby`.
constexpr std::int64_t kMvChunk = par::parallel_for_grain;

/// Run `f(lo, hi)` over row chunks; two or more chunks run in parallel.
template <typename F>
void mv_row_chunks(ordinal_t n, F&& f) {
  const std::int64_t len = static_cast<std::int64_t>(n);
  const std::int64_t nchunks = (len + kMvChunk - 1) / kMvChunk;
  par::parallel_for_grained(nchunks, 2, [&](std::int64_t chunk) {
    f(chunk * kMvChunk, std::min<std::int64_t>(len, (chunk + 1) * kMvChunk));
  });
}

/// Branch-free y[·,c] = alpha[c]·x[·,c] + y[·,c] over rows [lo, hi): the
/// per-lane expression is exactly the masked loop's, minus the mask test —
/// same bits, but the constant trip count and `__restrict` let it
/// vectorize. Used when every column is still active (the common case
/// before deflation starts).
template <typename Lanes>
void axpy_cols_rows(const scalar_t* __restrict alpha, const scalar_t* __restrict x,
                    scalar_t* __restrict y, std::int64_t lo, std::int64_t hi, Lanes kw) {
  for (std::int64_t i = lo; i < hi; ++i) {
    const std::size_t base = static_cast<std::size_t>(i) * static_cast<std::size_t>(kw);
    for (int c = 0; c < kw; ++c) {
      const std::size_t at = base + static_cast<std::size_t>(c);
      y[at] = alpha[static_cast<std::size_t>(c)] * x[at] + y[at];
    }
  }
}

/// Branch-free y[·,c] = x[·,c] + beta[c]·y[·,c] (see axpy_cols_rows).
template <typename Lanes>
void xpay_cols_rows(const scalar_t* __restrict x, const scalar_t* __restrict beta,
                    scalar_t* __restrict y, std::int64_t lo, std::int64_t hi, Lanes kw) {
  for (std::int64_t i = lo; i < hi; ++i) {
    const std::size_t base = static_cast<std::size_t>(i) * static_cast<std::size_t>(kw);
    for (int c = 0; c < kw; ++c) {
      const std::size_t at = base + static_cast<std::size_t>(c);
      y[at] = x[at] + beta[static_cast<std::size_t>(c)] * y[at];
    }
  }
}

}  // namespace

// The K > 1 clone points of the lane kernels (see parallel/simd.hpp): each
// runs the lane dispatch over rows [lo, hi). One column stays on the
// baseline build.
namespace detail {

PARMIS_WIDE_KERNEL
void mv_dot_rows(const scalar_t* a, const scalar_t* b, std::int64_t lo, std::int64_t hi,
                 int k_count, scalar_t* acc) {
  const std::size_t uk = static_cast<std::size_t>(k_count);
  for (int k0 = 0; k0 < k_count; k0 += par::lane_group) {
    par::with_lane_width(std::min(k_count - k0, par::lane_group), [&](auto kw) {
      dot_rows(a + k0, b + k0, uk, lo, hi, kw, acc + k0);
    });
  }
}

PARMIS_WIDE_KERNEL
void mv_axpy_cols_rows(const scalar_t* alpha, const scalar_t* x, scalar_t* y, std::int64_t lo,
                       std::int64_t hi, int k_count) {
  par::with_lane_width(k_count, [&](auto kw) { axpy_cols_rows(alpha, x, y, lo, hi, kw); });
}

PARMIS_WIDE_KERNEL
void mv_xpay_cols_rows(const scalar_t* x, const scalar_t* beta, scalar_t* y, std::int64_t lo,
                       std::int64_t hi, int k_count) {
  par::with_lane_width(k_count, [&](auto kw) { xpay_cols_rows(x, beta, y, lo, hi, kw); });
}

}  // namespace detail

namespace {

/// `mv_dot`'s accumulation over rows [lo, hi) into `acc`.
void dot_rows_dispatch(const scalar_t* a, const scalar_t* b, std::int64_t lo, std::int64_t hi,
                       int k_count, scalar_t* acc) {
  if (k_count == 1) {
    dot_rows(a, b, 1, lo, hi, std::integral_constant<int, 1>{}, acc);
  } else {
    detail::mv_dot_rows(a, b, lo, hi, k_count, acc);
  }
}

}  // namespace

void mv_dot(std::span<const scalar_t> a, std::span<const scalar_t> b, ordinal_t n, int k_count,
            std::span<scalar_t> out) {
  assert(k_count > 0);
  assert(a.size() >= static_cast<std::size_t>(n) * static_cast<std::size_t>(k_count));
  assert(b.size() >= static_cast<std::size_t>(n) * static_cast<std::size_t>(k_count));
  assert(out.size() >= static_cast<std::size_t>(k_count));
  const std::size_t k = static_cast<std::size_t>(k_count);
  for (int c = 0; c < k_count; ++c) out[static_cast<std::size_t>(c)] = 0.0;
  if (n <= 0) return;
  // Mirror par::parallel_reduce exactly: same chunking, same per-chunk
  // serial accumulation order, same serial combine in ascending chunk
  // order — so column c matches `dot` on the gathered column bit for bit.
  const std::int64_t len = static_cast<std::int64_t>(n);
  const std::int64_t nchunks = (len + par::reduce_chunk - 1) / par::reduce_chunk;
  if (nchunks == 1) {
    dot_rows_dispatch(a.data(), b.data(), 0, len, k_count, out.data());
    return;
  }
  // Partials live in the same thread-local scratch parallel_reduce uses, so
  // warm solver loops stay allocation-free (the AllocGuard contract).
  scalar_t* partial = reinterpret_cast<scalar_t*>(
      par::detail::reduce_scratch(static_cast<std::size_t>(nchunks) * k * sizeof(scalar_t)));
  par::parallel_for_grained(nchunks, par::reduce_parallel_chunks, [&](std::int64_t chunk) {
    const std::int64_t lo = chunk * par::reduce_chunk;
    const std::int64_t hi = std::min<std::int64_t>(len, (chunk + 1) * par::reduce_chunk);
    scalar_t* p = partial + static_cast<std::size_t>(chunk) * k;
    for (std::size_t c = 0; c < k; ++c) p[c] = 0.0;  // scratch arrives dirty
    dot_rows_dispatch(a.data(), b.data(), lo, hi, k_count, p);
  });
  for (std::int64_t chunk = 0; chunk < nchunks; ++chunk) {
    const scalar_t* p = partial + static_cast<std::size_t>(chunk) * k;
    for (int c = 0; c < k_count; ++c) out[static_cast<std::size_t>(c)] += p[c];
  }
}

void mv_norms(std::span<const scalar_t> a, ordinal_t n, int k_count, std::span<scalar_t> out) {
  mv_dot(a, a, n, k_count, out);
  for (int c = 0; c < k_count; ++c) {
    out[static_cast<std::size_t>(c)] = std::sqrt(out[static_cast<std::size_t>(c)]);
  }
}

void mv_axpby(scalar_t alpha, std::span<const scalar_t> x, scalar_t beta, std::span<scalar_t> y,
              ordinal_t n, int k_count) {
  // Unmasked and elementwise with scalar coefficients: the row/lane
  // structure is irrelevant, so run one flat loop over all n*K lanes —
  // identical bits, and the stride-1 form the vectorizer handles best.
  const std::int64_t total = static_cast<std::int64_t>(n) * k_count;
  par::parallel_for(total, [&](std::int64_t t) {
    const std::size_t at = static_cast<std::size_t>(t);
    y[at] = alpha * x[at] + beta * y[at];
  });
}

void mv_axpby_masked(scalar_t alpha, std::span<const scalar_t> x, scalar_t beta,
                     std::span<scalar_t> y, ordinal_t n, int k_count,
                     std::span<const char> active) {
  if (all_active(active, k_count)) {
    // No frozen lanes: identical elementwise expression without the test.
    mv_axpby(alpha, x, beta, y, n, k_count);
    return;
  }
  const std::size_t k = static_cast<std::size_t>(k_count);
  mv_foreach_row(n, [&](ordinal_t i) {
    const std::size_t base = static_cast<std::size_t>(i) * k;
    for (int c = 0; c < k_count; ++c) {
      if (!active[static_cast<std::size_t>(c)]) continue;
      const std::size_t at = base + static_cast<std::size_t>(c);
      y[at] = alpha * x[at] + beta * y[at];
    }
  });
}

void mv_axpy_cols(std::span<const scalar_t> alpha, std::span<const scalar_t> x,
                  std::span<scalar_t> y, ordinal_t n, int k_count,
                  std::span<const char> active) {
  if (all_active(active, k_count)) {
    const scalar_t* ap = alpha.data();
    const scalar_t* xp = x.data();
    scalar_t* yp = y.data();
    mv_row_chunks(n, [&](std::int64_t lo, std::int64_t hi) {
      if (k_count == 1) {
        axpy_cols_rows(ap, xp, yp, lo, hi, std::integral_constant<int, 1>{});
      } else {
        detail::mv_axpy_cols_rows(ap, xp, yp, lo, hi, k_count);
      }
    });
    return;
  }
  const std::size_t k = static_cast<std::size_t>(k_count);
  mv_foreach_row(n, [&](ordinal_t i) {
    const std::size_t base = static_cast<std::size_t>(i) * k;
    for (int c = 0; c < k_count; ++c) {
      if (!active[static_cast<std::size_t>(c)]) continue;
      const std::size_t at = base + static_cast<std::size_t>(c);
      // Bit-identical to axpby(alpha[c], x, 1.0, y): 1.0 * y == y exactly.
      y[at] = alpha[static_cast<std::size_t>(c)] * x[at] + y[at];
    }
  });
}

void mv_xpay_cols(std::span<const scalar_t> x, std::span<const scalar_t> beta,
                  std::span<scalar_t> y, ordinal_t n, int k_count,
                  std::span<const char> active) {
  if (all_active(active, k_count)) {
    const scalar_t* xp = x.data();
    const scalar_t* bp = beta.data();
    scalar_t* yp = y.data();
    mv_row_chunks(n, [&](std::int64_t lo, std::int64_t hi) {
      if (k_count == 1) {
        xpay_cols_rows(xp, bp, yp, lo, hi, std::integral_constant<int, 1>{});
      } else {
        detail::mv_xpay_cols_rows(xp, bp, yp, lo, hi, k_count);
      }
    });
    return;
  }
  const std::size_t k = static_cast<std::size_t>(k_count);
  mv_foreach_row(n, [&](ordinal_t i) {
    const std::size_t base = static_cast<std::size_t>(i) * k;
    for (int c = 0; c < k_count; ++c) {
      if (!active[static_cast<std::size_t>(c)]) continue;
      const std::size_t at = base + static_cast<std::size_t>(c);
      // Bit-identical to axpby(1.0, x, beta[c], y): 1.0 * x == x exactly.
      y[at] = x[at] + beta[static_cast<std::size_t>(c)] * y[at];
    }
  });
}

void mv_scale_cols(std::span<scalar_t> y, std::span<const scalar_t> s, ordinal_t n, int k_count,
                   std::span<const char> active) {
  const std::size_t k = static_cast<std::size_t>(k_count);
  mv_foreach_row(n, [&](ordinal_t i) {
    const std::size_t base = static_cast<std::size_t>(i) * k;
    for (int c = 0; c < k_count; ++c) {
      if (!active[static_cast<std::size_t>(c)]) continue;
      y[base + static_cast<std::size_t>(c)] *= s[static_cast<std::size_t>(c)];
    }
  });
}

void mv_copy(std::span<const scalar_t> x, std::span<scalar_t> y) {
  assert(y.size() >= x.size());
  par::parallel_for(static_cast<std::int64_t>(x.size()), [&](std::int64_t i) {
    y[static_cast<std::size_t>(i)] = x[static_cast<std::size_t>(i)];
  });
}

void mv_copy_cols(std::span<const scalar_t> x, std::span<scalar_t> y, ordinal_t n, int k_count,
                  std::span<const char> active) {
  const std::size_t k = static_cast<std::size_t>(k_count);
  mv_foreach_row(n, [&](ordinal_t i) {
    const std::size_t base = static_cast<std::size_t>(i) * k;
    for (int c = 0; c < k_count; ++c) {
      if (!active[static_cast<std::size_t>(c)]) continue;
      y[base + static_cast<std::size_t>(c)] = x[base + static_cast<std::size_t>(c)];
    }
  });
}

void mv_fill_cols(std::span<scalar_t> y, scalar_t value, ordinal_t n, int k_count,
                  std::span<const char> active) {
  const std::size_t k = static_cast<std::size_t>(k_count);
  mv_foreach_row(n, [&](ordinal_t i) {
    const std::size_t base = static_cast<std::size_t>(i) * k;
    for (int c = 0; c < k_count; ++c) {
      if (!active[static_cast<std::size_t>(c)]) continue;
      y[base + static_cast<std::size_t>(c)] = value;
    }
  });
}

void mv_fill_col(std::span<scalar_t> y, scalar_t value, ordinal_t n, int k_count, int col) {
  const std::size_t k = static_cast<std::size_t>(k_count);
  mv_foreach_row(n, [&](ordinal_t i) {
    y[static_cast<std::size_t>(i) * k + static_cast<std::size_t>(col)] = value;
  });
}

void gather_column(std::span<const scalar_t> src, ordinal_t n, int k_count, int col,
                   std::span<scalar_t> out) {
  assert(out.size() >= static_cast<std::size_t>(n));
  const std::size_t k = static_cast<std::size_t>(k_count);
  mv_foreach_row(n, [&](ordinal_t i) {
    out[static_cast<std::size_t>(i)] =
        src[static_cast<std::size_t>(i) * k + static_cast<std::size_t>(col)];
  });
}

void scatter_column(std::span<const scalar_t> in, ordinal_t n, int k_count, int col,
                    std::span<scalar_t> dst) {
  assert(in.size() >= static_cast<std::size_t>(n));
  const std::size_t k = static_cast<std::size_t>(k_count);
  mv_foreach_row(n, [&](ordinal_t i) {
    dst[static_cast<std::size_t>(i) * k + static_cast<std::size_t>(col)] =
        in[static_cast<std::size_t>(i)];
  });
}

}  // namespace parmis::solver
