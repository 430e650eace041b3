#include "graph/spmm.hpp"

#include <cassert>

#include "check/check.hpp"

namespace parmis::graph {

namespace {

void check_shapes([[maybe_unused]] const CrsMatrix& a,
                  [[maybe_unused]] std::span<const scalar_t> x,
                  [[maybe_unused]] std::span<scalar_t> y, [[maybe_unused]] int k_count) {
  assert(k_count > 0);
  assert(x.size() == static_cast<std::size_t>(a.num_cols) * static_cast<std::size_t>(k_count));
  assert(y.size() == static_cast<std::size_t>(a.num_rows) * static_cast<std::size_t>(k_count));
  PARMIS_CHECK(k_count > 0);
  PARMIS_CHECK(x.size() ==
               static_cast<std::size_t>(a.num_cols) * static_cast<std::size_t>(k_count));
  PARMIS_CHECK(y.size() ==
               static_cast<std::size_t>(a.num_rows) * static_cast<std::size_t>(k_count));
}

/// Epilogue of Y = A * X.
constexpr auto assign_epilogue = [](ordinal_t, std::size_t, const scalar_t* acc,
                                    scalar_t* __restrict out, auto kw) {
  for (int k = 0; k < kw; ++k) out[k] = acc[k];
};

/// Epilogue of Y = alpha * A * X + beta * Y.
auto axpby_epilogue(scalar_t alpha, scalar_t beta) {
  return [alpha, beta](ordinal_t, std::size_t, const scalar_t* acc, scalar_t* __restrict out,
                       auto kw) {
    for (int k = 0; k < kw; ++k) out[k] = alpha * acc[k] + beta * out[k];
  };
}

}  // namespace

// The K > 1 clone points of the two products (see the header).
namespace detail {

PARMIS_WIDE_KERNEL
void spmm_assign_rows(const CrsMatrix& a, const scalar_t* x, scalar_t* y, int k_count,
                      ordinal_t lo, ordinal_t hi) {
  spmm_wide_rows(a, x, y, k_count, lo, hi, spmm_same_operand, assign_epilogue);
}

PARMIS_WIDE_KERNEL
void spmm_axpby_rows(scalar_t alpha, const CrsMatrix& a, const scalar_t* x, scalar_t beta,
                     scalar_t* y, int k_count, ordinal_t lo, ordinal_t hi) {
  spmm_wide_rows(a, x, y, k_count, lo, hi, spmm_same_operand, axpby_epilogue(alpha, beta));
}

}  // namespace detail

void spmm(const CrsMatrix& a, std::span<const scalar_t> x, std::span<scalar_t> y, int k_count) {
  check_shapes(a, x, y, k_count);
  spmm_rows(a, x.data(), y.data(), k_count, spmm_same_operand, assign_epilogue,
            [&](ordinal_t lo, ordinal_t hi) {
              detail::spmm_assign_rows(a, x.data(), y.data(), k_count, lo, hi);
            });
}

void spmm(scalar_t alpha, const CrsMatrix& a, std::span<const scalar_t> x, scalar_t beta,
          std::span<scalar_t> y, int k_count) {
  check_shapes(a, x, y, k_count);
  spmm_rows(a, x.data(), y.data(), k_count, spmm_same_operand, axpby_epilogue(alpha, beta),
            [&](ordinal_t lo, ordinal_t hi) {
              detail::spmm_axpby_rows(alpha, a, x.data(), beta, y.data(), k_count, lo, hi);
            });
}

}  // namespace parmis::graph
