#pragma once
/// \file spmv.hpp
/// \brief Sparse matrix-vector product, the solver substrate workhorse.

#include <span>

#include "graph/crs.hpp"

namespace parmis::graph {

/// y = A * x. Parallel over rows; each row accumulates serially in entry
/// order, so the result is deterministic for any thread count.
void spmv(const CrsMatrix& a, std::span<const scalar_t> x, std::span<scalar_t> y);

}  // namespace parmis::graph
