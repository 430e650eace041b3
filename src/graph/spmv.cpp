#include "graph/spmv.hpp"

#include <cassert>

#include "check/check.hpp"
#include "parallel/balanced_for.hpp"

namespace parmis::graph {

void spmv(const CrsMatrix& a, std::span<const scalar_t> x, std::span<scalar_t> y) {
  assert(x.size() == static_cast<std::size_t>(a.num_cols));
  assert(y.size() == static_cast<std::size_t>(a.num_rows));
  PARMIS_CHECK(x.size() == static_cast<std::size_t>(a.num_cols));
  PARMIS_CHECK(y.size() == static_cast<std::size_t>(a.num_rows));
  par::balanced_for(a.num_rows, a.row_map.data(), [&](ordinal_t i) {
    scalar_t acc = 0;
    for (offset_t j = a.row_map[i]; j < a.row_map[i + 1]; ++j) {
      acc += a.values[static_cast<std::size_t>(j)] *
             x[static_cast<std::size_t>(a.entries[static_cast<std::size_t>(j)])];
    }
    y[static_cast<std::size_t>(i)] = acc;
  });
}

}  // namespace parmis::graph
