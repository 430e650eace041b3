#include "check/validate.hpp"

#include <algorithm>
#include <cmath>
#include <cstddef>

namespace parmis::check {

namespace {

std::string at_row(ordinal_t v) { return "row " + std::to_string(v) + ": "; }

/// Binary search for `c` in the sorted row of `g` at `v` (symmetry check).
bool row_contains(graph::GraphView g, ordinal_t v, ordinal_t c) {
  const std::span<const ordinal_t> row = g.row(v);
  return std::binary_search(row.begin(), row.end(), c);
}

}  // namespace

std::string Result::diagnostic() const {
  if (ok) return "ok";
  return "invariant violated: " + invariant + ": " + message;
}

Result validate(graph::GraphView g, const GraphChecks& opts) {
  if (g.num_rows < 0 || g.num_cols < 0) {
    return Result::failure("crs.shape.nonnegative",
                           "num_rows " + std::to_string(g.num_rows) + ", num_cols " +
                               std::to_string(g.num_cols));
  }
  if (g.num_rows > 0 && g.row_map == nullptr) {
    return Result::failure("crs.row_map.present",
                           "null row_map with num_rows " + std::to_string(g.num_rows));
  }
  if (g.num_rows >= 0 && g.row_map != nullptr && g.row_map[0] != 0) {
    return Result::failure("crs.row_map.front_zero",
                           "row_map[0] = " + std::to_string(g.row_map[0]));
  }
  for (ordinal_t v = 0; v < g.num_rows; ++v) {
    if (g.row_map[v + 1] < g.row_map[v]) {
      return Result::failure("crs.row_map.monotone",
                             at_row(v) + "offset " + std::to_string(g.row_map[v + 1]) +
                                 " < previous " + std::to_string(g.row_map[v]));
    }
  }
  for (ordinal_t v = 0; v < g.num_rows; ++v) {
    ordinal_t prev = invalid_ordinal;
    for (offset_t j = g.row_map[v]; j < g.row_map[v + 1]; ++j) {
      const ordinal_t c = g.entries[j];
      if (c < 0 || c >= g.num_cols) {
        return Result::failure("crs.entries.in_range",
                               at_row(v) + "entry " + std::to_string(c) +
                                   " outside [0, " + std::to_string(g.num_cols) + ")");
      }
      if (opts.require_sorted && prev != invalid_ordinal && c < prev) {
        return Result::failure("crs.entries.sorted",
                               at_row(v) + "entry " + std::to_string(c) + " after " +
                                   std::to_string(prev));
      }
      if (opts.require_unique && prev != invalid_ordinal && c == prev) {
        return Result::failure("crs.entries.unique",
                               at_row(v) + "duplicate entry " + std::to_string(c));
      }
      if (opts.require_loop_free && c == v) {
        return Result::failure("crs.entries.loop_free", at_row(v) + "self loop");
      }
      prev = c;
    }
  }
  if (opts.require_symmetric) {
    if (g.num_rows != g.num_cols) {
      return Result::failure("crs.symmetric",
                             "non-square: " + std::to_string(g.num_rows) + " x " +
                                 std::to_string(g.num_cols));
    }
    for (ordinal_t v = 0; v < g.num_rows; ++v) {
      for (const ordinal_t c : g.row(v)) {
        if (!row_contains(g, c, v)) {
          return Result::failure("crs.symmetric",
                                 at_row(v) + "entry " + std::to_string(c) +
                                     " has no transpose mate");
        }
      }
    }
  }
  return Result::pass();
}

Result validate_edge_weights(graph::GraphView g, std::span<const ordinal_t> edge_weight) {
  if (edge_weight.size() != static_cast<std::size_t>(g.num_entries())) {
    return Result::failure("weights.parallel",
                           std::to_string(edge_weight.size()) + " edge weights for " +
                               std::to_string(g.num_entries()) + " entries");
  }
  for (ordinal_t v = 0; v < g.num_rows; ++v) {
    for (offset_t j = g.row_map[v]; j < g.row_map[v + 1]; ++j) {
      const ordinal_t c = g.entries[j];
      const std::span<const ordinal_t> mate_row = g.row(c);
      const auto mate = std::lower_bound(mate_row.begin(), mate_row.end(), v);
      if (mate == mate_row.end() || *mate != v) {
        return Result::failure("weights.symmetric",
                               at_row(v) + "entry " + std::to_string(c) +
                                   " has no transpose mate");
      }
      const offset_t jt = g.row_map[c] + (mate - mate_row.begin());
      if (edge_weight[static_cast<std::size_t>(j)] != edge_weight[static_cast<std::size_t>(jt)]) {
        return Result::failure("weights.symmetric",
                               at_row(v) + "weight " +
                                   std::to_string(edge_weight[static_cast<std::size_t>(j)]) +
                                   " to " + std::to_string(c) + ", but " +
                                   std::to_string(edge_weight[static_cast<std::size_t>(jt)]) +
                                   " back");
      }
    }
  }
  return Result::pass();
}

Result validate(const graph::CrsMatrix& a, const MatrixChecks& opts) {
  if (a.row_map.size() != static_cast<std::size_t>(a.num_rows) + 1) {
    return Result::failure("crs.row_map.size",
                           "row_map has " + std::to_string(a.row_map.size()) +
                               " entries for " + std::to_string(a.num_rows) + " rows");
  }
  if (a.entries.size() != static_cast<std::size_t>(a.num_entries())) {
    return Result::failure("crs.entries.size",
                           std::to_string(a.entries.size()) + " entries stored, row_map ends at " +
                               std::to_string(a.num_entries()));
  }
  if (a.values.size() != a.entries.size()) {
    return Result::failure("matrix.values.parallel",
                           std::to_string(a.values.size()) + " values for " +
                               std::to_string(a.entries.size()) + " entries");
  }
  if (opts.require_square && a.num_rows != a.num_cols) {
    return Result::failure("matrix.square",
                           std::to_string(a.num_rows) + " x " + std::to_string(a.num_cols));
  }
  if (const Result r = validate(graph::GraphView(a), opts.structure); !r.ok) return r;
  if (opts.require_finite) {
    for (ordinal_t v = 0; v < a.num_rows; ++v) {
      for (offset_t j = a.row_map[v]; j < a.row_map[v + 1]; ++j) {
        if (!std::isfinite(a.values[static_cast<std::size_t>(j)])) {
          return Result::failure("matrix.values.finite",
                                 at_row(v) + "non-finite value at column " +
                                     std::to_string(a.entries[static_cast<std::size_t>(j)]));
        }
      }
    }
  }
  return Result::pass();
}

Result validate(const core::Aggregation& agg, ordinal_t num_fine) {
  if (agg.labels.size() != static_cast<std::size_t>(num_fine)) {
    return Result::failure("aggregation.labels.size",
                           std::to_string(agg.labels.size()) + " labels for " +
                               std::to_string(num_fine) + " vertices");
  }
  if (agg.num_aggregates < 0 || (num_fine > 0 && agg.num_aggregates == 0)) {
    return Result::failure("aggregation.count.positive",
                           "num_aggregates " + std::to_string(agg.num_aggregates));
  }
  std::vector<char> hit(static_cast<std::size_t>(agg.num_aggregates), 0);
  for (ordinal_t v = 0; v < num_fine; ++v) {
    const ordinal_t a = agg.labels[static_cast<std::size_t>(v)];
    if (a < 0 || a >= agg.num_aggregates) {
      return Result::failure("aggregation.labels.in_range",
                             "vertex " + std::to_string(v) + ": label " + std::to_string(a) +
                                 " outside [0, " + std::to_string(agg.num_aggregates) + ")");
    }
    hit[static_cast<std::size_t>(a)] = 1;
  }
  for (ordinal_t a = 0; a < agg.num_aggregates; ++a) {
    if (!hit[static_cast<std::size_t>(a)]) {
      return Result::failure("aggregation.surjective",
                             "aggregate " + std::to_string(a) + " is empty");
    }
  }
  if (!agg.roots.empty()) {
    if (agg.roots.size() != static_cast<std::size_t>(agg.num_aggregates)) {
      return Result::failure("aggregation.roots.size",
                             std::to_string(agg.roots.size()) + " roots for " +
                                 std::to_string(agg.num_aggregates) + " aggregates");
    }
    for (ordinal_t a = 0; a < agg.num_aggregates; ++a) {
      const ordinal_t r = agg.roots[static_cast<std::size_t>(a)];
      if (r < 0 || r >= num_fine) {
        return Result::failure("aggregation.roots.in_range",
                               "aggregate " + std::to_string(a) + ": root " +
                                   std::to_string(r) + " outside [0, " +
                                   std::to_string(num_fine) + ")");
      }
      if (agg.labels[static_cast<std::size_t>(r)] != a) {
        return Result::failure("aggregation.roots.labeled",
                               "aggregate " + std::to_string(a) + ": root " +
                                   std::to_string(r) + " labeled " +
                                   std::to_string(agg.labels[static_cast<std::size_t>(r)]));
      }
    }
  }
  return Result::pass();
}

Result validate_partition(std::span<const ordinal_t> part, ordinal_t k,
                          bool require_nonempty_parts) {
  if (k < 1) {
    return Result::failure("partition.k.positive", "k = " + std::to_string(k));
  }
  std::vector<char> hit(static_cast<std::size_t>(k), 0);
  for (std::size_t v = 0; v < part.size(); ++v) {
    const ordinal_t p = part[v];
    if (p < 0 || p >= k) {
      return Result::failure("partition.labels.in_range",
                             "vertex " + std::to_string(v) + ": part " + std::to_string(p) +
                                 " outside [0, " + std::to_string(k) + ")");
    }
    hit[static_cast<std::size_t>(p)] = 1;
  }
  if (require_nonempty_parts && part.size() >= static_cast<std::size_t>(k)) {
    for (ordinal_t p = 0; p < k; ++p) {
      if (!hit[static_cast<std::size_t>(p)]) {
        return Result::failure("partition.parts.nonempty",
                               "part " + std::to_string(p) + " is empty");
      }
    }
  }
  return Result::pass();
}

Result validate_prolongator(const graph::CrsMatrix& p, ordinal_t fine_rows,
                            ordinal_t coarse_rows, bool require_column_partition) {
  if (p.num_rows != fine_rows || p.num_cols != coarse_rows) {
    return Result::failure("prolongator.shape",
                           std::to_string(p.num_rows) + " x " + std::to_string(p.num_cols) +
                               ", expected " + std::to_string(fine_rows) + " x " +
                               std::to_string(coarse_rows));
  }
  if (const Result r = validate(p); !r.ok) return r;
  std::vector<char> hit(static_cast<std::size_t>(coarse_rows), 0);
  for (ordinal_t v = 0; v < p.num_rows; ++v) {
    const ordinal_t deg = p.degree(v);
    if (deg < 1) {
      return Result::failure("prolongator.rows.nonempty",
                             at_row(v) + "no coarse contribution");
    }
    if (require_column_partition && deg != 1) {
      return Result::failure("prolongator.column_partition",
                             at_row(v) + std::to_string(deg) + " entries; a tentative "
                                 "prolongator maps each fine row to exactly one aggregate");
    }
    for (const ordinal_t c : p.row(v)) hit[static_cast<std::size_t>(c)] = 1;
  }
  for (ordinal_t c = 0; c < coarse_rows; ++c) {
    if (!hit[static_cast<std::size_t>(c)]) {
      return Result::failure("prolongator.columns.covered",
                             "coarse column " + std::to_string(c) + " unreferenced");
    }
  }
  return Result::pass();
}

Result validate_hierarchy(const std::vector<multilevel::OperatorLevel>& ops) {
  if (ops.empty()) {
    return Result::failure("hierarchy.levels.nonempty", "no operator levels");
  }
  for (std::size_t l = 0; l < ops.size(); ++l) {
    const multilevel::OperatorLevel& lvl = ops[l];
    const std::string at = "level " + std::to_string(l) + ": ";
    MatrixChecks mc;
    mc.require_square = true;
    if (const Result r = validate(lvl.a, mc); !r.ok) {
      return Result::failure("hierarchy." + r.invariant, at + r.message);
    }
    if (lvl.inv_diag.size() != static_cast<std::size_t>(lvl.a.num_rows)) {
      return Result::failure("hierarchy.inv_diag.size",
                             at + std::to_string(lvl.inv_diag.size()) + " inverse-diagonal "
                                 "entries for " + std::to_string(lvl.a.num_rows) + " rows");
    }
    const bool coarsest = l + 1 == ops.size();
    if (coarsest) {
      if (lvl.p.num_rows != 0 || lvl.r.num_rows != 0) {
        return Result::failure("hierarchy.coarsest.transfer_free",
                               at + "coarsest level carries transfers");
      }
      continue;
    }
    const ordinal_t coarse = ops[l + 1].a.num_rows;
    if (const Result r = validate_prolongator(lvl.p, lvl.a.num_rows, coarse); !r.ok) {
      return Result::failure("hierarchy." + r.invariant, at + r.message);
    }
    if (lvl.r.num_rows != coarse || lvl.r.num_cols != lvl.a.num_rows ||
        lvl.r.num_entries() != lvl.p.num_entries()) {
      return Result::failure("hierarchy.restriction.transpose_shape",
                             at + "R is " + std::to_string(lvl.r.num_rows) + " x " +
                                 std::to_string(lvl.r.num_cols) + " with " +
                                 std::to_string(lvl.r.num_entries()) + " entries; expected "
                                 "the transpose of P");
    }
  }
  return Result::pass();
}

Result validate_steps(ordinal_t fine_rows, const std::vector<multilevel::Step>& steps) {
  ordinal_t rows = fine_rows;
  for (std::size_t l = 0; l < steps.size(); ++l) {
    const multilevel::Step& s = steps[l];
    const std::string at = "step " + std::to_string(l) + ": ";
    if (const Result r = validate(s.aggregation, rows); !r.ok) {
      return Result::failure("steps." + r.invariant, at + r.message);
    }
    if (s.coarse.graph.num_rows != s.aggregation.num_aggregates) {
      return Result::failure("steps.coarse.rows",
                             at + "coarse graph has " + std::to_string(s.coarse.graph.num_rows) +
                                 " rows for " + std::to_string(s.aggregation.num_aggregates) +
                                 " aggregates");
    }
    GraphChecks gc;
    gc.require_loop_free = true;
    if (const Result r = validate(graph::GraphView(s.coarse.graph), gc); !r.ok) {
      return Result::failure("steps." + r.invariant, at + r.message);
    }
    if (!s.coarse.vertex_weight.empty() &&
        s.coarse.vertex_weight.size() != static_cast<std::size_t>(s.coarse.graph.num_rows)) {
      return Result::failure("steps.vertex_weight.parallel",
                             at + std::to_string(s.coarse.vertex_weight.size()) +
                                 " vertex weights for " +
                                 std::to_string(s.coarse.graph.num_rows) + " rows");
    }
    if (!s.coarse.edge_weight.empty() &&
        s.coarse.edge_weight.size() != static_cast<std::size_t>(s.coarse.graph.num_entries())) {
      return Result::failure("steps.edge_weight.parallel",
                             at + std::to_string(s.coarse.edge_weight.size()) +
                                 " edge weights for " +
                                 std::to_string(s.coarse.graph.num_entries()) + " entries");
    }
    rows = s.coarse.graph.num_rows;
  }
  return Result::pass();
}

bool all_finite(std::span<const scalar_t> v) {
  for (const scalar_t x : v) {
    if (!std::isfinite(x)) return false;
  }
  return true;
}

std::int64_t first_non_finite(std::span<const scalar_t> v, int k_count, int col) {
  const std::size_t k = static_cast<std::size_t>(k_count);
  for (std::size_t i = static_cast<std::size_t>(col); i < v.size(); i += k) {
    if (!std::isfinite(v[i])) return static_cast<std::int64_t>(i / k);
  }
  return -1;
}

}  // namespace parmis::check
