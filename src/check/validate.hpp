#pragma once
/// \file validate.hpp
/// \brief Structural invariant validators for every core data structure:
/// CRS graphs/matrices, aggregations, partitions, prolongators, and whole
/// multilevel hierarchies.
///
/// Each validator walks one structure and returns a `check::Result` that
/// either passes or **names the violated invariant** (a stable dotted
/// identifier like `"crs.entries.sorted"`) plus a located diagnostic
/// (`"row 17: entry 42 out of range [0, 40)"`). Callers decide severity:
///  - hot paths assert them behind `PARMIS_CHECK_OK(...)` (check/check.hpp),
///    active only in `PARMIS_CHECK_INVARIANTS` builds;
///  - the input loaders (Matrix Market, `gen:` specs) call them
///    unconditionally and convert failures into exceptions, so corrupt
///    input is reported at the boundary instead of constructing a graph
///    that misbehaves three subsystems later.
///
/// Validators are deliberately serial and allocation-light: they are
/// debug/boundary tooling, never part of a measured path.

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "common/config.hpp"
#include "core/aggregation.hpp"
#include "graph/crs.hpp"
#include "multilevel/hierarchy.hpp"

namespace parmis::check {

/// Outcome of one validator: pass, or the violated invariant's stable name
/// plus a located human-readable message.
struct Result {
  bool ok = true;
  std::string invariant;  ///< dotted id of the violated invariant ("" when ok)
  std::string message;    ///< what/where, e.g. "row 3: entry 7 >= num_cols 6"

  [[nodiscard]] static Result pass() { return Result{}; }
  [[nodiscard]] static Result failure(std::string inv, std::string msg) {
    return Result{false, std::move(inv), std::move(msg)};
  }

  explicit operator bool() const { return ok; }

  /// One-line "invariant violated: <invariant>: <message>" (pass: "ok").
  [[nodiscard]] std::string diagnostic() const;
};

/// Which optional CRS structure invariants to require on top of the
/// always-checked ones (row_map shape/monotonicity, entry range).
struct GraphChecks {
  bool require_sorted = true;     ///< rows ascending
  bool require_unique = true;     ///< no duplicate column in a row
  bool require_loop_free = false; ///< no diagonal entry (adjacency inputs)
  bool require_symmetric = false; ///< entry (v,c) implies (c,v); O(E log d)
};

/// Structural validation of a CRS graph (or the structure of a matrix via
/// the implicit GraphView conversions). Checks, in order: nonnegative
/// dims, `row_map` size/front/back, monotone offsets, in-range entries,
/// then the requested `GraphChecks`.
[[nodiscard]] Result validate(graph::GraphView g, const GraphChecks& opts = {});

/// Edge weights of a weighted graph: one weight per entry of `g`, and
/// symmetric — the weight of (v, c) equals the weight of (c, v). Needs
/// sorted rows (it finds the transpose mate by binary search); O(E log d).
[[nodiscard]] Result validate_edge_weights(graph::GraphView g,
                                           std::span<const ordinal_t> edge_weight);

/// Additional matrix invariants on top of the structural ones.
struct MatrixChecks {
  GraphChecks structure;
  bool require_finite = true;  ///< no NaN/Inf values
  bool require_square = false; ///< num_rows == num_cols
};

/// Structural + value validation of a CRS matrix (values array parallel to
/// entries, finite values, optionally square).
[[nodiscard]] Result validate(const graph::CrsMatrix& a, const MatrixChecks& opts = {});

/// Aggregation validity over `num_fine` fine vertices: label array sized
/// `num_fine`, every label in [0, num_aggregates), every aggregate
/// non-empty (the map is surjective), and — when roots are present — one
/// root per aggregate, each labeled with its own aggregate.
[[nodiscard]] Result validate(const core::Aggregation& agg, ordinal_t num_fine);

/// Partition validity: every label in [0, k), and (optionally) every part
/// non-empty.
[[nodiscard]] Result validate_partition(std::span<const ordinal_t> part, ordinal_t k,
                                        bool require_nonempty_parts = true);

/// Prolongator validity: shape `fine_rows x coarse_rows`, structurally
/// valid rows, at least one entry per row, finite values, and every coarse
/// column hit by some row (the column-partition property of aggregation-
/// based transfers). `require_column_partition` additionally requires
/// exactly one entry per row (a tentative/unsmoothed prolongator).
[[nodiscard]] Result validate_prolongator(const graph::CrsMatrix& p, ordinal_t fine_rows,
                                          ordinal_t coarse_rows,
                                          bool require_column_partition = false);

/// Whole-hierarchy validation of Galerkin operator levels: every A square
/// and finite, every transfer chain dimension-consistent level to level
/// (P_l: rows(A_l) x rows(A_{l+1}), R_l = P_lᵀ shape, inv_diag sized), and
/// the coarsest level transfer-free.
[[nodiscard]] Result validate_hierarchy(const std::vector<multilevel::OperatorLevel>& ops);

/// Whole-hierarchy validation of coarsening steps (topology/weighted
/// builds): level-to-level label chains sized to the previous level's
/// rows, coarse graphs sized to the aggregate counts, and weight arrays
/// (when present) parallel to their graphs.
[[nodiscard]] Result validate_steps(ordinal_t fine_rows,
                                    const std::vector<multilevel::Step>& steps);

/// True iff every element is finite (no NaN/Inf). Cheap enough for
/// check-build exit assertions on solution vectors.
[[nodiscard]] bool all_finite(std::span<const scalar_t> v);

/// Row of the first NaN/Inf in column `col` of the n x `k_count`
/// row-major multi-vector `v` (the whole vector at `k_count = 1`), or -1
/// when the column is finite (the located variant the resilience layer's
/// NonFiniteInput diagnostics use).
[[nodiscard]] std::int64_t first_non_finite(std::span<const scalar_t> v, int k_count = 1,
                                            int col = 0);

}  // namespace parmis::check
