#pragma once
/// \file telemetry.hpp
/// \brief Adapters from the stack's stats structs into `obs::Report`.
///
/// One function per telemetry source, each owning the canonical key names
/// for its quantities. Drivers and benches compose these instead of
/// spelling keys by hand, which is what keeps `linear_solve --json`,
/// `graph_partition --json`, and every `BENCH_*.json` on a single schema:
///
///   graph, num_rows, num_entries                       add_graph
///   iterations, converged, relative_residual,
///   status, failure_* (when failed),
///   attempts (nested array, when chained)              add_iter_result
///   levels, level_rows, level_entries,
///   operator_complexity, grid_complexity, stop,
///   aggregation_seconds, cold_build_seconds,
///   warm_rebuild_seconds                               add_hierarchy
///   spgemm_rows_traversed                              add_spgemm_counters
///   spans (nested array of per-name aggregates)        add_span_summary

#include <span>
#include <string>

#include "obs/report.hpp"
#include "obs/trace.hpp"

namespace parmis::solver {
struct IterResult;
}
namespace parmis::multilevel {
struct HierarchyStats;
}

namespace parmis::obs {

/// Identify the input graph/matrix: `graph` (label), `num_rows`,
/// `num_entries`.
void add_graph(Report& r, const std::string& name, std::int64_t num_rows,
               std::int64_t num_entries);

/// One solve's outcome: `iterations`, `converged`, `relative_residual`,
/// the taxonomy `status`, `failure_reason`/`failure_stage`/
/// `failure_iteration`/`failure_index` when the solve failed, and the
/// nested `attempts` array when a fallback chain ran
/// (`[{"solver":..,"prec":..,"status":..,"iterations":..,
/// "relative_residual":..,"seconds":..}, ...]`).
void add_iter_result(Report& r, const solver::IterResult& res);

/// Hierarchy telemetry under the unified names: `levels`, `level_rows`,
/// `level_entries`, `operator_complexity`, `grid_complexity`, `stop`,
/// `aggregation_seconds`, `cold_build_seconds`, `warm_rebuild_seconds`.
/// (Previously linear_solve said `setup_seconds`/`rebuild_seconds` while
/// hierarchy_ablation said `cold_build_seconds`/`warm_rebuild_seconds` for
/// the same quantities — the drift this adapter removes.)
void add_hierarchy(Report& r, const multilevel::HierarchyStats& s);

/// Process-wide SpGEMM traversal counter: `spgemm_rows_traversed`.
void add_spgemm_counters(Report& r);

/// Buffered span aggregates as a nested `spans` array
/// (`[{"name":..,"count":..,"total_seconds":..,"min_seconds":..,
/// "max_seconds":..}, ...]`). No-op when nothing is buffered.
void add_span_summary(Report& r);

/// The `q`-th percentile (0 ≤ q ≤ 1) of an **ascending-sorted** sample by
/// the nearest-rank method (q = 0.5 → median position ⌈0.5·n⌉). Returns 0
/// for an empty sample. Nearest-rank keeps the result an actual observed
/// latency, which is what a serving SLO quotes.
[[nodiscard]] double percentile(std::span<const double> sorted, double q);

/// Latency aggregates of a replayed request stream: `requests`, `p50_ms`,
/// `p99_ms`, `mean_ms`, `max_ms`, `wall_seconds`, `solves_per_sec`.
/// `seconds` is the per-request latency sample (any order; sorted
/// internally), `wall_seconds` the end-to-end wall time the throughput is
/// computed against.
void add_latency_stats(Report& r, std::span<const double> seconds, double wall_seconds);

}  // namespace parmis::obs
