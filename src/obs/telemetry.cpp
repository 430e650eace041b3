#include "obs/telemetry.hpp"

#include <algorithm>
#include <cmath>

#include "graph/spgemm.hpp"
#include "multilevel/hierarchy.hpp"
#include "solver/options.hpp"

namespace parmis::obs {

void add_graph(Report& r, const std::string& name, std::int64_t num_rows,
               std::int64_t num_entries) {
  r.set("graph", name);
  r.set("num_rows", num_rows);
  r.set("num_entries", num_entries);
}

void add_iter_result(Report& r, const solver::IterResult& res) {
  r.set("iterations", res.iterations);
  r.set("converged", res.converged);
  r.set("relative_residual", res.relative_residual);
  r.set("status", std::string(resilience::to_string(res.status)));
  if (resilience::is_failure(res.status) && res.failure.reason[0] != '\0') {
    r.set("failure_reason", std::string(res.failure.reason));
    r.set("failure_stage", std::string(res.failure.stage));
    r.set("failure_iteration", res.failure.iteration);
    r.set("failure_index", res.failure.index);
  }
  // The fallback-chain attempt records, same nested-array shape as
  // add_span_summary: one row per attempt, oldest first.
  if (!res.attempts.empty()) {
    std::string out = "[";
    Report row;
    for (std::size_t i = 0; i < res.attempts.size(); ++i) {
      const solver::AttemptInfo& at = res.attempts[i];
      if (i) out += ", ";
      row = Report();
      row.set("solver", at.solver);
      row.set("prec", at.prec);
      row.set("status", std::string(resilience::to_string(at.status)));
      row.set("iterations", at.iterations);
      row.set("relative_residual", at.relative_residual);
      row.set("seconds", at.seconds);
      if (resilience::is_failure(at.status) && at.failure.reason[0] != '\0') {
        row.set("failure_reason", std::string(at.failure.reason));
      }
      out += row.to_json();
    }
    out += ']';
    r.set_raw("attempts", std::move(out));
  }
}

void add_hierarchy(Report& r, const multilevel::HierarchyStats& s) {
  r.set("levels", s.levels);
  std::vector<std::int64_t> rows(s.level_rows.begin(), s.level_rows.end());
  std::vector<std::int64_t> entries(s.level_entries.begin(), s.level_entries.end());
  r.set("level_rows", rows);
  r.set("level_entries", entries);
  r.set("operator_complexity", s.operator_complexity);
  r.set("grid_complexity", s.grid_complexity);
  r.set("stop", std::string(multilevel::to_string(s.stop)));
  r.set("aggregation_seconds", s.aggregation_seconds);
  r.set("cold_build_seconds", s.build_seconds);
  r.set("warm_rebuild_seconds", s.rebuild_seconds);
}

void add_spgemm_counters(Report& r) {
  r.set("spgemm_rows_traversed", graph::spgemm_rows_traversed());
}

void add_span_summary(Report& r) {
  const std::vector<SpanSummary> spans = summarize_spans();
  if (spans.empty()) return;
  std::string out = "[";
  Report row;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (i) out += ", ";
    row = Report();
    row.set("name", spans[i].name);
    row.set("count", spans[i].count);
    row.set("total_seconds", spans[i].total_seconds);
    row.set("min_seconds", spans[i].min_seconds);
    row.set("max_seconds", spans[i].max_seconds);
    out += row.to_json();
  }
  out += ']';
  r.set_raw("spans", std::move(out));
}

double percentile(std::span<const double> sorted, double q) {
  if (sorted.empty()) return 0.0;
  if (q <= 0.0) return sorted.front();
  if (q >= 1.0) return sorted.back();
  // Nearest-rank: the ⌈q·n⌉-th smallest observation (1-based).
  const std::size_t rank =
      static_cast<std::size_t>(std::ceil(q * static_cast<double>(sorted.size())));
  return sorted[rank == 0 ? 0 : rank - 1];
}

void add_latency_stats(Report& r, std::span<const double> seconds, double wall_seconds) {
  std::vector<double> sorted(seconds.begin(), seconds.end());
  std::sort(sorted.begin(), sorted.end());
  double sum = 0.0;
  for (double s : sorted) sum += s;
  const double n = static_cast<double>(sorted.size());
  r.set("requests", static_cast<std::int64_t>(sorted.size()));
  r.set("p50_ms", percentile(sorted, 0.5) * 1e3);
  r.set("p99_ms", percentile(sorted, 0.99) * 1e3);
  r.set("mean_ms", (sorted.empty() ? 0.0 : sum / n) * 1e3);
  r.set("max_ms", (sorted.empty() ? 0.0 : sorted.back()) * 1e3);
  r.set("wall_seconds", wall_seconds);
  r.set("solves_per_sec", wall_seconds > 0.0 ? n / wall_seconds : 0.0);
}

}  // namespace parmis::obs
