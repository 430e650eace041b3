#include "multilevel/hierarchy.hpp"

#include <stdexcept>

#include "check/validate.hpp"

namespace parmis::multilevel {

namespace {

std::size_t bytes_of(const std::vector<scalar_t>& v) { return v.capacity() * sizeof(scalar_t); }
std::size_t bytes_of(const std::vector<ordinal_t>& v) { return v.capacity() * sizeof(ordinal_t); }
std::size_t bytes_of(const std::vector<offset_t>& v) { return v.capacity() * sizeof(offset_t); }

std::size_t bytes_of(const graph::CrsGraph& g) {
  return bytes_of(g.row_map) + bytes_of(g.entries);
}

std::size_t bytes_of(const graph::CrsMatrix& m) {
  return bytes_of(m.row_map) + bytes_of(m.entries) + bytes_of(m.values);
}

}  // namespace

const char* to_string(StopReason r) {
  switch (r) {
    case StopReason::Empty: return "empty";
    case StopReason::CoarseEnough: return "coarse-enough";
    case StopReason::MaxLevels: return "max-levels";
    case StopReason::Stalled: return "stalled";
    case StopReason::ComplexityCapped: return "complexity-capped";
  }
  return "?";
}

namespace {

std::size_t bytes_of(const Step& s) {
  return bytes_of(s.aggregation.labels) + bytes_of(s.aggregation.roots) +
         bytes_of(s.coarse.graph) + bytes_of(s.coarse.vertex_weight) +
         bytes_of(s.coarse.edge_weight);
}

}  // namespace

std::size_t SetupWorkspace::capacity_bytes() const {
  std::size_t total = coarsen.scratch_bytes() + bytes_of(spare_step);
  for (const GalerkinLevel& l : galerkin) {
    total += bytes_of(l.phat) + bytes_of(l.ap) + bytes_of(l.apc) + bytes_of(l.tperm) +
             l.fused.capacity_bytes();
  }
  return total;
}

std::size_t HierarchyHandle::scratch_bytes() const {
  std::size_t total = ws_.capacity_bytes();
  for (const Step& s : steps_) total += bytes_of(s);
  for (const OperatorLevel& l : ops_) {
    total += bytes_of(l.a) + bytes_of(l.p) + bytes_of(l.r) + bytes_of(l.inv_diag);
  }
  return total;
}

void restore_galerkin(HierarchyHandle& h, std::vector<OperatorLevel> ops,
                      std::vector<SetupWorkspace::GalerkinLevel> workspace,
                      StopReason stop) {
  if (ops.empty()) {
    throw std::invalid_argument("restore_galerkin: empty level stack");
  }
  if (!workspace.empty() && workspace.size() + 1 != ops.size()) {
    throw std::invalid_argument(
        "restore_galerkin: workspace must have one entry per coarsening step (ops - 1)");
  }
  // Unconditional structural validation — restored levels come from
  // outside the Builder (a file, another process), so this is input
  // validation, not an internal invariant, and stays on in release.
  const check::Result r = check::validate_hierarchy(ops);
  if (!r) throw std::invalid_argument("restore_galerkin: " + r.diagnostic());

  for (std::size_t l = 0; l < workspace.size(); ++l) {
    SetupWorkspace::GalerkinLevel& gl = workspace[l];
    if (graph::fused_galerkin_applies(ops[l].a, ops[l].p)) {
      gl.apc = graph::CrsMatrix{};
      gl.fused.size_for(ops[l].a.num_rows, ops[l].p.num_cols);
    }
  }

  h.steps_.clear();
  h.ops_ = std::move(ops);
  h.ws_.galerkin = std::move(workspace);

  // Recompute the per-build summary from the levels: a restored hierarchy
  // reports the same stats a cold build of the same stack would (timings
  // excepted — nothing was built here).
  HierarchyStats& st = h.build_stats_;
  st = HierarchyStats{};
  st.levels = static_cast<int>(h.ops_.size());
  st.stop = stop;
  double rows = 0;
  double nnz = 0;
  for (const OperatorLevel& l : h.ops_) {
    st.level_rows.push_back(l.a.num_rows);
    st.level_entries.push_back(l.a.num_entries());
    rows += static_cast<double>(l.a.num_rows);
    nnz += static_cast<double>(l.a.num_entries());
  }
  const double rows0 = static_cast<double>(st.level_rows.front());
  const double nnz0 = static_cast<double>(st.level_entries.front());
  st.grid_complexity = rows0 > 0 ? rows / rows0 : 1.0;
  st.operator_complexity = nnz0 > 0 ? nnz / nnz0 : 1.0;

  ++h.stats_.runs;
  h.stats_.iterations += static_cast<std::uint64_t>(st.levels);
}

const std::vector<SetupWorkspace::GalerkinLevel>& galerkin_workspace(
    const HierarchyHandle& h) {
  return h.ws_.galerkin;
}

}  // namespace parmis::multilevel
