#include "serve/service.hpp"

#include <stdexcept>
#include <utility>

#include "check/digest.hpp"
#include "graph/spgemm.hpp"
#include "obs/timer.hpp"
#include "obs/trace.hpp"
#include "solver/amg.hpp"
#include "solver/multivector.hpp"
#include "solver/vector_ops.hpp"

namespace parmis::serve {

Service::Service(Options opts, graph::CrsMatrix a,
                 std::vector<multilevel::OperatorLevel> levels,
                 std::vector<multilevel::SetupWorkspace::GalerkinLevel> workspace)
    : opts_(std::move(opts)),
      pool_(opts_.pool),
      builder_(opts_.pool.prec_options.amg.hierarchy) {
  if (opts_.max_history == 0) opts_.max_history = 1;
  // Customize replays run under the pool's context unless the AMG
  // configuration pins its own.
  if (!builder_.options().ctx) builder_.options().ctx = opts_.pool.ctx;
  auto state = std::make_shared<ServingState>();
  state->epoch = 0;
  state->values_digest = check::digest(a.values);
  if (!levels.empty()) {
    if (levels[0].a.num_rows != a.num_rows || levels[0].a.num_entries() != a.num_entries()) {
      throw std::invalid_argument(
          "serve::Service: hierarchy finest level does not match the serving matrix");
    }
    multilevel::restore_galerkin(master_, std::move(levels), std::move(workspace),
                                 multilevel::StopReason::CoarseEnough);
    has_hierarchy_ = true;
    state->levels =
        std::make_shared<const std::vector<multilevel::OperatorLevel>>(master_.ops());
  }
  state->a = std::make_shared<const graph::CrsMatrix>(std::move(a));
  states_.push_back(std::move(state));
}

Service Service::from_snapshot(Options opts, const SnapshotView& snap,
                               const std::string& matrix_name,
                               const std::string& hierarchy_name) {
  graph::CrsMatrix a = snap.materialize_matrix(matrix_name);
  std::vector<multilevel::OperatorLevel> levels;
  std::vector<multilevel::SetupWorkspace::GalerkinLevel> workspace;
  if (!hierarchy_name.empty() && snap.contains(hierarchy_name)) {
    multilevel::HierarchyHandle h;
    snap.load_hierarchy(hierarchy_name, h);
    levels = h.ops();
    workspace = multilevel::galerkin_workspace(h);
  }
  return Service(std::move(opts), std::move(a), std::move(levels), std::move(workspace));
}

std::shared_ptr<const ServingState> Service::current() const {
  std::lock_guard<std::mutex> lock(state_mu_);
  return states_.back();
}

std::shared_ptr<const ServingState> Service::state(std::uint64_t epoch) const {
  std::unique_lock<std::mutex> lock(state_mu_);
  state_cv_.wait(lock, [&] { return states_.back()->epoch >= epoch; });
  for (const std::shared_ptr<const ServingState>& s : states_) {
    if (s->epoch == epoch) return s;
  }
  throw std::out_of_range("serve: epoch " + std::to_string(epoch) +
                          " expired from the published-state history");
}

bool Service::can_rebuild() const {
  if (!has_hierarchy_) return false;
  const std::size_t nlevels = master_.ops().size();
  return nlevels <= 1 || multilevel::galerkin_workspace(master_).size() + 1 == nlevels;
}

std::uint64_t Service::customize(std::span<const scalar_t> values) {
  std::lock_guard<std::mutex> lock(customize_mu_);
  PARMIS_SPAN("serve.customize");
  std::shared_ptr<const ServingState> base = current();
  const graph::CrsMatrix& old_a = *base->a;
  if (values.size() != old_a.values.size()) {
    throw std::invalid_argument("serve::customize: got " + std::to_string(values.size()) +
                                " values for a matrix with " +
                                std::to_string(old_a.values.size()) + " entries");
  }
  // Structure copy with the refreshed values. The copy is what lets
  // in-flight solves keep reading the old state's arrays untouched.
  graph::CrsMatrix a2;
  a2.num_rows = old_a.num_rows;
  a2.num_cols = old_a.num_cols;
  a2.row_map = old_a.row_map;
  a2.entries = old_a.entries;
  a2.values.assign(values.begin(), values.end());

  auto state = std::make_shared<ServingState>();
  state->epoch = base->epoch + 1;  // customizes serialize on customize_mu_
  state->values_digest = check::digest(a2.values);
  if (has_hierarchy_) {
    // The warm path this subsystem exists for: value-only Galerkin replay,
    // zero heap allocations inside the multilevel handle. Throws
    // logic_error when the hierarchy was restored solve-only. The replay's
    // per-thread SpGEMM scratch must be sized up front: customize is
    // typically called from a thread that never ran a cold build.
    graph::spgemm_warm_thread(a2.num_cols);
    (void)builder_.rebuild_galerkin(a2, master_);
    state->levels =
        std::make_shared<const std::vector<multilevel::OperatorLevel>>(master_.ops());
  }
  state->a = std::make_shared<const graph::CrsMatrix>(std::move(a2));
  const std::uint64_t epoch = state->epoch;
  publish(std::move(state));
  return epoch;
}

std::uint64_t Service::republish() {
  std::lock_guard<std::mutex> lock(customize_mu_);
  std::shared_ptr<const ServingState> base = current();
  auto state = std::make_shared<ServingState>(*base);
  ++state->epoch;
  const std::uint64_t epoch = state->epoch;
  publish(std::move(state));
  return epoch;
}

void Service::publish(std::shared_ptr<const ServingState> state) {
  {
    std::lock_guard<std::mutex> lock(state_mu_);
    states_.push_back(std::move(state));
    while (states_.size() > opts_.max_history) {
      states_.erase(states_.begin());
    }
  }
  state_cv_.notify_all();
}

RequestOutcome Service::solve(const ServeRequest& req, std::span<scalar_t> x_out) {
  std::vector<RequestOutcome> out;
  solve_wave(std::span<const ServeRequest>(&req, 1), out, x_out);
  return std::move(out.front());
}

std::vector<RequestOutcome> Service::solve_batch(std::span<const ServeRequest> reqs,
                                                int max_k) {
  if (max_k < 1) {
    throw std::invalid_argument("serve::solve_batch: max_k must be >= 1");
  }
  std::vector<RequestOutcome> out;
  out.reserve(reqs.size());
  std::size_t i = 0;
  while (i < reqs.size()) {
    // Maximal same-epoch run, capped at the batch width: a wave never
    // mixes operators, so batching is transparent to epoch pinning.
    std::size_t j = i + 1;
    while (j < reqs.size() && j - i < static_cast<std::size_t>(max_k) &&
           reqs[j].epoch == reqs[i].epoch) {
      ++j;
    }
    solve_wave(reqs.subspan(i, j - i), out);
    i = j;
  }
  return out;
}

void Service::solve_wave(std::span<const ServeRequest> reqs, std::vector<RequestOutcome>& out,
                         std::span<scalar_t> x_out) {
  obs::Timer timer;
  PARMIS_SPAN("serve.batch_wave");
  const int wk = static_cast<int>(reqs.size());
  std::shared_ptr<const ServingState> st = state(reqs[0].epoch);
  HandlePool::Lease lease = pool_.acquire();
  HandlePool::Entry& e = lease.entry();
  pool_.ensure(e, PrecKey{st->epoch, std::string()}, *st->a,
               st->levels ? st->levels.get() : nullptr);

  const ordinal_t n = st->a->num_rows;
  const std::size_t un = static_cast<std::size_t>(n);
  const std::size_t nk = un * static_cast<std::size_t>(wk);
  if (e.b.size() != un) {
    e.b.resize(un);
    e.x.resize(un);
  }
  if (e.bm.size() < nk) {
    e.bm.resize(nk);
    e.xm.resize(nk);
  }
  if (!x_out.empty() && x_out.size() != nk) {
    throw std::invalid_argument("serve::solve: x_out size does not match the matrix");
  }
  std::span<scalar_t> bm(e.bm.data(), nk);
  std::span<scalar_t> xm(e.xm.data(), nk);
  for (int c = 0; c < wk; ++c) {
    // Generate column c's rhs exactly as the single path would (same seed,
    // same generator) and lay it into its lane — the digest-equality
    // contract starts with bit-identical inputs.
    solver::random_fill(e.b, reqs[static_cast<std::size_t>(c)].rhs_seed);
    solver::scatter_column(e.b, n, wk, c, bm);
  }
  solver::fill(xm, 0.0);
  const solver::BatchResult& br = e.handle.solve_batch(*st->a, bm, xm, wk, opts_.iter);
  const double seconds = timer.seconds();

  const char* bottom = "";
  if (const auto* amg = dynamic_cast<const solver::AmgHierarchy*>(e.handle.preconditioner())) {
    bottom = amg->bottom_solve();
  }
  for (int c = 0; c < wk; ++c) {
    const solver::IterResult& r = br.results[static_cast<std::size_t>(c)];
    RequestOutcome& o = out.emplace_back();
    o.id = reqs[static_cast<std::size_t>(c)].id;
    o.epoch = st->epoch;
    o.status = r.status;
    o.converged = r.converged;
    o.iterations = r.iterations;
    o.relative_residual = r.relative_residual;
    solver::gather_column(std::span<const scalar_t>(xm), n, wk, c, e.x);
    o.solution_digest = check::digest(e.x);
    o.bottom_solve = bottom;
    if (opts_.record_attempts) o.attempts = r.attempts;
    o.seconds = seconds / wk;
  }
  if (!x_out.empty()) solver::copy(xm, x_out);
}

}  // namespace parmis::serve
