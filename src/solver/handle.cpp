#include "solver/handle.hpp"

#include <cmath>
#include <new>
#include <stdexcept>

#include "check/alloc_guard.hpp"
#include "check/check.hpp"
#include "check/validate.hpp"
#include "obs/timer.hpp"
#include "obs/trace.hpp"
#include "solver/vector_ops.hpp"

namespace parmis::solver {

SolveHandle::SolveHandle(const std::string& solver, const std::string& prec,
                         const Context& ctx)
    : ctx_(ctx) {
  set_solver(solver);
  set_preconditioner(prec);
}

void SolveHandle::set_solver(const std::string& name) {
  solver_ = solvers().find(name).make();  // validates: throws std::out_of_range if unknown
  solver_name_ = name;
}

void SolveHandle::set_preconditioner(const std::string& name) {
  (void)preconditioners().find(name);  // validate before dropping cached state
  prec_name_ = name;
  invalidate();
}

void SolveHandle::set_context(const Context& ctx) {
  ctx_ = ctx;
  invalidate();
}

void SolveHandle::set_fallback(const std::string& spec) {
  set_fallback(resilience::FallbackPolicy::parse(spec));
}

void SolveHandle::set_fallback(resilience::FallbackPolicy policy) {
  // Validate every registry name now, where the registries are visible —
  // a typo should fail at configuration time, not mid-chain.
  for (const resilience::FallbackPolicy::Attempt& entry : policy.chain) {
    (void)solvers().find(entry.solver);
    (void)preconditioners().find(entry.prec);
  }
  fallback_ = std::move(policy);
}

void SolveHandle::invalidate() {
  prec_.reset();
  prec_matrix_ = nullptr;
  prec_rows_ = 0;
  prec_entries_ = 0;
  // The Chebyshev smoother is matrix-dependent setup state too (stale
  // inv-diagonal / λmax if the matrix values changed in place).
  ws_.chebyshev.reset();
  ws_.chebyshev_matrix = nullptr;
  ws_.chebyshev_rows = 0;
  ws_.chebyshev_entries = 0;
}

std::unique_ptr<Preconditioner> SolveHandle::release_preconditioner() {
  std::unique_ptr<Preconditioner> out = std::move(prec_);
  invalidate();
  return out;
}

void SolveHandle::adopt_preconditioner(std::unique_ptr<Preconditioner> p,
                                       const graph::CrsMatrix& a) {
  invalidate();
  if (!p) return;
  prec_ = std::move(p);
  prec_matrix_ = &a;
  prec_rows_ = a.num_rows;
  prec_entries_ = a.num_entries();
}

void SolveHandle::ensure_solver() {
  if (!solver_) solver_ = solvers().find(solver_name_).make();
}

void SolveHandle::ensure_preconditioner(const graph::CrsMatrix& a) {
  if (prec_name_ == "none") {
    // The null-prec fast path inside the solvers is bit-identical to
    // applying the identity; skip the object entirely.
    prec_.reset();
    prec_matrix_ = &a;
    prec_rows_ = a.num_rows;
    prec_entries_ = a.num_entries();
    return;
  }
  const bool warm = prec_ && prec_matrix_ == &a && prec_rows_ == a.num_rows &&
                    prec_entries_ == a.num_entries();
  if (warm) return;
  PARMIS_SPAN("solver.prec_setup");
  prec_ = preconditioners().find(prec_name_).make(a, prec_opts_, ctx_);
  prec_matrix_ = &a;
  prec_rows_ = a.num_rows;
  prec_entries_ = a.num_entries();
  ++stats_.prec_setups;
}

void SolveHandle::setup(const graph::CrsMatrix& a) {
  Context::Scope scope(ctx_);
  ensure_preconditioner(a);
}

resilience::SolveStatus SolveHandle::run_attempt(const graph::CrsMatrix& a,
                                                 std::span<const scalar_t> b,
                                                 std::span<scalar_t> x, const IterOptions& opts,
                                                 const std::string& sname,
                                                 const std::string& pname,
                                                 bool& used_transient) {
  obs::Timer attempt_timer;
  resilience::SolveStatus status = resilience::SolveStatus::MaxIterations;
  resilience::FailureInfo failure;
  bool ran = false;
  try {
    // Resolve the solver: the handle's cached instance when the name
    // matches, a transient otherwise (chain entries diverging from the
    // handle's configuration).
    std::unique_ptr<Solver> transient_solver;
    Solver* solver = nullptr;
    if (sname == solver_name_) {
      ensure_solver();
      solver = solver_.get();
    } else {
      transient_solver = solvers().find(sname).make();
      solver = transient_solver.get();
      used_transient = true;
    }
    // Solvers that ignore preconditioning ("chebyshev") skip the build — an
    // AMG setup nobody applies is the most expensive no-op in the stack.
    std::unique_ptr<Preconditioner> transient_prec;
    const Preconditioner* prec = nullptr;
    if (solver->uses_preconditioner() && pname != "none") {
      if (pname == prec_name_) {
        ensure_preconditioner(a);
        prec = prec_.get();
      } else {
        PARMIS_SPAN("solver.prec_setup.transient");
        transient_prec = preconditioners().find(pname).make(a, prec_opts_, ctx_);
        prec = transient_prec.get();
        used_transient = true;
        ++stats_.prec_setups;
      }
    }
    solver->solve(a, b, x, opts, prec, ws_, result_);
    status = result_.status;
    failure = result_.failure;
    ran = true;
  } catch (const check::CheckError&) {
    throw;  // invariant violations are bugs, not solve outcomes
  } catch (const resilience::SolveError& e) {
    status = e.status();
    failure = e.info();
  } catch (const std::bad_alloc&) {
    status = resilience::SolveStatus::SetupFailed;
    failure = resilience::FailureInfo{"setup", "setup.allocation", -1, -1};
  } catch (const std::exception&) {
    status = resilience::SolveStatus::SetupFailed;
    failure = resilience::FailureInfo{"setup", "setup.exception", -1, -1};
  }
  AttemptInfo& rec = result_.attempts.emplace_back();
  rec.solver = sname;
  rec.prec = pname;
  rec.status = status;
  rec.failure = failure;
  rec.iterations = ran ? result_.iterations : 0;
  rec.relative_residual = ran ? result_.relative_residual : 0.0;
  rec.seconds = attempt_timer.seconds();
  return status;
}

const IterResult& SolveHandle::solve(const graph::CrsMatrix& a, std::span<const scalar_t> b,
                                     std::span<scalar_t> x, const IterOptions& opts) {
  const Context ctx = opts.ctx ? *opts.ctx : ctx_;
  Context::Scope scope(ctx);
  PARMIS_CHECK_OK(check::validate(a, {.structure = {}, .require_finite = true,
                                      .require_square = true}));
  PARMIS_CHECK(b.size() == static_cast<std::size_t>(a.num_rows));
  PARMIS_CHECK(x.size() == static_cast<std::size_t>(a.num_rows));
  result_.attempts.clear();  // keeps capacity: warm solves stay allocation-free

  // Up-front input validation: a NaN/Inf in b or the initial guess would
  // otherwise surface as a confusing mid-iteration Breakdown (or worse,
  // converge the zero-rhs early-out against a poisoned norm).
  std::int64_t bad = check::first_non_finite(b);
  const char* reason = "input.b.nonfinite";
  if (bad < 0) {
    bad = check::first_non_finite(x);
    reason = "input.x0.nonfinite";
  }
  if (bad >= 0) {
    result_.iterations = 0;
    result_.relative_residual = 0.0;
    result_.converged = false;
    result_.history.clear();
    result_.status = resilience::SolveStatus::NonFiniteInput;
    result_.failure = resilience::FailureInfo{"input", reason, -1, bad};
    ++stats_.solves;
    ++stats_.failures;
    return result_;
  }

  const std::size_t bytes_before = scratch_bytes();
  const std::uint64_t grows_before = ws_.grow_events;
  const std::uint64_t setups_before = stats_.prec_setups;
  obs::Span span("solver.solve");
  span.arg("rows", a.num_rows);

  // A configured fallback chain replaces the handle's solver/prec
  // selection; retries restart from the original initial guess so a
  // poisoned iterate never leaks into the next attempt.
  const bool chained = !fallback_.empty();
  const std::size_t budget = chained ? fallback_.budget() : 1;
  if (chained) {
    ws_.ensure_small(x0_, x.size());
    copy(x, std::span<scalar_t>(x0_));
  }

  obs::Timer chain_timer;
  bool used_transient = false;
  std::uint64_t total_iterations = 0;
  check::AllocGuard guard;
  for (std::size_t attempt = 0; attempt < budget; ++attempt) {
    const std::string& sname = chained ? fallback_.chain[attempt].solver : solver_name_;
    const std::string& pname = chained ? fallback_.chain[attempt].prec : prec_name_;
    IterOptions aopts = opts;
    if (opts.timeout_ms > 0) {
      // The wall-clock budget covers the whole chain: each attempt gets
      // what is left, and an exhausted budget synthesizes a Timeout
      // attempt without paying for another setup.
      const double left = opts.timeout_ms - chain_timer.milliseconds();
      if (left <= 0) {
        AttemptInfo& rec = result_.attempts.emplace_back();
        rec.solver = sname;
        rec.prec = pname;
        rec.status = resilience::SolveStatus::Timeout;
        rec.failure = resilience::FailureInfo{"setup", "solve.deadline.chain", -1, -1};
        rec.iterations = 0;
        rec.relative_residual = 0.0;
        rec.seconds = 0.0;
        break;
      }
      aopts.timeout_ms = left;
    }
    if (attempt > 0) {
      copy(std::span<const scalar_t>(x0_), x);
      ++stats_.fallback_attempts;
    }
    const resilience::SolveStatus s = run_attempt(a, b, x, aopts, sname, pname, used_transient);
    total_iterations += static_cast<std::uint64_t>(result_.attempts.back().iterations);
    if (s == resilience::SolveStatus::Converged) break;
    // Status-conditional fallback: the entry's on: clause decides whether
    // this failure class is worth retrying down the chain.
    if (chained && !fallback_.chain[attempt].allows_retry(s)) break;
  }

  const AttemptInfo& last = result_.attempts.back();
  result_.status = last.status;
  result_.failure = last.failure;
  result_.converged = last.status == resilience::SolveStatus::Converged;
  result_.iterations = last.iterations;
  result_.relative_residual = last.relative_residual;

  span.arg("iterations", result_.iterations);
  ++stats_.solves;
  stats_.iterations += total_iterations;
  if (result_.converged) {
    ++stats_.converged;
  } else {
    ++stats_.failures;
  }
  // grow_events additionally catches allocations capacity_bytes() cannot
  // see (the Chebyshev smoother rebuild).
  const bool grew = scratch_bytes() > bytes_before || ws_.grow_events > grows_before;
  if (grew) ++stats_.scratch_grows;
  // Warm-solve zero-allocation contract, enforced at the allocator: once
  // scratch and preconditioner are warm, a repeat solve must not allocate.
  // Exempt: tracing (obs event blocks allocate orthogonally), transient
  // chain solvers/preconditioners, and failing solves (exception machinery
  // and error messages allocate — the contract covers the happy path).
  PARMIS_CHECK_MSG(grew || stats_.prec_setups > setups_before || obs::tracing_enabled() ||
                       used_transient || resilience::is_failure(result_.status) ||
                       guard.allocations() == 0,
                   "warm solve allocated");
  // A non-converged solve may legitimately hold a diverged iterate; only a
  // converged result is contractually finite.
  PARMIS_CHECK_MSG(!result_.converged || check::all_finite(x),
                   "converged solve produced non-finite solution entries");
  return result_;
}

const BatchResult& SolveHandle::solve_batch(const graph::CrsMatrix& a,
                                            std::span<const scalar_t> b, std::span<scalar_t> x,
                                            int k_count, const IterOptions& opts) {
  const Context ctx = opts.ctx ? *opts.ctx : ctx_;
  Context::Scope scope(ctx);
  PARMIS_CHECK_OK(check::validate(a, {.structure = {}, .require_finite = true,
                                      .require_square = true}));
  PARMIS_CHECK(k_count > 0);
  const std::size_t n = static_cast<std::size_t>(a.num_rows);
  const std::size_t uk = static_cast<std::size_t>(k_count);
  PARMIS_CHECK(b.size() == n * uk);
  PARMIS_CHECK(x.size() == n * uk);

  batch_result_.reset(k_count);
  for (int c = 0; c < k_count; ++c) {
    batch_result_.results[static_cast<std::size_t>(c)].attempts.clear();
  }

  // Per-column input validation: a poisoned column is excluded — finalized
  // here with NonFiniteInput, lanes left untouched — while its batchmates
  // solve normally (the per-RHS isolation contract).
  for (int c = 0; c < k_count; ++c) {
    const std::size_t sc = static_cast<std::size_t>(c);
    std::int64_t bad = -1;
    const char* reason = "input.b.nonfinite";
    for (std::size_t i = 0; i < n; ++i) {
      if (!std::isfinite(b[i * uk + sc])) {
        bad = static_cast<std::int64_t>(i);
        break;
      }
    }
    if (bad < 0) {
      reason = "input.x0.nonfinite";
      for (std::size_t i = 0; i < n; ++i) {
        if (!std::isfinite(x[i * uk + sc])) {
          bad = static_cast<std::int64_t>(i);
          break;
        }
      }
    }
    if (bad < 0) continue;
    batch_result_.excluded[sc] = 1;
    IterResult& r = batch_result_.results[sc];
    r.iterations = 0;
    r.relative_residual = 0.0;
    r.converged = false;
    r.history.clear();
    r.status = resilience::SolveStatus::NonFiniteInput;
    r.failure = resilience::FailureInfo{"input", reason, -1, bad};
  }

  const std::size_t bytes_before = scratch_bytes();
  const std::uint64_t grows_before = ws_.grow_events;
  const std::uint64_t setups_before = stats_.prec_setups;
  obs::Span span("solver.solve_batch");
  span.arg("rows", a.num_rows);
  span.arg("batch", k_count);

  obs::Timer timer;
  check::AllocGuard guard;
  ensure_solver();
  bool prec_primed = false;
  if (solver_->uses_preconditioner() && prec_name_ != "none") {
    ensure_preconditioner(a);
    // Pre-size the preconditioner's internal multi-vector scratch for this
    // batch width. A freshly built preconditioner (epoch swap, values
    // refresh) grows it here on its first batch — growth, like the
    // workspace pool's, is exempt from the warm zero-allocation contract.
    if (prec_) prec_primed = prec_->prepare_multi(a.num_rows, k_count);
  }
  try {
    solver_->solve_batch(a, b, x, k_count, opts, prec_.get(), ws_, batch_result_);
  } catch (const check::CheckError&) {
    throw;  // invariant violations are bugs, not solve outcomes
  } catch (const resilience::SolveError& e) {
    // A batch-wide throw (setup/workspace, not per-column iteration) lands
    // on every live column: none of them produced a usable iterate.
    for (int c = 0; c < k_count; ++c) {
      if (batch_result_.excluded[static_cast<std::size_t>(c)]) continue;
      IterResult& r = batch_result_.results[static_cast<std::size_t>(c)];
      r.converged = false;
      r.status = e.status();
      r.failure = e.info();
    }
  } catch (const std::bad_alloc&) {
    for (int c = 0; c < k_count; ++c) {
      if (batch_result_.excluded[static_cast<std::size_t>(c)]) continue;
      IterResult& r = batch_result_.results[static_cast<std::size_t>(c)];
      r.converged = false;
      r.status = resilience::SolveStatus::SetupFailed;
      r.failure = resilience::FailureInfo{"setup", "setup.allocation", -1, -1};
    }
  }
  const double seconds = timer.seconds();

  bool any_failure = false;
  std::uint64_t total_iterations = 0;
  for (int c = 0; c < k_count; ++c) {
    const std::size_t sc = static_cast<std::size_t>(c);
    const IterResult& r = batch_result_.results[sc];
    if (resilience::is_failure(r.status)) any_failure = true;
    if (r.converged) {
      ++stats_.converged;
    } else {
      ++stats_.failures;
    }
    if (batch_result_.excluded[sc]) continue;
    total_iterations += static_cast<std::uint64_t>(r.iterations);
    AttemptInfo& rec = batch_result_.results[sc].attempts.emplace_back();
    rec.solver = solver_name_;
    rec.prec = prec_name_;
    rec.status = r.status;
    rec.failure = r.failure;
    rec.iterations = r.iterations;
    rec.relative_residual = r.relative_residual;
    rec.seconds = seconds;  // whole-batch wall clock: columns solve together
  }
  stats_.solves += static_cast<std::uint64_t>(k_count);
  stats_.iterations += total_iterations;
  span.arg("iterations", static_cast<std::int64_t>(total_iterations));

  const bool grew = scratch_bytes() > bytes_before || ws_.grow_events > grows_before;
  if (grew) ++stats_.scratch_grows;
  // The warm zero-allocation contract of solve(), batched: a repeat batch
  // at a warm width must not allocate. The first batch at a wider K grows
  // the workspace pool (and, for AMG, its multi-vector V-cycle scratch),
  // which `grew` exempts; `prec_primed` exempts the first batch through a
  // freshly built preconditioner, whose internal scratch grows in
  // prepare_multi() above.
  PARMIS_CHECK_MSG(grew || prec_primed || stats_.prec_setups > setups_before ||
                       obs::tracing_enabled() || any_failure || guard.allocations() == 0,
                   "warm batched solve allocated");
  PARMIS_CHECK_MSG(!batch_result_.all_converged() || check::all_finite(x),
                   "converged batched solve produced non-finite solution entries");
  return batch_result_;
}

std::size_t SolveHandle::scratch_bytes() const {
  std::size_t batch_bytes =
      batch_result_.results.capacity() * sizeof(IterResult) + batch_result_.excluded.capacity();
  for (const IterResult& r : batch_result_.results) {
    batch_bytes += r.history.capacity() * sizeof(double) +
                   r.attempts.capacity() * sizeof(AttemptInfo);
  }
  return ws_.capacity_bytes() + result_.history.capacity() * sizeof(double) +
         x0_.capacity() * sizeof(scalar_t) + result_.attempts.capacity() * sizeof(AttemptInfo) +
         batch_bytes;
}

}  // namespace parmis::solver
