#include "solver/handle.hpp"

#include <new>
#include <stdexcept>

#include "check/alloc_guard.hpp"
#include "check/check.hpp"
#include "check/validate.hpp"
#include "obs/timer.hpp"
#include "obs/trace.hpp"
#include "solver/multivector.hpp"
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

const IterResult& SolveHandle::solve(const graph::CrsMatrix& a, std::span<const scalar_t> b,
                                     std::span<scalar_t> x, const IterOptions& opts) {
  return run(a, b, x, 1, opts, one_).results.front();
}

const BatchResult& SolveHandle::solve_batch(const graph::CrsMatrix& a,
                                            std::span<const scalar_t> b, std::span<scalar_t> x,
                                            int k_count, const IterOptions& opts) {
  return run(a, b, x, k_count, opts, batch_);
}

const BatchResult& SolveHandle::run(const graph::CrsMatrix& a, std::span<const scalar_t> b,
                                    std::span<scalar_t> x, int k_count, const IterOptions& opts,
                                    BatchResult& out) {
  const Context ctx = opts.ctx ? *opts.ctx : ctx_;
  Context::Scope scope(ctx);
  PARMIS_CHECK_OK(check::validate(a, {.structure = {}, .require_finite = true,
                                      .require_square = true}));
  PARMIS_CHECK(k_count > 0);
  const std::size_t n = static_cast<std::size_t>(a.num_rows);
  const std::size_t uk = static_cast<std::size_t>(k_count);
  PARMIS_CHECK(b.size() == n * uk);
  PARMIS_CHECK(x.size() == n * uk);

  out.reset(k_count);
  // live_[c]: column c still takes attempts (capacity-preserving, like
  // every other per-column array).
  live_.assign(uk, 1);
  int live = k_count;

  // Up-front input validation, per column: a NaN/Inf in b or the initial
  // guess would otherwise surface as a confusing mid-iteration Breakdown
  // (or converge the zero-rhs early-out against a poisoned norm). A
  // poisoned column is final here with NonFiniteInput and its lanes are
  // left untouched, while its batchmates solve normally.
  for (int c = 0; c < k_count; ++c) {
    IterResult& r = out.results[static_cast<std::size_t>(c)];
    r.attempts.clear();  // keeps capacity: warm solves stay allocation-free
    std::int64_t bad = check::first_non_finite(b, k_count, c);
    const char* reason = "input.b.nonfinite";
    if (bad < 0) {
      bad = check::first_non_finite(x, k_count, c);
      reason = "input.x0.nonfinite";
    }
    if (bad < 0) continue;
    live_[static_cast<std::size_t>(c)] = 0;
    --live;
    r.iterations = 0;
    r.relative_residual = 0.0;
    r.converged = false;
    r.history.clear();
    r.status = resilience::SolveStatus::NonFiniteInput;
    r.failure = resilience::FailureInfo{"input", reason, -1, bad};
  }
  if (live == 0) {
    stats_.solves += uk;
    stats_.failures += uk;
    return out;
  }

  const std::size_t bytes_before = scratch_bytes();
  const std::uint64_t grows_before = ws_.grow_events;
  const std::uint64_t setups_before = stats_.prec_setups;
  obs::Span span("solver.solve");
  span.arg("rows", a.num_rows);
  span.arg("batch", k_count);

  // A configured fallback chain replaces the handle's solver/prec
  // selection; retried columns restart from their original initial guess
  // so a poisoned iterate never leaks into the next attempt.
  const bool chained = !fallback_.empty();
  const std::size_t budget = chained ? fallback_.budget() : 1;
  if (chained) {
    ws_.ensure_small(x0_, x.size());
    copy(x, std::span<scalar_t>(x0_));
  }

  obs::Timer chain_timer;
  bool used_transient = false;
  bool prec_primed = false;
  std::uint64_t total_iterations = 0;
  check::AllocGuard guard;
  for (std::size_t attempt = 0; attempt < budget && live > 0; ++attempt) {
    const std::string& sname = chained ? fallback_.chain[attempt].solver : solver_name_;
    const std::string& pname = chained ? fallback_.chain[attempt].prec : prec_name_;
    IterOptions aopts = opts;
    if (opts.timeout_ms > 0) {
      // The wall-clock budget covers the whole chain: each attempt gets
      // what is left, and an exhausted budget synthesizes a Timeout
      // attempt without paying for another setup.
      const double left = opts.timeout_ms - chain_timer.milliseconds();
      if (left <= 0) {
        for (std::size_t c = 0; c < uk; ++c) {
          if (!live_[c]) continue;
          AttemptInfo& rec = out.results[c].attempts.emplace_back();
          rec.solver = sname;
          rec.prec = pname;
          rec.status = resilience::SolveStatus::Timeout;
          rec.failure = resilience::FailureInfo{"setup", "solve.deadline.chain", -1, -1};
          rec.iterations = 0;
          rec.relative_residual = 0.0;
          rec.seconds = 0.0;
        }
        break;
      }
      aopts.timeout_ms = left;
    }
    if (attempt > 0) {
      mv_copy_cols(x0_, x, a.num_rows, k_count, live_);
      stats_.fallback_attempts += static_cast<std::uint64_t>(live);
    }
    // The solvers skip excluded columns: this attempt runs the live ones.
    for (std::size_t c = 0; c < uk; ++c) out.excluded[c] = live_[c] ? 0 : 1;

    obs::Timer attempt_timer;
    bool ran = false;
    resilience::SolveStatus thrown = resilience::SolveStatus::SetupFailed;
    resilience::FailureInfo thrown_failure;
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
      Preconditioner* prec = nullptr;
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
        // Pre-size the preconditioner's multi-vector scratch for this
        // width. A freshly built preconditioner (epoch swap, values
        // refresh) grows it here on its first wide batch — growth, like
        // the workspace pool's, is exempt from the zero-allocation check.
        if (prec) prec_primed = prec->prepare_multi(a.num_rows, k_count) || prec_primed;
      }
      solver->solve_batch(a, b, x, k_count, aopts, prec, ws_, out);
      ran = true;
    } catch (const check::CheckError&) {
      throw;  // invariant violations are bugs, not solve outcomes
    } catch (const resilience::SolveError& e) {
      thrown = e.status();
      thrown_failure = e.info();
    } catch (const std::bad_alloc&) {
      thrown_failure = resilience::FailureInfo{"setup", "setup.allocation", -1, -1};
    } catch (const std::exception&) {
      thrown_failure = resilience::FailureInfo{"setup", "setup.exception", -1, -1};
    }
    // A throw (setup or workspace, not per-column iteration) lands on every
    // live column: none of them produced a usable iterate.
    const double seconds = attempt_timer.seconds();
    for (std::size_t c = 0; c < uk; ++c) {
      if (!live_[c]) continue;
      const IterResult& r = out.results[c];
      AttemptInfo& rec = out.results[c].attempts.emplace_back();
      rec.solver = sname;
      rec.prec = pname;
      rec.status = ran ? r.status : thrown;
      rec.failure = ran ? r.failure : thrown_failure;
      rec.iterations = ran ? r.iterations : 0;
      rec.relative_residual = ran ? r.relative_residual : 0.0;
      rec.seconds = seconds;  // the attempt's wall clock: its columns solve together
      total_iterations += static_cast<std::uint64_t>(rec.iterations);
      // Status-conditional fallback: the entry's on: clause decides whether
      // this failure class is worth retrying down the chain.
      if (rec.status == resilience::SolveStatus::Converged ||
          !(chained && fallback_.chain[attempt].allows_retry(rec.status))) {
        live_[c] = 0;
        --live;
      }
    }
  }

  // A column's final fields come from its last attempt; `excluded`
  // reports the input exclusions (the columns no attempt ran on).
  bool any_failure = false;
  for (std::size_t c = 0; c < uk; ++c) {
    IterResult& r = out.results[c];
    out.excluded[c] = r.attempts.empty() ? 1 : 0;
    if (!r.attempts.empty()) {
      const AttemptInfo& last = r.attempts.back();
      r.status = last.status;
      r.failure = last.failure;
      r.converged = last.status == resilience::SolveStatus::Converged;
      r.iterations = last.iterations;
      r.relative_residual = last.relative_residual;
    }
    if (resilience::is_failure(r.status)) any_failure = true;
    if (r.converged) {
      ++stats_.converged;
    } else {
      ++stats_.failures;
    }
  }
  span.arg("iterations", static_cast<std::int64_t>(total_iterations));
  stats_.solves += uk;
  stats_.iterations += total_iterations;
  // grow_events additionally catches allocations capacity_bytes() cannot
  // see (the Chebyshev smoother rebuild).
  const bool grew = scratch_bytes() > bytes_before || ws_.grow_events > grows_before;
  if (grew) ++stats_.scratch_grows;
  // Warm-solve zero-allocation contract, enforced at the allocator: once
  // scratch and preconditioner are warm, a repeat solve at a warm width
  // must not allocate. Exempt: growth (a wider K grows the workspace pool;
  // `prec_primed`, the preconditioner's multi-vector scratch), setups,
  // tracing (obs event blocks allocate orthogonally), transient chain
  // solvers/preconditioners, and failing solves (exception machinery and
  // error messages allocate — the contract covers the happy path).
  PARMIS_CHECK_MSG(grew || prec_primed || stats_.prec_setups > setups_before ||
                       obs::tracing_enabled() || used_transient || any_failure ||
                       guard.allocations() == 0,
                   "warm solve allocated");
  // A non-converged solve may legitimately hold a diverged iterate; only a
  // converged result is contractually finite.
  PARMIS_CHECK_MSG(!out.all_converged() || check::all_finite(x),
                   "converged solve produced non-finite solution entries");
  return out;
}

std::size_t SolveHandle::scratch_bytes() const {
  std::size_t bytes = ws_.capacity_bytes() + x0_.capacity() * sizeof(scalar_t) + live_.capacity();
  for (const BatchResult* br : {&one_, &batch_}) {
    bytes += br->results.capacity() * sizeof(IterResult) + br->excluded.capacity();
    for (const IterResult& r : br->results) {
      bytes += r.history.capacity() * sizeof(double) +
               r.attempts.capacity() * sizeof(AttemptInfo);
    }
  }
  return bytes;
}

}  // namespace parmis::solver
