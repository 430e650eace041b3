/// \file block_krylov.cpp
/// \brief The CG and GMRES cores behind "cg"/"gmres" (and their
/// "block-cg"/"block-gmres" aliases), for one right-hand side or K.
///
/// Both cores advance K right-hand sides in lockstep over one `spmm` per
/// matrix application, while every column runs its *own* scalar recurrence
/// (alpha/beta, Hessenberg column, Givens rotations) computed from its own
/// column of the fused reductions. Because `mv_dot`/`mv_norms` match the
/// single-vector reductions bit for bit per column and every masked update
/// is an explicit branch (never a zero coefficient), each column's iterate
/// sequence — and therefore its digest, iteration count, history, and
/// taxonomy status — is bit-identical to a K = 1 solve of that column
/// alone. A single-RHS solve *is* the K = 1 instance: there is no separate
/// single-vector core.
///
/// Deflation: a column that converges, breaks down, or trips its guard is
/// *frozen* — dropped from the active mask so no kernel writes its lanes
/// again — and finalized with its own epilogue. The remaining columns keep
/// iterating; this is the per-RHS failure-isolation contract (one poisoned
/// column gets one poisoned status).
///
/// Block GMRES is the interesting one: restarts desynchronize (column c may
/// sit at cycle position j[c] while its neighbor restarts), so the core is
/// a per-column phase machine (NeedStart / InCycle / EndCycle / Done)
/// driven in ticks. Columns share the multi-vector basis slots — column c
/// only ever touches its own lanes of slot j[c] — and orthogonalization
/// runs slot by slot with a fused `mv_dot` masked to the columns deep
/// enough to need it. The w/tmp/op slots are not carried across ticks, so
/// phases may clobber each other's unused lanes freely.

#include <cassert>
#include <cmath>
#include <limits>

#include "graph/spmm.hpp"
#include "obs/trace.hpp"
#include "parallel/parallel_for.hpp"
#include "resilience/fault.hpp"
#include "resilience/guard.hpp"
#include "solver/core_prologue.hpp"
#include "solver/interface.hpp"
#include "solver/multivector.hpp"

namespace parmis::solver {

namespace {

using detail::begin_column;
using detail::refill_guards;
using resilience::SolveStatus;

}  // namespace

// ------------------------------------------------------------- block CG

void block_cg_solve(const graph::CrsMatrix& a, std::span<const scalar_t> b,
                    std::span<scalar_t> x, int k_count, const IterOptions& opts,
                    const Preconditioner* prec, SolveWorkspace& ws,
                    std::span<IterResult> results, std::span<const char> excluded) {
  assert(a.num_rows == a.num_cols);
  assert(k_count >= 1);
  const ordinal_t n = a.num_rows;
  const std::size_t un = static_cast<std::size_t>(n);
  const std::size_t uk = static_cast<std::size_t>(k_count);
  const std::size_t nk = un * uk;
  assert(b.size() == nk && x.size() == nk);
  assert(results.size() >= uk);

  // Per-column small state: [bnorm | rz | rznext | pap | alpha | nalpha |
  // beta | relres], each a K-wide lane.
  ws.ensure_small(ws.batch_scalars, 8 * uk);
  scalar_t* bnorm = ws.batch_scalars.data();
  scalar_t* rz = bnorm + uk;
  scalar_t* rznext = rz + uk;
  scalar_t* pap = rznext + uk;
  scalar_t* alpha = pap + uk;
  scalar_t* nalpha = alpha + uk;
  scalar_t* beta = nalpha + uk;
  scalar_t* relres = beta + uk;
  ws.ensure_small(ws.batch_ints, uk);
  int* stopc = ws.batch_ints.data();
  ws.batch_active.assign(uk, 0);
  std::span<char> active(ws.batch_active.data(), uk);
  refill_guards(ws, opts, k_count);

  mv_norms(b, n, k_count, std::span<scalar_t>(bnorm, uk));
  int num_active = 0;
  for (int c = 0; c < k_count; ++c) {
    if (!begin_column(opts, x, n, k_count, c, bnorm[static_cast<std::size_t>(c)], excluded, ws,
                      results[static_cast<std::size_t>(c)])) {
      continue;
    }
    stopc[static_cast<std::size_t>(c)] = static_cast<int>(SolveStatus::Converged);
    active[static_cast<std::size_t>(c)] = 1;
    ++num_active;
  }
  if (num_active == 0) return;

  std::span<scalar_t> r_mv = ws.vec(0, nk);
  std::span<scalar_t> z_mv = ws.vec(1, nk);
  std::span<scalar_t> p_mv = ws.vec(2, nk);
  std::span<scalar_t> ap_mv = ws.vec(3, nk);

  // R = B - A X
  graph::spmm(a, x, r_mv, k_count);
  mv_axpby(1.0, b, -1.0, r_mv, n, k_count);

  auto precondition = [&](std::span<const scalar_t> in, std::span<scalar_t> out) {
    if (prec) {
      prec->apply_multi(in, out, n, k_count);
    } else {
      mv_copy(in, out);
    }
  };

  precondition(r_mv, z_mv);
  mv_copy(z_mv, p_mv);
  mv_dot(r_mv, z_mv, n, k_count, std::span<scalar_t>(rz, uk));

  // Guard the initial residual too, per column.
  mv_norms(r_mv, n, k_count, std::span<scalar_t>(relres, uk));
  for (int c = 0; c < k_count; ++c) {
    const std::size_t sc = static_cast<std::size_t>(c);
    if (!active[sc]) continue;
    IterResult& r = results[sc];
    relres[sc] /= bnorm[sc];
    if (opts.track_history) r.history.push_back(relres[sc]);
    stopc[sc] = static_cast<int>(ws.batch_guards[sc].check(relres[sc], 0, r.failure));
  }

  // Per-column epilogue; run once per column, at freeze.
  auto finalize = [&](int c) {
    const std::size_t sc = static_cast<std::size_t>(c);
    IterResult& r = results[sc];
    if (static_cast<SolveStatus>(stopc[sc]) != SolveStatus::Converged) {
      r.status = static_cast<SolveStatus>(stopc[sc]);
    }
    r.converged = r.converged || relres[sc] <= opts.tolerance;
    if (r.converged) {
      r.status = SolveStatus::Converged;
      r.failure.clear();
    }
    r.relative_residual = relres[sc];
    active[sc] = 0;
    --num_active;
  };

  // `it` doubles as every active column's own iteration index: lockstep
  // columns all advance from iteration 0 together and frozen columns never
  // come back.
  for (int it = 0; num_active > 0 && it < opts.max_iterations; ++it) {
    for (int c = 0; c < k_count; ++c) {
      const std::size_t sc = static_cast<std::size_t>(c);
      if (!active[sc]) continue;
      if (static_cast<SolveStatus>(stopc[sc]) != SolveStatus::Converged ||
          relres[sc] <= opts.tolerance) {
        finalize(c);
      }
    }
    if (num_active == 0) break;
    obs::Span iter_span("solver.iteration");
    iter_span.arg("iteration", it);
    graph::spmm(a, p_mv, ap_mv, k_count);
    mv_dot(p_mv, ap_mv, n, k_count, std::span<scalar_t>(pap, uk));
    // Injected Krylov breakdown (check builds): poisons column 0 only —
    // the per-RHS isolation contract under test.
    if (PARMIS_FAULT_POINT("cg.pap")) pap[0] = 0;
    for (int c = 0; c < k_count; ++c) {
      const std::size_t sc = static_cast<std::size_t>(c);
      if (!active[sc]) continue;
      if (pap[sc] == 0 || !std::isfinite(pap[sc])) {
        results[sc].failure =
            resilience::FailureInfo{"iterate", "solver.cg.breakdown.pap", it, -1};
        stopc[sc] = static_cast<int>(SolveStatus::Breakdown);
        finalize(c);
        continue;
      }
      alpha[sc] = rz[sc] / pap[sc];
      nalpha[sc] = -alpha[sc];
    }
    if (num_active == 0) break;
    mv_axpy_cols(std::span<const scalar_t>(alpha, uk), p_mv, x, n, k_count, active);
    mv_axpy_cols(std::span<const scalar_t>(nalpha, uk), ap_mv, r_mv, n, k_count, active);
    // Injected residual faults, column 0 only: blow r up past the
    // divergence factor, or poison it with a NaN — the *real* guards below
    // must catch both.
    if (PARMIS_FAULT_POINT("cg.diverge") && active[0]) {
      for (std::size_t i = 0; i < un; ++i) r_mv[i * uk] *= 1e30;
    }
    if (PARMIS_FAULT_POINT("cg.poison") && active[0]) {
      r_mv[0] = std::numeric_limits<scalar_t>::quiet_NaN();
    }
    precondition(r_mv, z_mv);
    mv_dot(r_mv, z_mv, n, k_count, std::span<scalar_t>(rznext, uk));
    for (int c = 0; c < k_count; ++c) {
      const std::size_t sc = static_cast<std::size_t>(c);
      if (!active[sc]) continue;
      beta[sc] = rznext[sc] / rz[sc];
      rz[sc] = rznext[sc];
    }
    // p = z + beta p
    mv_xpay_cols(z_mv, std::span<const scalar_t>(beta, uk), p_mv, n, k_count, active);
    mv_norms(r_mv, n, k_count, std::span<scalar_t>(rznext, uk));
    for (int c = 0; c < k_count; ++c) {
      const std::size_t sc = static_cast<std::size_t>(c);
      if (!active[sc]) continue;
      IterResult& r = results[sc];
      ++r.iterations;
      relres[sc] = rznext[sc] / bnorm[sc];
      if (opts.track_history) r.history.push_back(relres[sc]);
      stopc[sc] =
          static_cast<int>(ws.batch_guards[sc].check(relres[sc], r.iterations, r.failure));
    }
  }
  for (int c = 0; c < k_count; ++c) {
    if (active[static_cast<std::size_t>(c)]) finalize(c);
  }
}

// ---------------------------------------------------------- block GMRES

namespace {

/// Per-column restart phases of the block GMRES driver.
enum BgPhase : int { kNeedStart = 0, kInCycle = 1, kEndCycle = 2, kDone = 3 };

}  // namespace

void block_gmres_solve(const graph::CrsMatrix& a, std::span<const scalar_t> b,
                       std::span<scalar_t> x, int k_count, const IterOptions& opts,
                       const Preconditioner* prec, SolveWorkspace& ws,
                       std::span<IterResult> results, std::span<const char> excluded) {
  assert(a.num_rows == a.num_cols);
  assert(k_count >= 1);
  const ordinal_t n = a.num_rows;
  const std::size_t un = static_cast<std::size_t>(n);
  const std::size_t uk = static_cast<std::size_t>(k_count);
  const std::size_t nk = un * uk;
  assert(b.size() == nk && x.size() == nk);
  const int m = opts.gmres_restart;
  assert(m >= 1);
  assert(results.size() >= uk);

  // Per-column small state: [bnorm | relres | coefa | coefb]; coefa/coefb
  // are reused as whatever per-column coefficient the current kernel needs
  // (orthogonalization h, its negation, 1/beta, y_i, ...).
  ws.ensure_small(ws.batch_scalars, 4 * uk);
  scalar_t* bnorm = ws.batch_scalars.data();
  scalar_t* relres = bnorm + uk;
  scalar_t* coefa = relres + uk;
  scalar_t* coefb = coefa + uk;
  // Per-column integer state: [phase | j (cycle position) | kcol (columns
  // built this cycle) | stop].
  ws.ensure_small(ws.batch_ints, 4 * uk);
  int* phase = ws.batch_ints.data();
  int* jpos = phase + uk;
  int* kcol = jpos + uk;
  int* stopc = kcol + uk;
  ws.batch_active.assign(uk, 0);
  std::span<char> mask(ws.batch_active.data(), uk);
  refill_guards(ws, opts, k_count);

  // K-strided small dense state in the shared GMRES arrays: the Hessenberg
  // entry (i, j) of column c lives at hess[(j*(m+1) + i)*K + c], and
  // likewise cs/sn/g/y — so each column's cycle state is its own lane.
  ws.ensure_small(ws.hess, static_cast<std::size_t>(m + 1) * static_cast<std::size_t>(m) * uk);
  ws.ensure_small(ws.cs, static_cast<std::size_t>(m) * uk);
  ws.ensure_small(ws.sn, static_cast<std::size_t>(m) * uk);
  ws.ensure_small(ws.g, (static_cast<std::size_t>(m) + 1) * uk);
  ws.ensure_small(ws.y, static_cast<std::size_t>(m) * uk);

  auto h = [&](int i, int j, std::size_t sc) -> scalar_t& {
    return ws.hess[(static_cast<std::size_t>(j) * (static_cast<std::size_t>(m) + 1) +
                    static_cast<std::size_t>(i)) *
                       uk +
                   sc];
  };

  // Multi-vector slots: basis 0..m, then w, tmp, op (the Arnoldi gather
  // when restarts desynchronize columns). Touch them all up front so the
  // pool never reallocates mid-solve (and so the workspace.alloc fault
  // fires here).
  for (int i = 0; i <= m + 3; ++i) ws.vec(static_cast<std::size_t>(i), nk);
  auto basis = [&](int i) {
    return std::span<scalar_t>(ws.pool[static_cast<std::size_t>(i)].data(), nk);
  };
  std::span<scalar_t> w = basis(m + 1);
  std::span<scalar_t> tmp = basis(m + 2);
  std::span<scalar_t> op = basis(m + 3);

  auto apply_right_prec = [&](std::span<const scalar_t> in, std::span<scalar_t> out) {
    if (prec) {
      prec->apply_multi(in, out, n, k_count);
    } else {
      mv_copy(in, out);
    }
  };

  mv_norms(b, n, k_count, std::span<scalar_t>(bnorm, uk));
  int num_live = 0;
  for (int c = 0; c < k_count; ++c) {
    const std::size_t sc = static_cast<std::size_t>(c);
    phase[sc] = kDone;
    if (!begin_column(opts, x, n, k_count, c, bnorm[sc], excluded, ws, results[sc])) continue;
    stopc[sc] = static_cast<int>(SolveStatus::Converged);
    phase[sc] = kNeedStart;  // provisional; the initial residual may Done it
    ++num_live;
  }

  // Per-column epilogue; run once per column, at Done.
  auto finalize = [&](int c) {
    const std::size_t sc = static_cast<std::size_t>(c);
    IterResult& r = results[sc];
    if (static_cast<SolveStatus>(stopc[sc]) != SolveStatus::Converged) {
      r.status = static_cast<SolveStatus>(stopc[sc]);
    }
    r.relative_residual = relres[sc];
    r.converged = relres[sc] <= opts.tolerance;
    if (r.converged) {
      r.status = SolveStatus::Converged;
      r.failure.clear();
    }
    phase[sc] = kDone;
  };

  // Routing shared by the initial residual and every end-of-cycle: the
  // column re-enters the outer (restart) loop while
  // `stop == Converged && iterations < max && relres > tol`.
  auto route = [&](int c) {
    const std::size_t sc = static_cast<std::size_t>(c);
    if (static_cast<SolveStatus>(stopc[sc]) != SolveStatus::Converged ||
        relres[sc] <= opts.tolerance ||
        results[sc].iterations >= opts.max_iterations) {
      finalize(c);
    } else {
      phase[sc] = kNeedStart;
    }
  };

  if (num_live > 0) {
    // Initial residual for every live column: w = B - A X, relres,
    // history, guard (a deadline of ~0 or a non-finite r0 must not enter
    // the loop at all).
    graph::spmm(a, x, w, k_count);
    mv_axpby(1.0, b, -1.0, w, n, k_count);
    mv_norms(w, n, k_count, std::span<scalar_t>(coefa, uk));
    for (int c = 0; c < k_count; ++c) {
      const std::size_t sc = static_cast<std::size_t>(c);
      if (phase[sc] == kDone) continue;
      IterResult& r = results[sc];
      relres[sc] = coefa[sc] / bnorm[sc];
      if (opts.track_history) r.history.push_back(relres[sc]);
      stopc[sc] = static_cast<int>(ws.batch_guards[sc].check(relres[sc], 0, r.failure));
      route(c);
    }
  }

  auto any_in_phase = [&](int p) {
    for (int c = 0; c < k_count; ++c) {
      if (phase[static_cast<std::size_t>(c)] == p) return true;
    }
    return false;
  };
  auto set_mask = [&](int p) {
    bool any = false;
    for (int c = 0; c < k_count; ++c) {
      const std::size_t sc = static_cast<std::size_t>(c);
      mask[sc] = phase[sc] == p ? 1 : 0;
      any = any || mask[sc];
    }
    return any;
  };

  int tick = 0;
  while (any_in_phase(kNeedStart) || any_in_phase(kInCycle) || any_in_phase(kEndCycle)) {
    obs::Span iter_span("solver.iteration");
    iter_span.arg("iteration", tick++);

    // --- restart: v0 = (b - A x) / ||b - A x|| for NeedStart columns ----
    if (set_mask(kNeedStart)) {
      // spmm is columnwise, so the unmasked lanes it also computes into w
      // are harmless; only the masked lanes move on into basis(0).
      graph::spmm(a, x, w, k_count);
      mv_copy_cols(w, basis(0), n, k_count, mask);
      mv_axpby_masked(1.0, b, -1.0, basis(0), n, k_count, mask);
      mv_norms(basis(0), n, k_count, std::span<scalar_t>(coefa, uk));
      for (int c = 0; c < k_count; ++c) {
        const std::size_t sc = static_cast<std::size_t>(c);
        if (!mask[sc]) continue;
        const scalar_t beta = coefa[sc];
        if (beta == 0) {
          relres[sc] = 0;
          mask[sc] = 0;
          finalize(c);
          continue;
        }
        coefb[sc] = 1.0 / beta;
        for (int i = 0; i <= m; ++i) ws.g[static_cast<std::size_t>(i) * uk + sc] = 0.0;
        ws.g[sc] = beta;
        for (int j = 0; j < m; ++j) {
          for (int i = 0; i <= m; ++i) h(i, j, sc) = 0.0;
          ws.cs[static_cast<std::size_t>(j) * uk + sc] = 0.0;
          ws.sn[static_cast<std::size_t>(j) * uk + sc] = 0.0;
        }
        jpos[sc] = 0;
        phase[sc] = kInCycle;
      }
      mv_scale_cols(basis(0), std::span<const scalar_t>(coefb, uk), n, k_count, mask);
    }

    // --- one Arnoldi step for every InCycle column ----------------------
    if (set_mask(kInCycle)) {
      // Column c reads lane c of basis(j[c]). When every masked column sits
      // at the same j (always for K = 1, and for any batch in lockstep)
      // that is basis(j) itself; otherwise gather the lanes into op. The
      // unmasked lanes the kernels below also compute are never read.
      int j_shared = -1;
      bool lockstep = true;
      for (int c = 0; c < k_count; ++c) {
        const std::size_t sc = static_cast<std::size_t>(c);
        if (!mask[sc]) continue;
        if (j_shared < 0) j_shared = jpos[sc];
        lockstep = lockstep && jpos[sc] == j_shared;
      }
      std::span<scalar_t> vj = op;
      if (lockstep) {
        vj = basis(j_shared);
      } else {
        par::parallel_for(n, [&](ordinal_t i) {
          const std::size_t base = static_cast<std::size_t>(i) * uk;
          for (std::size_t sc = 0; sc < uk; ++sc) {
            if (mask[sc]) op[base + sc] = ws.pool[static_cast<std::size_t>(jpos[sc])][base + sc];
          }
        });
      }
      apply_right_prec(vj, tmp);
      graph::spmm(a, tmp, w, k_count);
      // Injected NaN (check builds), column 0 only.
      if (PARMIS_FAULT_POINT("gmres.poison") && mask[0]) {
        w[0] = std::numeric_limits<scalar_t>::quiet_NaN();
      }
      int max_j = 0;
      for (int c = 0; c < k_count; ++c) {
        const std::size_t sc = static_cast<std::size_t>(c);
        if (mask[sc] && jpos[sc] > max_j) max_j = jpos[sc];
      }
      // Orthogonalize slot by slot: the fused dot at slot s serves every
      // column whose cycle reaches that deep, then the masked subtract
      // lands before slot s+1's dot — modified Gram-Schmidt order, per
      // column.
      std::span<char> smask = mask;  // reuse: narrow per slot, restore after
      for (int s = 0; s <= max_j; ++s) {
        bool any = false;
        for (int c = 0; c < k_count; ++c) {
          const std::size_t sc = static_cast<std::size_t>(c);
          smask[sc] = (phase[sc] == kInCycle && jpos[sc] >= s) ? 1 : 0;
          any = any || smask[sc];
        }
        if (!any) continue;
        mv_dot(w, basis(s), n, k_count, std::span<scalar_t>(coefa, uk));
        for (int c = 0; c < k_count; ++c) {
          const std::size_t sc = static_cast<std::size_t>(c);
          if (!smask[sc]) continue;
          h(s, jpos[sc], sc) = coefa[sc];
          coefb[sc] = -coefa[sc];
        }
        mv_axpy_cols(std::span<const scalar_t>(coefb, uk), basis(s), w, n, k_count, smask);
      }
      set_mask(kInCycle);  // restore the full InCycle mask
      mv_norms(w, n, k_count, std::span<scalar_t>(coefa, uk));
      // basis(j[c]+1) lane c = w lane c * (1 / h(j+1, j)); a zero norm
      // leaves it alone (the Givens step below classifies the breakdown).
      for (int c = 0; c < k_count; ++c) {
        const std::size_t sc = static_cast<std::size_t>(c);
        if (mask[sc] && coefa[sc] != 0) coefb[sc] = 1.0 / coefa[sc];
      }
      par::parallel_for(n, [&](ordinal_t i) {
        const std::size_t base = static_cast<std::size_t>(i) * uk;
        for (std::size_t sc = 0; sc < uk; ++sc) {
          if (mask[sc] && coefa[sc] != 0) {
            ws.pool[static_cast<std::size_t>(jpos[sc]) + 1][base + sc] = w[base + sc] * coefb[sc];
          }
        }
      });
      for (int c = 0; c < k_count; ++c) {
        const std::size_t sc = static_cast<std::size_t>(c);
        if (!mask[sc]) continue;
        const int j = jpos[sc];
        h(j + 1, j, sc) = coefa[sc];
        IterResult& r = results[sc];
        // Apply stored Givens rotations, then form the new one.
        for (int i = 0; i < j; ++i) {
          const scalar_t ci = ws.cs[static_cast<std::size_t>(i) * uk + sc];
          const scalar_t si = ws.sn[static_cast<std::size_t>(i) * uk + sc];
          const scalar_t t = ci * h(i, j, sc) + si * h(i + 1, j, sc);
          h(i + 1, j, sc) = -si * h(i, j, sc) + ci * h(i + 1, j, sc);
          h(i, j, sc) = t;
        }
        const scalar_t denom = std::hypot(h(j, j, sc), h(j + 1, j, sc));
        if (denom == 0 || !std::isfinite(denom)) {
          r.failure = resilience::FailureInfo{"iterate", "solver.gmres.breakdown.hessenberg",
                                              r.iterations, -1};
          stopc[sc] = static_cast<int>(SolveStatus::Breakdown);
          finalize(c);  // abort_cycle: no x update for this column
          continue;
        }
        const scalar_t cj = h(j, j, sc) / denom;
        const scalar_t sj = h(j + 1, j, sc) / denom;
        ws.cs[static_cast<std::size_t>(j) * uk + sc] = cj;
        ws.sn[static_cast<std::size_t>(j) * uk + sc] = sj;
        h(j, j, sc) = cj * h(j, j, sc) + sj * h(j + 1, j, sc);
        h(j + 1, j, sc) = 0;
        ws.g[static_cast<std::size_t>(j + 1) * uk + sc] =
            -sj * ws.g[static_cast<std::size_t>(j) * uk + sc];
        ws.g[static_cast<std::size_t>(j) * uk + sc] =
            cj * ws.g[static_cast<std::size_t>(j) * uk + sc];

        ++r.iterations;
        relres[sc] = std::abs(ws.g[static_cast<std::size_t>(j + 1) * uk + sc]) / bnorm[sc];
        if (opts.track_history) r.history.push_back(relres[sc]);
        if (relres[sc] <= opts.tolerance) {
          kcol[sc] = j + 1;
          phase[sc] = kEndCycle;
          continue;
        }
        stopc[sc] =
            static_cast<int>(ws.batch_guards[sc].check(relres[sc], r.iterations, r.failure));
        if (static_cast<SolveStatus>(stopc[sc]) != SolveStatus::Converged) {
          finalize(c);  // abort_cycle
          continue;
        }
        jpos[sc] = j + 1;
        if (jpos[sc] == m || r.iterations >= opts.max_iterations) {
          kcol[sc] = jpos[sc];
          phase[sc] = kEndCycle;
        }
      }
    }

    // --- end of cycle: x += M^{-1} (V y), true residual, route ----------
    if (set_mask(kEndCycle)) {
      for (int c = 0; c < k_count; ++c) {
        const std::size_t sc = static_cast<std::size_t>(c);
        if (!mask[sc]) continue;
        const int kc = kcol[sc];
        for (int i = kc - 1; i >= 0; --i) {
          scalar_t acc = ws.g[static_cast<std::size_t>(i) * uk + sc];
          for (int j = i + 1; j < kc; ++j) {
            acc -= h(i, j, sc) * ws.y[static_cast<std::size_t>(j) * uk + sc];
          }
          ws.y[static_cast<std::size_t>(i) * uk + sc] = acc / h(i, i, sc);
        }
      }
      mv_fill_cols(w, 0.0, n, k_count, mask);
      int max_k = 0;
      for (int c = 0; c < k_count; ++c) {
        const std::size_t sc = static_cast<std::size_t>(c);
        if (mask[sc] && kcol[sc] > max_k) max_k = kcol[sc];
      }
      std::span<char> imask = mask;  // reuse: narrow per slot, restore after
      for (int i = 0; i < max_k; ++i) {
        bool any = false;
        for (int c = 0; c < k_count; ++c) {
          const std::size_t sc = static_cast<std::size_t>(c);
          imask[sc] = (phase[sc] == kEndCycle && kcol[sc] > i) ? 1 : 0;
          if (imask[sc]) coefa[sc] = ws.y[static_cast<std::size_t>(i) * uk + sc];
          any = any || imask[sc];
        }
        if (!any) continue;
        mv_axpy_cols(std::span<const scalar_t>(coefa, uk), basis(i), w, n, k_count, imask);
      }
      set_mask(kEndCycle);
      apply_right_prec(w, tmp);
      mv_axpby_masked(1.0, tmp, 1.0, x, n, k_count, mask);
      // True residual after the restart update (reusing w).
      graph::spmm(a, x, w, k_count);
      mv_axpby_masked(1.0, b, -1.0, w, n, k_count, mask);
      mv_norms(w, n, k_count, std::span<scalar_t>(coefa, uk));
      for (int c = 0; c < k_count; ++c) {
        const std::size_t sc = static_cast<std::size_t>(c);
        if (!mask[sc]) continue;
        IterResult& r = results[sc];
        relres[sc] = coefa[sc] / bnorm[sc];
        if (relres[sc] > opts.tolerance) {
          stopc[sc] =
              static_cast<int>(ws.batch_guards[sc].check(relres[sc], r.iterations, r.failure));
        }
        route(c);
      }
    }
  }
}

}  // namespace parmis::solver
