/// \file linear_solve.cpp
/// \brief Batch linear-solve driver over the solver-stack registries: run
/// any set of registered solvers × preconditioners (× coarseners, for the
/// entries that coarsen) over any set of graphs and print a convergence
/// comparison table — the solver-side mirror of `graph_partition`.
///
/// Each graph spec is turned into an SPD system A = Laplacian(G) + I and
/// solved from x = 0 with b deterministic, so runs are comparable across
/// machines. One `SolveHandle` per (preconditioner, coarsener) row group:
/// the preconditioner is set up once and every solver reuses it, which is
/// exactly the handle workflow a service uses.
///
/// Usage:
///   linear_solve [--solvers=s,...|all] [--precs=p,...|all]
///                [--coarseners=c,...] [--graphs=SPEC,...] [--scale=F]
///                [--tol=T] [--maxit=N] [--rebuilds=N] [--batch=K] [--json]
///                [--fallback=CHAIN] [--timeout-ms=F] [--stagnation-window=N]
///                [--fault=SPEC[@N],...] [--trace=FILE] [--trace-sample=N]
///                [--list]
///
/// `--batch=K` solves K right-hand sides per row in one
/// `SolveHandle::solve_batch` call (rhs seeds 1..K, so column 0 is the
/// unbatched run's system): one table row (or `--json` Report) per RHS
/// carrying that column's taxonomy status and digest, plus an aggregate
/// row with the batch wall clock and converged count. "cg" and "gmres"
/// (and their "block-cg"/"block-gmres" aliases) run one K-wide core for
/// both paths: a batch runs it at K over fused SpMM, an unbatched row at
/// K = 1, so column c of a batch is bit-identical to an unbatched solve of
/// that right-hand side.
///
/// Resilience flags: `--fallback=amg+cg,jacobi+cg,none+gmres` declares a
/// fallback chain on every row's handle (replacing that row's
/// solver/preconditioner selection — narrow --solvers/--precs to one entry
/// when chaining) and skips the up-front setup so the chain owns setup
/// failures too. `--timeout-ms` bounds each solve's wall clock;
/// `--stagnation-window` arms the no-progress guard. `--fault` arms
/// deterministic fault points (check builds only; see
/// resilience/fault.hpp), e.g. `--fault=cg.pap@3` breaks the third CG
/// iteration. Every row reports its taxonomy `status`; `--json` rows add
/// the per-attempt chain record.
///
/// `--json` rows are `obs::Report` objects carrying the multilevel
/// hierarchy telemetry for the "amg" preconditioner (levels,
/// operator/grid complexity — the exact keys bench/hierarchy_ablation
/// emits, one schema everywhere). `--rebuilds=N` additionally exercises N
/// warm value-only rebuilds of the AMG hierarchy (the time-stepping
/// workflow: fixed structure, new values) and reports the mean rebuild
/// time per row. `--trace=FILE` records obs spans for the whole batch and
/// writes a Chrome trace-event JSON (chrome://tracing / Perfetto);
/// per-chunk spans are sampled every N chunked loops (`--trace-sample`,
/// default 1 = every loop).
///
/// Graph SPECs are shared with parmis_tool / graph_partition
/// (see graph_inputs.hpp):
///   file.mtx | gen:laplace2d:NX | gen:laplace3d:NX | gen:elasticity:NX |
///   gen:rgg:N:DEG | gen:powerlaw:N[:EXP] | reg:NAME | reg:table2
///
/// Examples:
///   linear_solve --list
///   linear_solve --solvers=cg,gmres --precs=jacobi,cluster-gs,amg
///   linear_solve --precs=amg --coarseners=mis2,hem --graphs=gen:laplace3d:30 --json

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "check/digest.hpp"
#include "core/coarsener.hpp"
#include "graph/generators.hpp"
#include "graph_inputs.hpp"
#include "obs/report.hpp"
#include "obs/telemetry.hpp"
#include "obs/timer.hpp"
#include "obs/trace.hpp"
#include "resilience/fault.hpp"
#include "resilience/status.hpp"
#include "solver/amg.hpp"
#include "solver/handle.hpp"
#include "solver/multivector.hpp"
#include "solver/vector_ops.hpp"

namespace {

using namespace parmis;
using examples::split_csv;

void usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--solvers=s,...|all] [--precs=p,...|all] [--coarseners=c,...]\n"
               "          [--graphs=SPEC,...] [--scale=F] [--tol=T] [--maxit=N] "
               "[--rebuilds=N] [--batch=K] [--json] [--digest]\n"
               "          [--fallback=PREC+SOLVER,...] [--timeout-ms=F] "
               "[--stagnation-window=N] [--fault=NAME[@N],...]\n"
               "          [--trace=FILE] [--trace-sample=N] [--list]\n"
               "  SPEC: file.mtx | gen:laplace2d:NX | gen:laplace3d:NX | gen:elasticity:NX |\n"
               "        gen:rgg:N:DEG | gen:powerlaw:N[:EXP] | reg:NAME | reg:table2\n",
               argv0);
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> solvers;
  std::vector<std::string> precs;
  std::vector<std::string> coarseners;
  std::vector<std::string> graphs;
  double scale = 0.05;
  double tol = 1e-8;
  int maxit = 1000;
  int rebuilds = 0;
  int batch = 1;
  bool json = false;
  // --digest: print check::digest_hex of each solution vector — one word a
  // user can diff across machines/backends ("same digest = same bits").
  bool digest = false;
  std::string trace_path;
  int trace_sample = 1;
  std::string fallback_spec;
  double timeout_ms = 0;
  int stagnation_window = 0;
  std::string fault_spec;

  for (int i = 1; i < argc; ++i) {
    const char* s = argv[i];
    if (!std::strncmp(s, "--solvers=", 10)) {
      const std::string v = s + 10;
      solvers = v == "all" ? solver::solvers().names() : split_csv(v);
    } else if (!std::strncmp(s, "--precs=", 8)) {
      const std::string v = s + 8;
      precs = v == "all" ? solver::preconditioners().names() : split_csv(v);
    } else if (!std::strncmp(s, "--coarseners=", 13)) {
      const std::string v = s + 13;
      coarseners = v == "all" ? core::coarseners().names() : split_csv(v);
    } else if (!std::strncmp(s, "--graphs=", 9)) {
      graphs = split_csv(s + 9);
    } else if (!std::strncmp(s, "--scale=", 8)) {
      scale = std::atof(s + 8);
    } else if (!std::strncmp(s, "--tol=", 6)) {
      tol = std::atof(s + 6);
    } else if (!std::strncmp(s, "--maxit=", 8)) {
      maxit = std::atoi(s + 8);
    } else if (!std::strncmp(s, "--rebuilds=", 11)) {
      rebuilds = std::atoi(s + 11);
    } else if (!std::strncmp(s, "--batch=", 8)) {
      batch = std::atoi(s + 8);
    } else if (!std::strcmp(s, "--json")) {
      json = true;
    } else if (!std::strcmp(s, "--digest")) {
      digest = true;
    } else if (!std::strncmp(s, "--fallback=", 11)) {
      fallback_spec = s + 11;
    } else if (!std::strncmp(s, "--timeout-ms=", 13)) {
      timeout_ms = std::atof(s + 13);
    } else if (!std::strncmp(s, "--stagnation-window=", 20)) {
      stagnation_window = std::atoi(s + 20);
    } else if (!std::strncmp(s, "--fault=", 8)) {
      fault_spec = s + 8;
    } else if (!std::strncmp(s, "--trace=", 8)) {
      trace_path = s + 8;
    } else if (!std::strncmp(s, "--trace-sample=", 15)) {
      trace_sample = std::atoi(s + 15);
    } else if (!std::strcmp(s, "--list")) {
      std::printf("registered solvers:\n");
      solver::solvers().print(stdout, 12);
      std::printf("registered preconditioners:\n");
      solver::preconditioners().print(stdout, 12);
      std::printf("registered coarseners (for --precs=cluster-gs,amg):\n");
      core::coarseners().print(stdout, 12);
      return 0;
    } else {
      usage(argv[0]);
      return 1;
    }
  }
  if (solvers.empty()) solvers = solver::solvers().names();
  if (precs.empty()) precs = solver::preconditioners().names();
  if (coarseners.empty()) coarseners = {"mis2"};
  if (graphs.empty()) graphs = {"gen:laplace3d:20"};
  if (tol <= 0 || maxit < 1) {
    std::fprintf(stderr, "--tol must be positive and --maxit >= 1\n");
    return 1;
  }
  if (batch < 1) {
    std::fprintf(stderr, "--batch must be >= 1\n");
    return 1;
  }

  // Fail fast on unknown registry names before loading any graph.
  try {
    for (const std::string& name : solvers) (void)solver::solvers().find(name);
    for (const std::string& name : precs) (void)solver::preconditioners().find(name);
    for (const std::string& name : coarseners) (void)core::coarseners().find(name);
  } catch (const std::out_of_range& e) {
    std::fprintf(stderr, "%s (try --list)\n", e.what());
    return 1;
  }

  // Fault points: armed from --fault and/or the PARMIS_FAULTS environment
  // variable. In release builds every PARMIS_FAULT_POINT is compiled out,
  // so arming would silently do nothing — say so instead.
  resilience::arm_faults_from_env();
  if (!fault_spec.empty()) {
    if (!PARMIS_FAULT_ENABLED) {
      std::fprintf(stderr,
                   "--fault ignored: fault points are compiled out in this build "
                   "(configure with -DPARMIS_CHECK_INVARIANTS=ON)\n");
    }
    try {
      resilience::arm_faults_spec(fault_spec);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "bad --fault spec: %s\n", e.what());
      return 1;
    }
  }
  // Validate the fallback chain once up front (it is applied per handle).
  if (!fallback_spec.empty()) {
    try {
      solver::SolveHandle probe;
      probe.set_fallback(fallback_spec);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "bad --fallback chain: %s (try --list)\n", e.what());
      return 1;
    }
  }

  solver::IterOptions opts;
  opts.tolerance = tol;
  opts.max_iterations = maxit;
  opts.timeout_ms = timeout_ms;
  opts.stagnation_window = stagnation_window;

  // Tracing covers the whole batch; per-chunk spans record on the worker
  // threads (so the trace shows every tid), decimated by --trace-sample.
  if (!trace_path.empty()) obs::set_tracing(true, trace_sample);

  bool any_failed = false;
  for (const std::string& spec : graphs) {
    graph::CrsGraph g;
    try {
      g = examples::load_graph(spec, scale);
    } catch (const std::exception& e) {
      // Report and keep going: a typo in one spec must not throw away the
      // rest of a long batch.
      std::fprintf(stderr, "cannot load '%s': %s\n", spec.c_str(), e.what());
      any_failed = true;
      continue;
    }
    // A = Laplacian(G) + I: SPD with unit-bounded smallest eigenvalue, so
    // the same stack configuration behaves comparably across inputs. The
    // driver.singular_matrix fault drops the +I shift, leaving the graph
    // Laplacian's constant null space in place (Krylov stagnates, Jacobi
    // setup sees zero diagonals on isolated vertices, the AMG coarse block
    // is singular — the whole setup-failure surface from one switch).
    const scalar_t diag_shift = PARMIS_FAULT_POINT("driver.singular_matrix") ? 0.0 : 1.0;
    const graph::CrsMatrix a = graph::laplacian_matrix(g, diag_shift);
    std::vector<scalar_t> b = solver::random_vector(a.num_rows, 1);
    // driver.poison_b: the NonFiniteInput path — rejected by SolveHandle
    // before any attempt runs.
    if (PARMIS_FAULT_POINT("driver.poison_b")) {
      b[0] = std::numeric_limits<scalar_t>::quiet_NaN();
    }

    if (!json) {
      std::printf("\n%s: %d unknowns, %lld entries, tol=%.1e\n", spec.c_str(), a.num_rows,
                  static_cast<long long>(a.num_entries()), tol);
      std::printf("  %-10s %-12s %-11s %6s %10s %9s %9s\n", "solver", "prec", "coarsener",
                  "iters", "relres", "setup(s)", "solve(s)");
    }
    for (const std::string& pname : precs) {
      // Only the coarsening preconditioners fan out over --coarseners.
      const std::vector<std::string> row_coarseners =
          solver::preconditioners().find(pname).uses_coarsener ? coarseners
                                                            : std::vector<std::string>{"-"};
      for (const std::string& cname : row_coarseners) {
        // One handle per row group: the preconditioner sets up once and is
        // shared by every solver below.
        solver::SolveHandle handle;
        handle.set_preconditioner(pname);
        if (cname != "-") {
          handle.prec_options().coarsener = cname;
          handle.prec_options().amg.hierarchy.coarsener = cname;
        }
        if (!fallback_spec.empty()) handle.set_fallback(fallback_spec);
        Timer setup_timer;
        if (fallback_spec.empty()) {
          // Eager setup separates setup cost from solve cost in the table.
          // With a fallback chain the chain owns setup (and its failures):
          // a setup throw becomes a classified attempt, not a dropped row.
          try {
            handle.setup(a);
          } catch (const std::exception& e) {
            std::fprintf(stderr, "setup %s/%s on '%s': %s\n", pname.c_str(), cname.c_str(),
                         spec.c_str(), e.what());
            any_failed = true;
            continue;
          }
        }
        const double setup_s = setup_timer.seconds();

        // Warm-rebuild smoke (--rebuilds=N): the time-stepping workflow.
        // A fixed-structure hierarchy is rebuilt with perturbed values N
        // times; the multilevel handle replays the Galerkin products
        // value-only (zero allocations inside the handle).
        double rebuild_s = 0;
        if (rebuilds > 0 && pname == "amg") {
          // prec_options().amg already carries the row's coarsener.
          solver::AmgHierarchy hierarchy =
              solver::AmgHierarchy::build(a, handle.prec_options().amg);
          graph::CrsMatrix a2 = a;
          for (scalar_t& v : a2.values) v *= 1.01;
          Timer rebuild_timer;
          for (int i = 0; i < rebuilds; ++i) hierarchy.rebuild(a2);
          rebuild_s = rebuild_timer.seconds() / rebuilds;
        }

        for (const std::string& sname : solvers) {
          handle.set_solver(sname);
          if (batch > 1) {
            // Batched path: K systems in one solve_batch call. Column c's
            // rhs is random_vector(n, 1 + c), so column 0 is the unbatched
            // run's system and the two paths are digest-comparable.
            const std::size_t un = static_cast<std::size_t>(a.num_rows);
            const std::size_t uk = static_cast<std::size_t>(batch);
            std::vector<scalar_t> bmv(un * uk);
            std::vector<scalar_t> xmv(un * uk, 0);
            std::vector<scalar_t> col(un);
            for (int c = 0; c < batch; ++c) {
              solver::random_fill(col, static_cast<std::uint64_t>(1 + c));
              solver::scatter_column(col, a.num_rows, batch, c, bmv);
            }
            Timer solve_timer;
            const solver::BatchResult& br = handle.solve_batch(a, bmv, xmv, batch, opts);
            const double batch_s = solve_timer.seconds();
            int converged_cols = 0;
            for (int c = 0; c < batch; ++c) {
              const solver::IterResult& r = br.results[static_cast<std::size_t>(c)];
              if (r.converged) {
                ++converged_cols;
              } else {
                any_failed = true;
              }
              std::string xdigest;
              if (digest) {
                solver::gather_column(xmv, a.num_rows, batch, c, col);
                xdigest = check::digest_hex(check::digest(col));
              }
              if (json) {
                obs::Report report;
                obs::add_graph(report, spec, a.num_rows, a.num_entries());
                report.set("solver", sname);
                report.set("prec", pname);
                report.set("coarsener", cname);
                report.set("batch", batch);
                report.set("batch_index", c);
                obs::add_iter_result(report, r);
                report.set("setup_seconds", setup_s);
                report.set("batch_seconds", batch_s);
                if (digest) report.set("solution_digest", xdigest);
                std::printf("%s\n", report.to_json().c_str());
              } else {
                std::string tag;
                if (!r.converged) {
                  tag = std::string("  (") + resilience::to_string(r.status) + ")";
                }
                const std::string label = sname + '[' + std::to_string(c) + ']';
                std::printf("  %-10s %-12s %-11s %6d %10.2e %9.4f %9.4f%s%s%s\n",
                            label.c_str(), pname.c_str(), cname.c_str(), r.iterations,
                            r.relative_residual, setup_s, batch_s, digest ? "  " : "",
                            xdigest.c_str(), tag.c_str());
              }
            }
            // Aggregate row: the batch as one unit of work.
            if (json) {
              obs::Report report;
              obs::add_graph(report, spec, a.num_rows, a.num_entries());
              report.set("solver", sname);
              report.set("prec", pname);
              report.set("coarsener", cname);
              report.set("batch", batch);
              report.set("aggregate", true);
              report.set("converged_columns", converged_cols);
              report.set("setup_seconds", setup_s);
              report.set("batch_seconds", batch_s);
              report.set("solves_per_second",
                         batch_s > 0 ? static_cast<double>(batch) / batch_s : 0.0);
              std::printf("%s\n", report.to_json().c_str());
            } else {
              std::printf("  %-10s %-12s %-11s batch=%d: %d/%d converged, %.4fs"
                          " (%.1f solves/s)\n",
                          sname.c_str(), pname.c_str(), cname.c_str(), batch, converged_cols,
                          batch, batch_s,
                          batch_s > 0 ? static_cast<double>(batch) / batch_s : 0.0);
            }
            continue;
          }
          std::vector<scalar_t> x(static_cast<std::size_t>(a.num_rows), 0);
          Timer solve_timer;
          const solver::IterResult& r = handle.solve(a, b, x, opts);
          const double solve_s = solve_timer.seconds();
          if (!r.converged) any_failed = true;
          const std::string xdigest =
              digest ? check::digest_hex(check::digest(x)) : std::string{};
          if (json) {
            // --json keeps stdout pure JSON-lines so the output pipes
            // straight into jq. Rows are obs::Report objects — the same
            // telemetry adapters (and so the same keys) the benches use.
            obs::Report report;
            obs::add_graph(report, spec, a.num_rows, a.num_entries());
            report.set("solver", sname);
            report.set("prec", pname);
            report.set("coarsener", cname);
            obs::add_iter_result(report, r);
            report.set("setup_seconds", setup_s);
            report.set("solve_seconds", solve_s);
            if (const auto* amg =
                    dynamic_cast<const solver::AmgHierarchy*>(handle.preconditioner())) {
              obs::add_hierarchy(report, amg->hierarchy_stats());
            }
            if (rebuilds > 0 && pname == "amg") {
              report.set("warm_rebuild_seconds", rebuild_s);
            }
            if (digest) report.set("solution_digest", xdigest);
            obs::add_spgemm_counters(report);
            std::printf("%s\n", report.to_json().c_str());
          } else {
            // Failed rows name their taxonomy status; chained rows append
            // the attempt sequence so recovery is visible in the table.
            std::string tag;
            if (!r.converged) {
              tag = std::string("  (") + resilience::to_string(r.status) + ")";
            }
            if (r.attempts.size() > 1) {
              tag += "  [";
              for (std::size_t ai = 0; ai < r.attempts.size(); ++ai) {
                if (ai) tag += " -> ";
                tag += r.attempts[ai].prec + '+' + r.attempts[ai].solver + ':' +
                       resilience::to_string(r.attempts[ai].status);
              }
              tag += ']';
            }
            std::printf("  %-10s %-12s %-11s %6d %10.2e %9.4f %9.4f%s%s%s\n", sname.c_str(),
                        pname.c_str(), cname.c_str(), r.iterations, r.relative_residual,
                        setup_s, solve_s, digest ? "  " : "", xdigest.c_str(), tag.c_str());
          }
        }
      }
    }
  }

  if (!trace_path.empty()) {
    obs::set_tracing(false);
    if (!obs::write_chrome_trace(trace_path)) {
      std::fprintf(stderr, "cannot write trace file '%s'\n", trace_path.c_str());
      any_failed = true;
    } else if (!json) {
      std::printf("\ntrace: %llu events -> %s (load in chrome://tracing or Perfetto)\n",
                  static_cast<unsigned long long>(obs::total_events()), trace_path.c_str());
    }
  }
  return any_failed ? 1 : 0;
}
