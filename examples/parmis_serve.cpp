/// \file parmis_serve.cpp
/// \brief The serving-runtime driver: build snapshots offline, inspect
/// them, and replay request streams against a `serve::Service`.
///
/// Subcommands (osrm-style extract/customize/route split):
///
///   parmis_serve build --graph=SPEC --snapshot=FILE [--scale=F]
///                      [--coarsener=NAME] [--no-hierarchy]
///     Load/generate a graph, form A = Laplacian(G) + I, build the Galerkin
///     hierarchy (unless --no-hierarchy), and save both to a versioned,
///     checksummed snapshot — the expensive setup, paid once, offline.
///
///   parmis_serve inspect --snapshot=FILE
///     Open (mmap + full validation) and print the section table. A
///     corrupted, truncated, or version-mismatched file is rejected here
///     with the located SnapshotError — exit 2.
///
///   parmis_serve replay --snapshot=FILE [--requests=N] [--threads=N]
///                       [--customize-at=K] [--value-scale=F] [--pool=N]
///                       [--solver=S] [--prec=P] [--fallback=CHAIN]
///                       [--tol=T] [--maxit=N] [--seed=N] [--batch=K] [--json]
///                       [--fault=NAME[@N],...]
///     Serve N requests across worker threads from a `HandlePool`.
///     `--batch=K` serves requests in K-wide multi-RHS waves through
///     `Service::solve_batch` (pair with `--solver=block-cg` for the fused
///     cores) and routes the customize swap through the async
///     `CustomizePipeline`; outcomes and the combined digest stay
///     bit-identical to the unbatched replay.
///     `--customize-at=K` publishes refreshed values (scaled by
///     `--value-scale`) once request K-1 is dispatched: requests >= K pin
///     the new epoch, so the replay's combined digest is bit-identical at
///     every thread count *including across the live swap* — run once with
///     --threads=1 and once with --threads=N and diff `combined_digest`.
///     `--json` emits one line per request (status, iterations, latency,
///     solution digest, `bottom_solve`, and the per-attempt `attempts`
///     array when a fallback chain ran) followed by a summary line with
///     p50/p99/mean latency, solves/sec, and pool telemetry.
///
/// Graph SPECs are shared with linear_solve / graph_partition
/// (see graph_inputs.hpp).

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "check/digest.hpp"
#include "graph/generators.hpp"
#include "graph_inputs.hpp"
#include "multilevel/builder.hpp"
#include "obs/report.hpp"
#include "obs/telemetry.hpp"
#include "obs/timer.hpp"
#include "resilience/fault.hpp"
#include "resilience/status.hpp"
#include "serve/replay.hpp"
#include "serve/service.hpp"
#include "serve/snapshot.hpp"
#include "solver/amg.hpp"
#include "solver/handle.hpp"

namespace {

using namespace parmis;

void usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s build   --graph=SPEC --snapshot=FILE [--scale=F] [--coarsener=NAME]\n"
      "                  [--no-hierarchy]\n"
      "       %s inspect --snapshot=FILE\n"
      "       %s replay  --snapshot=FILE [--requests=N] [--threads=N] [--customize-at=K]\n"
      "                  [--value-scale=F] [--pool=N] [--solver=S] [--prec=P]\n"
      "                  [--fallback=CHAIN] [--tol=T] [--maxit=N] [--seed=N] [--batch=K]\n"
      "                  [--json]\n"
      "                  [--fault=NAME[@N],...]\n"
      "  SPEC: file.mtx | gen:laplace2d:NX | gen:laplace3d:NX | gen:elasticity:NX |\n"
      "        gen:rgg:N:DEG | gen:powerlaw:N[:EXP] | reg:NAME\n",
      argv0, argv0, argv0);
}

int cmd_build(const std::string& graph_spec, const std::string& snapshot_path, double scale,
              const std::string& coarsener, bool with_hierarchy) {
  graph::CrsGraph g;
  try {
    g = examples::load_graph(graph_spec, scale);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "cannot load '%s': %s\n", graph_spec.c_str(), e.what());
    return 1;
  }
  const graph::CrsMatrix a = graph::laplacian_matrix(g, 1.0);
  obs::Timer timer;
  multilevel::HierarchyHandle h;
  if (with_hierarchy) {
    // The AMG defaults: a served hierarchy is exactly what `--prec=amg`
    // would have built online.
    multilevel::Options mo = solver::AmgOptions{}.hierarchy;
    if (!coarsener.empty()) mo.coarsener = coarsener;
    (void)multilevel::Builder(std::move(mo)).build_galerkin(a, h);
  }
  const double build_s = timer.seconds();
  timer.reset();
  try {
    serve::save_snapshot(snapshot_path, a, with_hierarchy ? &h : nullptr);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "cannot save snapshot: %s\n", e.what());
    return 1;
  }
  const double save_s = timer.seconds();
  const serve::SnapshotView view = serve::SnapshotView::open(snapshot_path);
  std::printf("snapshot %s: %llu bytes, %zu sections, matrix %d rows / %lld entries\n",
              snapshot_path.c_str(), static_cast<unsigned long long>(view.file_size()),
              view.sections().size(), a.num_rows, static_cast<long long>(a.num_entries()));
  if (with_hierarchy) {
    std::printf("hierarchy: %d levels (workspace %s), built in %.3fs\n",
                view.hierarchy_levels("hierarchy"),
                view.hierarchy_has_workspace("hierarchy") ? "kept" : "absent", build_s);
  }
  std::printf("values digest %s, saved in %.3fs\n",
              check::digest_hex(check::digest(a.values)).c_str(), save_s);
  return 0;
}

int cmd_inspect(const std::string& snapshot_path) {
  serve::SnapshotView view;
  try {
    view = serve::SnapshotView::open(snapshot_path);
  } catch (const serve::SnapshotError& e) {
    // The located rejection is the product here: file, section, and what
    // failed validation — never UB, never a half-mapped solver input.
    std::fprintf(stderr, "rejected: %s\n", e.what());
    return 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "cannot open '%s': %s\n", snapshot_path.c_str(), e.what());
    return 2;
  }
  std::printf("%s: %llu bytes, format v%u, %zu sections\n", snapshot_path.c_str(),
              static_cast<unsigned long long>(view.file_size()), serve::kSnapshotVersion,
              view.sections().size());
  std::printf("  %-28s %-8s %12s %12s  %s\n", "section", "kind", "offset", "bytes", "digest");
  for (const serve::SectionInfo& s : view.sections()) {
    const char* kind = "?";
    switch (static_cast<serve::SectionKind>(s.kind)) {
      case serve::SectionKind::Meta: kind = "meta"; break;
      case serve::SectionKind::OffsetArray: kind = "offset"; break;
      case serve::SectionKind::OrdinalArray: kind = "ordinal"; break;
      case serve::SectionKind::ScalarArray: kind = "scalar"; break;
    }
    std::printf("  %-28s %-8s %12llu %12llu  %s\n", s.name, kind,
                static_cast<unsigned long long>(s.offset),
                static_cast<unsigned long long>(s.size),
                check::digest_hex(s.digest).c_str());
  }
  if (view.contains("hierarchy")) {
    std::printf("hierarchy: %d levels, rebuild workspace %s\n",
                view.hierarchy_levels("hierarchy"),
                view.hierarchy_has_workspace("hierarchy") ? "kept" : "absent");
  }
  return 0;
}

void print_attempts_json(obs::Report& report, const std::vector<solver::AttemptInfo>& attempts) {
  if (attempts.size() <= 1) return;
  std::string out = "[";
  obs::Report row;
  for (std::size_t i = 0; i < attempts.size(); ++i) {
    if (i) out += ", ";
    row = obs::Report();
    row.set("solver", attempts[i].solver);
    row.set("prec", attempts[i].prec);
    row.set("status", std::string(resilience::to_string(attempts[i].status)));
    row.set("iterations", attempts[i].iterations);
    row.set("relative_residual", attempts[i].relative_residual);
    row.set("seconds", attempts[i].seconds);
    out += row.to_json();
  }
  out += ']';
  report.set_raw("attempts", std::move(out));
}

struct ReplayArgs {
  std::string snapshot_path;
  std::size_t requests = 32;
  int threads = 1;
  std::size_t customize_at = 0;
  double value_scale = 1.25;
  std::size_t pool_size = 4;
  std::string solver = "cg";
  std::string prec = "amg";
  std::string fallback;
  double tol = 1e-8;
  int maxit = 1000;
  std::uint64_t seed = 1;
  int batch = 1;
  bool json = false;
};

int cmd_replay(const ReplayArgs& args) {
  serve::Service::Options sopts;
  sopts.pool.solver = args.solver;
  sopts.pool.prec = args.prec;
  sopts.pool.fallback = args.fallback;
  sopts.pool.size = args.pool_size;
  sopts.iter.tolerance = args.tol;
  sopts.iter.max_iterations = args.maxit;

  serve::SnapshotView snap;
  try {
    snap = serve::SnapshotView::open(args.snapshot_path);
  } catch (const serve::SnapshotError& e) {
    std::fprintf(stderr, "rejected: %s\n", e.what());
    return 2;
  }
  serve::Service service = serve::Service::from_snapshot(sopts, snap);

  const std::uint64_t epoch0 = service.epoch();
  const std::vector<serve::ServeRequest> requests =
      serve::make_requests(args.requests, args.seed, epoch0, args.customize_at);
  serve::ReplayOptions ropts;
  ropts.threads = args.threads;
  ropts.customize_at = args.customize_at;
  ropts.value_scale = args.value_scale;
  ropts.batch = args.batch;

  serve::ReplayResult result;
  try {
    result = serve::replay(service, requests, ropts);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "replay failed: %s\n", e.what());
    return 1;
  }
  const serve::ReplayStats& st = result.stats;
  const serve::PoolStats pstats = service.pool().stats();

  if (args.json) {
    for (const serve::RequestOutcome& o : result.outcomes) {
      obs::Report report;
      report.set("id", o.id);
      report.set("epoch", o.epoch);
      report.set("status", std::string(resilience::to_string(o.status)));
      report.set("converged", o.converged);
      report.set("iterations", o.iterations);
      report.set("relative_residual", o.relative_residual);
      report.set("seconds", o.seconds);
      report.set("solution_digest", check::digest_hex(o.solution_digest));
      if (o.bottom_solve[0] != '\0') report.set("bottom_solve", o.bottom_solve);
      print_attempts_json(report, o.attempts);
      std::printf("%s\n", report.to_json().c_str());
    }
    obs::Report summary;
    summary.set("summary", true);
    summary.set("threads", st.threads);
    summary.set("pool", static_cast<std::int64_t>(args.pool_size));
    summary.set("solver", args.solver);
    summary.set("prec", args.prec);
    summary.set("customize_at", static_cast<std::int64_t>(args.customize_at));
    summary.set("batch", args.batch);
    summary.set("final_epoch", st.final_epoch);
    summary.set("converged", st.converged);
    std::vector<double> lat(result.outcomes.size());
    for (std::size_t i = 0; i < result.outcomes.size(); ++i) lat[i] = result.outcomes[i].seconds;
    obs::add_latency_stats(summary, lat, st.wall_seconds);
    summary.set("combined_digest", check::digest_hex(st.combined_digest));
    summary.set("pool_warm_hits", pstats.warm_hits);
    summary.set("pool_cache_hits", pstats.cache_hits);
    summary.set("pool_level_adoptions", pstats.level_adoptions);
    summary.set("pool_prec_builds", pstats.prec_builds);
    summary.set("pool_evictions", pstats.evictions);
    std::printf("%s\n", summary.to_json().c_str());
  } else {
    std::printf("%zu requests, %d threads, pool %zu: %llu converged, final epoch %llu\n",
                st.requests, st.threads, args.pool_size,
                static_cast<unsigned long long>(st.converged),
                static_cast<unsigned long long>(st.final_epoch));
    std::printf("latency p50 %.3f ms, p99 %.3f ms, mean %.3f ms; %.1f solves/sec (%.3fs wall)\n",
                st.p50_ms, st.p99_ms, st.mean_ms, st.solves_per_sec, st.wall_seconds);
    std::printf("pool: %llu warm hits, %llu cache hits, %llu level adoptions, %llu builds\n",
                static_cast<unsigned long long>(pstats.warm_hits),
                static_cast<unsigned long long>(pstats.cache_hits),
                static_cast<unsigned long long>(pstats.level_adoptions),
                static_cast<unsigned long long>(pstats.prec_builds));
    std::printf("combined digest %s\n", check::digest_hex(st.combined_digest).c_str());
  }
  return st.converged == st.requests ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    usage(argv[0]);
    return 1;
  }
  const std::string cmd = argv[1];

  std::string graph_spec;
  std::string snapshot_path;
  double scale = 0.05;
  std::string coarsener;
  bool with_hierarchy = true;
  std::string fault_spec;
  ReplayArgs rargs;

  for (int i = 2; i < argc; ++i) {
    const char* s = argv[i];
    if (!std::strncmp(s, "--graph=", 8)) {
      graph_spec = s + 8;
    } else if (!std::strncmp(s, "--snapshot=", 11)) {
      snapshot_path = s + 11;
      rargs.snapshot_path = snapshot_path;
    } else if (!std::strncmp(s, "--scale=", 8)) {
      scale = std::atof(s + 8);
    } else if (!std::strncmp(s, "--coarsener=", 12)) {
      coarsener = s + 12;
    } else if (!std::strcmp(s, "--no-hierarchy")) {
      with_hierarchy = false;
    } else if (!std::strncmp(s, "--requests=", 11)) {
      rargs.requests = static_cast<std::size_t>(std::atoll(s + 11));
    } else if (!std::strncmp(s, "--threads=", 10)) {
      rargs.threads = std::atoi(s + 10);
    } else if (!std::strncmp(s, "--customize-at=", 15)) {
      rargs.customize_at = static_cast<std::size_t>(std::atoll(s + 15));
    } else if (!std::strncmp(s, "--value-scale=", 14)) {
      rargs.value_scale = std::atof(s + 14);
    } else if (!std::strncmp(s, "--pool=", 7)) {
      rargs.pool_size = static_cast<std::size_t>(std::atoll(s + 7));
    } else if (!std::strncmp(s, "--solver=", 9)) {
      rargs.solver = s + 9;
    } else if (!std::strncmp(s, "--prec=", 7)) {
      rargs.prec = s + 7;
    } else if (!std::strncmp(s, "--fallback=", 11)) {
      rargs.fallback = s + 11;
    } else if (!std::strncmp(s, "--tol=", 6)) {
      rargs.tol = std::atof(s + 6);
    } else if (!std::strncmp(s, "--maxit=", 8)) {
      rargs.maxit = std::atoi(s + 8);
    } else if (!std::strncmp(s, "--seed=", 7)) {
      rargs.seed = static_cast<std::uint64_t>(std::atoll(s + 7));
    } else if (!std::strncmp(s, "--batch=", 8)) {
      rargs.batch = std::atoi(s + 8);
    } else if (!std::strcmp(s, "--json")) {
      rargs.json = true;
    } else if (!std::strncmp(s, "--fault=", 8)) {
      fault_spec = s + 8;
    } else {
      usage(argv[0]);
      return 1;
    }
  }

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
  if (!rargs.fallback.empty()) {
    try {
      solver::SolveHandle probe;
      probe.set_fallback(rargs.fallback);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "bad --fallback chain: %s\n", e.what());
      return 1;
    }
  }
  if (snapshot_path.empty()) {
    std::fprintf(stderr, "--snapshot=FILE is required\n");
    return 1;
  }

  try {
    if (cmd == "build") {
      if (graph_spec.empty()) {
        std::fprintf(stderr, "build needs --graph=SPEC\n");
        return 1;
      }
      return cmd_build(graph_spec, snapshot_path, scale, coarsener, with_hierarchy);
    }
    if (cmd == "inspect") return cmd_inspect(snapshot_path);
    if (cmd == "replay") return cmd_replay(rargs);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s: %s\n", cmd.c_str(), e.what());
    return 1;
  }
  usage(argv[0]);
  return 1;
}
