/// \file test_serve.cpp
/// \brief Tests for the `parmis::serve` subsystem: snapshot save / mmap
/// round trips and integrity rejection (truncation, bit flips, version
/// and magic mismatches), the warm-`rebuild_galerkin` contract across a
/// serialization boundary, `HandlePool` warm/cache/adopt/build paths and
/// LRU eviction, and the `Service` atomic-swap runtime — concurrent
/// replays must be bit-identical to serial ones, including across a live
/// customize swap (epoch pinning).
///
/// Every suite name starts with `Serve` so the TSan CI job can pick the
/// whole subsystem up with `--gtest_filter='Serve*'`.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "check/digest.hpp"
#include "graph/generators.hpp"
#include "graph/spgemm.hpp"
#include "multilevel/builder.hpp"
#include "resilience/fault.hpp"
#include "serve/pool.hpp"
#include "serve/replay.hpp"
#include "serve/service.hpp"
#include "serve/snapshot.hpp"
#include "solver/amg.hpp"
#include "solver/handle.hpp"
#include "solver/vector_ops.hpp"
#include "test_utils.hpp"

namespace parmis::serve {
namespace {

std::string temp_path(const char* name) { return ::testing::TempDir() + name; }

/// RAII temp file: removed on scope exit even when an assertion fails.
struct TempFile {
  explicit TempFile(const char* name) : path(temp_path(name)) {}
  ~TempFile() { std::remove(path.c_str()); }
  std::string path;
};

/// XOR one byte of a file in place.
void flip_byte(const std::string& path, std::uint64_t offset) {
  std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
  ASSERT_TRUE(f.good()) << path;
  f.seekg(static_cast<std::streamoff>(offset));
  char c = 0;
  f.read(&c, 1);
  c = static_cast<char>(c ^ 0x40);
  f.seekp(static_cast<std::streamoff>(offset));
  f.write(&c, 1);
  ASSERT_TRUE(f.good()) << path;
}

std::uint64_t level_digest(const multilevel::OperatorLevel& l) {
  std::uint64_t h = check::digest(l.a);
  h = check::digest_combine(h, check::digest(l.p));
  h = check::digest_combine(h, check::digest(l.r));
  h = check::digest_combine(h, check::digest(l.inv_diag));
  return h;
}

void expect_levels_equal(const std::vector<multilevel::OperatorLevel>& x,
                         const std::vector<multilevel::OperatorLevel>& y, const char* what) {
  ASSERT_EQ(x.size(), y.size()) << what;
  for (std::size_t i = 0; i < x.size(); ++i) {
    EXPECT_EQ(level_digest(x[i]), level_digest(y[i])) << what << " level " << i;
    EXPECT_EQ(x[i].num_aggregates, y[i].num_aggregates) << what << " level " << i;
  }
}

/// A power-law Laplacian whose first coarse block is dense: the fused
/// Galerkin kernel builds and replays it.
graph::CrsMatrix power_law_operator() {
  return graph::laplacian_matrix(graph::power_law_graph(2000, 2.2, 4, 64, 42), 1.0);
}

/// A small Galerkin hierarchy the service tests share the shape of.
multilevel::Options small_hierarchy_options() {
  multilevel::Options mo;
  mo.min_coarse_size = 40;
  return mo;
}

// ------------------------------------------------------------- snapshots

TEST(ServeSnapshot, MatrixRoundTripZeroCopy) {
  const graph::CrsMatrix a = graph::laplace2d(16, 12);
  TempFile file("serve_matrix.snap");
  save_snapshot(file.path, a);

  const SnapshotView snap = SnapshotView::open(file.path);
  EXPECT_TRUE(snap.contains("a"));
  EXPECT_FALSE(snap.contains("hierarchy"));
  EXPECT_GT(snap.file_size(), 0u);
  EXPECT_GE(snap.sections().size(), 4u);  // a.meta + row_map + entries + values

  const MatrixView v = snap.bind_matrix("a");
  EXPECT_EQ(v.num_rows, a.num_rows);
  EXPECT_EQ(v.num_cols, a.num_cols);
  EXPECT_EQ(v.num_entries(), a.num_entries());

  // Zero copies: binding twice lands on the same bytes of the mapping.
  const MatrixView v2 = snap.bind_matrix("a");
  EXPECT_EQ(v.row_map.data(), v2.row_map.data());
  EXPECT_EQ(v.values.data(), v2.values.data());

  const graph::CrsMatrix copy = snap.materialize_matrix("a");
  EXPECT_EQ(copy.row_map, a.row_map);
  EXPECT_EQ(copy.entries, a.entries);
  EXPECT_EQ(copy.values, a.values);
  EXPECT_EQ(check::digest(copy), check::digest(a));
}

TEST(ServeSnapshot, GraphAndPartitionRoundTrip) {
  const graph::CrsGraph g = test::adjacency_of(graph::laplace2d(10, 9));
  std::vector<ordinal_t> labels(static_cast<std::size_t>(g.num_rows));
  for (std::size_t i = 0; i < labels.size(); ++i) {
    labels[i] = static_cast<ordinal_t>(i % 4);
  }

  TempFile file("serve_graph.snap");
  {
    SnapshotWriter w(file.path);
    w.add_graph("g", g);
    w.add_partition("part", labels, 4);
    w.finish();
  }

  const SnapshotView snap = SnapshotView::open(file.path);
  const graph::GraphView gv = snap.bind_graph("g");
  EXPECT_EQ(gv.num_rows, g.num_rows);
  ASSERT_EQ(static_cast<std::size_t>(gv.num_rows) + 1, g.row_map.size());
  for (ordinal_t i = 0; i <= gv.num_rows; ++i) {
    EXPECT_EQ(gv.row_map[i], g.row_map[static_cast<std::size_t>(i)]);
  }

  ordinal_t num_parts = 0;
  const std::span<const ordinal_t> bound = snap.bind_partition("part", &num_parts);
  EXPECT_EQ(num_parts, 4);
  ASSERT_EQ(bound.size(), labels.size());
  EXPECT_EQ(check::digest(std::vector<ordinal_t>(bound.begin(), bound.end())),
            check::digest(labels));

  EXPECT_THROW((void)snap.bind_matrix("nope"), SnapshotError);
}

TEST(ServeSnapshot, SolveOnMaterializedMatchesOriginal) {
  const graph::CrsMatrix a = graph::laplace2d(14, 14);
  TempFile file("serve_solve.snap");
  save_snapshot(file.path, a);
  const SnapshotView snap = SnapshotView::open(file.path);
  const graph::CrsMatrix loaded = snap.materialize_matrix("a");

  const std::vector<scalar_t> b =
      solver::random_vector(a.num_rows, /*seed=*/7);
  std::vector<scalar_t> x1(static_cast<std::size_t>(a.num_rows), 0.0);
  std::vector<scalar_t> x2 = x1;
  solver::SolveHandle h1("cg", "jacobi", Context::serial());
  solver::SolveHandle h2("cg", "jacobi", Context::serial());
  EXPECT_TRUE(h1.solve(a, b, x1).converged);
  EXPECT_TRUE(h2.solve(loaded, b, x2).converged);
  EXPECT_EQ(check::digest(x1), check::digest(x2));
}

TEST(ServeSnapshot, TruncatedFileRejected) {
  const graph::CrsMatrix a = graph::laplace2d(12, 12);
  TempFile file("serve_trunc.snap");
  save_snapshot(file.path, a);

  const std::uint64_t full = std::filesystem::file_size(file.path);
  ASSERT_GT(full, 128u);
  std::filesystem::resize_file(file.path, full - 128);
  EXPECT_THROW((void)SnapshotView::open(file.path), SnapshotError);

  // Even a single missing byte is a rejection, not a short read.
  std::filesystem::resize_file(file.path, full - 129);
  EXPECT_THROW((void)SnapshotView::open(file.path), SnapshotError);
}

TEST(ServeSnapshot, BitFlipRejectedAndNamed) {
  const graph::CrsMatrix a = graph::laplace2d(12, 12);
  TempFile file("serve_flip.snap");
  save_snapshot(file.path, a);

  // Find where a.values lives, then corrupt one byte of it.
  SectionInfo target{};
  {
    const SnapshotView probe = SnapshotView::open(file.path);
    for (const SectionInfo& s : probe.sections()) {
      if (std::string(s.name) == "a.values") target = s;
    }
    ASSERT_GT(target.size, 0u);
  }  // probe unmapped before we rewrite the file
  flip_byte(file.path, target.offset + target.size / 2);

  try {
    (void)SnapshotView::open(file.path);
    FAIL() << "corrupted snapshot was accepted";
  } catch (const SnapshotError& e) {
    EXPECT_EQ(e.section(), "a.values");
    EXPECT_NE(std::string(e.what()).find("digest"), std::string::npos) << e.what();
  }

  // verify=false maps without digesting — the escape hatch stays open for
  // tooling, but it is an explicit opt-out.
  const SnapshotView unchecked = SnapshotView::open(file.path, /*verify=*/false);
  EXPECT_TRUE(unchecked.contains("a"));
}

TEST(ServeSnapshot, VersionAndMagicMismatchRejected) {
  const graph::CrsMatrix a = graph::laplace2d(8, 8);
  TempFile file("serve_version.snap");

  // Header layout: magic occupies bytes [0, 8), version is the u32 at 8.
  save_snapshot(file.path, a);
  flip_byte(file.path, 8);
  try {
    (void)SnapshotView::open(file.path);
    FAIL() << "version-mismatched snapshot was accepted";
  } catch (const SnapshotError& e) {
    EXPECT_NE(std::string(e.what()).find("version"), std::string::npos) << e.what();
  }

  save_snapshot(file.path, a);
  flip_byte(file.path, 0);
  EXPECT_THROW((void)SnapshotView::open(file.path), SnapshotError);

  EXPECT_THROW((void)SnapshotView::open(temp_path("serve_missing.snap")), SnapshotError);
}

TEST(ServeSnapshot, HierarchyRoundTripKeepsWarmRebuild) {
  // A mesh, whose first level keeps the two CRS Galerkin products, and a
  // power-law Laplacian, whose first coarse block is dense and built by the
  // fused kernel (its `.apc` section is empty).
  const graph::CrsMatrix inputs[] = {graph::laplace2d(24, 24), power_law_operator()};
  for (const graph::CrsMatrix& a : inputs) {
    const std::string what = "rows=" + std::to_string(a.num_rows);
    multilevel::Builder builder(small_hierarchy_options());
    multilevel::HierarchyHandle built;
    (void)builder.build_galerkin(a, built);
    ASSERT_GE(built.ops().size(), 2u) << what;
    const bool fused = graph::fused_galerkin_applies(built.ops()[0].a, built.ops()[0].p);
    EXPECT_EQ(fused, &a == &inputs[1]) << what;
    EXPECT_EQ(multilevel::galerkin_workspace(built)[0].apc.num_entries() == 0, fused) << what;

    TempFile file("serve_hier.snap");
    save_snapshot(file.path, a, &built);
    const SnapshotView snap = SnapshotView::open(file.path);
    EXPECT_EQ(snap.hierarchy_levels("hierarchy"), static_cast<int>(built.ops().size())) << what;
    EXPECT_TRUE(snap.hierarchy_has_workspace("hierarchy")) << what;

    multilevel::HierarchyHandle loaded;
    snap.load_hierarchy("hierarchy", loaded);
    expect_levels_equal(built.ops(), loaded.ops(), "loaded hierarchy");

    // A snapshot from an older writer carries the full A·P of a dense
    // level and no fused scratch; restoring it (what `load_hierarchy` does
    // with the sections it read) must drop the A·P and size the scratch,
    // so the warm replay below still works.
    std::vector<multilevel::SetupWorkspace::GalerkinLevel> legacy_ws =
        multilevel::galerkin_workspace(built);
    for (std::size_t l = 0; l < legacy_ws.size(); ++l) {
      legacy_ws[l].apc = graph::spgemm(built.ops()[l].a, built.ops()[l].p);
      legacy_ws[l].fused = graph::FusedGalerkinScratch{};
    }
    multilevel::HierarchyHandle legacy;
    multilevel::restore_galerkin(legacy, built.ops(), std::move(legacy_ws),
                                 multilevel::StopReason::CoarseEnough);
    EXPECT_EQ(multilevel::galerkin_workspace(legacy)[0].apc.num_entries() == 0, fused) << what;

    // The serialized rebuild workspace keeps the warm customize contract:
    // a value-only replay on the loaded handle matches the replay on the
    // handle that was saved, level for level.
    graph::CrsMatrix a2 = a;
    for (scalar_t& v : a2.values) v *= 1.25;
    multilevel::Builder rebuilder(small_hierarchy_options());
    (void)builder.rebuild_galerkin(a2, built);
    (void)rebuilder.rebuild_galerkin(a2, loaded);
    (void)rebuilder.rebuild_galerkin(a2, legacy);
    expect_levels_equal(built.ops(), loaded.ops(), "warm rebuild after load");
    expect_levels_equal(built.ops(), legacy.ops(), "warm rebuild after legacy restore");
  }
}

TEST(ServeSnapshot, SolveOnlyRestoreRejectsRebuild) {
  const graph::CrsMatrix a = graph::laplace2d(20, 20);
  multilevel::Builder builder(small_hierarchy_options());
  multilevel::HierarchyHandle built;
  (void)builder.build_galerkin(a, built);

  // Restoring levels without the workspace yields a hierarchy that can
  // solve but must refuse the warm replay instead of serving stale values.
  multilevel::HierarchyHandle solve_only;
  std::vector<multilevel::OperatorLevel> ops = built.ops();
  multilevel::restore_galerkin(solve_only, std::move(ops), {},
                               multilevel::StopReason::CoarseEnough);
  EXPECT_EQ(solve_only.ops().size(), built.ops().size());
  EXPECT_TRUE(multilevel::galerkin_workspace(solve_only).empty());
  EXPECT_THROW((void)builder.rebuild_galerkin(a, solve_only), std::logic_error);
}

#if PARMIS_FAULT_ENABLED
TEST(ServeSnapshotFault, ArmedCorruptionRejectsValidFile) {
  const graph::CrsMatrix a = graph::laplace2d(8, 8);
  TempFile file("serve_fault.snap");
  save_snapshot(file.path, a);

  resilience::disarm_faults();
  resilience::arm_faults_spec("serve.snapshot.corrupt");
  EXPECT_THROW((void)SnapshotView::open(file.path), SnapshotError);
  resilience::disarm_faults();
  EXPECT_TRUE(SnapshotView::open(file.path).contains("a"));
}
#endif

// ------------------------------------------------------------ handle pool

TEST(ServePool, EnsureWalksWarmCacheBuildPaths) {
  const graph::CrsMatrix a = graph::laplace2d(10, 10);
  graph::CrsMatrix a1 = a;
  for (scalar_t& v : a1.values) v *= 1.5;
  graph::CrsMatrix a2 = a;
  for (scalar_t& v : a2.values) v *= 2.0;

  HandlePool::Config cfg;
  cfg.solver = "cg";
  cfg.prec = "jacobi";
  cfg.size = 1;
  cfg.cache_capacity = 2;
  HandlePool pool(cfg);
  HandlePool::Lease lease = pool.acquire();
  HandlePool::Entry& e = lease.entry();

  pool.ensure(e, PrecKey{0, ""}, a);   // cold: full build
  pool.ensure(e, PrecKey{0, ""}, a);   // warm: already installed
  pool.ensure(e, PrecKey{1, ""}, a1);  // miss: park epoch 0, build epoch 1
  pool.ensure(e, PrecKey{0, ""}, a);   // LRU hit: park epoch 1, re-adopt epoch 0
  pool.ensure(e, PrecKey{2, ""}, a2);  // miss: park epoch 0 (LRU {1, 0}), build
  pool.ensure(e, PrecKey{1, ""}, a1);  // parking epoch 2 evicts epoch 1 (the
                                       // LRU victim) — so this misses: build

  const PoolStats stats = pool.stats();
  EXPECT_EQ(stats.acquires, 1u);
  EXPECT_EQ(stats.warm_hits, 1u);
  EXPECT_EQ(stats.cache_hits, 1u);
  EXPECT_EQ(stats.prec_builds, 4u);
  EXPECT_EQ(stats.level_adoptions, 0u);
  EXPECT_EQ(stats.evictions, 1u);
}

TEST(ServePool, PrecCacheIsLru) {
  PrecCache cache(2);
  // The cache stores opaque setups; identity (the same pointer coming
  // back, not a copy) is the property under test, so park a real setup
  // released from a handle.
  const graph::CrsMatrix a = graph::laplace2d(6, 6);
  solver::SolveHandle h("cg", "jacobi", Context::serial());
  std::vector<scalar_t> b(static_cast<std::size_t>(a.num_rows), 1.0);
  std::vector<scalar_t> x = b;
  (void)h.solve(a, b, x);
  std::unique_ptr<solver::Preconditioner> p0 = h.release_preconditioner();
  ASSERT_NE(p0, nullptr);
  solver::Preconditioner* raw0 = p0.get();

  cache.put(PrecKey{0, ""}, std::move(p0));
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.take(PrecKey{1, ""}), nullptr);  // miss leaves the slot alone
  EXPECT_EQ(cache.size(), 1u);

  std::unique_ptr<solver::Preconditioner> back = cache.take(PrecKey{0, ""});
  EXPECT_EQ(back.get(), raw0);  // same setup comes back, not a copy
  EXPECT_EQ(cache.size(), 0u);

  // Refill past capacity: the least-recently-used key is the one evicted.
  cache.put(PrecKey{0, ""}, std::move(back));
  cache.put(PrecKey{1, ""}, nullptr);  // null is a no-op
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.evictions(), 0u);
}

TEST(ServePool, AmgMissAdoptsPublishedLevels) {
  const graph::CrsMatrix a = graph::laplace2d(24, 24);
  multilevel::Builder builder(small_hierarchy_options());
  multilevel::HierarchyHandle h;
  const std::vector<multilevel::OperatorLevel> levels = builder.build_galerkin(a, h);

  HandlePool::Config cfg;
  cfg.solver = "cg";
  cfg.prec = "amg";
  cfg.size = 1;
  HandlePool pool(cfg);
  HandlePool::Lease lease = pool.acquire();
  HandlePool::Entry& e = lease.entry();
  pool.ensure(e, PrecKey{0, ""}, a, &levels);
  pool.ensure(e, PrecKey{0, ""}, a, &levels);

  const PoolStats stats = pool.stats();
  EXPECT_EQ(stats.level_adoptions, 1u);  // adopted the published stack...
  EXPECT_EQ(stats.prec_builds, 0u);      // ...never re-ran aggregation+SpGEMM
  EXPECT_EQ(stats.warm_hits, 1u);

  const auto* amg = dynamic_cast<const solver::AmgHierarchy*>(e.handle.preconditioner());
  ASSERT_NE(amg, nullptr);

  std::vector<scalar_t> b = solver::random_vector(a.num_rows, 3);
  std::vector<scalar_t> x(static_cast<std::size_t>(a.num_rows), 0.0);
  EXPECT_TRUE(e.handle.solve(a, b, x).converged);
}

TEST(ServePool, ConcurrentLeasesMatchSerialDigests) {
  const graph::CrsMatrix a = graph::laplace2d(16, 16);
  const int kSolves = 8;

  // Serial reference: one digest per rhs seed.
  std::vector<std::uint64_t> expected(kSolves);
  {
    solver::SolveHandle h("cg", "jacobi", Context::serial());
    std::vector<scalar_t> b, x;
    for (int i = 0; i < kSolves; ++i) {
      b = solver::random_vector(a.num_rows, static_cast<std::uint64_t>(i + 1));
      x.assign(static_cast<std::size_t>(a.num_rows), 0.0);
      EXPECT_TRUE(h.solve(a, b, x).converged);
      expected[static_cast<std::size_t>(i)] = check::digest(x);
    }
  }

  HandlePool::Config cfg;
  cfg.solver = "cg";
  cfg.prec = "jacobi";
  cfg.size = 2;  // fewer entries than threads: leases must block + rotate
  HandlePool pool(cfg);

  std::vector<std::uint64_t> got(kSolves, 0);
  std::vector<std::thread> workers;
  workers.reserve(kSolves);
  for (int i = 0; i < kSolves; ++i) {
    workers.emplace_back([&, i] {
      HandlePool::Lease lease = pool.acquire();
      HandlePool::Entry& e = lease.entry();
      pool.ensure(e, PrecKey{0, ""}, a);
      e.b = solver::random_vector(a.num_rows, static_cast<std::uint64_t>(i + 1));
      e.x.assign(static_cast<std::size_t>(a.num_rows), 0.0);
      (void)e.handle.solve(a, e.b, e.x);
      got[static_cast<std::size_t>(i)] = check::digest(e.x);
    });
  }
  for (std::thread& t : workers) t.join();

  EXPECT_EQ(got, expected);
  EXPECT_EQ(pool.stats().acquires, static_cast<std::uint64_t>(kSolves));
}

// --------------------------------------------------------------- service

Service::Options jacobi_service_options(std::size_t pool_size = 2) {
  Service::Options o;
  o.pool.solver = "cg";
  o.pool.prec = "jacobi";
  o.pool.size = pool_size;
  return o;
}

Service::Options amg_service_options(std::size_t pool_size = 4) {
  Service::Options o;
  o.pool.solver = "cg";
  o.pool.prec = "amg";
  o.pool.size = pool_size;
  return o;
}

/// An AMG service over `a` with the full rebuild workspace.
Service make_amg_service(const graph::CrsMatrix& a, std::size_t pool_size = 4) {
  multilevel::Builder builder(small_hierarchy_options());
  multilevel::HierarchyHandle h;
  (void)builder.build_galerkin(a, h);
  return Service(amg_service_options(pool_size), a, h.ops(),
                 multilevel::galerkin_workspace(h));
}

TEST(ServeService, SolveMatchesDirectHandle) {
  const graph::CrsMatrix a = graph::laplace2d(18, 18);
  Service service(jacobi_service_options(), a);

  ServeRequest req;
  req.id = 0;
  req.rhs_seed = 42;
  req.epoch = 0;
  std::vector<scalar_t> x_out(static_cast<std::size_t>(a.num_rows), 0.0);
  const RequestOutcome out = service.solve(req, x_out);
  EXPECT_TRUE(out.converged);
  EXPECT_EQ(out.epoch, 0u);
  EXPECT_STREQ(out.bottom_solve, "");  // jacobi stack: no AMG coarse solve
  ASSERT_EQ(out.attempts.size(), 1u);  // record_attempts default

  solver::SolveHandle h("cg", "jacobi", Context::serial());
  const std::vector<scalar_t> b = solver::random_vector(a.num_rows, 42);
  std::vector<scalar_t> x(static_cast<std::size_t>(a.num_rows), 0.0);
  const solver::IterResult& r = h.solve(a, b, x);
  EXPECT_EQ(out.iterations, r.iterations);
  EXPECT_EQ(out.solution_digest, check::digest(x));
  EXPECT_EQ(out.solution_digest, check::digest(x_out));
}

TEST(ServeService, FromSnapshotReportsBottomSolve) {
  const graph::CrsMatrix a = graph::laplace2d(24, 24);
  multilevel::Builder builder(small_hierarchy_options());
  multilevel::HierarchyHandle h;
  (void)builder.build_galerkin(a, h);

  TempFile file("serve_service.snap");
  save_snapshot(file.path, a, &h);
  const SnapshotView snap = SnapshotView::open(file.path);
  Service service = Service::from_snapshot(amg_service_options(), snap);
  EXPECT_TRUE(service.can_rebuild());

  ServeRequest req;
  req.rhs_seed = 5;
  const RequestOutcome out = service.solve(req);
  EXPECT_TRUE(out.converged);
  EXPECT_STRNE(out.bottom_solve, "");  // AMG stack names its coarse solve
  EXPECT_EQ(service.pool().stats().level_adoptions, 1u);
}

TEST(ServeService, ReplayThreadedMatchesSerial) {
  const graph::CrsMatrix a = graph::laplace2d(24, 24);
  const std::vector<ServeRequest> requests = make_requests(24, /*seed0=*/1, /*epoch0=*/0);

  Service serial_service = make_amg_service(a);
  ReplayOptions serial_opts;
  serial_opts.threads = 1;
  const ReplayResult serial = replay(serial_service, requests, serial_opts);
  EXPECT_EQ(serial.stats.converged, 24u);
  EXPECT_GT(serial.stats.p99_ms, 0.0);
  EXPECT_GE(serial.stats.p99_ms, serial.stats.p50_ms);

  Service threaded_service = make_amg_service(a);
  ReplayOptions threaded_opts;
  threaded_opts.threads = 4;
  const ReplayResult threaded = replay(threaded_service, requests, threaded_opts);

  EXPECT_EQ(threaded.stats.combined_digest, serial.stats.combined_digest);
  ASSERT_EQ(threaded.outcomes.size(), serial.outcomes.size());
  for (std::size_t i = 0; i < serial.outcomes.size(); ++i) {
    EXPECT_EQ(threaded.outcomes[i].solution_digest, serial.outcomes[i].solution_digest)
        << "request " << i;
    EXPECT_EQ(threaded.outcomes[i].iterations, serial.outcomes[i].iterations)
        << "request " << i;
  }
}

TEST(ServeService, CustomizeSwapIsDeterministicAcrossThreads) {
  const graph::CrsMatrix a = graph::laplace2d(24, 24);
  const std::size_t kRequests = 24;
  const std::size_t kSwapAt = 9;
  const std::vector<ServeRequest> requests =
      make_requests(kRequests, /*seed0=*/1, /*epoch0=*/0, kSwapAt);

  auto run = [&](int threads) {
    Service service = make_amg_service(a);
    ReplayOptions opts;
    opts.threads = threads;
    opts.customize_at = kSwapAt;
    return replay(service, requests, opts);
  };

  const ReplayResult serial = run(1);
  const ReplayResult threaded = run(4);

  EXPECT_EQ(serial.stats.final_epoch, 1u);
  EXPECT_EQ(threaded.stats.final_epoch, 1u);
  EXPECT_EQ(serial.stats.converged, kRequests);
  EXPECT_EQ(threaded.stats.combined_digest, serial.stats.combined_digest);
  for (std::size_t i = 0; i < kRequests; ++i) {
    EXPECT_EQ(serial.outcomes[i].epoch, i < kSwapAt ? 0u : 1u) << "request " << i;
    EXPECT_EQ(threaded.outcomes[i].solution_digest, serial.outcomes[i].solution_digest)
        << "request " << i;
  }
  // The swap actually changed the operator: pre- and post-swap solves of
  // the same seed sequence cannot collide unless the scale was a no-op.
  EXPECT_NE(serial.outcomes[0].solution_digest,
            serial.outcomes[kSwapAt].solution_digest);
}

TEST(ServeService, CustomizeMatchesColdBuild) {
  const graph::CrsMatrix inputs[] = {graph::laplace2d(24, 24), power_law_operator()};
  for (const graph::CrsMatrix& a : inputs) {
    const std::string what = "rows=" + std::to_string(a.num_rows);
    graph::CrsMatrix a2 = a;
    for (scalar_t& v : a2.values) v *= 1.25;

    // Warm: customize replays the hierarchy value-only and publishes. It
    // runs on a thread that never ran a cold build, as a serving write
    // does; check builds assert the replay allocates nothing there.
    Service warm = make_amg_service(a);
    std::uint64_t e1 = 0;
    std::string error;
    std::thread writer([&] {
      try {
        e1 = warm.customize(a2.values);
      } catch (const std::exception& e) {
        error = e.what();
      }
    });
    writer.join();
    ASSERT_EQ(error, "") << what;
    EXPECT_EQ(e1, 1u) << what;
    EXPECT_EQ(warm.state(e1)->values_digest, check::digest(a2.values)) << what;

    // Cold: a fresh service built from scratch on the refreshed values.
    Service cold = make_amg_service(a2);

    ServeRequest req;
    req.rhs_seed = 11;
    req.epoch = e1;
    const RequestOutcome warm_out = warm.solve(req);
    req.epoch = 0;
    const RequestOutcome cold_out = cold.solve(req);
    EXPECT_TRUE(warm_out.converged) << what;
    EXPECT_EQ(warm_out.solution_digest, cold_out.solution_digest) << what;
    EXPECT_EQ(warm_out.iterations, cold_out.iterations) << what;
  }
}

TEST(ServeService, CustomizeValidatesAndExpiresHistory) {
  const graph::CrsMatrix a = graph::laplace2d(12, 12);

  // Wrong-size values are rejected before anything is rebuilt.
  Service service = make_amg_service(a);
  std::vector<scalar_t> short_values(3, 1.0);
  EXPECT_THROW((void)service.customize(short_values), std::invalid_argument);
  EXPECT_EQ(service.epoch(), 0u);

  // A solve-only hierarchy (no rebuild workspace) refuses to customize
  // rather than serve a stale hierarchy against fresh values.
  multilevel::Builder builder(small_hierarchy_options());
  multilevel::HierarchyHandle h;
  (void)builder.build_galerkin(a, h);
  Service solve_only(amg_service_options(), a, h.ops(), /*workspace=*/{});
  EXPECT_FALSE(solve_only.can_rebuild());
  EXPECT_THROW((void)solve_only.customize(a.values), std::logic_error);

  // A hierarchy-less service customizes fine: there is nothing to replay.
  Service::Options opts = jacobi_service_options();
  opts.max_history = 1;
  Service plain(std::move(opts), a);
  EXPECT_FALSE(plain.can_rebuild());
  graph::CrsMatrix a2 = a;
  for (scalar_t& v : a2.values) v *= 2.0;
  EXPECT_EQ(plain.customize(a2.values), 1u);
  EXPECT_EQ(plain.current()->values_digest, check::digest(a2.values));

  // max_history = 1: epoch 0 fell out of the window, a pinned request for
  // it must throw instead of silently serving the wrong operator.
  EXPECT_THROW((void)plain.state(0), std::out_of_range);

  // republish(): epoch bump, same arrays — the customize-failure recovery.
  const std::shared_ptr<const ServingState> before = plain.current();
  EXPECT_EQ(plain.republish(), 2u);
  const std::shared_ptr<const ServingState> after = plain.current();
  EXPECT_EQ(after->epoch, 2u);
  EXPECT_EQ(after->a, before->a);  // shared, not copied
  EXPECT_EQ(after->values_digest, before->values_digest);
}

// ---------------------------------------------------------------- replay

TEST(ServeReplay, RequestPinningFollowsCustomizeAt) {
  const std::vector<ServeRequest> plain = make_requests(6, /*seed0=*/10, /*epoch0=*/3);
  ASSERT_EQ(plain.size(), 6u);
  for (std::size_t i = 0; i < plain.size(); ++i) {
    EXPECT_EQ(plain[i].id, i);
    EXPECT_EQ(plain[i].rhs_seed, 10u + i);
    EXPECT_EQ(plain[i].epoch, 3u);
  }

  const std::vector<ServeRequest> swap = make_requests(6, 1, 3, /*customize_at=*/4);
  for (std::size_t i = 0; i < swap.size(); ++i) {
    EXPECT_EQ(swap[i].epoch, i < 4 ? 3u : 4u) << "request " << i;
  }

  // Out-of-range swap points disable pinning rather than deadlock a
  // replay that will never publish the next epoch.
  for (const ServeRequest& r : make_requests(6, 1, 3, /*customize_at=*/6)) {
    EXPECT_EQ(r.epoch, 3u);
  }
}

}  // namespace
}  // namespace parmis::serve
