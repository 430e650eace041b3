/// \file test_handle.cpp
/// \brief Tests for the Context/handle API: explicit execution contexts,
/// workspace reuse (the zero-allocation warm-run contract), the Coarsener
/// registry, and cross-context determinism of every registered coarsener.

#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

#include "check/alloc_guard.hpp"
#include "core/aggregation.hpp"
#include "core/coarsener.hpp"
#include "core/mis2.hpp"
#include "core/verify.hpp"
#include "graph/generators.hpp"
#include "graph/ops.hpp"
#include "graph/rgg.hpp"
#include "multilevel/builder.hpp"
#include "parallel/context.hpp"
#include "parallel/execution.hpp"
#include "parallel/parallel_scan.hpp"
#include "test_utils.hpp"

namespace parmis {
namespace {

const graph::CrsGraph& mesh_graph() {
  static const graph::CrsGraph g = test::adjacency_of(graph::laplace3d(12, 12, 12));
  return g;
}

const graph::CrsGraph& rgg_graph() {
  static const graph::CrsGraph g = graph::random_geometric_3d(4000, 18.0, 7);
  return g;
}

/// Contexts the determinism sweeps compare. Serial always; OpenMP at
/// several thread counts when compiled in.
std::vector<Context> sweep_contexts() {
  std::vector<Context> ctxs;
  ctxs.push_back(Context::serial());
#ifdef PARMIS_HAVE_OPENMP
  ctxs.push_back(Context::openmp(1));
  ctxs.push_back(Context::openmp(3));
  ctxs.push_back(Context::openmp(0));  // all hardware threads
#endif
  return ctxs;
}

// ---------------------------------------------------------------- Context

TEST(Context, DefaultSnapshotsTheSingleton) {
  par::ScopedExecution scope(par::Backend::Serial, 1);
  const Context ctx = Context::default_ctx();
  EXPECT_EQ(ctx.backend, par::Backend::Serial);
}

TEST(Context, ScopePinsAndRestores) {
  const par::Backend before = par::Execution::backend();
  {
    Context::Scope scope(Context::serial());
    EXPECT_EQ(par::Execution::backend(), par::Backend::Serial);
    EXPECT_EQ(par::Execution::num_threads(), 1);
  }
  EXPECT_EQ(par::Execution::backend(), before);
}

TEST(Context, ValidationReportsOpenMPFallback) {
  const Context ctx = Context::openmp(4);
  const Context::Validation v = ctx.validate();
  EXPECT_EQ(v.requested, par::Backend::OpenMP);
#ifdef PARMIS_HAVE_OPENMP
  EXPECT_EQ(v.effective, par::Backend::OpenMP);
  EXPECT_FALSE(v.fell_back);
  EXPECT_TRUE(v.message.empty());
  EXPECT_EQ(v.effective_threads, 4);
#else
  EXPECT_EQ(v.effective, par::Backend::Serial);
  EXPECT_TRUE(v.fell_back);
  EXPECT_FALSE(v.message.empty());
  EXPECT_EQ(v.effective_threads, 1);
#endif
}

TEST(Context, SerialValidationNeverFallsBack) {
  const Context::Validation v = Context::serial().validate();
  EXPECT_EQ(v.effective, par::Backend::Serial);
  EXPECT_FALSE(v.fell_back);
  EXPECT_EQ(v.effective_threads, 1);
}

TEST(Context, ScopePreservesSurroundingRequestedBackend) {
  par::ScopedExecution outer(par::Backend::Serial, 1);  // restore everything on exit
  // A surrounding request (possibly a fallback) must stay visible through
  // requested_backend() after an inner Scope exits.
  par::Execution::set_backend(par::Backend::OpenMP);
  {
    Context::Scope scope(Context::serial());
    EXPECT_EQ(par::Execution::backend(), par::Backend::Serial);
  }
  EXPECT_EQ(par::Execution::requested_backend(), par::Backend::OpenMP);
}

TEST(ExecutionConfig, SetBackendSurfacesFallback) {
  par::ScopedExecution scope(par::Backend::Serial, 1);  // restore on exit
  const par::Backend got = par::Execution::set_backend(par::Backend::OpenMP);
  EXPECT_EQ(par::Execution::requested_backend(), par::Backend::OpenMP);
#ifdef PARMIS_HAVE_OPENMP
  EXPECT_EQ(got, par::Backend::OpenMP);
#else
  EXPECT_EQ(got, par::Backend::Serial);
  EXPECT_NE(par::Execution::backend(), par::Execution::requested_backend());
#endif
}

// ------------------------------------------------------- workspace reuse

TEST(Mis2Handle, WarmRunsAreAllocationFreeAndBitIdentical) {
  core::Mis2Handle handle;
  const core::Mis2Result first = [&] {
    handle.run(rgg_graph());
    return handle.result();  // copy: the handle's buffer is reused below
  }();
  const std::size_t warm_capacity = handle.scratch_bytes();
  EXPECT_GT(warm_capacity, 0u);

  for (int rep = 0; rep < 3; ++rep) {
    const core::Mis2Result& again = handle.run(rgg_graph());
    // Zero-allocation warm-run contract: the scratch capacity is stable...
    EXPECT_EQ(handle.scratch_bytes(), warm_capacity) << "rep=" << rep;
    // ...and the results are bit-identical.
    EXPECT_EQ(again.members, first.members) << "rep=" << rep;
    EXPECT_EQ(again.in_set, first.in_set) << "rep=" << rep;
    EXPECT_EQ(again.iterations, first.iterations) << "rep=" << rep;
  }

  // Algorithm 3's masked run shares the same scratch: once a cold masked
  // run has sized the result, warm masked runs allocate nothing (checked
  // at the allocator in check builds) and repeat their bits.
  const std::vector<char> active = test::random_mask(rgg_graph().num_rows, 0.5, 11);
  const core::Mis2Result first_masked = [&] {
    handle.run_masked(rgg_graph(), active);
    return handle.result();
  }();
  EXPECT_TRUE(core::verify_mis2_masked(rgg_graph(), first_masked.in_set, active));
  for (int rep = 0; rep < 3; ++rep) {
    check::AllocGuard guard;
    const core::Mis2Result& again = handle.run_masked(rgg_graph(), active);
    if (check::counting_available()) {
      EXPECT_EQ(0u, guard.allocations()) << "masked rep=" << rep;
    }
    EXPECT_EQ(handle.scratch_bytes(), warm_capacity) << "masked rep=" << rep;
    EXPECT_EQ(again.members, first_masked.members) << "masked rep=" << rep;
    EXPECT_EQ(again.in_set, first_masked.in_set) << "masked rep=" << rep;
    EXPECT_EQ(again.iterations, first_masked.iterations) << "masked rep=" << rep;
  }
}

// Above `par::scan_block` vertices the worklist compactions take the
// blocked parallel scan, whose block totals must stay off the heap too.
TEST(Mis2Handle, WarmRunsAboveScanBlockAreAllocationFree) {
  const graph::CrsGraph g = graph::random_geometric_3d(20000, 24.0, 7);
  ASSERT_GT(static_cast<std::int64_t>(g.num_rows), par::scan_block);
  const std::vector<char> active = test::random_mask(g.num_rows, 0.5, 3);
  core::Mis2Handle handle(Context::openmp(3));
  const core::Mis2Result first = handle.run(g);
  const core::Mis2Result first_masked = handle.run_masked(g, active);
  const std::size_t warm_capacity = handle.scratch_bytes();
  for (int rep = 0; rep < 2; ++rep) {
    {
      check::AllocGuard guard;
      const core::Mis2Result& again = handle.run(g);
      if (check::counting_available()) EXPECT_EQ(0u, guard.allocations()) << "rep=" << rep;
      EXPECT_EQ(again.members, first.members) << "rep=" << rep;
    }
    {
      check::AllocGuard guard;
      const core::Mis2Result& again = handle.run_masked(g, active);
      if (check::counting_available()) {
        EXPECT_EQ(0u, guard.allocations()) << "masked rep=" << rep;
      }
      EXPECT_EQ(again.members, first_masked.members) << "masked rep=" << rep;
    }
    EXPECT_EQ(handle.scratch_bytes(), warm_capacity) << "rep=" << rep;
  }
}

TEST(Mis2Handle, SmallerGraphReusesCapacityOfLarger) {
  core::Mis2Handle handle;
  handle.run(rgg_graph());
  const std::size_t big_capacity = handle.scratch_bytes();
  handle.run(mesh_graph());  // smaller: must fit in the existing scratch
  EXPECT_EQ(handle.scratch_bytes(), big_capacity);
  EXPECT_TRUE(core::verify_mis2(mesh_graph(), handle.result().in_set));
}

TEST(Mis2Handle, MatchesFreeFunctionWrapper) {
  core::Mis2Handle handle;
  const core::Mis2Result& h = handle.run(mesh_graph());
  const core::Mis2Result f = core::mis2(mesh_graph());
  EXPECT_EQ(h.members, f.members);
  EXPECT_EQ(h.iterations, f.iterations);
}

TEST(CoarsenHandle, WarmAggregationsAreAllocationFreeAndBitIdentical) {
  core::CoarsenHandle handle;
  const std::vector<ordinal_t> first_labels = [&] {
    handle.aggregate_mis2(rgg_graph());
    return handle.aggregation().labels;
  }();
  const std::size_t warm_capacity = handle.scratch_bytes();
  EXPECT_GT(warm_capacity, 0u);

  for (int rep = 0; rep < 3; ++rep) {
    const core::Aggregation& again = handle.aggregate_mis2(rgg_graph());
    EXPECT_EQ(handle.scratch_bytes(), warm_capacity) << "rep=" << rep;
    EXPECT_EQ(again.labels, first_labels) << "rep=" << rep;
  }
}

TEST(CoarsenHandle, HandleResultsMatchFreeFunctions) {
  core::CoarsenHandle handle;
  EXPECT_EQ(handle.aggregate_mis2(mesh_graph()).labels,
            core::aggregate_mis2(mesh_graph()).labels);
  EXPECT_EQ(handle.aggregate_basic(mesh_graph()).labels,
            core::aggregate_basic(mesh_graph()).labels);
}

TEST(CoarsenHandle, ReusedAcrossMultilevelHierarchy) {
  // The hierarchy handle's nested CoarsenHandle serves every level.
  multilevel::Options opts;
  opts.min_coarse_size = 30;
  const multilevel::Builder builder(opts);
  multilevel::HierarchyHandle h;
  const std::vector<multilevel::Step> first = builder.build(mesh_graph(), h);
  ASSERT_GT(first.size(), 1u);  // scratch was genuinely reused across levels

  // A second hierarchy build on the same input is warm: capacity stable,
  // structure identical.
  const std::size_t warm_capacity = h.coarsen_handle().scratch_bytes();
  const std::vector<multilevel::Step>& second = builder.build(mesh_graph(), h);
  EXPECT_EQ(h.coarsen_handle().scratch_bytes(), warm_capacity);
  ASSERT_EQ(second.size(), first.size());
  for (std::size_t l = 0; l < first.size(); ++l) {
    EXPECT_EQ(second[l].aggregation.labels, first[l].aggregation.labels) << "level " << l;
  }
}

// ------------------------------------------------------------ telemetry

TEST(Mis2Handle, TelemetryCountersAccumulate) {
  core::Mis2Handle handle;
  EXPECT_EQ(handle.stats().runs, 0u);
  EXPECT_EQ(handle.stats().iterations, 0u);
  EXPECT_EQ(handle.stats().scratch_grows, 0u);

  const int it1 = handle.run(rgg_graph()).iterations;
  EXPECT_EQ(handle.stats().runs, 1u);
  EXPECT_EQ(handle.stats().iterations, static_cast<std::uint64_t>(it1));
  EXPECT_EQ(handle.stats().scratch_grows, 1u);  // the cold run

  // Warm runs (same graph, then a smaller one) accumulate runs and
  // iterations but never the allocation counter.
  const int it2 = handle.run(rgg_graph()).iterations;
  const int it3 = handle.run(mesh_graph()).iterations;
  EXPECT_EQ(handle.stats().runs, 3u);
  EXPECT_EQ(handle.stats().iterations, static_cast<std::uint64_t>(it1 + it2 + it3));
  EXPECT_EQ(handle.stats().scratch_grows, 1u);
}

TEST(CoarsenHandle, TelemetryCountersAccumulate) {
  core::CoarsenHandle handle;
  const core::Aggregation& agg = handle.aggregate_mis2(rgg_graph());
  const std::uint64_t it1 =
      static_cast<std::uint64_t>(agg.phase1_iterations + agg.phase2_iterations);
  EXPECT_GT(it1, 0u);
  EXPECT_EQ(handle.stats().runs, 1u);
  EXPECT_EQ(handle.stats().iterations, it1);
  EXPECT_EQ(handle.stats().scratch_grows, 1u);
  // The nested MIS-2 handle keeps its own counters (two runs: phase 1 +
  // the masked phase 2).
  EXPECT_EQ(handle.mis2_handle().stats().runs, 2u);

  (void)handle.aggregate_mis2(rgg_graph());
  EXPECT_EQ(handle.stats().runs, 2u);
  EXPECT_EQ(handle.stats().iterations, 2 * it1);  // deterministic repeat
  EXPECT_EQ(handle.stats().scratch_grows, 1u);    // warm: no growth
}

// ------------------------------------------------------------- registry

TEST(CoarsenerRegistry, NamesAndLookup) {
  const std::vector<std::string> names = core::coarseners().names();
  ASSERT_GE(names.size(), 3u);
  EXPECT_EQ(names.front(), "mis2");  // the paper's scheme leads
  for (const std::string& name : names) {
    const auto coarsener = core::coarseners().find(name).make();
    ASSERT_NE(coarsener, nullptr);
    EXPECT_EQ(coarsener->name(), name);
  }
}

TEST(CoarsenerRegistry, EveryCoarsenerProducesValidAggregations) {
  for (const std::string& name : core::coarseners().names()) {
    core::CoarsenHandle handle;
    const auto coarsener = core::coarseners().find(name).make();
    const core::Aggregation& agg = coarsener->run(mesh_graph(), {}, handle, {});
    EXPECT_GT(agg.num_aggregates, 0) << name;
    EXPECT_LT(agg.num_aggregates, mesh_graph().num_rows) << name;
    EXPECT_TRUE(core::verify_aggregation(mesh_graph(), agg)) << name;
  }
}

/// The acceptance sweep: two different Contexts (Serial vs OpenMP at
/// several thread counts) agree bit-for-bit for every registered
/// coarsener, on both test graphs.
TEST(CoarsenerRegistry, DeterministicAcrossContextsForEveryCoarsener) {
  for (const std::string& name : core::coarseners().names()) {
    const auto coarsener = core::coarseners().find(name).make();
    for (const graph::CrsGraph* g : {&mesh_graph(), &rgg_graph()}) {
      std::vector<ordinal_t> reference;
      bool first = true;
      for (const Context& ctx : sweep_contexts()) {
        core::CoarsenHandle handle(ctx);
        const core::Aggregation& agg = coarsener->run(*g, {}, handle, {});
        if (first) {
          reference = agg.labels;
          first = false;
        } else {
          EXPECT_EQ(agg.labels, reference)
              << "coarsener=" << name << " backend=" << static_cast<int>(ctx.backend)
              << " threads=" << ctx.num_threads;
        }
      }
    }
  }
}

/// Context seeds perturb the result deterministically: same seed → same
/// set, different seed → (in general) different set, both valid.
TEST(Mis2Handle, ContextSeedIsFoldedIntoPriorities) {
  Context seeded = Context::serial();
  seeded.seed = 0xDEADBEEF;
  core::Mis2Handle h_seeded(core::Mis2Options{}, seeded);
  core::Mis2Handle h_default(core::Mis2Options{}, Context::serial());

  const core::Mis2Result& a = h_seeded.run(rgg_graph());
  EXPECT_TRUE(core::verify_mis2(rgg_graph(), a.in_set));
  const std::vector<ordinal_t> seeded_members = a.members;

  const core::Mis2Result& b = h_default.run(rgg_graph());
  EXPECT_TRUE(core::verify_mis2(rgg_graph(), b.in_set));
  EXPECT_NE(seeded_members, b.members);  // astronomically unlikely to collide

  // Reproducible under the same seeded context.
  core::Mis2Handle h_again(core::Mis2Options{}, seeded);
  EXPECT_EQ(h_again.run(rgg_graph()).members, seeded_members);
}

}  // namespace
}  // namespace parmis
