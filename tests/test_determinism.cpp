/// \file test_determinism.cpp
/// \brief End-to-end determinism sweep: the paper's headline property,
/// asserted bit-for-bit across backends and thread counts for every
/// deterministic component.

#include <gtest/gtest.h>

#include <vector>

#include "check/digest.hpp"
#include "coloring/d1_coloring.hpp"
#include "coloring/d2_coloring.hpp"
#include "core/aggregation.hpp"
#include "core/bell_misk.hpp"
#include "core/coarsen.hpp"
#include "core/coarsener.hpp"
#include "core/luby_mis1.hpp"
#include "core/mis2.hpp"
#include "graph/generators.hpp"
#include "graph/ops.hpp"
#include "graph/registry.hpp"
#include "multilevel/builder.hpp"
#include "parallel/context.hpp"
#include "parallel/execution.hpp"
#include "partition/interface.hpp"
#include "solver/amg.hpp"
#include "solver/handle.hpp"
#include "solver/interface.hpp"
#include "solver/vector_ops.hpp"
#include "test_utils.hpp"

namespace parmis {
namespace {

/// Thread configurations swept by every test here.
std::vector<std::pair<par::Backend, int>> configs() {
  std::vector<std::pair<par::Backend, int>> c;
  c.emplace_back(par::Backend::Serial, 1);
#ifdef PARMIS_HAVE_OPENMP
  c.emplace_back(par::Backend::OpenMP, 1);
  c.emplace_back(par::Backend::OpenMP, 3);
  c.emplace_back(par::Backend::OpenMP, 8);
  c.emplace_back(par::Backend::OpenMP, 0);  // all hardware threads
#endif
  return c;
}

/// Run `f()` under every config and require identical results.
template <typename F>
void expect_invariant(F&& f) {
  using result_t = decltype(f());
  bool first = true;
  result_t reference{};
  for (const auto& [backend, threads] : configs()) {
    par::ScopedExecution scope(backend, threads);
    result_t r = f();
    if (first) {
      reference = std::move(r);
      first = false;
    } else {
      EXPECT_EQ(reference, r) << "backend=" << static_cast<int>(backend)
                              << " threads=" << threads;
    }
  }
}

const graph::CrsGraph& mesh_graph() {
  static const graph::CrsGraph g = test::adjacency_of(graph::laplace3d(14, 14, 14));
  return g;
}

const graph::CrsGraph& rgg_graph() {
  static const graph::CrsGraph g = graph::random_geometric_3d(6000, 18.0, 2024);
  return g;
}

/// Backend × thread-count × schedule contexts swept by the schedule tests.
/// Dynamic is deliberately absent: it is the documented opt-out from the
/// determinism contract (see par::Schedule).
std::vector<Context> schedule_contexts() {
  std::vector<Context> ctxs;
  for (const par::Schedule s : {par::Schedule::Static, par::Schedule::EdgeBalanced}) {
    for (const auto& [backend, threads] : configs()) {
      Context ctx;
      ctx.backend = backend;
      ctx.num_threads = threads;
      ctx.schedule = s;
      ctxs.push_back(ctx);
    }
  }
  return ctxs;
}

TEST(Determinism, Mis2Members) {
  expect_invariant([] { return core::mis2(mesh_graph()).members; });
  expect_invariant([] { return core::mis2(rgg_graph()).members; });

  // Masked runs (Algorithm 3's phase 2) under every schedule too; the RGG's
  // average degree puts them on the SIMD loops.
  const std::vector<char> active = test::random_mask(rgg_graph().num_rows, 0.5, 2024);
  std::uint64_t reference = 0;
  bool first = true;
  for (const Context& ctx : schedule_contexts()) {
    core::Mis2Handle handle(ctx);
    const std::uint64_t d = check::digest(handle.run_masked(rgg_graph(), active).members);
    if (first) {
      reference = d;
      first = false;
    } else {
      EXPECT_EQ(check::digest_hex(d), check::digest_hex(reference))
          << "masked schedule=" << static_cast<int>(ctx.schedule)
          << " backend=" << static_cast<int>(ctx.backend) << " threads=" << ctx.num_threads;
    }
  }
}

TEST(Determinism, Mis2Iterations) {
  expect_invariant([] { return core::mis2(rgg_graph()).iterations; });
}

TEST(Determinism, BellMisk) {
  expect_invariant([] { return core::bell_misk(rgg_graph(), 2).members; });
}

TEST(Determinism, LubyMis1) {
  expect_invariant([] { return core::luby_mis1(rgg_graph()).members; });
}

TEST(Determinism, AggregationLabels) {
  expect_invariant([] { return core::aggregate_mis2(mesh_graph()).labels; });
  expect_invariant([] { return core::aggregate_basic(rgg_graph()).labels; });
}

TEST(Determinism, CoarseGraphStructure) {
  expect_invariant([] {
    const core::Aggregation agg = core::aggregate_mis2(mesh_graph());
    const graph::CrsGraph c = core::coarse_graph(mesh_graph(), agg);
    return std::make_pair(c.row_map, c.entries);
  });
}

TEST(Determinism, D1D2Colorings) {
  expect_invariant([] { return coloring::parallel_d1_coloring(rgg_graph()).colors; });
  expect_invariant([] { return coloring::parallel_d2_coloring(mesh_graph()).colors; });
}

TEST(Determinism, SurrogateBuilders) {
  expect_invariant([] {
    const graph::CrsMatrix m = graph::experiment_matrices().find("Geo_1438").build(0.005);
    return std::make_pair(m.row_map, m.entries);
  });
}

TEST(Determinism, AmgIterationCounts) {
  expect_invariant([] {
    const graph::CrsMatrix a = graph::laplace3d(10, 10, 10);
    solver::SolveHandle h("cg", "amg");
    solver::set_aggregation_scheme(h.prec_options().amg.hierarchy,
                                   solver::AggregationScheme::Mis2Agg);
    const std::vector<scalar_t> b = solver::random_vector(a.num_rows, 5);
    std::vector<scalar_t> x(static_cast<std::size_t>(a.num_rows), 0);
    solver::IterOptions cg_opts;
    cg_opts.tolerance = 1e-10;
    cg_opts.max_iterations = 200;
    return h.solve(a, b, x, cg_opts).iterations;
  });
}

TEST(Determinism, SchedulesAcrossRegisteredCoarseners) {
  // Every registered coarsener must produce one bit-identical labeling
  // across Serial/OpenMP, any thread count, and the Static/EdgeBalanced
  // schedules — the schedule knob selects work placement, never results.
  const graph::CrsGraph& skew = [] {
    static const graph::CrsGraph g = graph::power_law_graph(4000, 2.2, 3, 400, 5);
    return g;
  }();
  for (const core::CoarsenerSpec& spec : core::coarseners().specs()) {
    // One 64-bit check::digest per configuration carries the bit-identity
    // evidence; hex digests in the failure message diff across machines.
    std::uint64_t reference = 0;
    bool first = true;
    for (const Context& ctx : schedule_contexts()) {
      core::CoarsenHandle handle(ctx);
      const std::unique_ptr<core::Coarsener> c = spec.make();
      const std::uint64_t d = check::digest(c->run(skew, {}, handle).labels);
      if (first) {
        reference = d;
        first = false;
      } else {
        EXPECT_EQ(check::digest_hex(d), check::digest_hex(reference))
            << spec.name << " schedule=" << static_cast<int>(ctx.schedule)
            << " backend=" << static_cast<int>(ctx.backend) << " threads=" << ctx.num_threads;
      }
    }
  }
}

TEST(Determinism, SchedulesAcrossRegisteredPartitioners) {
  const partition::WeightedGraph wg =
      partition::WeightedGraph::unit(graph::power_law_graph(2500, 2.3, 3, 250, 17));
  const ordinal_t k = 4;
  for (const partition::PartitionerSpec& spec : partition::partitioners().specs()) {
    std::uint64_t reference = 0;
    bool first = true;
    for (const Context& ctx : schedule_contexts()) {
      Context::Scope scope(ctx);
      const std::uint64_t d = check::digest(spec.make()->run(wg, k).part);
      if (first) {
        reference = d;
        first = false;
      } else {
        EXPECT_EQ(check::digest_hex(d), check::digest_hex(reference))
            << spec.name << " schedule=" << static_cast<int>(ctx.schedule)
            << " backend=" << static_cast<int>(ctx.backend) << " threads=" << ctx.num_threads;
      }
    }
  }
}

TEST(Determinism, SchedulesAcrossBuilderHierarchies) {
  // Builder hierarchies — all three contraction modes — must be
  // bit-identical across Serial/OpenMP, any thread count, and the
  // Static/EdgeBalanced schedules, for every registered coarsener.
  const graph::CrsGraph skew = graph::power_law_graph(3000, 2.3, 3, 300, 23);
  const multilevel::WeightedGraph wskew = multilevel::WeightedGraph::unit(skew);
  const graph::CrsMatrix a = graph::laplacian_matrix(skew, 1.0);
  for (const core::CoarsenerSpec& spec : core::coarseners().specs()) {
    std::uint64_t ref_labels = 0;
    std::uint64_t ref_wlabels = 0;
    std::uint64_t ref_values = 0;
    bool first = true;
    for (const Context& ctx : schedule_contexts()) {
      multilevel::Options mo;
      mo.coarsener = spec.name;
      mo.min_coarse_size = 100;
      mo.complexity_cap = 10.0;
      mo.ctx = ctx;
      const multilevel::Builder builder(mo);
      multilevel::HierarchyHandle h;

      // Per-level digests folded order-sensitively into one word per mode;
      // the levels can't reorder without changing the fold.
      std::uint64_t labels = check::kFnvBasis;
      for (const multilevel::Step& s : builder.build(skew, h)) {
        labels = check::digest_combine(labels, check::digest(s.aggregation.labels));
      }
      std::uint64_t wlabels = check::kFnvBasis;
      for (const multilevel::Step& s : builder.build_weighted(wskew, h)) {
        wlabels = check::digest_combine(wlabels, check::digest(s.aggregation.labels));
      }
      std::uint64_t values = check::kFnvBasis;
      for (const multilevel::OperatorLevel& l : builder.build_galerkin(a, h)) {
        values = check::digest_combine(values, check::digest(l.a.values));
      }
      if (first) {
        ref_labels = labels;
        ref_wlabels = wlabels;
        ref_values = values;
        first = false;
      } else {
        EXPECT_EQ(check::digest_hex(labels), check::digest_hex(ref_labels))
            << spec.name << " topology schedule=" << static_cast<int>(ctx.schedule)
            << " backend=" << static_cast<int>(ctx.backend) << " threads=" << ctx.num_threads;
        EXPECT_EQ(check::digest_hex(wlabels), check::digest_hex(ref_wlabels))
            << spec.name << " weighted";
        EXPECT_EQ(check::digest_hex(values), check::digest_hex(ref_values))
            << spec.name << " galerkin";
      }
    }
  }
}

TEST(Determinism, SchedulesAcrossSolverStack) {
  // Every registered solver × preconditioner pair must produce one
  // bit-identical solution vector and iteration count across
  // Serial/OpenMP, any thread count, and the Static/EdgeBalanced
  // schedules — the solver-stack extension of the paper's headline
  // property (Krylov reductions are fixed-order, aggregation/coloring
  // setup is deterministic, so the whole stack is).
  const graph::CrsMatrix a =
      graph::laplacian_matrix(test::adjacency_of(graph::laplace3d(8, 8, 8)), 1.0);
  const std::vector<scalar_t> b = solver::random_vector(a.num_rows, 33);
  solver::IterOptions opts;
  opts.tolerance = 1e-8;
  opts.max_iterations = 200;

  for (const solver::SolverSpec& sspec : solver::solvers().specs()) {
    for (const solver::PreconditionerSpec& pspec : solver::preconditioners().specs()) {
      std::uint64_t reference = 0;
      int reference_iters = 0;
      bool first = true;
      for (const Context& ctx : schedule_contexts()) {
        solver::SolveHandle handle(sspec.name, pspec.name, ctx);
        handle.prec_options().amg.hierarchy.min_coarse_size = 200;
        std::vector<scalar_t> x(static_cast<std::size_t>(a.num_rows), 0);
        const solver::IterResult& r = handle.solve(a, b, x, opts);
        const std::uint64_t d = check::digest(x);
        if (first) {
          reference = d;
          reference_iters = r.iterations;
          first = false;
        } else {
          EXPECT_EQ(check::digest_hex(d), check::digest_hex(reference))
              << sspec.name << "+" << pspec.name << " schedule=" << static_cast<int>(ctx.schedule)
              << " backend=" << static_cast<int>(ctx.backend) << " threads=" << ctx.num_threads;
          EXPECT_EQ(r.iterations, reference_iters) << sspec.name << "+" << pspec.name;
        }
      }
    }
  }
}

TEST(Determinism, RepeatedRunsIdenticalWithinConfig) {
  // Same-config repeatability (paper: "identical result ... across several
  // runs in the same architecture").
  par::ScopedExecution scope(par::Backend::OpenMP, 0);
  const auto a = core::mis2(rgg_graph());
  for (int rep = 0; rep < 5; ++rep) {
    const auto b = core::mis2(rgg_graph());
    EXPECT_EQ(a.members, b.members);
    EXPECT_EQ(a.iterations, b.iterations);
  }
}

}  // namespace
}  // namespace parmis
