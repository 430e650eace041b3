/// \file micro_kernels.cpp
/// \brief google-benchmark microbenchmarks for the primitives the paper's
/// cost analysis (§IV) charges: prefix sums, worklist compaction, the hash
/// generators, tuple packing, SpMV/SpGEMM (including the dense coarse
/// Galerkin products of a power-law AMG level), small end-to-end MIS-2, and the
/// warm-vs-cold handle-reuse comparison (the zero-allocation contract).

#include <benchmark/benchmark.h>

#include <string>
#include <vector>

#include "core/aggregation.hpp"
#include "core/coarsen.hpp"
#include "core/mis2.hpp"
#include "core/status_tuple.hpp"
#include "graph/generators.hpp"
#include "graph/ops.hpp"
#include "graph/rgg.hpp"
#include "graph/spgemm.hpp"
#include "graph/spmv.hpp"
#include "multilevel/builder.hpp"
#include "parallel/parallel_scan.hpp"
#include "random/hash.hpp"

namespace {

using namespace parmis;

void BM_exclusive_scan(benchmark::State& state) {
  const std::int64_t n = state.range(0);
  std::vector<std::int64_t> data(static_cast<std::size_t>(n), 1);
  for (auto _ : state) {
    std::vector<std::int64_t> copy = data;
    benchmark::DoNotOptimize(par::exclusive_scan_inplace(std::span<std::int64_t>(copy)));
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_exclusive_scan)->Arg(1 << 14)->Arg(1 << 20);

void BM_compact(benchmark::State& state) {
  const ordinal_t n = static_cast<ordinal_t>(state.range(0));
  std::vector<ordinal_t> out;
  for (auto _ : state) {
    par::compact_into(
        n, [](ordinal_t i) { return (i & 3) == 0; }, [](ordinal_t i) { return i; }, out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_compact)->Arg(1 << 20);

void BM_hash_xorshift_star(benchmark::State& state) {
  std::uint64_t acc = 0, i = 0;
  for (auto _ : state) {
    acc ^= rng::hash_xorshift_star(7, i++);
  }
  benchmark::DoNotOptimize(acc);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_hash_xorshift_star);

void BM_tuple_pack(benchmark::State& state) {
  const core::TupleCodec<> codec(1000000);
  std::uint64_t i = 0;
  std::uint32_t acc = 0;
  for (auto _ : state) {
    acc ^= codec.pack(rng::xorshift64star(i), static_cast<ordinal_t>(i % 1000000));
    ++i;
  }
  benchmark::DoNotOptimize(acc);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_tuple_pack);

void BM_spmv_laplace3d(benchmark::State& state) {
  const ordinal_t side = static_cast<ordinal_t>(state.range(0));
  const graph::CrsMatrix a = graph::laplace3d(side, side, side);
  std::vector<scalar_t> x(static_cast<std::size_t>(a.num_rows), 1.0);
  std::vector<scalar_t> y(x.size());
  for (auto _ : state) {
    graph::spmv(a, x, y);
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(state.iterations() * a.num_entries());
}
BENCHMARK(BM_spmv_laplace3d)->Arg(32)->Arg(64);

void BM_spgemm_square(benchmark::State& state) {
  const ordinal_t side = static_cast<ordinal_t>(state.range(0));
  const graph::CrsMatrix a = graph::laplace2d(side, side);
  for (auto _ : state) {
    benchmark::DoNotOptimize(graph::spgemm(a, a));
  }
}
BENCHMARK(BM_spgemm_square)->Arg(64)->Arg(128);

// The Galerkin products of the power-law 10k operator's first AMG level
// (`gen:powerlaw:10000`): A·P has 10k sparse rows, R·(A·P) a few hundred
// fully dense ones that carry most of the level's flops. Arg 0 picks the
// product (0 = A·P, 1 = R·(A·P)), arg 1 cold `spgemm` (0) or the warm
// value-only `spgemm_numeric` replay (1).
void BM_galerkin_dense_coarse(benchmark::State& state) {
  static const graph::CrsMatrix a = graph::laplacian_matrix(
      graph::power_law_graph(10000, 2.2, 4, 166, 42), 1.0);
  static const std::vector<multilevel::OperatorLevel> ops = [] {
    multilevel::HierarchyHandle h;
    return multilevel::Builder().build_galerkin(a, h);
  }();
  static const graph::CrsMatrix ap = graph::spgemm(ops[0].a, ops[0].p);
  const bool coarse = state.range(0) == 1;
  const graph::CrsMatrix& left = coarse ? ops[0].r : ops[0].a;
  const graph::CrsMatrix& right = coarse ? ap : ops[0].p;
  graph::CrsMatrix c = graph::spgemm(left, right);
  if (state.range(1) == 0) {
    for (auto _ : state) benchmark::DoNotOptimize(graph::spgemm(left, right));
  } else {
    for (auto _ : state) {
      graph::spgemm_numeric(left, right, c);
      benchmark::DoNotOptimize(c.values.data());
      benchmark::ClobberMemory();
    }
  }
  state.SetLabel(std::string(coarse ? "R*(A*P)" : "A*P") +
                 (state.range(1) == 0 ? " cold" : " replay"));
}
BENCHMARK(BM_galerkin_dense_coarse)
    ->Args({0, 0})
    ->Args({0, 1})
    ->Args({1, 0})
    ->Args({1, 1})
    ->Unit(benchmark::kMillisecond);

void BM_mis2_rgg(benchmark::State& state) {
  const ordinal_t n = static_cast<ordinal_t>(state.range(0));
  const graph::CrsGraph g = graph::random_geometric_3d(n, 16.0, 5);
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::mis2(g));
  }
  state.SetItemsProcessed(state.iterations() * g.num_entries());
}
BENCHMARK(BM_mis2_rgg)->Arg(1 << 14)->Arg(1 << 17);

void BM_mis2_laplace3d(benchmark::State& state) {
  const ordinal_t side = static_cast<ordinal_t>(state.range(0));
  const graph::CrsGraph g =
      graph::remove_self_loops(graph::GraphView(graph::laplace3d(side, side, side)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::mis2(g));
  }
  state.SetItemsProcessed(state.iterations() * g.num_entries());
}
BENCHMARK(BM_mis2_laplace3d)->Arg(32)->Arg(64);

// --- Warm vs cold handle reuse ------------------------------------------
//
// The Context/handle API exists so repeated invocations (a multilevel
// hierarchy, AMG setup, a high-traffic service) stop paying the scratch
// allocation + first-touch cost on every call. These pairs quantify the
// saving: "cold" constructs a fresh handle per run (the old free-function
// behavior), "warm" reuses one handle whose scratch capacity is stable.

void BM_mis2_handle_cold(benchmark::State& state) {
  const ordinal_t n = static_cast<ordinal_t>(state.range(0));
  const graph::CrsGraph g = graph::random_geometric_3d(n, 16.0, 5);
  for (auto _ : state) {
    core::Mis2Handle handle;
    benchmark::DoNotOptimize(handle.run(g));
  }
  state.SetItemsProcessed(state.iterations() * g.num_entries());
}
BENCHMARK(BM_mis2_handle_cold)->Arg(1 << 14)->Arg(1 << 17);

void BM_mis2_handle_warm(benchmark::State& state) {
  const ordinal_t n = static_cast<ordinal_t>(state.range(0));
  const graph::CrsGraph g = graph::random_geometric_3d(n, 16.0, 5);
  core::Mis2Handle handle;
  handle.run(g);  // prime the scratch
  for (auto _ : state) {
    benchmark::DoNotOptimize(handle.run(g));
  }
  state.SetItemsProcessed(state.iterations() * g.num_entries());
}
BENCHMARK(BM_mis2_handle_warm)->Arg(1 << 14)->Arg(1 << 17);

void BM_aggregate_handle_cold(benchmark::State& state) {
  const ordinal_t n = static_cast<ordinal_t>(state.range(0));
  const graph::CrsGraph g = graph::random_geometric_3d(n, 16.0, 5);
  for (auto _ : state) {
    core::CoarsenHandle handle;
    benchmark::DoNotOptimize(handle.aggregate_mis2(g));
  }
  state.SetItemsProcessed(state.iterations() * g.num_entries());
}
BENCHMARK(BM_aggregate_handle_cold)->Arg(1 << 14)->Arg(1 << 17);

void BM_aggregate_handle_warm(benchmark::State& state) {
  const ordinal_t n = static_cast<ordinal_t>(state.range(0));
  const graph::CrsGraph g = graph::random_geometric_3d(n, 16.0, 5);
  core::CoarsenHandle handle;
  handle.aggregate_mis2(g);  // prime the scratch
  for (auto _ : state) {
    benchmark::DoNotOptimize(handle.aggregate_mis2(g));
  }
  state.SetItemsProcessed(state.iterations() * g.num_entries());
}
BENCHMARK(BM_aggregate_handle_warm)->Arg(1 << 14)->Arg(1 << 17);

// Quotient-graph contraction alone: aggregate once, contract in the loop.
void BM_coarse_graph_rgg(benchmark::State& state) {
  const ordinal_t n = static_cast<ordinal_t>(state.range(0));
  const graph::CrsGraph g = graph::random_geometric_3d(n, 16.0, 5);
  core::CoarsenHandle handle;
  const core::Aggregation& agg = handle.aggregate_mis2(g);
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::coarse_graph(g, agg));
  }
  state.SetItemsProcessed(state.iterations() * g.num_entries());
}
BENCHMARK(BM_coarse_graph_rgg)->Arg(1 << 14)->Arg(1 << 17);

// Full multilevel hierarchies with one handle across all levels vs a fresh
// handle per build — the hierarchy case the redesign targets.
void BM_multilevel_handle_cold(benchmark::State& state) {
  const graph::CrsGraph g = graph::random_geometric_3d(1 << 15, 16.0, 5);
  const multilevel::Builder builder;
  for (auto _ : state) {
    multilevel::HierarchyHandle handle;
    benchmark::DoNotOptimize(builder.build(g, handle));
  }
  state.SetItemsProcessed(state.iterations() * g.num_entries());
}
BENCHMARK(BM_multilevel_handle_cold);

void BM_multilevel_handle_warm(benchmark::State& state) {
  const graph::CrsGraph g = graph::random_geometric_3d(1 << 15, 16.0, 5);
  const multilevel::Builder builder;
  multilevel::HierarchyHandle handle;
  benchmark::DoNotOptimize(builder.build(g, handle));  // prime
  for (auto _ : state) {
    benchmark::DoNotOptimize(builder.build(g, handle));
  }
  state.SetItemsProcessed(state.iterations() * g.num_entries());
}
BENCHMARK(BM_multilevel_handle_warm);

}  // namespace
