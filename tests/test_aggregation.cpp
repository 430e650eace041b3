/// \file test_aggregation.cpp
/// \brief Tests for Algorithms 2 and 3, coarse graphs, and the multilevel
/// driver.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "core/aggregation.hpp"
#include "core/coarsen.hpp"
#include "core/coarsener.hpp"
#include "core/verify.hpp"
#include "graph/generators.hpp"
#include "graph/ops.hpp"
#include "graph/rgg.hpp"
#include "multilevel/builder.hpp"
#include "multilevel/weighted.hpp"
#include "parallel/context.hpp"
#include "parallel/execution.hpp"
#include "random/hash.hpp"
#include "test_utils.hpp"

namespace parmis::core {
namespace {

using test::NamedGraph;

TEST(AggregateBasic, TotalAndValidOnFamily) {
  for (const NamedGraph& ng : test::test_graph_family()) {
    if (ng.g.num_rows == 0) continue;
    const Aggregation agg = aggregate_basic(ng.g);
    EXPECT_TRUE(verify_aggregation(ng.g, agg)) << ng.name;
    EXPECT_GT(agg.num_aggregates, 0) << ng.name;
  }
}

TEST(AggregateMis2, TotalAndValidOnFamily) {
  for (const NamedGraph& ng : test::test_graph_family()) {
    if (ng.g.num_rows == 0) continue;
    const Aggregation agg = aggregate_mis2(ng.g);
    EXPECT_TRUE(verify_aggregation(ng.g, agg)) << ng.name;
  }
}

TEST(AggregateBasic, RootsFormValidMis2) {
  const graph::CrsGraph g = test::adjacency_of(graph::laplace2d(20, 20));
  const Aggregation agg = aggregate_basic(g);
  std::vector<char> in_set(static_cast<std::size_t>(g.num_rows), 0);
  for (ordinal_t a = 0; a < agg.num_aggregates; ++a) {
    in_set[static_cast<std::size_t>(agg.roots[static_cast<std::size_t>(a)])] = 1;
  }
  EXPECT_TRUE(verify_mis2(g, in_set));
}

TEST(AggregateMis2, Phase1RootsAreMis2Phase2RootsAreNot) {
  const graph::CrsGraph g = test::adjacency_of(graph::laplace3d(8, 8, 8));
  const Aggregation agg = aggregate_mis2(g);
  // Phase-1 roots (the leading block) must be distance-2 independent.
  std::vector<char> p1(static_cast<std::size_t>(g.num_rows), 0);
  ordinal_t phase1_count = 0;
  {
    const Mis2Result direct = mis2(g);  // same options => same MIS-2
    phase1_count = direct.set_size();
    for (ordinal_t i = 0; i < phase1_count; ++i) {
      EXPECT_EQ(agg.roots[static_cast<std::size_t>(i)], direct.members[static_cast<std::size_t>(i)]);
      p1[static_cast<std::size_t>(agg.roots[static_cast<std::size_t>(i)])] = 1;
    }
  }
  EXPECT_TRUE(is_distance_k_independent(g, p1, 2));
  // Phase-2 roots exist on meshes (leftover pockets are common).
  EXPECT_GE(static_cast<ordinal_t>(agg.roots.size()), phase1_count);
}

TEST(AggregateMis2, SecondaryAggregatesHaveAtLeastThreeVertices) {
  // Phase-2 roots are only accepted with >= 2 unaggregated neighbors, so
  // every secondary aggregate starts with >= 3 members and can only grow
  // in cleanup.
  const graph::CrsGraph g = test::adjacency_of(graph::laplace3d(9, 9, 9));
  const Aggregation agg = aggregate_mis2(g);
  const Mis2Result phase1 = mis2(g);
  std::vector<ordinal_t> size(static_cast<std::size_t>(agg.num_aggregates), 0);
  for (ordinal_t a : agg.labels) ++size[static_cast<std::size_t>(a)];
  for (ordinal_t a = phase1.set_size(); a < agg.num_aggregates; ++a) {
    EXPECT_GE(size[static_cast<std::size_t>(a)], 3) << "secondary aggregate " << a;
  }
}

TEST(AggregateMis2, DeterministicAcrossThreads) {
  const graph::CrsGraph g = graph::random_geometric_3d(5000, 14.0, 11);
  Aggregation serial_agg, parallel_agg;
  {
    par::ScopedExecution scope(par::Backend::Serial, 1);
    serial_agg = aggregate_mis2(g);
  }
  {
    par::ScopedExecution scope(par::Backend::OpenMP, 0);
    parallel_agg = aggregate_mis2(g);
  }
  EXPECT_EQ(serial_agg.labels, parallel_agg.labels);
  EXPECT_EQ(serial_agg.roots, parallel_agg.roots);
}

TEST(AggregateBasic, DeterministicAcrossThreads) {
  const graph::CrsGraph g = graph::random_geometric_3d(5000, 14.0, 12);
  Aggregation serial_agg, parallel_agg;
  {
    par::ScopedExecution scope(par::Backend::Serial, 1);
    serial_agg = aggregate_basic(g);
  }
  {
    par::ScopedExecution scope(par::Backend::OpenMP, 0);
    parallel_agg = aggregate_basic(g);
  }
  EXPECT_EQ(serial_agg.labels, parallel_agg.labels);
}

TEST(AggregateMis2, CleanupPrefersStrongerCoupling) {
  // Build a graph where a leftover vertex x has 1 edge into aggregate A's
  // territory and 2 edges into B's: x must join B.
  //
  //   A-root: 0 with neighbors 1,2      B-root: 10 with neighbors 11,12,13
  //   x = 20 connects to {1} and {11,12}.
  // To force 0 and 10 to be phase-1 roots use a long separating path.
  std::vector<graph::Edge> e{{0, 1}, {0, 2}, {10, 11}, {10, 12}, {10, 13},
                             {20, 1}, {20, 11}, {20, 12},
                             // path keeping 0 and 10 > distance 2 apart
                             {2, 30}, {30, 31}, {31, 13}};
  const graph::CrsGraph g = graph::graph_from_edges(32, e);
  const Aggregation agg = aggregate_mis2(g);
  EXPECT_TRUE(verify_aggregation(g, agg));
  // Whatever ids A and B got, x (=20) must share a label with 11 and 12
  // if they are together, since coupling(B)=2 > coupling(A)=1 — unless x
  // was already absorbed in an earlier phase (then it has >=1 of them as
  // a co-member anyway). Check the coupling rule only when x was a
  // cleanup vertex: x's label must equal the label of 11/12 when those
  // two agree and differ from 1's label.
  const ordinal_t lx = agg.labels[20], l11 = agg.labels[11], l12 = agg.labels[12];
  const ordinal_t l1 = agg.labels[1];
  if (l11 == l12 && l11 != l1) {
    EXPECT_EQ(lx, l11);
  }
}

TEST(AggregationStats, SizesAddUp) {
  const graph::CrsGraph g = test::adjacency_of(graph::laplace2d(30, 30));
  const Aggregation agg = aggregate_mis2(g);
  const AggregationStats s = aggregation_stats(agg);
  EXPECT_EQ(s.num_aggregates, agg.num_aggregates);
  EXPECT_GE(s.min_size, 1);
  EXPECT_LE(s.min_size, s.max_size);
  EXPECT_NEAR(s.avg_size * agg.num_aggregates, static_cast<double>(g.num_rows), 1e-9);
}

TEST(VerifyAggregation, CatchesBrokenLabelings) {
  const graph::CrsGraph g = test::path_graph(6);
  Aggregation agg = aggregate_basic(g);
  ASSERT_TRUE(verify_aggregation(g, agg));

  Aggregation out_of_range = agg;
  out_of_range.labels[0] = agg.num_aggregates + 5;
  EXPECT_FALSE(verify_aggregation(g, out_of_range));

  Aggregation bad_root = agg;
  if (bad_root.num_aggregates >= 2) {
    std::swap(bad_root.roots[0], bad_root.roots[1]);
    EXPECT_FALSE(verify_aggregation(g, bad_root));
  }
}

TEST(VerifyAggregation, CatchesDisconnectedAggregates) {
  // Label two far-apart path vertices into the same aggregate.
  const graph::CrsGraph g = test::path_graph(8);
  Aggregation agg;
  agg.num_aggregates = 2;
  agg.roots = {0, 4};
  agg.labels = {0, 0, 1, 1, 1, 1, 1, 0};  // vertex 7 disconnected from root 0
  EXPECT_FALSE(verify_aggregation(g, agg));
}

TEST(CoarseGraph, QuotientOfGridIsMeshLike) {
  const graph::CrsGraph g = test::adjacency_of(graph::laplace2d(16, 16));
  const Aggregation agg = aggregate_mis2(g);
  const graph::CrsGraph c = coarse_graph(g, agg);
  EXPECT_EQ(c.num_rows, agg.num_aggregates);
  EXPECT_TRUE(c.validate());
  EXPECT_TRUE(graph::is_symmetric(c));
  EXPECT_FALSE(graph::has_self_loops(c));
  // Coarse edges must correspond to at least one fine cross edge.
  for (ordinal_t a = 0; a < c.num_rows; ++a) {
    for (ordinal_t b : c.row(a)) {
      bool found = false;
      for (ordinal_t v = 0; v < g.num_rows && !found; ++v) {
        if (agg.labels[static_cast<std::size_t>(v)] != a) continue;
        for (ordinal_t w : g.row(v)) {
          if (agg.labels[static_cast<std::size_t>(w)] == b) {
            found = true;
            break;
          }
        }
      }
      EXPECT_TRUE(found) << "phantom coarse edge " << a << "-" << b;
    }
  }
}

TEST(CoarseGraph, CompleteCrossEdgeCoverage) {
  // Converse of the above: every fine cross edge appears in the quotient.
  const graph::CrsGraph g = test::er_graph(150, 0.04, 55);
  const Aggregation agg = aggregate_basic(g);
  const graph::CrsGraph c = coarse_graph(g, agg);
  for (ordinal_t v = 0; v < g.num_rows; ++v) {
    for (ordinal_t w : g.row(v)) {
      const ordinal_t a = agg.labels[static_cast<std::size_t>(v)];
      const ordinal_t b = agg.labels[static_cast<std::size_t>(w)];
      if (a == b) continue;
      auto row = c.row(a);
      EXPECT_TRUE(std::binary_search(row.begin(), row.end(), b))
          << "missing coarse edge " << a << "-" << b;
    }
  }
}

/// Serial quotient graph through `std::set`, independent of the library's
/// contraction: one row per aggregate, every foreign label of a member's
/// neighbor once, ascending.
graph::CrsGraph set_quotient(const graph::CrsGraph& g, const Aggregation& agg) {
  std::vector<std::set<ordinal_t>> rows(static_cast<std::size_t>(agg.num_aggregates));
  for (ordinal_t v = 0; v < g.num_rows; ++v) {
    const ordinal_t a = agg.labels[static_cast<std::size_t>(v)];
    for (ordinal_t w : g.row(v)) {
      const ordinal_t b = agg.labels[static_cast<std::size_t>(w)];
      if (b != a) rows[static_cast<std::size_t>(a)].insert(b);
    }
  }
  graph::CrsGraph c;
  c.num_rows = c.num_cols = agg.num_aggregates;
  c.row_map.assign(1, 0);
  for (const std::set<ordinal_t>& row : rows) {
    c.entries.insert(c.entries.end(), row.begin(), row.end());
    c.row_map.push_back(static_cast<offset_t>(c.entries.size()));
  }
  return c;
}

/// `g` with `extra` isolated vertices appended.
graph::CrsGraph with_isolated(const graph::CrsGraph& g, ordinal_t extra) {
  graph::CrsGraph h = g;
  h.num_rows = h.num_cols = g.num_rows + extra;
  h.row_map.resize(static_cast<std::size_t>(h.num_rows) + 1, g.row_map.back());
  return h;
}

/// Two disjoint copies of `g`.
graph::CrsGraph two_copies(const graph::CrsGraph& g) {
  graph::CrsGraph h;
  h.num_rows = h.num_cols = 2 * g.num_rows;
  h.row_map = g.row_map;
  h.entries = g.entries;
  for (ordinal_t v = 0; v < g.num_rows; ++v) {
    h.row_map.push_back(g.num_entries() + g.row_map[static_cast<std::size_t>(v) + 1]);
  }
  for (ordinal_t w : g.entries) h.entries.push_back(w + g.num_rows);
  return h;
}

/// Unweighted contraction against `set_quotient`, and weighted contraction
/// against `test::map_quotient` under unit weights and under random
/// symmetric weights.
TEST(CoarseGraph, MatchesSetReferenceOnEveryConfig) {
  const std::vector<test::NamedGraph> inputs = {
      {"rgg", graph::random_geometric_3d(6000, 18.0, 3)},
      {"powerlaw", graph::power_law_graph(6000, 2.2, 3, 1500, 5)},
      {"laplace2d", test::adjacency_of(graph::laplace2d(70, 70))},
      {"er", test::er_graph(3000, 0.003, 9)},
      {"star", test::star_graph(3000)},
      {"isolated", with_isolated(graph::random_geometric_3d(3000, 10.0, 4), 700)},
      {"disconnected", two_copies(test::adjacency_of(graph::laplace2d(40, 40)))},
  };
  std::vector<Context> ctxs = {Context::serial()};
#ifdef PARMIS_HAVE_OPENMP
  for (const int threads : {1, 3, 4}) {
    for (const par::Schedule s :
         {par::Schedule::Static, par::Schedule::EdgeBalanced, par::Schedule::Dynamic}) {
      Context ctx = Context::openmp(threads);
      ctx.schedule = s;
      ctxs.push_back(ctx);
    }
  }
#endif
  for (const test::NamedGraph& in : inputs) {
    CoarsenHandle h(Context::serial());
    std::vector<std::pair<std::string, Aggregation>> aggs;
    aggs.emplace_back("mis2", h.aggregate_mis2(in.g));
    aggs.emplace_back("basic", h.aggregate_basic(in.g));
    aggs.emplace_back("hem", h.aggregate_hem(in.g, {}, 17));
    Aggregation single;
    single.num_aggregates = 1;
    single.labels.assign(static_cast<std::size_t>(in.g.num_rows), 0);
    single.roots = {0};
    aggs.emplace_back("single", single);
    multilevel::WeightedGraph unit = multilevel::WeightedGraph::unit(in.g);
    // Random symmetric weights: a hash of the unordered endpoint pair.
    multilevel::WeightedGraph hashed = unit;
    for (ordinal_t u = 0; u < in.g.num_rows; ++u) {
      for (offset_t j = in.g.row_map[static_cast<std::size_t>(u)];
           j < in.g.row_map[static_cast<std::size_t>(u) + 1]; ++j) {
        const ordinal_t v = in.g.entries[static_cast<std::size_t>(j)];
        hashed.edge_weight[static_cast<std::size_t>(j)] =
            1 + static_cast<ordinal_t>(rng::hash_xorshift_star(
                                           static_cast<std::uint64_t>(std::min(u, v)),
                                           static_cast<std::uint64_t>(std::max(u, v))) %
                                       1000);
      }
    }

    for (const auto& [agg_name, agg] : aggs) {
      const graph::CrsGraph ref = set_quotient(in.g, agg);
      if (agg_name == "single") EXPECT_EQ(ref.num_entries(), 0);
      const multilevel::WeightedGraph unit_ref = test::map_quotient(unit, agg);
      const multilevel::WeightedGraph hashed_ref = test::map_quotient(hashed, agg);
      for (const Context& ctx : ctxs) {
        const Context::Scope scope(ctx);
        const graph::CrsGraph c = coarse_graph(in.g, agg);
        const std::string where = in.name + "/" + agg_name + " backend=" +
                                  std::to_string(static_cast<int>(ctx.backend)) +
                                  " threads=" + std::to_string(ctx.num_threads) +
                                  " schedule=" + std::to_string(static_cast<int>(ctx.schedule));
        EXPECT_EQ(c.num_rows, ref.num_rows) << where;
        EXPECT_EQ(c.num_cols, ref.num_cols) << where;
        EXPECT_EQ(c.row_map, ref.row_map) << where;
        EXPECT_EQ(c.entries, ref.entries) << where;
        for (const auto& [fine, wref] :
             {std::pair{&unit, &unit_ref}, std::pair{&hashed, &hashed_ref}}) {
          std::vector<ordinal_t> weight;
          const graph::CrsGraph cw = coarse_graph(in.g, agg, fine->edge_weight, weight);
          const std::string at = where + (fine == &unit ? " unit" : " hashed");
          EXPECT_EQ(cw.row_map, wref->graph.row_map) << at;
          EXPECT_EQ(cw.entries, wref->graph.entries) << at;
          EXPECT_EQ(weight, wref->edge_weight) << at;
        }
      }
    }
  }
}

TEST(AggregateMembers, CsrPartitionsVertices) {
  const graph::CrsGraph g = test::adjacency_of(graph::laplace2d(12, 12));
  const Aggregation agg = aggregate_mis2(g);
  const AggregateMembers mem = aggregate_members(agg);
  EXPECT_EQ(static_cast<ordinal_t>(mem.members.size()), g.num_rows);
  std::set<ordinal_t> seen;
  for (ordinal_t a = 0; a < agg.num_aggregates; ++a) {
    for (offset_t i = mem.offsets[static_cast<std::size_t>(a)];
         i < mem.offsets[static_cast<std::size_t>(a) + 1]; ++i) {
      const ordinal_t v = mem.members[static_cast<std::size_t>(i)];
      EXPECT_EQ(agg.labels[static_cast<std::size_t>(v)], a);
      EXPECT_TRUE(seen.insert(v).second);
    }
  }
  EXPECT_EQ(static_cast<ordinal_t>(seen.size()), g.num_rows);
}

TEST(Multilevel, CoarsensGridToTarget) {
  const graph::CrsGraph g = test::adjacency_of(graph::laplace2d(40, 40));
  multilevel::Options opts;
  opts.min_coarse_size = 20;
  multilevel::HierarchyHandle h;
  const std::vector<multilevel::Step>& steps = multilevel::Builder(opts).build(g, h);
  ASSERT_FALSE(steps.empty());
  EXPECT_LE(steps.back().coarse.graph.num_rows, 120);  // near target; stall-guarded
  // Sizes strictly decrease.
  ordinal_t prev = g.num_rows;
  for (const multilevel::Step& step : steps) {
    EXPECT_LT(step.coarse.graph.num_rows, prev);
    prev = step.coarse.graph.num_rows;
  }
}

TEST(Multilevel, ProjectionIsConsistent) {
  const graph::CrsGraph g = test::adjacency_of(graph::laplace2d(20, 20));
  multilevel::Options opts;
  opts.min_coarse_size = 10;
  multilevel::HierarchyHandle h;
  const std::vector<multilevel::Step>& steps = multilevel::Builder(opts).build(g, h);
  ASSERT_FALSE(steps.empty());
  const ordinal_t coarse_n = steps.back().coarse.graph.num_rows;
  for (ordinal_t v = 0; v < g.num_rows; ++v) {
    ordinal_t cv = v;
    for (const multilevel::Step& step : steps) {
      cv = step.aggregation.labels[static_cast<std::size_t>(cv)];
    }
    EXPECT_GE(cv, 0);
    EXPECT_LT(cv, coarse_n);
  }
}

TEST(Multilevel, EveryRegisteredCoarsenerWorks) {
  const graph::CrsGraph g = test::adjacency_of(graph::laplace3d(10, 10, 10));
  for (const std::string& name : coarseners().names()) {
    multilevel::Options opts;
    opts.coarsener = name;
    opts.min_coarse_size = 50;
    multilevel::HierarchyHandle h;
    const std::vector<multilevel::Step>& steps = multilevel::Builder(opts).build(g, h);
    EXPECT_FALSE(steps.empty()) << "coarsener=" << name;
    for (std::size_t l = 0; l < steps.size(); ++l) {
      const graph::GraphView fine =
          l == 0 ? graph::GraphView(g) : graph::GraphView(steps[l - 1].coarse.graph);
      EXPECT_TRUE(verify_aggregation(fine, steps[l].aggregation))
          << "coarsener=" << name << " level=" << l;
    }
  }
}

}  // namespace
}  // namespace parmis::core
