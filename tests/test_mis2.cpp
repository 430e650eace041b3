/// \file test_mis2.cpp
/// \brief Validity, determinism, and option-matrix tests for Algorithm 1.

#include <gtest/gtest.h>

#include <tuple>

#include "check/digest.hpp"
#include "core/mis2.hpp"
#include "core/mis_spgemm.hpp"
#include "core/serial_mis2.hpp"
#include "core/verify.hpp"
#include "graph/ops.hpp"
#include "parallel/execution.hpp"
#include "parallel/simd.hpp"
#include "test_utils.hpp"

namespace parmis::core {
namespace {

using test::NamedGraph;

/// All 2x2x2x3 combinations of the four §V optimizations.
std::vector<Mis2Options> option_matrix() {
  std::vector<Mis2Options> out;
  for (PriorityScheme scheme :
       {PriorityScheme::Fixed, PriorityScheme::Xorshift, PriorityScheme::XorshiftStar}) {
    for (bool worklists : {false, true}) {
      for (bool packed : {false, true}) {
        for (bool simd : {false, true}) {
          Mis2Options o;
          o.priority = scheme;
          o.use_worklists = worklists;
          o.packed_tuples = packed;
          o.simd = simd;
          out.push_back(o);
        }
      }
    }
  }
  return out;
}

class Mis2Family : public ::testing::TestWithParam<int> {
 protected:
  static const NamedGraph& graph() {
    static const std::vector<NamedGraph> fam = test::test_graph_family();
    return fam[static_cast<std::size_t>(GetParam())];
  }
};

TEST_P(Mis2Family, DefaultOptionsProduceValidMis2) {
  const NamedGraph& ng = graph();
  const Mis2Result r = mis2(ng.g);
  EXPECT_TRUE(verify_mis2(ng.g, r.in_set)) << ng.name;
  EXPECT_EQ(static_cast<ordinal_t>(r.members.size()),
            std::count(r.in_set.begin(), r.in_set.end(), 1))
      << ng.name;
}

TEST_P(Mis2Family, EveryOptionComboIsValid) {
  const NamedGraph& ng = graph();
  const std::vector<char> active = test::random_mask(ng.g.num_rows, 0.6, 1234);
  for (const Mis2Options& opts : option_matrix()) {
    const Mis2Result r = mis2(ng.g, opts);
    EXPECT_TRUE(verify_mis2(ng.g, r.in_set))
        << ng.name << " scheme=" << static_cast<int>(opts.priority)
        << " wl=" << opts.use_worklists << " packed=" << opts.packed_tuples
        << " simd=" << opts.simd;
    const Mis2Result rm = mis2_masked(ng.g, active, opts);
    EXPECT_TRUE(verify_mis2_masked(ng.g, rm.in_set, active))
        << ng.name << " masked scheme=" << static_cast<int>(opts.priority)
        << " wl=" << opts.use_worklists << " packed=" << opts.packed_tuples
        << " simd=" << opts.simd;
  }
}

TEST_P(Mis2Family, MembersSortedAndConsistent) {
  const NamedGraph& ng = graph();
  const Mis2Result r = mis2(ng.g);
  EXPECT_TRUE(std::is_sorted(r.members.begin(), r.members.end()));
  for (ordinal_t v : r.members) {
    EXPECT_TRUE(r.in_set[static_cast<std::size_t>(v)]);
  }
}

TEST_P(Mis2Family, SeedsChangeButStayValid) {
  const NamedGraph& ng = graph();
  for (std::uint64_t seed : {1ull, 99ull, 0xFFFFFFFFull}) {
    Mis2Options opts;
    opts.seed = seed;
    const Mis2Result r = mis2(ng.g, opts);
    EXPECT_TRUE(verify_mis2(ng.g, r.in_set)) << ng.name << " seed " << seed;
  }
}

TEST_P(Mis2Family, SizeWithinSerialGreedyBand) {
  // MIS-2 sizes from different valid algorithms are close (Table IV shows
  // parity across implementations); enforce a generous 2x band against the
  // serial greedy answer (both are maximal, so neither can be more than
  // the other's domination bound apart — 2x is safely loose for these
  // families).
  const NamedGraph& ng = graph();
  if (ng.g.num_rows == 0) return;
  const Mis2Result parallel_result = mis2(ng.g);
  const Mis2Result greedy = serial_mis2(ng.g);
  EXPECT_LE(parallel_result.set_size(), 2 * std::max<ordinal_t>(1, greedy.set_size())) << ng.name;
  EXPECT_GE(2 * std::max<ordinal_t>(1, parallel_result.set_size()), greedy.set_size()) << ng.name;
}

INSTANTIATE_TEST_SUITE_P(Family, Mis2Family,
                         ::testing::Range(0, static_cast<int>(test::test_graph_family().size())),
                         [](const ::testing::TestParamInfo<int>& info) {
                           static const auto fam = test::test_graph_family();
                           return fam[static_cast<std::size_t>(info.param)].name;
                         });

TEST(Mis2, EmptyGraph) {
  const Mis2Result r = mis2(graph::CrsGraph{});
  EXPECT_EQ(r.set_size(), 0);
  EXPECT_EQ(r.iterations, 0);
}

TEST(Mis2, SingleVertexIsIn) {
  const Mis2Result r = mis2(test::path_graph(1));
  EXPECT_EQ(r.set_size(), 1);
  EXPECT_EQ(r.members[0], 0);
}

TEST(Mis2, IsolatedVerticesAllIn) {
  const Mis2Result r = mis2(graph::graph_from_edges(5, {}));
  EXPECT_EQ(r.set_size(), 5);
}

TEST(Mis2, StarPicksExactlyOne) {
  // Every pair in a star is within distance 2, so the MIS-2 is a single
  // vertex — the case that distinguishes closed-neighborhood semantics.
  for (std::uint64_t seed : {0ull, 1ull, 2ull, 3ull}) {
    Mis2Options opts;
    opts.seed = seed;
    const Mis2Result r = mis2(test::star_graph(20), opts);
    EXPECT_EQ(r.set_size(), 1) << "seed " << seed;
  }
}

TEST(Mis2, CliquePicksExactlyOne) {
  const Mis2Result r = mis2(test::complete_graph(10));
  EXPECT_EQ(r.set_size(), 1);
}

TEST(Mis2, PathDensityBounds) {
  // On a path, MIS-2 members are >= 3 apart but maximality forces one per
  // 5 consecutive vertices.
  const ordinal_t n = 1000;
  const Mis2Result r = mis2(test::path_graph(n));
  EXPECT_TRUE(verify_mis2(test::path_graph(n), r.in_set));
  EXPECT_GE(r.set_size(), n / 5);
  EXPECT_LE(r.set_size(), (n + 2) / 3);
}

TEST(Mis2, MatchesMis1OnSquaredGraph) {
  // Lemma IV.2: any valid MIS-1 of G^2 is a valid MIS-2 of G, and vice
  // versa. Check both directions of the validity (not equality of sets).
  for (const NamedGraph& ng : test::test_graph_family()) {
    if (ng.g.num_rows == 0) continue;
    const graph::CrsGraph g2 = graph::square(ng.g);
    // Direction 1: our MIS-2 must be a valid MIS-1 on G^2.
    const Mis2Result r2 = mis2(ng.g);
    EXPECT_TRUE(verify_mis1(g2, r2.in_set)) << ng.name << " (mis2 as mis1-of-G2)";
    // Direction 2: MIS-1 of G^2 (computed by Luby via mis2_via_squaring)
    // must be a valid MIS-2 on G.
    const Mis2Result r1 = mis2_via_squaring(ng.g);
    EXPECT_TRUE(verify_mis2(ng.g, r1.in_set)) << ng.name << " (mis1-of-G2 as mis2)";
  }
}

TEST(Mis2, DeterministicAcrossRepeats) {
  const graph::CrsGraph g = test::er_graph(300, 0.02, 21);
  const Mis2Result a = mis2(g);
  for (int rep = 0; rep < 3; ++rep) {
    const Mis2Result b = mis2(g);
    EXPECT_EQ(a.members, b.members);
    EXPECT_EQ(a.iterations, b.iterations);
  }
}

TEST(Mis2, DeterministicAcrossThreadCountsAllOptionCombos) {
  const graph::CrsGraph g = graph::random_geometric_3d(4000, 14.0, 99);
  for (const Mis2Options& opts : option_matrix()) {
    Mis2Result serial_r, parallel_r;
    {
      par::ScopedExecution scope(par::Backend::Serial, 1);
      serial_r = mis2(g, opts);
    }
    {
      par::ScopedExecution scope(par::Backend::OpenMP, 0);
      parallel_r = mis2(g, opts);
    }
    EXPECT_EQ(serial_r.members, parallel_r.members)
        << "scheme=" << static_cast<int>(opts.priority) << " wl=" << opts.use_worklists
        << " packed=" << opts.packed_tuples << " simd=" << opts.simd;
    EXPECT_EQ(serial_r.iterations, parallel_r.iterations);
  }
}

TEST(Mis2, WorklistsDoNotChangeResult) {
  // Worklists are a pure performance optimization: with the same priority
  // stream the decided set must be identical.
  const graph::CrsGraph g = graph::random_geometric_3d(3000, 10.0, 5);
  Mis2Options with, without;
  with.use_worklists = true;
  without.use_worklists = false;
  EXPECT_EQ(mis2(g, with).members, mis2(g, without).members);
}

TEST(Mis2, PackedAndWideTuplesAgree) {
  // Packing must not change the comparison order seen by the algorithm —
  // but the *stored priority precision* differs (wide keeps 32 bits,
  // packed keeps 32-b), so only validity and rough size parity are
  // required, not equality.
  const graph::CrsGraph g = graph::random_geometric_3d(3000, 10.0, 6);
  Mis2Options packed, wide;
  packed.packed_tuples = true;
  wide.packed_tuples = false;
  const Mis2Result rp = mis2(g, packed);
  const Mis2Result rw = mis2(g, wide);
  EXPECT_TRUE(verify_mis2(g, rp.in_set));
  EXPECT_TRUE(verify_mis2(g, rw.in_set));
  EXPECT_NEAR(static_cast<double>(rp.set_size()), static_cast<double>(rw.set_size()),
              0.2 * rw.set_size() + 5);
}

TEST(Mis2, SimdMatchesScalarExactly) {
  // SIMD only reorders associative min/count reductions; the decided set
  // must be bit-identical, masked or not. Use a dense graph so the degree
  // heuristic actually enables SIMD.
  const graph::CrsGraph g = graph::random_geometric_3d(3000, 24.0, 7);
  ASSERT_GE(graph::GraphView(g).avg_degree(), par::simd_degree_threshold);
  Mis2Options simd_on, simd_off;
  simd_on.simd = true;
  simd_off.simd = false;
  EXPECT_EQ(mis2(g, simd_on).members, mis2(g, simd_off).members);

  const std::vector<char> active = test::random_mask(g.num_rows, 0.5, 41);
  const Mis2Result on = mis2_masked(g, active, simd_on);
  const Mis2Result off = mis2_masked(g, active, simd_off);
  EXPECT_EQ(on.members, off.members);
  EXPECT_EQ(on.iterations, off.iterations);
}

TEST(Mis2, PrioritySchemeIterationOrdering) {
  // Table I's two robust observations, as reproduced here (see
  // EXPERIMENTS.md): (a) per-iteration xorshift* needs fewer iterations
  // than fixed priorities (dependency chains break); (b) plain xorshift is
  // pathological on high-degree meshes (correlated across iterations).
  const graph::CrsGraph lap = test::adjacency_of(graph::laplace3d(30, 30, 30));
  Mis2Options star, plain, fixed;
  star.priority = PriorityScheme::XorshiftStar;
  plain.priority = PriorityScheme::Xorshift;
  fixed.priority = PriorityScheme::Fixed;
  EXPECT_LT(mis2(lap, star).iterations, mis2(lap, fixed).iterations);

  const graph::CrsGraph ela = test::adjacency_of(graph::elasticity3d(14, 14, 14));
  EXPECT_LT(mis2(ela, star).iterations, mis2(ela, plain).iterations);
}

TEST(Mis2, IterationCountIsLogarithmicInPractice) {
  // Table III: structured problems decide in ~8-12 iterations at 10^5-10^6
  // vertices. Enforce a loose ceiling that still catches stalls.
  const graph::CrsGraph g = test::adjacency_of(graph::laplace3d(40, 40, 40));
  const Mis2Result r = mis2(g);
  EXPECT_LE(r.iterations, 25);
  EXPECT_GE(r.iterations, 2);
}

TEST(Mis2Masked, EmptyMaskMeansNoMembers) {
  const graph::CrsGraph g = test::path_graph(10);
  std::vector<char> active(10, 0);
  const Mis2Result r = mis2_masked(g, active);
  EXPECT_EQ(r.set_size(), 0);
}

TEST(Mis2Masked, FullMaskMatchesUnmasked) {
  const graph::CrsGraph g = test::er_graph(120, 0.05, 31);
  std::vector<char> active(120, 1);
  EXPECT_EQ(mis2_masked(g, active).members, mis2(g).members);
}

TEST(Mis2Masked, PathsThroughInactiveVerticesDoNotCount) {
  // 0-1-2 path with 1 inactive: 0 and 2 are disconnected in the induced
  // subgraph, so both join the set.
  const graph::CrsGraph g = test::path_graph(3);
  std::vector<char> active{1, 0, 1};
  const Mis2Result r = mis2_masked(g, active);
  EXPECT_EQ(r.set_size(), 2);
  EXPECT_TRUE(r.in_set[0]);
  EXPECT_TRUE(r.in_set[2]);
  EXPECT_TRUE(verify_mis2_masked(g, r.in_set, active));
}

TEST(Mis2Masked, ValidOnFamilyWithRandomMasks) {
  for (const NamedGraph& ng : test::test_graph_family()) {
    if (ng.g.num_rows == 0) continue;
    const std::vector<char> active = test::random_mask(ng.g.num_rows, 0.6, 1234);
    const Mis2Result r = mis2_masked(ng.g, active);
    EXPECT_TRUE(verify_mis2_masked(ng.g, r.in_set, active)) << ng.name;
    // Members must be active.
    for (ordinal_t v : r.members) {
      EXPECT_TRUE(active[static_cast<std::size_t>(v)]) << ng.name;
    }
  }
}

TEST(Mis2Masked, AgreesWithExplicitInducedSubgraph) {
  // The masked run must produce a set that is valid on the materialized
  // induced subgraph too (same semantics, two implementations).
  const graph::CrsGraph g = graph::random_geometric_2d(500, 8.0, 77);
  const std::vector<char> active = test::random_mask(500, 0.5, 5);
  const Mis2Result r = mis2_masked(g, active);

  const graph::InducedSubgraph sub = graph::induced_subgraph(g, active);
  std::vector<char> sub_in(static_cast<std::size_t>(sub.graph.num_rows), 0);
  for (ordinal_t sv = 0; sv < sub.graph.num_rows; ++sv) {
    sub_in[static_cast<std::size_t>(sv)] =
        r.in_set[static_cast<std::size_t>(sub.to_original[static_cast<std::size_t>(sv)])];
  }
  EXPECT_TRUE(verify_mis2(sub.graph, sub_in));
}

TEST(Mis2Masked, MembersMatchRecordedDigests) {
  // Pinned digests of the masked members (and round counts) for every
  // option combination: the induced-subgraph result of Algorithm 1 under
  // these priorities, which no change to how the mask is applied may
  // move. Meshes keep the inputs free of floating point; the 27-point one
  // (degree up to 26) runs the SIMD loops where `simd` is on.
  const graph::CrsGraph mesh27 = test::adjacency_of(
      graph::laplace3d(14, 14, 14, graph::Stencil3D::TwentySevenPoint));
  ASSERT_GE(graph::GraphView(mesh27).avg_degree(), par::simd_degree_threshold);
  const std::vector<char> active27 = test::random_mask(mesh27.num_rows, 0.5, 41);
  check::Digest d;
  for (const Mis2Options& opts : option_matrix()) {
    const Mis2Result r = mis2_masked(mesh27, active27, opts);
    EXPECT_TRUE(verify_mis2_masked(mesh27, r.in_set, active27))
        << "scheme=" << static_cast<int>(opts.priority) << " wl=" << opts.use_worklists
        << " packed=" << opts.packed_tuples << " simd=" << opts.simd;
    d.update(std::span<const ordinal_t>(r.members));
    d.update_value(r.iterations);
  }
  EXPECT_EQ(check::digest_hex(d.value()), "0xc9a46841b0b5caf5");

  const graph::CrsGraph mesh7 = test::adjacency_of(graph::laplace3d(16, 16, 16));
  const std::vector<char> active7 = test::random_mask(mesh7.num_rows, 0.4, 3);
  EXPECT_EQ(check::digest_hex(check::digest(mis2_masked(mesh7, active7).members)),
            "0xc1a2e520e762fead");
}

TEST(Verify, RejectsIndependenceViolations) {
  const graph::CrsGraph g = test::path_graph(5);
  std::vector<char> bad{1, 0, 1, 0, 0};  // distance 2 apart
  EXPECT_FALSE(is_distance_k_independent(g, bad, 2));
  EXPECT_TRUE(is_distance_k_independent(g, bad, 1));
}

TEST(Verify, RejectsNonMaximalSets) {
  const graph::CrsGraph g = test::path_graph(9);
  std::vector<char> sparse{1, 0, 0, 0, 0, 0, 0, 0, 0};  // vertex 8 addable
  EXPECT_TRUE(is_distance_k_independent(g, sparse, 2));
  EXPECT_FALSE(is_distance_k_maximal(g, sparse, 2));
}

}  // namespace
}  // namespace parmis::core
