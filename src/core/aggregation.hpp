#pragma once
/// \file aggregation.hpp
/// \brief MIS-2 based graph aggregation (paper Algorithms 2 and 3) and the
/// reusable `CoarsenHandle`.
///
/// An *aggregation* partitions the vertices into disjoint aggregates, each
/// grown around a root vertex. Because roots form an MIS-2, no vertex is
/// adjacent to two roots and every vertex is within two hops of some root,
/// so phase-1 growth is conflict-free and cleanup always finds an adjacent
/// aggregate — the properties that make the construction both parallel and
/// total.
///
/// Two MIS-2 schemes:
///  - `aggregate_basic` (Algorithm 2, Bell et al.): aggregates = roots +
///    their neighbors; leftovers join any adjacent aggregate. Fast but
///    produces ragged aggregates that slow multigrid convergence (Table V's
///    "MIS2 Basic" row).
///  - `aggregate_mis2` (Algorithm 3, the paper's contribution): a second
///    MIS-2 on the subgraph induced by leftover vertices seeds secondary
///    aggregates (kept only when >= 2 leftover neighbors join, to avoid
///    fill-in-inducing tiny aggregates), then remaining vertices join the
///    adjacent aggregate with the strongest coupling (most neighbors in
///    it), ties broken toward the smaller aggregate. Coupling and sizes are
///    evaluated against the immutable phase-2 "tentative" labels, keeping
///    phase 3 deterministic.
/// plus heavy-edge matching (`aggregate_hem`), the classical multilevel
/// scheme kept as the comparison point and exposed through the `Coarsener`
/// registry (coarsener.hpp).
///
/// `CoarsenHandle` owns all aggregation scratch (the nested MIS-2 handle,
/// the active mask, tentative-label snapshot, aggregate sizes, coupling
/// counters, matching buffers) and reuses it across calls and across
/// hierarchy levels: warm repeated aggregations allocate nothing beyond the
/// returned labels. The free functions remain as thin wrappers over a
/// transient handle.
///
/// All schemes are deterministic for any backend/thread count.

#include <span>
#include <vector>

#include "core/mis2.hpp"
#include "graph/crs.hpp"

namespace parmis::core {

/// A complete aggregation: every vertex carries an aggregate id in
/// [0, num_aggregates).
struct Aggregation {
  std::vector<ordinal_t> labels;  ///< vertex -> aggregate id
  ordinal_t num_aggregates{0};
  std::vector<ordinal_t> roots;  ///< root vertex of each aggregate
  int phase1_iterations{0};      ///< MIS-2 iterations (phase 1)
  int phase2_iterations{0};      ///< masked MIS-2 iterations (Algorithm 3 only)
};

/// Reusable coarsening handle: an explicit execution context, a nested
/// `Mis2Handle`, and every scratch buffer Algorithms 2/3 and heavy-edge
/// matching need. Reused across calls and hierarchy levels; warm repeated
/// aggregations perform zero scratch heap allocations. Not thread-safe.
class CoarsenHandle {
 public:
  CoarsenHandle() = default;
  explicit CoarsenHandle(const Mis2Options& opts, const Context& ctx = Context::default_ctx())
      : mis2_(opts, ctx) {}
  explicit CoarsenHandle(const Context& ctx) : mis2_(ctx) {}

  /// Algorithm 3: two-round MIS-2 aggregation with coupling-based cleanup.
  /// The returned reference stays valid until the next call on this handle.
  const Aggregation& aggregate_mis2(graph::GraphView g);

  /// Algorithm 2: basic MIS-2 coarsening.
  const Aggregation& aggregate_basic(graph::GraphView g);

  /// Heavy-edge matching: greedily match each unmatched vertex to its
  /// unmatched neighbor with the heaviest edge (ties: smaller id), visiting
  /// vertices in hashed order; unmatched leftovers become singletons.
  /// `edge_weight` parallels `g.entries` (empty = unit weights). Serial
  /// (the classical formulation), hence trivially deterministic.
  const Aggregation& aggregate_hem(graph::GraphView g, std::span<const ordinal_t> edge_weight,
                                   std::uint64_t seed);

  [[nodiscard]] const Aggregation& aggregation() const { return agg_; }
  /// Move the last aggregation out (leaves the handle valid).
  [[nodiscard]] Aggregation take_aggregation() { return std::move(agg_); }

  /// The nested MIS-2 handle (its options govern both MIS-2 rounds).
  [[nodiscard]] Mis2Handle& mis2_handle() { return mis2_; }
  [[nodiscard]] Mis2Options& mis2_options() { return mis2_.options(); }
  [[nodiscard]] const Context& context() const { return mis2_.context(); }
  void set_context(const Context& ctx) { mis2_.set_context(ctx); }

  /// Heap capacity held by all scratch, including the nested MIS-2
  /// handle's (excludes the aggregation result).
  [[nodiscard]] std::size_t scratch_bytes() const;

  /// Cumulative telemetry: aggregations run, MIS-2 iterations consumed
  /// (phase 1 + phase 2), scratch growths. The nested MIS-2 handle keeps
  /// its own counters (`mis2_handle().stats()`).
  [[nodiscard]] const KernelStats& stats() const { return stats_; }

 private:
  /// Update the telemetry counters at the end of one aggregation.
  void record_run(std::size_t bytes_before);

  Mis2Handle mis2_;
  Aggregation agg_;
  std::vector<char> active_;        ///< leftover mask for Algorithm 3 phase 2
  std::vector<ordinal_t> tent_;     ///< immutable tentative labels (phase 3)
  std::vector<ordinal_t> agg_size_; ///< tentative aggregate sizes (phase 3)
  std::vector<ordinal_t> coupling_; ///< per-chunk coupling counters, zero between uses (phase 3)
  std::vector<ordinal_t> accepted_; ///< accepted secondary roots
  std::vector<ordinal_t> mate_;     ///< HEM partner array
  std::vector<ordinal_t> order_;    ///< HEM hashed visit order
  std::vector<std::int64_t> flags_; ///< compaction scan flags
  KernelStats stats_;
};

/// Algorithm 2: basic MIS-2 coarsening (transient handle).
[[nodiscard]] Aggregation aggregate_basic(graph::GraphView g, const Mis2Options& opts = {});

/// Algorithm 2's growth phase on an already-computed MIS-2 (`mis` must be
/// a valid MIS-2 of `g`). Lets benchmarks pair the coarsening with a
/// different MIS-2 implementation (e.g. the Bell baseline, as ViennaCL
/// does).
[[nodiscard]] Aggregation aggregate_from_mis(graph::GraphView g, const Mis2Result& mis);

/// Algorithm 3: two-round MIS-2 aggregation with coupling-based cleanup
/// (transient handle).
[[nodiscard]] Aggregation aggregate_mis2(graph::GraphView g, const Mis2Options& opts = {});

/// Size distribution summary used by quality checks and Table V analysis.
struct AggregationStats {
  ordinal_t num_aggregates{0};
  ordinal_t min_size{0};
  ordinal_t max_size{0};
  double avg_size{0.0};
};

[[nodiscard]] AggregationStats aggregation_stats(const Aggregation& agg);

/// True iff labels form a valid total aggregation: every vertex labeled
/// with an id < num_aggregates, every aggregate non-empty, every root
/// labeled with its own aggregate, and every aggregate *connected* (each
/// member reaches its root within the aggregate).
[[nodiscard]] bool verify_aggregation(graph::GraphView g, const Aggregation& agg);

}  // namespace parmis::core
