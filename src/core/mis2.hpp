#pragma once
/// \file mis2.hpp
/// \brief Algorithm 1: parallel, deterministic distance-2 maximal
/// independent set.
///
/// The algorithm iterates three data-parallel phases until every vertex is
/// decided:
///   1. *Refresh Row*   — assign each undecided vertex a fresh pseudo-random
///      priority tuple `T_v` (hash of iteration number and vertex id, §V-A);
///   2. *Refresh Column* — `M_v = min(T_w : w in N[v])` over the closed
///      neighborhood; an IN minimum is translated to OUT;
///   3. *Decide Set*    — a vertex whose tuple equals `M_w` for *every*
///      `w in N[v]` owns the minimum of its radius-2 neighborhood and joins
///      the set; a vertex seeing any `M_w = OUT` is within distance 2 of an
///      IN vertex and leaves.
/// Worklists of still-relevant vertices are compacted with a parallel scan
/// between iterations (§V-B).
///
/// Every phase writes only to the iterating vertex's own slot, and all
/// reductions are order-independent minima, so the result is deterministic
/// for any backend and thread count — the paper's headline property.
///
/// ## Handles
///
/// The primary entry point is `Mis2Handle` (the KokkosKernels
/// `KernelHandle` shape the paper's implementation lives in): it owns every
/// scratch buffer Algorithm 1 needs — the `row_t`/`col_m` tuple arrays, the
/// two worklists, and the scan/compaction flags — plus the result storage,
/// and reuses all of it across calls. Warm repeated runs on same-sized (or
/// smaller) graphs perform **zero heap allocations**, which is what a
/// multilevel hierarchy or a high-traffic service hits dozens of times per
/// request. The free functions `mis2()` / `mis2_masked()` remain as thin
/// wrappers that construct a transient handle.
///
/// The four §V optimizations are individually toggleable through
/// `Mis2Options` to support the Fig. 2 ablation; the defaults correspond to
/// the full Kokkos Kernels configuration.
///
/// Input adjacency must be symmetric and loop-free (see
/// `graph::symmetrize` / `graph::remove_self_loops`); neighborhoods are
/// treated as closed internally.

#include <cstdint>
#include <span>
#include <vector>

#include "core/status_tuple.hpp"
#include "graph/crs.hpp"
#include "parallel/context.hpp"

namespace parmis::core {

/// Priority-randomization schemes from Table I.
enum class PriorityScheme {
  Fixed,         ///< priorities chosen once (Bell et al.)
  Xorshift,      ///< re-randomized per iteration with plain xorshift (pathological, §V-A)
  XorshiftStar,  ///< re-randomized per iteration with xorshift* (the paper's choice)
};

/// Algorithm 1 configuration. Defaults = all optimizations on.
struct Mis2Options {
  PriorityScheme priority = PriorityScheme::XorshiftStar;
  /// §V-B: track undecided rows / live columns and compact with scans.
  bool use_worklists = true;
  /// §V-C: single-word compressed tuples instead of 3-field structs.
  bool packed_tuples = true;
  /// §V-D: vector-level (SIMD) inner neighbor loops; auto-disabled when the
  /// average degree is below the context's `simd_degree_threshold`, as in
  /// the paper. Needs `packed_tuples`. Masked runs are eligible too; the
  /// test uses the whole graph's average degree.
  bool simd = true;
  /// Extra seed folded into the hash; 0 reproduces the paper's generator.
  /// XORed with the executing context's seed.
  std::uint64_t seed = 0;
  /// Safety bound on iterations (the algorithm needs O(log V) in
  /// expectation; hitting this indicates a bug or adversarial input).
  int max_iterations = 1 << 20;
};

/// MIS-2 output: membership flags, the sorted member list, and the
/// iteration count (the quantity reported in Tables I and III).
struct Mis2Result {
  std::vector<char> in_set;
  std::vector<ordinal_t> members;
  int iterations = 0;

  [[nodiscard]] ordinal_t set_size() const { return static_cast<ordinal_t>(members.size()); }
};

/// All scratch Algorithm 1 touches, owned by `Mis2Handle` and reused
/// across runs. Buffers are resized (never shrunk-to-fit), so capacities
/// only grow and warm runs stay allocation-free.
struct Mis2Workspace {
  std::vector<status_word_t> row_packed;  ///< row_t, packed representation
  std::vector<status_word_t> col_packed;  ///< col_m, packed representation
  std::vector<WideTuple> row_wide;        ///< row_t, 3-field representation
  std::vector<WideTuple> col_wide;        ///< col_m, 3-field representation
  std::vector<ordinal_t> wl1;             ///< undecided-row worklist (§V-B)
  std::vector<ordinal_t> wl2;             ///< live-column worklist (§V-B)
  std::vector<ordinal_t> compacted;       ///< worklist compaction output
  std::vector<std::int64_t> flags;        ///< scan flags for every compaction
  std::vector<offset_t> wl1_cost;         ///< degree prefix over wl1 (EdgeBalanced)
  std::vector<offset_t> wl2_cost;         ///< degree prefix over wl2 (EdgeBalanced)

  /// Total heap capacity (bytes) currently held. Stable across warm runs:
  /// the zero-allocation reuse contract asserted by the handle tests.
  [[nodiscard]] std::size_t capacity_bytes() const;
};

/// Cumulative per-handle telemetry (service counters shared by the core
/// kernel handles; never reset by the handle itself).
struct KernelStats {
  std::uint64_t runs = 0;           ///< kernel invocations completed
  std::uint64_t iterations = 0;     ///< total algorithm iterations across runs
  std::uint64_t scratch_grows = 0;  ///< runs that grew scratch capacity
};

/// Reusable MIS-2 kernel handle: explicit execution context + options +
/// scratch + result storage. Not thread-safe; use one handle per thread.
class Mis2Handle {
 public:
  Mis2Handle() : Mis2Handle(Mis2Options{}) {}
  explicit Mis2Handle(const Mis2Options& opts, const Context& ctx = Context::default_ctx())
      : opts_(opts), ctx_(ctx) {}
  explicit Mis2Handle(const Context& ctx) : ctx_(ctx) {}

  /// Compute an MIS-2 of `g` (Algorithm 1) under this handle's context.
  /// The returned reference stays valid until the next run on this handle.
  const Mis2Result& run(graph::GraphView g);

  /// Compute an MIS-2 of the subgraph induced by `active` (vertices with
  /// `active[v] == 0` are absent: they can't join the set and paths through
  /// them do not count). Used by Algorithm 3's phase 2.
  ///
  /// Contract: `active.size() == g.num_rows`; the result is an MIS-2 of
  /// the induced subgraph (what `verify_mis2_masked` checks), keeps the
  /// original vertex ids, and is bit-identical across backends, schedules
  /// and thread counts. The mask is read only to set up the initial state
  /// (an absent vertex is OUT in `row_t` and IN in `col_m`), so a masked
  /// run shares the unmasked neighbor loops, SIMD included. No subgraph is
  /// copied, and warm runs are allocation-free like `run`.
  const Mis2Result& run_masked(graph::GraphView g, std::span<const char> active);

  [[nodiscard]] const Mis2Result& result() const { return result_; }
  /// Move the last result out (leaves the handle's result empty but valid).
  [[nodiscard]] Mis2Result take_result() { return std::move(result_); }

  [[nodiscard]] Mis2Options& options() { return opts_; }
  [[nodiscard]] const Mis2Options& options() const { return opts_; }
  [[nodiscard]] const Context& context() const { return ctx_; }
  void set_context(const Context& ctx) { ctx_ = ctx; }

  /// Heap capacity held by the scratch arrays (excludes the result).
  [[nodiscard]] std::size_t scratch_bytes() const { return ws_.capacity_bytes(); }

  /// Cumulative telemetry: runs, MIS-2 iterations, scratch growths.
  [[nodiscard]] const KernelStats& stats() const { return stats_; }

 private:
  /// Shared body of `run` (empty `active`) and `run_masked`.
  const Mis2Result& execute(graph::GraphView g, std::span<const char> active);

  Mis2Options opts_{};
  Context ctx_ = Context::default_ctx();
  Mis2Workspace ws_;
  Mis2Result result_;
  KernelStats stats_;
};

/// Compute an MIS-2 of `g` (Algorithm 1) with a transient handle.
[[nodiscard]] Mis2Result mis2(graph::GraphView g, const Mis2Options& opts = {});

/// Masked variant of `mis2` (see `Mis2Handle::run_masked`) with a
/// transient handle.
[[nodiscard]] Mis2Result mis2_masked(graph::GraphView g, std::span<const char> active,
                                     const Mis2Options& opts = {});

}  // namespace parmis::core
