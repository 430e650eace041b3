#include "core/mis2.hpp"

#include <cassert>

#include "check/alloc_guard.hpp"
#include "check/check.hpp"
#include "core/verify.hpp"
#include "obs/trace.hpp"
#include "parallel/balanced_for.hpp"
#include "parallel/parallel_for.hpp"
#include "parallel/parallel_reduce.hpp"
#include "parallel/parallel_scan.hpp"
#include "parallel/simd.hpp"
#include "random/hash.hpp"

namespace parmis::core {

std::size_t Mis2Workspace::capacity_bytes() const {
  return row_packed.capacity() * sizeof(status_word_t) +
         col_packed.capacity() * sizeof(status_word_t) +
         row_wide.capacity() * sizeof(WideTuple) + col_wide.capacity() * sizeof(WideTuple) +
         wl1.capacity() * sizeof(ordinal_t) + wl2.capacity() * sizeof(ordinal_t) +
         compacted.capacity() * sizeof(ordinal_t) + flags.capacity() * sizeof(std::int64_t) +
         wl1_cost.capacity() * sizeof(offset_t) + wl2_cost.capacity() * sizeof(offset_t);
}

namespace {

/// Tuple policy for the compressed single-word representation (§V-C).
struct PackedPolicy {
  using tuple_t = status_word_t;
  static constexpr bool is_packed = true;

  TupleCodec<status_word_t> codec;
  PriorityScheme scheme;
  std::uint64_t seed;

  PackedPolicy(ordinal_t n, const Mis2Options& opts, std::uint64_t ctx_seed)
      : codec(n), scheme(opts.priority), seed(opts.seed ^ ctx_seed) {}

  static std::vector<tuple_t>& rows(Mis2Workspace& ws) { return ws.row_packed; }
  static std::vector<tuple_t>& cols(Mis2Workspace& ws) { return ws.col_packed; }

  [[nodiscard]] tuple_t fresh(ordinal_t v, int iter) const {
    const std::uint64_t it =
        scheme == PriorityScheme::Fixed ? seed : (static_cast<std::uint64_t>(iter) ^ seed);
    const std::uint64_t h = scheme == PriorityScheme::Xorshift
                                ? rng::hash_xorshift(it, static_cast<std::uint64_t>(v))
                                : rng::hash_xorshift_star(it, static_cast<std::uint64_t>(v));
    return codec.pack(h, v);
  }

  [[nodiscard]] static tuple_t in() { return TupleCodec<status_word_t>::in_value; }
  [[nodiscard]] static tuple_t out() { return TupleCodec<status_word_t>::out_value; }
  [[nodiscard]] static bool is_in(tuple_t t) { return TupleCodec<status_word_t>::is_in(t); }
  [[nodiscard]] static bool is_out(tuple_t t) { return TupleCodec<status_word_t>::is_out(t); }
  [[nodiscard]] static bool is_undecided(tuple_t t) {
    return TupleCodec<status_word_t>::is_undecided(t);
  }
  [[nodiscard]] static tuple_t tmin(tuple_t a, tuple_t b) { return b < a ? b : a; }
  [[nodiscard]] static bool eq(tuple_t a, tuple_t b) { return a == b; }
};

/// Tuple policy for the uncompressed 3-field representation (the Fig. 2
/// ablation stages before "Packed Status").
struct WidePolicy {
  using tuple_t = WideTuple;
  static constexpr bool is_packed = false;

  PriorityScheme scheme;
  std::uint64_t seed;

  WidePolicy(ordinal_t, const Mis2Options& opts, std::uint64_t ctx_seed)
      : scheme(opts.priority), seed(opts.seed ^ ctx_seed) {}

  static std::vector<tuple_t>& rows(Mis2Workspace& ws) { return ws.row_wide; }
  static std::vector<tuple_t>& cols(Mis2Workspace& ws) { return ws.col_wide; }

  [[nodiscard]] tuple_t fresh(ordinal_t v, int iter) const {
    const std::uint64_t it =
        scheme == PriorityScheme::Fixed ? seed : (static_cast<std::uint64_t>(iter) ^ seed);
    const std::uint64_t h = scheme == PriorityScheme::Xorshift
                                ? rng::hash_xorshift(it, static_cast<std::uint64_t>(v))
                                : rng::hash_xorshift_star(it, static_cast<std::uint64_t>(v));
    return WideTuple::undecided(h, v);
  }

  [[nodiscard]] static tuple_t in() { return WideTuple::in(); }
  [[nodiscard]] static tuple_t out() { return WideTuple::out(); }
  [[nodiscard]] static bool is_in(const tuple_t& t) { return t.status == WideTuple::kIn; }
  [[nodiscard]] static bool is_out(const tuple_t& t) { return t.status == WideTuple::kOut; }
  [[nodiscard]] static bool is_undecided(const tuple_t& t) {
    return t.status == WideTuple::kUndecided;
  }
  [[nodiscard]] static tuple_t tmin(const tuple_t& a, const tuple_t& b) { return b < a ? b : a; }
  [[nodiscard]] static bool eq(const tuple_t& a, const tuple_t& b) { return a == b; }
};

/// Algorithm 1 body, shared by all option combinations. A non-empty
/// `active` selects induced-subgraph semantics; it only shapes the initial
/// state, so masked and unmasked runs share every neighbor loop. `P`
/// selects the tuple representation. All scratch lives in `ws` (resized,
/// never reallocated when warm); the result is written into `result` in
/// place.
template <typename P>
void mis2_impl(graph::GraphView g, const Mis2Options& opts, const Context& ctx,
               std::span<const char> active, Mis2Workspace& ws, Mis2Result& result) {
  assert(g.num_rows == g.num_cols);
  assert(active.empty() || active.size() == static_cast<std::size_t>(g.num_rows));
  PARMIS_SPAN("mis2.run");
  const ordinal_t n = g.num_rows;
  const P pol(n, opts, ctx.seed);
  using tuple_t = typename P::tuple_t;

  const bool masked = !active.empty();
  auto is_active = [&](ordinal_t v) {
    return !masked || active[static_cast<std::size_t>(v)] != 0;
  };

  std::vector<tuple_t>& row_t = P::rows(ws);
  std::vector<tuple_t>& col_m = P::cols(ws);
  row_t.resize(static_cast<std::size_t>(n));
  col_m.resize(static_cast<std::size_t>(n));
  par::parallel_for(n, [&](ordinal_t v) {
    // The mask acts here and nowhere else. An inactive vertex is OUT in
    // row_t, which never lowers a column minimum, so refresh_col needs no
    // mask test. Every col_m starts IN. Round 0 refreshes every active
    // column before the first decide, and refresh_col never leaves an IN
    // minimum, so from then on IN in col_m marks an absent vertex: decide
    // counts it as neither OUT nor unequal.
    row_t[static_cast<std::size_t>(v)] = is_active(v) ? pol.fresh(v, 0) : pol.out();
    col_m[static_cast<std::size_t>(v)] = pol.in();
  });

  // Whether the SIMD inner loops are eligible, masked or not: packed
  // tuples and the paper's average-degree heuristic (§V-D) — threshold
  // from the executing context.
  const bool use_simd = [&] {
    if constexpr (P::is_packed) {
      return opts.simd && g.avg_degree() >= ctx.simd_degree_threshold;
    } else {
      return false;
    }
  }();

  // --- The three phases -------------------------------------------------

  auto refresh_row = [&](ordinal_t v, int iter) {
    row_t[static_cast<std::size_t>(v)] = pol.fresh(v, iter);
  };

  auto refresh_col = [&](ordinal_t v) {
    tuple_t m = row_t[static_cast<std::size_t>(v)];  // closed neighborhood
    if (use_simd) {
      if constexpr (P::is_packed) {
        m = par::simd_min_gather(row_t.data(), g.entries, g.row_map[v], g.row_map[v + 1], m);
      }
    } else {
      for (offset_t j = g.row_map[v]; j < g.row_map[v + 1]; ++j) {
        m = P::tmin(m, row_t[static_cast<std::size_t>(g.entries[j])]);
      }
    }
    // An IN minimum means an IN vertex within distance 1: translate to OUT
    // so the decide phase pushes it one more hop (Algorithm 1 lines 19-21).
    col_m[static_cast<std::size_t>(v)] = P::is_in(m) ? pol.out() : m;
  };

  // `out_possible` is false in worklist round 0: every active column then
  // holds the minimum over its own undecided row, and inactive columns hold
  // IN, so no column is OUT yet and the OUT test over the row is skipped.
  auto decide = [&](ordinal_t v, bool out_possible) {
    const tuple_t t = row_t[static_cast<std::size_t>(v)];
    const tuple_t own_m = col_m[static_cast<std::size_t>(v)];
    bool any_out = P::is_out(own_m);
    bool all_eq = P::eq(own_m, t);
    if (use_simd) {
      if constexpr (P::is_packed) {
        const offset_t lo = g.row_map[v];
        const offset_t hi = g.row_map[v + 1];
        any_out = any_out || (out_possible && par::simd_any_equal_gather(
                                                  col_m.data(), g.entries, lo, hi, pol.out()));
        if (!any_out && all_eq) {
          // Absent neighbors hold IN (see the initial state); unmasked runs
          // have none, so only masked runs pay for the second count.
          const offset_t eq = par::simd_count_equal_gather(col_m.data(), g.entries, lo, hi, t);
          all_eq = eq == hi - lo ||
                   (masked && eq + par::simd_count_equal_gather(col_m.data(), g.entries, lo, hi,
                                                                pol.in()) ==
                                  hi - lo);
        }
      }
    } else {
      for (offset_t j = g.row_map[v]; j < g.row_map[v + 1]; ++j) {
        const tuple_t mw = col_m[static_cast<std::size_t>(g.entries[j])];
        if (P::is_out(mw)) {
          any_out = true;
          break;
        }
        all_eq = all_eq && (P::eq(mw, t) || P::is_in(mw));
      }
    }
    if (any_out) {
      row_t[static_cast<std::size_t>(v)] = pol.out();
    } else if (all_eq) {
      row_t[static_cast<std::size_t>(v)] = pol.in();
    }
  };

  // --- Main iteration ----------------------------------------------------

  int iter = 0;
  if (opts.use_worklists) {
    // §V-B: worklist1 = undecided rows, worklist2 = live columns.
    std::vector<ordinal_t>& wl1 = ws.wl1;
    std::vector<ordinal_t>& wl2 = ws.wl2;
    std::vector<ordinal_t>& next = ws.compacted;
    par::compact_into_scratch(
        n, [&](ordinal_t v) { return is_active(v); }, [](ordinal_t v) { return v; }, wl1,
        ws.flags);
    wl2.assign(wl1.begin(), wl1.end());

    // §V-B meets edge balancing: the worklist phases walk each listed
    // vertex's neighbor row, so equal-count chunks serialize on hub-heavy
    // lists. Under EdgeBalanced we keep a degree prefix sum per worklist
    // (rebuilt after every compaction — the lists only shrink, so the
    // buffers are sized once per run) and split the phases into
    // equal-degree chunks instead.
    const bool edge_balanced = par::Execution::schedule() == par::Schedule::EdgeBalanced &&
                               par::Execution::is_parallel();
    auto rebuild_cost = [&](const std::vector<ordinal_t>& wl, std::vector<offset_t>& cost) {
      if (!edge_balanced) return;
      const std::int64_t len = static_cast<std::int64_t>(wl.size());
      cost.resize(static_cast<std::size_t>(len) + 1);
      par::parallel_for(len, [&](std::int64_t i) {
        const ordinal_t v = wl[static_cast<std::size_t>(i)];
        cost[static_cast<std::size_t>(i)] = g.row_map[v + 1] - g.row_map[v] + 1;
      });
      cost[static_cast<std::size_t>(len)] = 0;
      par::exclusive_scan_inplace(std::span<offset_t>(cost.data(), static_cast<std::size_t>(len) + 1));
    };
    auto cost_ptr = [&](const std::vector<offset_t>& cost) -> const offset_t* {
      return edge_balanced ? cost.data() : nullptr;
    };
    rebuild_cost(wl1, ws.wl1_cost);
    if (edge_balanced) ws.wl2_cost.assign(ws.wl1_cost.begin(), ws.wl1_cost.end());

    // Persistent compaction buffers: the scan runs every iteration, so the
    // flag/output storage is sized once per run and reused (worklists only
    // shrink).
    ws.flags.resize(wl1.size());
    next.resize(wl1.size());
    auto filter_worklist = [&](std::vector<ordinal_t>& wl, auto&& keep) {
      const std::int64_t len = static_cast<std::int64_t>(wl.size());
      par::parallel_for(len, [&](std::int64_t i) {
        ws.flags[static_cast<std::size_t>(i)] = keep(wl[static_cast<std::size_t>(i)]) ? 1 : 0;
      });
      const std::int64_t total = par::exclusive_scan_inplace(
          std::span<std::int64_t>(ws.flags.data(), static_cast<std::size_t>(len)));
      par::parallel_for(len, [&](std::int64_t i) {
        const std::int64_t pos = ws.flags[static_cast<std::size_t>(i)];
        const std::int64_t pos_next =
            (i + 1 < len) ? ws.flags[static_cast<std::size_t>(i) + 1] : total;
        if (pos_next != pos) next[static_cast<std::size_t>(pos)] = wl[static_cast<std::size_t>(i)];
      });
      wl.resize(static_cast<std::size_t>(total));
      par::parallel_for(total, [&](std::int64_t i) {
        wl[static_cast<std::size_t>(i)] = next[static_cast<std::size_t>(i)];
      });
    };

    while (!wl1.empty() && iter < opts.max_iterations) {
      obs::Span round("mis2.round");
      const ordinal_t n1 = static_cast<ordinal_t>(wl1.size());
      const ordinal_t n2 = static_cast<ordinal_t>(wl2.size());
      round.arg("worklist", n1);
      round.arg("live_cols", n2);
      {
        // refresh_row is O(1) per vertex — count balancing is already exact.
        PARMIS_SPAN("mis2.refresh_row");
        par::parallel_for(n1,
                          [&](ordinal_t i) { refresh_row(wl1[static_cast<std::size_t>(i)], iter); });
      }
      {
        PARMIS_SPAN("mis2.refresh_col");
        par::balanced_for(n2, cost_ptr(ws.wl2_cost),
                          [&](ordinal_t i) { refresh_col(wl2[static_cast<std::size_t>(i)]); });
      }
      {
        PARMIS_SPAN("mis2.decide");
        par::balanced_for(n1, cost_ptr(ws.wl1_cost),
                          [&](ordinal_t i) { decide(wl1[static_cast<std::size_t>(i)], iter > 0); });
      }

      filter_worklist(wl1, [&](ordinal_t v) {
        return P::is_undecided(row_t[static_cast<std::size_t>(v)]);
      });
      filter_worklist(wl2, [&](ordinal_t v) {
        return !P::is_out(col_m[static_cast<std::size_t>(v)]);
      });
      rebuild_cost(wl1, ws.wl1_cost);
      rebuild_cost(wl2, ws.wl2_cost);
      ++iter;
    }
  } else {
    // Ablation mode: every vertex processed every iteration (Bell et al.'s
    // approach), with per-vertex guards instead of worklists. Full sweeps
    // balance for free: the graph's own row_map is the degree prefix.
    // Inactive vertices are OUT in row_t, so only the column guard needs
    // the mask: their IN columns must never be refreshed.
    while (iter < opts.max_iterations) {
      obs::Span round("mis2.round");
      {
        PARMIS_SPAN("mis2.sweep.refresh_row");
        par::parallel_for(n, [&](ordinal_t v) {
          if (P::is_undecided(row_t[static_cast<std::size_t>(v)])) refresh_row(v, iter);
        });
      }
      {
        PARMIS_SPAN("mis2.sweep.refresh_col");
        par::balanced_for(n, g.row_map, [&](ordinal_t v) {
          if (is_active(v) && !P::is_out(col_m[static_cast<std::size_t>(v)])) refresh_col(v);
        });
      }
      {
        PARMIS_SPAN("mis2.sweep.decide");
        par::balanced_for(n, g.row_map, [&](ordinal_t v) {
          if (P::is_undecided(row_t[static_cast<std::size_t>(v)])) decide(v, true);
        });
      }
      ++iter;
      const std::int64_t undecided = par::count_if(n, [&](ordinal_t v) {
        return P::is_undecided(row_t[static_cast<std::size_t>(v)]);
      });
      round.arg("undecided", undecided);
      if (undecided == 0) break;
    }
  }

  // --- Extract result ----------------------------------------------------

  result.iterations = iter;
  result.in_set.assign(static_cast<std::size_t>(n), 0);
  par::parallel_for(n, [&](ordinal_t v) {
    result.in_set[static_cast<std::size_t>(v)] = P::is_in(row_t[static_cast<std::size_t>(v)]) ? 1 : 0;
  });
  par::compact_into_scratch(
      n, [&](ordinal_t v) { return result.in_set[static_cast<std::size_t>(v)] != 0; },
      [](ordinal_t v) { return v; }, result.members, ws.flags);
}

}  // namespace

const Mis2Result& Mis2Handle::run(graph::GraphView g) { return execute(g, {}); }

const Mis2Result& Mis2Handle::run_masked(graph::GraphView g, std::span<const char> active) {
  PARMIS_CHECK(active.size() == static_cast<std::size_t>(g.num_rows));
  return execute(g, active);
}

const Mis2Result& Mis2Handle::execute(graph::GraphView g, std::span<const char> active) {
  Context::Scope scope(ctx_);
  PARMIS_CHECK_OK(check::validate(g, {.require_loop_free = true, .require_symmetric = true}));
  const std::size_t bytes_before = ws_.capacity_bytes();
  const std::size_t result_capacity =
      result_.in_set.capacity() + result_.members.capacity() * sizeof(ordinal_t);
  check::AllocGuard guard;
  if (opts_.packed_tuples) {
    mis2_impl<PackedPolicy>(g, opts_, ctx_, active, ws_, result_);
  } else {
    mis2_impl<WidePolicy>(g, opts_, ctx_, active, ws_, result_);
  }
  ++stats_.runs;
  stats_.iterations += static_cast<std::uint64_t>(result_.iterations);
  const bool grew = ws_.capacity_bytes() > bytes_before ||
                    result_.in_set.capacity() + result_.members.capacity() * sizeof(ordinal_t) >
                        result_capacity;
  if (ws_.capacity_bytes() > bytes_before) ++stats_.scratch_grows;
  // Zero-allocation warm-run contract, enforced at the allocator: a run
  // whose scratch and result capacities both sufficed must not have
  // touched the heap at all. (Tracing is exempt: obs event blocks
  // allocate, orthogonally to the kernel path.)
  PARMIS_CHECK_MSG(grew || obs::tracing_enabled() || guard.allocations() == 0,
                   "mis2 warm run allocated");
  PARMIS_CHECK_MSG(active.empty() ? verify_mis2(g, result_.in_set)
                                   : verify_mis2_masked(g, result_.in_set, active),
                   "mis2 result not a valid MIS-2 of the (masked) graph");
  return result_;
}

Mis2Result mis2(graph::GraphView g, const Mis2Options& opts) {
  Mis2Handle handle(opts);
  handle.run(g);
  return handle.take_result();
}

Mis2Result mis2_masked(graph::GraphView g, std::span<const char> active,
                       const Mis2Options& opts) {
  Mis2Handle handle(opts);
  handle.run_masked(g, active);
  return handle.take_result();
}

}  // namespace parmis::core
