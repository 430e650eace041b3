#include "core/coarsen.hpp"

#include <algorithm>
#include <cassert>
#include <cstdint>

#include "check/check.hpp"
#include "check/validate.hpp"
#include "obs/trace.hpp"
#include "parallel/balanced_for.hpp"
#include "parallel/parallel_for.hpp"
#include "parallel/parallel_scan.hpp"

namespace parmis::core {

AggregateMembers aggregate_members(const Aggregation& agg) {
  AggregateMembers m;
  const ordinal_t n = static_cast<ordinal_t>(agg.labels.size());
  const ordinal_t na = agg.num_aggregates;
  m.offsets.assign(static_cast<std::size_t>(na) + 1, 0);
  m.members.resize(static_cast<std::size_t>(n));
  if (n == 0 || na == 0) return m;

  // Parallel counting sort by label over identical contiguous chunks
  // (balanced_chunks repeats its boundaries for identical inputs): chunk
  // histograms, per-label scan across chunks into chunk-local cursors,
  // then placement. Vertex-order fill within ascending chunks keeps each
  // member list sorted ascending, matching the serial build exactly.
  const std::size_t nkeys = static_cast<std::size_t>(na);
  const int nchunks = par::balanced_chunk_count();
  std::vector<offset_t> counts(static_cast<std::size_t>(nchunks) * nkeys, 0);

  par::balanced_chunks(n, static_cast<const offset_t*>(nullptr),
                       [&](int chunk, ordinal_t lo, ordinal_t hi) {
    offset_t* cnt = counts.data() + static_cast<std::size_t>(chunk) * nkeys;
    for (ordinal_t v = lo; v < hi; ++v) {
      ++cnt[static_cast<std::size_t>(agg.labels[static_cast<std::size_t>(v)])];
    }
  });

  par::chunked_cursor_scan(na, nchunks, counts, m.offsets);
  par::inclusive_scan_inplace(
      std::span<offset_t>(m.offsets.data() + 1, static_cast<std::size_t>(na)));

  par::balanced_chunks(n, static_cast<const offset_t*>(nullptr),
                       [&](int chunk, ordinal_t lo, ordinal_t hi) {
    offset_t* cursor = counts.data() + static_cast<std::size_t>(chunk) * nkeys;
    for (ordinal_t v = lo; v < hi; ++v) {
      const ordinal_t a = agg.labels[static_cast<std::size_t>(v)];
      m.members[static_cast<std::size_t>(m.offsets[static_cast<std::size_t>(a)] +
                                         cursor[static_cast<std::size_t>(a)]++)] = v;
    }
  });
  return m;
}

namespace {

/// Stamp-marker workspace for coarse-row deduplication (same pattern as
/// SpGEMM's accumulator).
struct Workspace {
  std::vector<std::uint64_t> stamp_of;
  std::vector<ordinal_t> touched;
  std::uint64_t stamp{0};

  void ensure(ordinal_t ncols) {
    if (stamp_of.size() < static_cast<std::size_t>(ncols)) {
      stamp_of.assign(static_cast<std::size_t>(ncols), 0);
      stamp = 0;
    }
  }
};

thread_local Workspace t_ws;

}  // namespace

graph::CrsGraph coarse_graph(graph::GraphView g, const Aggregation& agg) {
  assert(agg.labels.size() == static_cast<std::size_t>(g.num_rows));
  PARMIS_CHECK_OK(check::validate(agg, g.num_rows));
  const AggregateMembers mem = [&] {
    PARMIS_SPAN("coarse_graph.members");
    return aggregate_members(agg);
  }();
  const ordinal_t nc = agg.num_aggregates;

  graph::CrsGraph c;
  c.num_rows = nc;
  c.num_cols = nc;
  c.row_map.assign(static_cast<std::size_t>(nc) + 1, 0);
  if (nc == 0) return c;
  // The rest of the contraction: cost prefix, coarse-row collection and
  // the scatter into the final entries.
  PARMIS_SPAN("coarse_graph.collect");

  // Per-aggregate collection cost = Σ over members of (degree + 1);
  // aggregates around fine-level hubs dwarf the rest, so split the sweep
  // into equal-cost chunks instead of equal aggregate counts.
  const bool edge_balanced = par::schedule_uses_costs();
  std::vector<offset_t> cost;
  if (edge_balanced) {
    cost.resize(static_cast<std::size_t>(nc) + 1);
    par::parallel_for(nc, [&](ordinal_t a) {
      offset_t w = 1;
      for (offset_t mi = mem.offsets[static_cast<std::size_t>(a)];
           mi < mem.offsets[static_cast<std::size_t>(a) + 1]; ++mi) {
        const ordinal_t v = mem.members[static_cast<std::size_t>(mi)];
        w += g.row_map[v + 1] - g.row_map[v] + 1;
      }
      cost[static_cast<std::size_t>(a)] = w;
    });
    cost[static_cast<std::size_t>(nc)] = 0;
    par::exclusive_scan_inplace(std::span<offset_t>(cost));
  }

  // Single collection pass (the old builder re-ran it to size the rows):
  // each chunk dedups its aggregates' coarse rows into an arena; after the
  // row-length scan a scatter pass copies arenas into the final entries.
  const int nchunks = par::balanced_chunk_count();
  std::vector<std::vector<ordinal_t>> arenas(static_cast<std::size_t>(nchunks));
  std::vector<int> arena_of(static_cast<std::size_t>(nc));
  std::vector<offset_t> arena_off(static_cast<std::size_t>(nc));

  par::balanced_chunks(nc, edge_balanced ? cost.data() : nullptr,
                       [&](int chunk, ordinal_t lo, ordinal_t hi) {
    std::vector<ordinal_t>& arena = arenas[static_cast<std::size_t>(chunk)];
    Workspace& ws = t_ws;
    ws.ensure(nc);
    for (ordinal_t a = lo; a < hi; ++a) {
      ++ws.stamp;
      ws.touched.clear();
      for (offset_t mi = mem.offsets[static_cast<std::size_t>(a)];
           mi < mem.offsets[static_cast<std::size_t>(a) + 1]; ++mi) {
        const ordinal_t v = mem.members[static_cast<std::size_t>(mi)];
        for (ordinal_t w : g.row(v)) {
          const ordinal_t b = agg.labels[static_cast<std::size_t>(w)];
          if (b == a) continue;
          if (ws.stamp_of[static_cast<std::size_t>(b)] != ws.stamp) {
            ws.stamp_of[static_cast<std::size_t>(b)] = ws.stamp;
            ws.touched.push_back(b);
          }
        }
      }
      std::sort(ws.touched.begin(), ws.touched.end());
      arena_of[static_cast<std::size_t>(a)] = chunk;
      arena_off[static_cast<std::size_t>(a)] = static_cast<offset_t>(arena.size());
      arena.insert(arena.end(), ws.touched.begin(), ws.touched.end());
      c.row_map[static_cast<std::size_t>(a) + 1] = static_cast<offset_t>(ws.touched.size());
    }
  });

  par::inclusive_scan_inplace(
      std::span<offset_t>(c.row_map.data() + 1, static_cast<std::size_t>(nc)));
  c.entries.resize(static_cast<std::size_t>(c.row_map.back()));
  par::balanced_for(nc, c.row_map.data(), [&](ordinal_t a) {
    const std::vector<ordinal_t>& arena =
        arenas[static_cast<std::size_t>(arena_of[static_cast<std::size_t>(a)])];
    std::copy_n(arena.begin() + static_cast<std::ptrdiff_t>(arena_off[static_cast<std::size_t>(a)]),
                c.row_map[a + 1] - c.row_map[a],
                c.entries.begin() + static_cast<std::ptrdiff_t>(c.row_map[a]));
  });
  PARMIS_CHECK_OK(check::validate(
      graph::GraphView(c), {.require_sorted = true, .require_unique = true, .require_loop_free = true}));
  return c;
}

}  // namespace parmis::core
