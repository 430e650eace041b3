#include "core/coarsen.hpp"

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <memory>
#include <span>
#include <type_traits>
#include <vector>

#include "check/check.hpp"
#include "check/validate.hpp"
#include "obs/trace.hpp"
#include "parallel/balanced_for.hpp"
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

/// `coarse_graph`'s three passes, with the edge-weight channel compiled in
/// (`Weighted`: `edge_weight` in, `coarse_weight` out) or out.
template <bool Weighted>
graph::CrsGraph contract(graph::GraphView g, const Aggregation& agg,
                         std::span<const ordinal_t> edge_weight,
                         std::vector<ordinal_t>* coarse_weight) {
  assert(agg.labels.size() == static_cast<std::size_t>(g.num_rows));
  PARMIS_CHECK_OK(check::validate(agg, g.num_rows));
  const ordinal_t nc = agg.num_aggregates;
  const ordinal_t* label = agg.labels.data();
  graph::CrsGraph c;
  c.num_rows = nc;
  c.num_cols = nc;
  c.row_map.assign(static_cast<std::size_t>(nc) + 1, 0);
  if (nc == 0) return c;

  // Two counting sorts over identical chunk sequences, each a histogram
  // pass and a placement pass sharing the per-chunk rows of `counts`.
  const std::size_t nkeys = static_cast<std::size_t>(nc);
  const int nchunks = par::balanced_chunk_count();
  const bool by_cost = par::schedule_uses_costs();
  std::vector<offset_t> counts(static_cast<std::size_t>(nchunks) * nkeys, 0);
  auto chunk_row = [&](int q) { return counts.data() + static_cast<std::size_t>(q) * nkeys; };

  // Fine rows in storage order: `take(cnt, a, fresh, sum, k)` receives the
  // chunk's row of `counts`, a = label(v) and the k distinct foreign labels
  // among v's neighbors. Branch-free stamp dedup: v's own aggregate is
  // pre-stamped, so it drops out. A walk `with_weights` also sums v's edge
  // weights per label, sum[b] for each b in `fresh`.
  auto walk_fine = [&](auto with_weights, auto&& take) {
    constexpr bool weights = decltype(with_weights)::value;
    par::balanced_chunks(g.num_rows, by_cost ? g.row_map : nullptr,
                         [&](int q, ordinal_t lo, ordinal_t hi) {
      std::vector<ordinal_t> mark(nkeys, invalid_ordinal);
      ordinal_t max_degree = 0;
      for (ordinal_t v = lo; v < hi; ++v) max_degree = std::max(max_degree, g.degree(v));
      std::vector<ordinal_t> fresh(static_cast<std::size_t>(max_degree));
      std::vector<ordinal_t> sum;
      if constexpr (weights) sum.resize(nkeys);
      for (ordinal_t v = lo; v < hi; ++v) {
        mark[label[v]] = v;
        if constexpr (weights) sum[label[v]] = 0;
        ordinal_t k = 0;
        for (offset_t j = g.row_map[v]; j < g.row_map[v + 1]; ++j) {
          const ordinal_t b = label[g.entries[j]];
          const ordinal_t old = mark[b];
          mark[b] = v;
          fresh[k] = b;
          if constexpr (weights) sum[b] = (old != v ? 0 : sum[b]) + edge_weight[j];
          k += old != v;
        }
        take(chunk_row(q), label[v], fresh.data(), sum.data(), k);
      }
    });
  };
  std::vector<offset_t> seg(nkeys + 1, 0);
  {
    PARMIS_SPAN("coarse_graph.count");
    walk_fine(std::false_type{},
              [](offset_t* cnt, ordinal_t a, const ordinal_t*, const ordinal_t*, ordinal_t k) {
                cnt[a] += k;
              });
    par::chunked_cursor_scan(nc, nchunks, counts, seg);
    par::inclusive_scan_inplace(std::span<offset_t>(seg.data() + 1, nkeys));
  }
  // One bucket entry per (fine vertex, foreign aggregate) pair, filed under
  // the vertex's aggregate, its summed weight at the same index of
  // `bucket_w`. Every slot is written, so no zero fill.
  const auto bucket =
      std::make_unique_for_overwrite<ordinal_t[]>(static_cast<std::size_t>(seg[nkeys]));
  std::unique_ptr<ordinal_t[]> bucket_w;
  if constexpr (Weighted) {
    bucket_w = std::make_unique_for_overwrite<ordinal_t[]>(static_cast<std::size_t>(seg[nkeys]));
  }
  {
    PARMIS_SPAN("coarse_graph.group");
    walk_fine(std::bool_constant<Weighted>{},
              [&](offset_t* cursor, ordinal_t a, const ordinal_t* fresh, const ordinal_t* sum,
                  ordinal_t k) {
                std::copy_n(fresh, k, bucket.get() + seg[a] + cursor[a]);
                if constexpr (Weighted) {
                  ordinal_t* w = bucket_w.get() + seg[a] + cursor[a];
                  for (ordinal_t i = 0; i < k; ++i) w[i] = sum[fresh[i]];
                }
                cursor[a] += k;
              });
  }

  // Rows: dedup each segment in place, counting survivors b per chunk (and
  // summing a duplicate's weight into its survivor's); then scatter each
  // kept pair (a, b) into row b. Aggregates go in ascending order, so every
  // row receives its columns sorted, and by symmetry row b of that
  // transpose is the quotient row of b.
  PARMIS_SPAN("coarse_graph.rows");
  const offset_t* seg_cost = by_cost ? seg.data() : nullptr;
  const auto kept = std::make_unique_for_overwrite<offset_t[]>(nkeys);
  std::fill(counts.begin(), counts.end(), 0);
  par::balanced_chunks(nc, seg_cost, [&](int q, ordinal_t lo, ordinal_t hi) {
    offset_t* cnt = chunk_row(q);
    std::vector<ordinal_t> mark(nkeys, invalid_ordinal);
    std::vector<ordinal_t> sum;
    if constexpr (Weighted) sum.resize(nkeys);
    for (ordinal_t a = lo; a < hi; ++a) {
      ordinal_t* row = bucket.get() + seg[a];
      offset_t k = 0;
      for (offset_t i = 0; i < seg[a + 1] - seg[a]; ++i) {
        const ordinal_t b = row[i];
        const bool is_new = mark[b] != a;
        mark[b] = a;
        row[k] = b;
        if constexpr (Weighted) sum[b] = (is_new ? 0 : sum[b]) + bucket_w[seg[a] + i];
        cnt[b] += is_new;
        k += is_new;
      }
      if constexpr (Weighted) {
        for (offset_t i = 0; i < k; ++i) bucket_w[seg[a] + i] = sum[row[i]];
      }
      kept[a] = k;
    }
  });
  par::chunked_cursor_scan(nc, nchunks, counts, c.row_map);
  par::inclusive_scan_inplace(std::span<offset_t>(c.row_map.data() + 1, nkeys));
  c.entries.resize(static_cast<std::size_t>(c.row_map.back()));
  if constexpr (Weighted) coarse_weight->resize(c.entries.size());
  par::balanced_chunks(nc, seg_cost, [&](int q, ordinal_t lo, ordinal_t hi) {
    offset_t* cursor = chunk_row(q);
    for (ordinal_t a = lo; a < hi; ++a) {
      for (offset_t i = seg[a]; i < seg[a] + kept[a]; ++i) {
        const ordinal_t b = bucket[i];
        const offset_t at = c.row_map[b] + cursor[b]++;
        c.entries[at] = a;
        if constexpr (Weighted) (*coarse_weight)[at] = bucket_w[i];
      }
    }
  });
  PARMIS_CHECK_OK(check::validate(graph::GraphView(c), {.require_sorted = true,
                                                        .require_unique = true,
                                                        .require_loop_free = true,
                                                        .require_symmetric = true}));
  return c;
}

}  // namespace

graph::CrsGraph coarse_graph(graph::GraphView g, const Aggregation& agg) {
  return contract<false>(g, agg, {}, nullptr);
}

graph::CrsGraph coarse_graph(graph::GraphView g, const Aggregation& agg,
                             std::span<const ordinal_t> edge_weight,
                             std::vector<ordinal_t>& coarse_weight) {
  assert(edge_weight.size() == static_cast<std::size_t>(g.num_entries()));
  PARMIS_CHECK_OK(check::validate_edge_weights(g, edge_weight));
  graph::CrsGraph c = contract<true>(g, agg, edge_weight, &coarse_weight);
  PARMIS_CHECK_OK(check::validate_edge_weights(graph::GraphView(c), coarse_weight));
  return c;
}

}  // namespace parmis::core
