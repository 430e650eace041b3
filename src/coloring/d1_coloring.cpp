#include "coloring/d1_coloring.hpp"

#include <algorithm>
#include <cassert>

#include "coloring/forbidden_set.hpp"
#include "parallel/parallel_for.hpp"
#include "parallel/parallel_reduce.hpp"
#include "parallel/parallel_scan.hpp"
#include "random/hash.hpp"

namespace parmis::coloring {

ColorSets color_sets(const Coloring& coloring) {
  ColorSets cs;
  const ordinal_t n = static_cast<ordinal_t>(coloring.colors.size());
  cs.offsets.assign(static_cast<std::size_t>(coloring.num_colors) + 1, 0);
  for (ordinal_t v = 0; v < n; ++v) {
    ++cs.offsets[static_cast<std::size_t>(coloring.colors[static_cast<std::size_t>(v)]) + 1];
  }
  for (ordinal_t c = 0; c < coloring.num_colors; ++c) {
    cs.offsets[static_cast<std::size_t>(c) + 1] += cs.offsets[static_cast<std::size_t>(c)];
  }
  cs.vertices.resize(static_cast<std::size_t>(n));
  std::vector<offset_t> cursor(cs.offsets.begin(), cs.offsets.end() - 1);
  for (ordinal_t v = 0; v < n; ++v) {
    cs.vertices[static_cast<std::size_t>(
        cursor[static_cast<std::size_t>(coloring.colors[static_cast<std::size_t>(v)])]++)] = v;
  }
  return cs;
}

Coloring greedy_d1_coloring(graph::GraphView g) {
  const ordinal_t n = g.num_rows;
  Coloring result;
  result.colors.assign(static_cast<std::size_t>(n), invalid_ordinal);

  detail::ForbiddenSet forbidden;
  forbidden.ensure(static_cast<std::size_t>(n) + 1);
  ordinal_t num_colors = 0;
  for (ordinal_t v = 0; v < n; ++v) {
    forbidden.begin();
    for (ordinal_t w : g.row(v)) {
      forbidden.forbid(result.colors[static_cast<std::size_t>(w)]);
    }
    const ordinal_t c = forbidden.first_allowed();
    result.colors[static_cast<std::size_t>(v)] = c;
    num_colors = std::max(num_colors, c + 1);
  }
  result.num_colors = num_colors;
  result.rounds = 1;
  return result;
}

Coloring parallel_d1_coloring(graph::GraphView g) {
  const ordinal_t n = g.num_rows;
  Coloring result;
  result.colors.assign(static_cast<std::size_t>(n), invalid_ordinal);

  std::vector<ordinal_t> worklist(static_cast<std::size_t>(n));
  for (ordinal_t v = 0; v < n; ++v) worklist[static_cast<std::size_t>(v)] = v;
  std::vector<ordinal_t> tentative(static_cast<std::size_t>(n), invalid_ordinal);
  // Round in which a vertex last speculated; lets the resolve phase test
  // "was w uncolored at the start of this round" without racing against
  // the commits happening in the same phase.
  std::vector<int> speculated(static_cast<std::size_t>(n), 0);
  std::vector<ordinal_t> next;

  int rounds = 0;
  while (!worklist.empty()) {
    ++rounds;
    // Speculate: first-fit against the committed colors snapshot.
    par::parallel_for(static_cast<ordinal_t>(worklist.size()), [&](ordinal_t i) {
      const ordinal_t v = worklist[static_cast<std::size_t>(i)];
      thread_local detail::ForbiddenSet forbidden;
      forbidden.ensure(static_cast<std::size_t>(n) + 1);
      forbidden.begin();
      for (ordinal_t w : g.row(v)) {
        forbidden.forbid(result.colors[static_cast<std::size_t>(w)]);
      }
      tentative[static_cast<std::size_t>(v)] = forbidden.first_allowed();
      speculated[static_cast<std::size_t>(v)] = rounds;
    });

    // Resolve: v keeps its speculative color unless a conflicting neighbor
    // (same tentative color this round) carries a smaller per-round hash
    // priority (ties by id). Random priorities keep the committed set a
    // large fraction of the conflicts (Luby-style) instead of serializing
    // along id chains. Reads only `tentative` / `speculated` (frozen this
    // phase), writes only colors[v]: race-free and deterministic; the
    // globally smallest-priority vertex always commits, so rounds
    // terminate.
    auto priority = [&](ordinal_t u) {
      return rng::hash_xorshift_star(static_cast<std::uint64_t>(rounds),
                                     static_cast<std::uint64_t>(u));
    };
    par::parallel_for(static_cast<ordinal_t>(worklist.size()), [&](ordinal_t i) {
      const ordinal_t v = worklist[static_cast<std::size_t>(i)];
      const ordinal_t tc = tentative[static_cast<std::size_t>(v)];
      const std::uint64_t pv = priority(v);
      bool keep = true;
      for (ordinal_t w : g.row(v)) {
        if (w != v && speculated[static_cast<std::size_t>(w)] == rounds &&
            tentative[static_cast<std::size_t>(w)] == tc) {
          const std::uint64_t pw = priority(w);
          if (pw < pv || (pw == pv && w < v)) {
            keep = false;
            break;
          }
        }
      }
      if (keep) {
        result.colors[static_cast<std::size_t>(v)] = tc;
      }
    });

    par::compact_into(
        static_cast<ordinal_t>(worklist.size()),
        [&](ordinal_t i) {
          return result.colors[static_cast<std::size_t>(
                     worklist[static_cast<std::size_t>(i)])] == invalid_ordinal;
        },
        [&](ordinal_t i) { return worklist[static_cast<std::size_t>(i)]; }, next);
    worklist.swap(next);
  }

  result.num_colors =
      1 + par::reduce_max<ordinal_t>(
              n, [&](ordinal_t v) { return result.colors[static_cast<std::size_t>(v)]; },
              ordinal_t{-1});
  result.rounds = rounds;
  return result;
}

}  // namespace parmis::coloring
