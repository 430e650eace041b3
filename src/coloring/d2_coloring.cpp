#include "coloring/d2_coloring.hpp"

#include <algorithm>
#include <cstdint>
#include <vector>

#include "coloring/forbidden_set.hpp"
#include "parallel/parallel_for.hpp"
#include "parallel/parallel_reduce.hpp"
#include "parallel/parallel_scan.hpp"
#include "random/hash.hpp"

namespace parmis::coloring {

namespace {

/// Apply `f(u)` to every vertex within distance <= 2 of v, excluding v.
template <typename F>
void for_each_within_2(graph::GraphView g, ordinal_t v, F&& f) {
  for (ordinal_t w : g.row(v)) {
    f(w);
    for (ordinal_t u : g.row(w)) {
      if (u != v) f(u);
    }
  }
}

}  // namespace

Coloring greedy_d2_coloring(graph::GraphView g) {
  const ordinal_t n = g.num_rows;
  Coloring result;
  result.colors.assign(static_cast<std::size_t>(n), invalid_ordinal);

  detail::ForbiddenSet forbidden;
  forbidden.ensure(static_cast<std::size_t>(n) + 1);
  ordinal_t num_colors = 0;
  for (ordinal_t v = 0; v < n; ++v) {
    forbidden.begin();
    for_each_within_2(g, v, [&](ordinal_t u) {
      forbidden.forbid(result.colors[static_cast<std::size_t>(u)]);
    });
    const ordinal_t c = forbidden.first_allowed();
    result.colors[static_cast<std::size_t>(v)] = c;
    num_colors = std::max(num_colors, c + 1);
  }
  result.num_colors = num_colors;
  result.rounds = 1;
  return result;
}

Coloring parallel_d2_coloring(graph::GraphView g) {
  const ordinal_t n = g.num_rows;

  // Speculation pays off only when the graph is large: below this size the
  // serial first-fit sweep is faster than any number of parallel rounds
  // (and AMG's coarse levels, which are small *and* dense, would otherwise
  // trigger a rounds-per-color pathology).
  constexpr ordinal_t serial_cutoff = 50000;
  if (n < serial_cutoff) {
    return greedy_d2_coloring(g);
  }

  Coloring result;
  result.colors.assign(static_cast<std::size_t>(n), invalid_ordinal);

  // Windowed speculation: each vertex picks one of its `window` smallest
  // allowed colors by hash. Spreads dense conflict sets over several
  // colors per round at the cost of a slightly larger final color count.
  constexpr ordinal_t window = 4;

  std::vector<ordinal_t> worklist(static_cast<std::size_t>(n));
  for (ordinal_t v = 0; v < n; ++v) worklist[static_cast<std::size_t>(v)] = v;
  std::vector<ordinal_t> tentative(static_cast<std::size_t>(n), invalid_ordinal);
  std::vector<int> speculated(static_cast<std::size_t>(n), 0);
  std::vector<ordinal_t> next;

  int rounds = 0;
  while (!worklist.empty()) {
    ++rounds;
    par::parallel_for(static_cast<ordinal_t>(worklist.size()), [&](ordinal_t i) {
      const ordinal_t v = worklist[static_cast<std::size_t>(i)];
      thread_local detail::ForbiddenSet forbidden;
      forbidden.ensure(static_cast<std::size_t>(n) + 1 + window);
      forbidden.begin();
      for_each_within_2(g, v, [&](ordinal_t u) {
        forbidden.forbid(result.colors[static_cast<std::size_t>(u)]);
      });
      const ordinal_t slot = static_cast<ordinal_t>(
          rng::hash_xorshift_star(static_cast<std::uint64_t>(rounds),
                                  static_cast<std::uint64_t>(v)) %
          window);
      tentative[static_cast<std::size_t>(v)] = forbidden.nth_allowed(slot);
      speculated[static_cast<std::size_t>(v)] = rounds;
    });

    // Conflict resolution by per-round hashed priority (ties by id), as in
    // d1_coloring.cpp: random priorities commit a large fraction of each
    // conflict set per round instead of serializing along id chains.
    auto priority = [&](ordinal_t u) {
      return rng::hash_xorshift_star(static_cast<std::uint64_t>(rounds),
                                     static_cast<std::uint64_t>(u));
    };
    par::parallel_for(static_cast<ordinal_t>(worklist.size()), [&](ordinal_t i) {
      const ordinal_t v = worklist[static_cast<std::size_t>(i)];
      const ordinal_t tc = tentative[static_cast<std::size_t>(v)];
      const std::uint64_t pv = priority(v);
      bool keep = true;
      for_each_within_2(g, v, [&](ordinal_t u) {
        if (u != v && speculated[static_cast<std::size_t>(u)] == rounds &&
            tentative[static_cast<std::size_t>(u)] == tc) {
          const std::uint64_t pu = priority(u);
          if (pu < pv || (pu == pv && u < v)) keep = false;
        }
      });
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
