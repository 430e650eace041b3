#include "core/aggregation.hpp"

#include <algorithm>
#include <cassert>
#include <numeric>
#include <vector>

#include "check/check.hpp"
#include "check/validate.hpp"
#include "obs/trace.hpp"
#include "parallel/balanced_for.hpp"
#include "parallel/parallel_for.hpp"
#include "parallel/parallel_reduce.hpp"
#include "parallel/parallel_scan.hpp"
#include "random/hash.hpp"

namespace parmis::core {

namespace {

/// Phase 1 of both algorithms: roots = MIS-2 members get aggregate ids in
/// member order; each root claims itself and all its neighbors. Conflict-
/// free: distance-2 independence means no vertex neighbors two roots.
void grow_initial_aggregates(graph::GraphView g, const Mis2Result& mis,
                             std::vector<ordinal_t>& labels) {
  const ordinal_t num_roots = mis.set_size();
  par::parallel_for(num_roots, [&](ordinal_t i) {
    const ordinal_t r = mis.members[static_cast<std::size_t>(i)];
    labels[static_cast<std::size_t>(r)] = i;
    for (ordinal_t w : g.row(r)) {
      labels[static_cast<std::size_t>(w)] = i;
    }
  });
}

/// Algorithm 2 body on an already-computed MIS-2, writing into `agg` and
/// using `snapshot` as the immutable-label scratch.
void build_basic(graph::GraphView g, const Mis2Result& mis, Aggregation& agg,
                 std::vector<ordinal_t>& snapshot) {
  assert(g.num_rows == g.num_cols);
  const ordinal_t n = g.num_rows;

  agg.phase1_iterations = mis.iterations;
  agg.phase2_iterations = 0;
  agg.labels.assign(static_cast<std::size_t>(n), invalid_ordinal);
  agg.roots.assign(mis.members.begin(), mis.members.end());
  agg.num_aggregates = mis.set_size();
  grow_initial_aggregates(g, mis, agg.labels);

  // Leftovers join the aggregate of the lowest-indexed labeled neighbor
  // ("any neighbor" in the paper; lowest-index makes it deterministic).
  // Maximality guarantees such a neighbor exists: every vertex is within
  // two hops of a root, and the middle vertex of that path is labeled.
  snapshot.assign(agg.labels.begin(), agg.labels.end());
  par::parallel_for(n, [&](ordinal_t v) {
    if (snapshot[static_cast<std::size_t>(v)] != invalid_ordinal) return;
    for (ordinal_t w : g.row(v)) {
      const ordinal_t a = snapshot[static_cast<std::size_t>(w)];
      if (a != invalid_ordinal) {
        agg.labels[static_cast<std::size_t>(v)] = a;
        return;
      }
    }
    assert(false && "maximality violated: leftover vertex with no labeled neighbor");
  });
}

}  // namespace

std::size_t CoarsenHandle::scratch_bytes() const {
  return mis2_.scratch_bytes() + active_.capacity() * sizeof(char) +
         (tent_.capacity() + agg_size_.capacity() + coupling_.capacity() + accepted_.capacity() +
          mate_.capacity() + order_.capacity()) *
             sizeof(ordinal_t) +
         flags_.capacity() * sizeof(std::int64_t);
}

void CoarsenHandle::record_run(std::size_t bytes_before) {
  ++stats_.runs;
  stats_.iterations += static_cast<std::uint64_t>(agg_.phase1_iterations) +
                       static_cast<std::uint64_t>(agg_.phase2_iterations);
  if (scratch_bytes() > bytes_before) ++stats_.scratch_grows;
}

const Aggregation& CoarsenHandle::aggregate_basic(graph::GraphView g) {
  Context::Scope scope(context());
  const std::size_t bytes_before = scratch_bytes();
  mis2_.run(g);
  build_basic(g, mis2_.result(), agg_, tent_);
  record_run(bytes_before);
  PARMIS_CHECK_OK(check::validate(agg_, g.num_rows));
  return agg_;
}

const Aggregation& CoarsenHandle::aggregate_mis2(graph::GraphView g) {
  Context::Scope scope(context());
  const std::size_t bytes_before = scratch_bytes();
  assert(g.num_rows == g.num_cols);
  const ordinal_t n = g.num_rows;
  Aggregation& agg = agg_;

  // Spans split the op into Algorithm 3's phases; each MIS-2 run nests
  // its own `mis2.*` spans inside.
  ordinal_t base = 0;
  // --- Phase 1: initial aggregates from MIS-2 roots + neighbors ---------
  {
    PARMIS_SPAN("aggregate.grow");
    const Mis2Result& mis1 = mis2_.run(g);

    agg.phase1_iterations = mis1.iterations;
    agg.labels.assign(static_cast<std::size_t>(n), invalid_ordinal);
    grow_initial_aggregates(g, mis1, agg.labels);
    // The phase-2 masked run below overwrites the handle's MIS-2 result, so
    // copy out what phase 3 needs from mis1 (roots in member order).
    agg.roots.assign(mis1.members.begin(), mis1.members.end());
    base = mis1.set_size();
  }

  // --- Phase 2: secondary aggregates on the leftover-induced subgraph ---
  {
    PARMIS_SPAN("aggregate.secondary");
    active_.resize(static_cast<std::size_t>(n));
    par::parallel_for(n, [&](ordinal_t v) {
      active_[static_cast<std::size_t>(v)] =
          agg.labels[static_cast<std::size_t>(v)] == invalid_ordinal ? 1 : 0;
    });

    const Mis2Result& mis2_result = mis2_.run_masked(g, active_);
    agg.phase2_iterations = mis2_result.iterations;

    auto unagg_neighbors = [&](ordinal_t r) {
      ordinal_t count = 0;
      for (ordinal_t w : g.row(r)) {
        if (active_[static_cast<std::size_t>(w)]) ++count;
      }
      return count;
    };

    // Keep only secondary roots with at least 2 leftover neighbors; smaller
    // aggregates would increase fill-in during multigrid smoothing (paper
    // §III-B).
    par::compact_into_scratch(
        static_cast<ordinal_t>(mis2_result.members.size()),
        [&](ordinal_t i) {
          return unagg_neighbors(mis2_result.members[static_cast<std::size_t>(i)]) >= 2;
        },
        [&](ordinal_t i) { return mis2_result.members[static_cast<std::size_t>(i)]; }, accepted_,
        flags_);

    par::parallel_for(static_cast<ordinal_t>(accepted_.size()), [&](ordinal_t i) {
      const ordinal_t r = accepted_[static_cast<std::size_t>(i)];
      const ordinal_t id = base + i;
      agg.labels[static_cast<std::size_t>(r)] = id;
      for (ordinal_t w : g.row(r)) {
        if (active_[static_cast<std::size_t>(w)]) {
          agg.labels[static_cast<std::size_t>(w)] = id;
        }
      }
    });

    agg.num_aggregates = base + static_cast<ordinal_t>(accepted_.size());
    agg.roots.insert(agg.roots.end(), accepted_.begin(), accepted_.end());
  }

  // --- Phase 3: cleanup against immutable tentative labels ---------------
  {
    PARMIS_SPAN("aggregate.cleanup");
    tent_.assign(agg.labels.begin(), agg.labels.end());
    const ordinal_t* tent = tent_.data();
    const ordinal_t na = agg.num_aggregates;

    // Tentative aggregate sizes: phases 1 and 2 label only a root and some
    // of its neighbors, so each root counts its own aggregate.
    agg_size_.resize(static_cast<std::size_t>(na));
    par::parallel_for(na, [&](ordinal_t a) {
      ordinal_t size = 1;
      for (ordinal_t w : g.row(agg.roots[static_cast<std::size_t>(a)])) size += tent[w] == a;
      agg_size_[static_cast<std::size_t>(a)] = size;
    });

    // Coupling of a leftover vertex to each adjacent aggregate, counted in
    // its chunk's row of `coupling_`. A second sweep over the same
    // neighbors evaluates each aggregate at its first occurrence and resets
    // its counter, so the counters are all zero again after every vertex,
    // and a resize for another layout keeps them so.
    const int nchunks = par::balanced_chunk_count();
    const std::size_t stride = static_cast<std::size_t>(na);
    coupling_.resize(static_cast<std::size_t>(nchunks) * stride, 0);
    par::balanced_chunks(n, par::schedule_uses_costs() ? g.row_map : nullptr,
                         [&](int q, ordinal_t lo, ordinal_t hi) {
      ordinal_t* coupling = coupling_.data() + static_cast<std::size_t>(q) * stride;
      for (ordinal_t v = lo; v < hi; ++v) {
        if (tent[v] != invalid_ordinal) continue;
        for (ordinal_t w : g.row(v)) {
          if (tent[w] != invalid_ordinal) ++coupling[tent[w]];
        }
        ordinal_t best_agg = invalid_ordinal;
        ordinal_t best_coupling = 0;
        ordinal_t best_size = max_ordinal;
        for (ordinal_t w : g.row(v)) {
          const ordinal_t a = tent[w];
          if (a == invalid_ordinal || coupling[a] == 0) continue;
          const ordinal_t c = coupling[a];
          const ordinal_t size = agg_size_[static_cast<std::size_t>(a)];
          coupling[a] = 0;
          // Max coupling; tie -> min tentative size; tie -> min id.
          if (c > best_coupling ||
              (c == best_coupling && (size < best_size || (size == best_size && a < best_agg)))) {
            best_agg = a;
            best_coupling = c;
            best_size = size;
          }
        }
        assert(best_agg != invalid_ordinal && "maximality violated in cleanup phase");
        agg.labels[static_cast<std::size_t>(v)] = best_agg;
      }
    });
  }

  record_run(bytes_before);
  PARMIS_CHECK_OK(check::validate(agg, g.num_rows));
  PARMIS_CHECK_MSG(verify_aggregation(g, agg), "mis2 aggregation has a disconnected aggregate");
  return agg;
}

const Aggregation& CoarsenHandle::aggregate_hem(graph::GraphView g,
                                                std::span<const ordinal_t> edge_weight,
                                                std::uint64_t seed) {
  const std::size_t bytes_before = scratch_bytes();
  assert(g.num_rows == g.num_cols);
  assert(edge_weight.empty() ||
         edge_weight.size() == static_cast<std::size_t>(g.num_entries()));
  const ordinal_t n = g.num_rows;
  Aggregation& agg = agg_;
  agg.phase1_iterations = 0;
  agg.phase2_iterations = 0;

  mate_.assign(static_cast<std::size_t>(n), invalid_ordinal);

  // Hashed visit order decorrelates the matching from vertex numbering.
  order_.resize(static_cast<std::size_t>(n));
  std::iota(order_.begin(), order_.end(), 0);
  std::sort(order_.begin(), order_.end(), [&](ordinal_t a, ordinal_t b) {
    const std::uint64_t ha = rng::hash_xorshift_star(seed, static_cast<std::uint64_t>(a));
    const std::uint64_t hb = rng::hash_xorshift_star(seed, static_cast<std::uint64_t>(b));
    return ha != hb ? ha < hb : a < b;
  });

  for (ordinal_t v : order_) {
    if (mate_[static_cast<std::size_t>(v)] != invalid_ordinal) continue;
    ordinal_t best = invalid_ordinal;
    ordinal_t best_w = 0;
    for (offset_t j = g.row_map[v]; j < g.row_map[v + 1]; ++j) {
      const ordinal_t u = g.entries[static_cast<std::size_t>(j)];
      if (mate_[static_cast<std::size_t>(u)] != invalid_ordinal) continue;
      const ordinal_t w = edge_weight.empty() ? 1 : edge_weight[static_cast<std::size_t>(j)];
      if (w > best_w || (w == best_w && (best == invalid_ordinal || u < best))) {
        best = u;
        best_w = w;
      }
    }
    if (best != invalid_ordinal) {
      mate_[static_cast<std::size_t>(v)] = best;
      mate_[static_cast<std::size_t>(best)] = v;
    }
  }

  // Assign coarse ids: pairs and singletons in vertex order; the root of
  // each aggregate is its lower-numbered member.
  agg.labels.assign(static_cast<std::size_t>(n), invalid_ordinal);
  agg.roots.clear();
  ordinal_t num_coarse = 0;
  for (ordinal_t v = 0; v < n; ++v) {
    if (agg.labels[static_cast<std::size_t>(v)] != invalid_ordinal) continue;
    const ordinal_t id = num_coarse++;
    agg.labels[static_cast<std::size_t>(v)] = id;
    agg.roots.push_back(v);
    const ordinal_t u = mate_[static_cast<std::size_t>(v)];
    if (u != invalid_ordinal) agg.labels[static_cast<std::size_t>(u)] = id;
  }
  agg.num_aggregates = num_coarse;
  record_run(bytes_before);
  PARMIS_CHECK_OK(check::validate(agg, g.num_rows));
  return agg;
}

Aggregation aggregate_basic(graph::GraphView g, const Mis2Options& opts) {
  CoarsenHandle handle(opts);
  handle.aggregate_basic(g);
  return handle.take_aggregation();
}

Aggregation aggregate_from_mis(graph::GraphView g, const Mis2Result& mis) {
  Aggregation agg;
  std::vector<ordinal_t> snapshot;
  build_basic(g, mis, agg, snapshot);
  return agg;
}

Aggregation aggregate_mis2(graph::GraphView g, const Mis2Options& opts) {
  CoarsenHandle handle(opts);
  handle.aggregate_mis2(g);
  return handle.take_aggregation();
}

AggregationStats aggregation_stats(const Aggregation& agg) {
  AggregationStats s;
  s.num_aggregates = agg.num_aggregates;
  if (agg.num_aggregates == 0) return s;
  std::vector<ordinal_t> size(static_cast<std::size_t>(agg.num_aggregates), 0);
  for (ordinal_t a : agg.labels) {
    if (a != invalid_ordinal) ++size[static_cast<std::size_t>(a)];
  }
  s.min_size = *std::min_element(size.begin(), size.end());
  s.max_size = *std::max_element(size.begin(), size.end());
  s.avg_size = static_cast<double>(agg.labels.size()) / agg.num_aggregates;
  return s;
}

bool verify_aggregation(graph::GraphView g, const Aggregation& agg) {
  const ordinal_t n = g.num_rows;
  if (agg.labels.size() != static_cast<std::size_t>(n)) return false;
  if (agg.roots.size() != static_cast<std::size_t>(agg.num_aggregates)) return false;

  // Totality and label range.
  for (ordinal_t v = 0; v < n; ++v) {
    const ordinal_t a = agg.labels[static_cast<std::size_t>(v)];
    if (a < 0 || a >= agg.num_aggregates) return false;
  }
  // Roots own their aggregates.
  for (ordinal_t a = 0; a < agg.num_aggregates; ++a) {
    const ordinal_t r = agg.roots[static_cast<std::size_t>(a)];
    if (r < 0 || r >= n) return false;
    if (agg.labels[static_cast<std::size_t>(r)] != a) return false;
  }

  // Connectivity: BFS from each root restricted to its aggregate must
  // reach every member.
  std::vector<ordinal_t> member_count(static_cast<std::size_t>(agg.num_aggregates), 0);
  for (ordinal_t v = 0; v < n; ++v) {
    ++member_count[static_cast<std::size_t>(agg.labels[static_cast<std::size_t>(v)])];
  }
  std::vector<char> visited(static_cast<std::size_t>(n), 0);
  std::vector<ordinal_t> queue;
  for (ordinal_t a = 0; a < agg.num_aggregates; ++a) {
    const ordinal_t r = agg.roots[static_cast<std::size_t>(a)];
    queue.clear();
    queue.push_back(r);
    visited[static_cast<std::size_t>(r)] = 1;
    ordinal_t reached = 1;
    for (std::size_t qi = 0; qi < queue.size(); ++qi) {
      for (ordinal_t w : g.row(queue[qi])) {
        if (!visited[static_cast<std::size_t>(w)] &&
            agg.labels[static_cast<std::size_t>(w)] == a) {
          visited[static_cast<std::size_t>(w)] = 1;
          queue.push_back(w);
          ++reached;
        }
      }
    }
    if (reached != member_count[static_cast<std::size_t>(a)]) return false;
  }
  return true;
}

}  // namespace parmis::core
