#pragma once
/// \file streaming.hpp
/// \brief Streaming vertex partitioners: linear deterministic greedy (LDG)
/// and the contiguous block baseline.
///
/// LDG (Stanton & Kliot, KDD 2012; the `ldg` algorithm of the
/// GraphPartitioners suite) assigns each vertex of a stream to the part
/// holding most of its already-placed neighbors, damped by how full that
/// part is: score(v, p) = w(N(v) ∩ p) * (1 - load(p) / capacity). No
/// coarsening — the classic cheap-and-good baseline against multilevel.
///
/// This implementation restreams (Nishimura & Ugander, KDD 2013): after
/// the first pass, each pass scores every vertex against the *previous*
/// pass's complete assignment, which both lifts quality far above a single
/// blind pass and makes parallel batch scoring exact. The stream order is
/// the deterministic hashed shuffle of `random/hash.hpp`, and batches are
/// fixed-size snapshots, so the result is bit-identical for every backend
/// and thread count (same scheme as the library's chunked reductions).

#include <vector>

#include "multilevel/weighted.hpp"
#include "partition/partitioner.hpp"

namespace parmis::partition {

/// Vertices scored per parallel round. Fixed (never derived from the
/// thread count) so the snapshot boundaries — and the result — never move.
inline constexpr ordinal_t ldg_batch_size = 512;

/// Restream count: one blind pass plus this many informed passes.
inline constexpr int ldg_restream_passes = 8;

/// Restreaming linear-deterministic-greedy partition of `g` into `k`
/// parts. Stream order is the hashed vertex order seeded by `opts.seed`;
/// capacity is (1 + opts.imbalance_tolerance) * ideal part weight.
[[nodiscard]] std::vector<ordinal_t> ldg_partition(const WeightedGraph& g, ordinal_t k,
                                                   const PartitionOptions& opts);

/// Contiguous block partition balanced by vertex weight: vertex ids are cut
/// into k consecutive ranges of near-equal weight. The zero-information
/// baseline every comparison table needs — good balance, poor cut unless
/// the vertex numbering is already locality-friendly.
[[nodiscard]] std::vector<ordinal_t> block_partition(const WeightedGraph& g, ordinal_t k,
                                                     const PartitionOptions& opts);

}  // namespace parmis::partition
