#pragma once
/// \file options.hpp
/// \brief `multilevel::Options`: the one configuration every multilevel
/// level loop in this library shares.
///
/// The per-level coarsening scheme, the three stopping rules (size, level
/// count, coarsening-rate floor), and the Galerkin-mode
/// operator-complexity cap that keeps pairwise-matching hierarchies from
/// densifying on power-law inputs. Plain coarsening hands it to the
/// `Builder` directly, AMG embeds it as `solver::AmgOptions::hierarchy`
/// (with AMG defaults), and the multilevel partitioners derive it from
/// `partition::PartitionOptions`.

#include <cstdint>
#include <functional>
#include <optional>
#include <string>

#include "core/aggregation.hpp"
#include "core/coarsener.hpp"
#include "graph/crs.hpp"
#include "parallel/context.hpp"

namespace parmis::multilevel {

/// Custom per-level aggregation hook: consumers whose coarsening scheme is
/// not (yet) a registered `Coarsener` — e.g. the Table V serial/D2C
/// schemes in AMG setup — plug in here. `level` is the 0-based coarsening
/// step. When set, `Options::coarsener` is ignored.
using Aggregator = std::function<core::Aggregation(
    graph::GraphView g, core::CoarsenHandle& handle, const core::CoarsenOptions& opts,
    int level)>;

struct Options {
  /// Registry name of the per-level coarsening scheme
  /// (`core/coarsener.hpp`): "mis2" (Algorithm 3, the default),
  /// "mis2-basic" (Algorithm 2), "hem", or any future registered scheme.
  std::string coarsener = "mis2";

  /// Custom aggregation hook; overrides `coarsener` when set.
  Aggregator aggregator;

  /// Maximum number of coarsening *steps* (a hierarchy of `max_levels`
  /// steps has `max_levels + 1` operator levels).
  int max_levels = 64;

  /// Stop coarsening once a level has at most this many vertices.
  ordinal_t min_coarse_size = 64;

  /// Coarsening-rate floor: a step producing more than
  /// `rate_floor * n` aggregates from `n` vertices counts as stalled and
  /// the loop stops (a step that fails to shrink at all always stops).
  /// 0.95 is the historical multilevel-coarsening stall guard; 1.0
  /// disables the floor short of a full stall.
  double rate_floor = 0.95;

  /// Galerkin mode only: reject a coarse operator that would push
  /// `sum(nnz(A_l)) / nnz(A_0)` past this cap and stop coarsening instead
  /// of densifying (the AMG+HEM power-law guard). 0 disables the cap.
  double complexity_cap = 0.0;

  /// Galerkin mode only: damping of the one Jacobi prolongator-smoothing
  /// step P = (I - omega D^-1 A) P̂.
  scalar_t prolongator_omega = 2.0 / 3.0;

  /// MIS-2 configuration passed to every level's aggregation.
  core::Mis2Options mis2;

  /// Visit-order seed for order-dependent coarseners (HEM).
  std::uint64_t seed = 1;

  /// Derive fresh per-level seeds (the multilevel-partitioning behavior:
  /// each level xors a level-salted constant into the MIS-2 seed and
  /// offsets the HEM seed) instead of reusing the same seeds at every
  /// level.
  bool reseed_per_level = false;

  /// Execution context the whole build runs under. Unset inherits the
  /// ambient configuration.
  std::optional<Context> ctx;
};

}  // namespace parmis::multilevel
