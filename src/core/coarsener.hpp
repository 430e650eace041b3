#pragma once
/// \file coarsener.hpp
/// \brief The pluggable coarsening interface: an abstract `Coarsener`, a
/// validated run driver, and a string-keyed algorithm registry.
///
/// PR 1 made partitioning pluggable (`partition/interface.hpp`); this
/// header does the same one layer down, for the coarsening step itself —
/// the component every consumer in this library shares (multilevel
/// coarsening, the multilevel partitioners, AMG setup, cluster
/// Gauss-Seidel). Algorithms sit behind one interface, are selected by
/// name, and run through a reusable `CoarsenHandle` so hierarchies reuse
/// scratch across levels. The registry is where future schemes land:
/// parallel matching (Birn et al.) and spectral-quality coarsening
/// (Brissette et al.) from the ROADMAP both fit this signature.
///
/// Every registered coarsener is deterministic: the labeling is
/// bit-identical on the Serial and OpenMP backends at any thread count.

#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/registry.hpp"
#include "core/aggregation.hpp"
#include "graph/crs.hpp"

namespace parmis::core {

/// Per-call coarsening configuration (the handle carries only context and
/// scratch; options travel with the call).
struct CoarsenOptions {
  Mis2Options mis2;            ///< MIS-2 configuration (mis2 / mis2-basic)
  std::uint64_t hem_seed = 1;  ///< visit-order seed (hem)
};

/// Abstract base every coarsening scheme implements.
class Coarsener {
 public:
  virtual ~Coarsener() = default;

  /// Registry name of this scheme.
  [[nodiscard]] virtual std::string name() const = 0;

  /// One level of coarsening: aggregate the vertices of `g`. `edge_weight`
  /// parallels `g.entries` (empty = unit weights; only weight-aware
  /// schemes read it). Scratch comes from `handle` and is reused across
  /// calls; the returned reference stays valid until the next call through
  /// the same handle. Implementations must be deterministic across
  /// backends and thread counts.
  virtual const Aggregation& coarsen(graph::GraphView g,
                                     std::span<const ordinal_t> edge_weight,
                                     CoarsenHandle& handle,
                                     const CoarsenOptions& opts) const = 0;

  /// Validated driver: runs coarsen() and checks the labeling is total
  /// (every vertex labeled, every label in [0, num_aggregates)). Throws
  /// std::runtime_error on violation.
  const Aggregation& run(graph::GraphView g, std::span<const ordinal_t> edge_weight,
                         CoarsenHandle& handle, const CoarsenOptions& opts = {}) const;
};

/// Registry entry: a name, a one-line description, and a factory.
struct CoarsenerSpec {
  std::string name;
  std::string description;
  std::function<std::unique_ptr<Coarsener>()> make;
};

/// All registered coarseners, stable order (the paper's scheme first).
const Registry<CoarsenerSpec>& coarseners();

}  // namespace parmis::core
