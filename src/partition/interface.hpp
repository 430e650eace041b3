#pragma once
/// \file interface.hpp
/// \brief The pluggable partitioning interface: an abstract `Partitioner`,
/// a timed run driver, and a string-keyed algorithm registry.
///
/// The paper's second headline use case for MIS-2 coarsening is multilevel
/// graph partitioning (§II, §VII). Production partitioning systems
/// (osrm-backend's partitioner tool, GraphPartitioners' `split()`
/// hierarchy, KaHIP) converge on the same shape: algorithms behind one
/// interface, selected by name, compared through shared quality metrics.
/// This header is that shape for this library. Every registered algorithm
/// is deterministic: the labeling is bit-identical on the Serial and
/// OpenMP backends at any thread count.

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/registry.hpp"
#include "multilevel/weighted.hpp"
#include "partition/partitioner.hpp"
#include "partition/quality.hpp"

namespace parmis::partition {

/// Outcome of one partitioner run: the labeling plus per-run stats.
struct PartitionResult {
  std::vector<ordinal_t> part;  ///< vertex -> part id in [0, k)
  ordinal_t k{0};
  double seconds{0.0};     ///< wall time of the partition call (run() only)
  QualityReport quality;   ///< filled by run()
};

/// Abstract base every partitioning algorithm implements.
class Partitioner {
 public:
  virtual ~Partitioner() = default;

  /// Registry name of this algorithm.
  [[nodiscard]] virtual std::string name() const = 0;

  /// Assign every vertex of `g` to a part in [0, k). Implementations must
  /// be deterministic across backends and thread counts.
  [[nodiscard]] virtual PartitionResult partition(const WeightedGraph& g, ordinal_t k,
                                                  const PartitionOptions& opts) const = 0;

  /// Timed driver: runs partition() under a Timer, validates the label
  /// range, and computes the full QualityReport. Throws std::runtime_error
  /// if the algorithm produced an out-of-range label.
  [[nodiscard]] PartitionResult run(const WeightedGraph& g, ordinal_t k,
                                    const PartitionOptions& opts = {}) const;
};

/// Registry entry: a name, a one-line description, and a factory.
struct PartitionerSpec {
  std::string name;
  std::string description;
  std::function<std::unique_ptr<Partitioner>()> make;
};

/// All registered partitioners, stable order (multilevel first, then the
/// streaming and propagation algorithms, then baselines).
const Registry<PartitionerSpec>& partitioners();

}  // namespace parmis::partition
