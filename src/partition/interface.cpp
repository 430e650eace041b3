#include "partition/interface.hpp"

#include <stdexcept>

#include "check/check.hpp"
#include "check/validate.hpp"
#include "obs/timer.hpp"
#include "partition/label_prop.hpp"
#include "partition/streaming.hpp"

namespace parmis::partition {

PartitionResult Partitioner::run(const WeightedGraph& g, ordinal_t k,
                                 const PartitionOptions& opts) const {
  if (k < 1) {
    throw std::invalid_argument("partitioner '" + name() + "': k must be >= 1, got " +
                                std::to_string(k));
  }
  Timer t;
  PartitionResult r = partition(g, k, opts);
  r.seconds = t.seconds();
  r.k = k;
  if (r.part.size() != static_cast<std::size_t>(g.graph.num_rows)) {
    throw std::runtime_error("partitioner '" + name() + "' returned a labeling of wrong size");
  }
  for (ordinal_t p : r.part) {
    if (p < 0 || p >= k) {
      throw std::runtime_error("partitioner '" + name() + "' produced an out-of-range label");
    }
  }
  // Nonempty parts are a quality expectation, not a hard API guarantee, so
  // they are only asserted in check builds (and skipped on graphs with
  // fewer vertices than parts, where emptiness is forced).
  PARMIS_CHECK_OK(check::validate_partition(r.part, k, /*require_nonempty_parts=*/true));
  r.quality = evaluate_partition(g, r.part, k);
  return r;
}

namespace {

/// The existing multilevel recursive-bisection path, wrapped as the first
/// registered implementation (one entry per coarsening scheme; the scheme
/// is a core `Coarsener` registry name).
class MultilevelPartitioner final : public Partitioner {
 public:
  MultilevelPartitioner(std::string name, std::string coarsener)
      : name_(std::move(name)), coarsener_(std::move(coarsener)) {}

  [[nodiscard]] std::string name() const override { return name_; }

  [[nodiscard]] PartitionResult partition(const WeightedGraph& g, ordinal_t k,
                                          const PartitionOptions& opts) const override {
    PartitionOptions o = opts;
    o.coarsener = coarsener_;
    PartitionResult r;
    r.part = partition_labels_weighted(g, k, o);
    r.k = k;
    return r;
  }

 private:
  std::string name_;
  std::string coarsener_;
};

/// Adapter for algorithms written as free labeling functions.
class FunctionPartitioner final : public Partitioner {
 public:
  using Fn = std::vector<ordinal_t> (*)(const WeightedGraph&, ordinal_t,
                                        const PartitionOptions&);
  FunctionPartitioner(std::string name, Fn fn) : name_(std::move(name)), fn_(fn) {}

  [[nodiscard]] std::string name() const override { return name_; }

  [[nodiscard]] PartitionResult partition(const WeightedGraph& g, ordinal_t k,
                                          const PartitionOptions& opts) const override {
    PartitionResult r;
    r.part = fn_(g, k, opts);
    r.k = k;
    return r;
  }

 private:
  std::string name_;
  Fn fn_;
};

PartitionerSpec multilevel_spec(std::string name, std::string description,
                                std::string coarsener) {
  return {name, std::move(description), [name, coarsener]() -> std::unique_ptr<Partitioner> {
            return std::make_unique<MultilevelPartitioner>(name, coarsener);
          }};
}

PartitionerSpec function_spec(std::string name, std::string description,
                              FunctionPartitioner::Fn fn) {
  return {name, std::move(description), [name, fn]() -> std::unique_ptr<Partitioner> {
            return std::make_unique<FunctionPartitioner>(name, fn);
          }};
}

}  // namespace

const Registry<PartitionerSpec>& partitioners() {
  static const Registry<PartitionerSpec> registry(
      "partitioner",
      {multilevel_spec(
           "multilevel-mis2",
           "multilevel recursive bisection, MIS-2 aggregation coarsening (the paper's scheme)",
           "mis2"),
       multilevel_spec(
           "multilevel-hem",
           "multilevel recursive bisection, heavy-edge-matching coarsening (classical baseline)",
           "hem"),
       multilevel_spec(
           "multilevel-mis2basic",
           "multilevel recursive bisection, basic MIS-2 coarsening (Algorithm 2 ablation)",
           "mis2-basic"),
       function_spec("ldg",
                     "streaming linear deterministic greedy (Stanton-Kliot), hashed stream order",
                     &ldg_partition),
       function_spec("lp-grow",
                     "BFS region growing from farthest-point seeds + label-propagation refinement",
                     &lp_grow_partition),
       function_spec("block",
                     "contiguous vertex-id blocks balanced by weight (zero-information baseline)",
                     &block_partition)});
  return registry;
}

}  // namespace parmis::partition
