#include "core/coarsener.hpp"

#include <stdexcept>

namespace parmis::core {

const Aggregation& Coarsener::run(graph::GraphView g, std::span<const ordinal_t> edge_weight,
                                  CoarsenHandle& handle, const CoarsenOptions& opts) const {
  const Aggregation& agg = coarsen(g, edge_weight, handle, opts);
  if (agg.labels.size() != static_cast<std::size_t>(g.num_rows)) {
    throw std::runtime_error("coarsener '" + name() + "' returned a labeling of wrong size");
  }
  for (ordinal_t a : agg.labels) {
    if (a < 0 || a >= agg.num_aggregates) {
      throw std::runtime_error("coarsener '" + name() + "' produced an out-of-range label");
    }
  }
  return agg;
}

namespace {

/// Algorithm 3 (the paper's contribution) and Algorithm 2 behind one
/// implementation, selected at registration.
class Mis2Coarsener final : public Coarsener {
 public:
  Mis2Coarsener(std::string name, bool algorithm3) : name_(std::move(name)), alg3_(algorithm3) {}

  [[nodiscard]] std::string name() const override { return name_; }

  const Aggregation& coarsen(graph::GraphView g, std::span<const ordinal_t> /*edge_weight*/,
                             CoarsenHandle& handle, const CoarsenOptions& opts) const override {
    handle.mis2_options() = opts.mis2;
    return alg3_ ? handle.aggregate_mis2(g) : handle.aggregate_basic(g);
  }

 private:
  std::string name_;
  bool alg3_;
};

/// Classical heavy-edge matching (the §II comparison point).
class HemCoarsener final : public Coarsener {
 public:
  [[nodiscard]] std::string name() const override { return "hem"; }

  const Aggregation& coarsen(graph::GraphView g, std::span<const ordinal_t> edge_weight,
                             CoarsenHandle& handle, const CoarsenOptions& opts) const override {
    return handle.aggregate_hem(g, edge_weight, opts.hem_seed);
  }
};

}  // namespace

const Registry<CoarsenerSpec>& coarseners() {
  static const Registry<CoarsenerSpec> registry(
      "coarsener",
      {{"mis2", "two-round MIS-2 aggregation with coupling cleanup (Algorithm 3, the paper)",
        [] { return std::make_unique<Mis2Coarsener>("mis2", true); }},
       {"mis2-basic", "single-round MIS-2 aggregation, roots + neighbors (Algorithm 2, Bell)",
        [] { return std::make_unique<Mis2Coarsener>("mis2-basic", false); }},
       {"hem", "greedy heavy-edge matching, hashed visit order (classical baseline)",
        [] { return std::make_unique<HemCoarsener>(); }}});
  return registry;
}

}  // namespace parmis::core
