/// \file coarsen_rgg.cpp
/// \brief Workload `coarsen_rgg`: warm MIS-2 aggregation (Algorithm 3)
/// plus quotient-graph contraction on a 3D random geometric graph, the
/// paper's Table II FEM-surrogate family. Closed loop, one caller, OpenMP
/// kernels. Nearly all the work is in `core`; SpGEMM and the solvers are
/// idle, so an MIS-2 or aggregation change shows here first.
#include <cstdio>

#include "check/digest.hpp"
#include "common.hpp"
#include "core/coarsen.hpp"
#include "graph/rgg.hpp"

namespace perfbench {
namespace {

using parmis::core::Aggregation;
using parmis::core::CoarsenHandle;
using parmis::graph::CrsGraph;

/// Percentile of `op_ms_tail`: a 25 s traced run holds about 50 untraced
/// ops, which leaves at least 10 beyond p75 (p90 would need 100).
constexpr double kTailPercentile = 75;

struct OpOutput {
  std::uint64_t agg_digest = 0;
  std::uint64_t coarse_digest = 0;
  ordinal_t aggregates = 0;
};

/// One op: aggregate + contract on `h` (its context pins both calls).
OpOutput coarsen_op(CoarsenHandle& h, const CrsGraph& g, std::int64_t id) {
  PERFBENCH_SPAN(op, "op", id);
  OpOutput out;
  const Aggregation* agg = nullptr;
  {
    PERFBENCH_SPAN(s, "core.aggregate_mis2", id);
    agg = &h.aggregate_mis2(g);
  }
  CrsGraph coarse;
  {
    PERFBENCH_SPAN(s, "core.coarse_graph", id);
    const parmis::Context::Scope scope(h.context());
    coarse = parmis::core::coarse_graph(g, *agg);
  }
  out.agg_digest = aggregation_digest(*agg);
  out.coarse_digest = parmis::check::digest(coarse);
  out.aggregates = agg->num_aggregates;
  return out;
}

}  // namespace

CrsGraph coarsen_input(Size size, std::uint64_t seed) {
  const ordinal_t n = size == Size::Full ? 300000 : 20000;
  return parmis::graph::random_geometric_3d(n, 24.0, mix(seed, 1));
}

Result run_coarsen_rgg(const RunConfig& cfg) {
  Result res;
  const CrsGraph g = coarsen_input(cfg.size, cfg.seed);
  res.note("input_digest", parmis::check::digest_hex(parmis::check::digest(g)));
  res.note("input", "rgg3d n=" + std::to_string(g.num_rows) +
                        " nnz=" + std::to_string(g.num_entries()));

  // Determinism reference: the same aggregation under Context::serial(),
  // validated structurally once.
  std::uint64_t ref_agg = 0;
  std::uint64_t ref_coarse = 0;
  {
    CoarsenHandle serial(parmis::Context::serial());
    const OpOutput ref = coarsen_op(serial, g, -1);
    ref_agg = ref.agg_digest;
    ref_coarse = ref.coarse_digest;
    res.checks_ok = parmis::core::verify_aggregation(g, serial.aggregation());
  }
  res.note("aggregation_digest", parmis::check::digest_hex(ref_agg));

  const parmis::Context ctx = kernel_context(cfg);
  auto op_ok = [&](const OpOutput& o) {
    return o.agg_digest == ref_agg && o.coarse_digest == ref_coarse;
  };

  // setup_s: the first aggregate + contract on fresh handles (cold scratch),
  // repeated; the median is reported. The last handle serves the loop.
  std::vector<double> setup;
  CoarsenHandle h(ctx);
  while (more_setups(setup)) {
    h = CoarsenHandle(ctx);
    const Clock::time_point t0 = Clock::now();
    const OpOutput o = coarsen_op(h, g, -1);
    setup.push_back(seconds_since(t0));
    res.record(op_ok(o) && aggregation_ok(g, h.aggregation(), ref_agg, true));
  }
  (void)coarsen_op(h, g, -1);  // warm: scratch at its steady-state size

  const parmis::core::KernelStats warm0 = h.stats();
  std::vector<double> untraced_ms;
  std::vector<double> traced_ms;
  std::vector<std::pair<double, double>> done;  ///< (completion s, ms) of untraced ops
  ordinal_t aggregates = 0;
  const Clock::time_point start = Clock::now();
  const double budget = cfg.trace ? 0.8 * cfg.seconds : cfg.seconds;
  for (std::int64_t i = 0; seconds_since(start) < budget; ++i) {
    // The traced run traces every third op, so both samples see the same
    // machine state and the untraced ops are enough for the tail; the
    // untraced run never traces.
    const bool traced = cfg.trace && i % 3 == 2;
    const TraceScope trace(traced);
    const Clock::time_point t0 = Clock::now();
    const OpOutput o = coarsen_op(h, g, i);
    const double ms = ms_between(t0, Clock::now());
    (traced ? traced_ms : untraced_ms).push_back(ms);
    if (!traced) done.emplace_back(seconds_since(start), ms);
    aggregates = o.aggregates;
    res.record(op_ok(o));
  }
  const std::uint64_t ops = h.stats().runs - warm0.runs;
  const std::uint64_t rounds = h.stats().iterations - warm0.iterations;
  const std::uint64_t grows = h.stats().scratch_grows - warm0.scratch_grows;

  if (!cfg.trace) {
    res.set("setup_s", median(setup), "s");
    res.set("op_ms_p50", percentile(untraced_ms, 50), "ms");
    res.set("ops_per_s", closed_loop_rate(done, 1, 1.0), "1/s");
    res.set("peak_rss_mb", peak_rss_mb(), "MiB");
    res.note("samples", std::to_string(untraced_ms.size()));
    return res;
  }

  const LayerTimes layers{benchmark_spans()};
  parmis::obs::clear_events();
  // The same op under Context::serial(), untraced, for the speedup ratio.
  std::vector<double> serial_ms;
  {
    CoarsenHandle serial(parmis::Context::serial());
    (void)coarsen_op(serial, g, -1);
    const Clock::time_point s0 = Clock::now();
    while (serial_ms.size() < 3 ||
           (seconds_since(s0) < 0.2 * cfg.seconds && serial_ms.size() < 50)) {
      const Clock::time_point t0 = Clock::now();
      res.record(op_ok(coarsen_op(serial, g, -1)));
      serial_ms.push_back(ms_between(t0, Clock::now()));
    }
  }
  const double p50 = percentile(untraced_ms, 50);
  set_percentile(res, "op_ms_tail", untraced_ms, kTailPercentile);
  set_percentile(res, "core.aggregate_mis2.ms_p50", layers.self_ms("core.aggregate_mis2"), 50);
  set_percentile(res, "core.coarse_graph.ms_p50", layers.self_ms("core.coarse_graph"), 50);
  res.set("core.mis2_rounds", ops ? static_cast<double>(rounds) / static_cast<double>(ops) : 0.0,
          "count");
  res.set("parallel.speedup_vs_serial", p50 > 0 ? percentile(serial_ms, 50) / p50 : 0.0, "ratio");
  res.set("core.warm_scratch_grows", static_cast<double>(grows), "count");
  res.set("core.scratch_bytes", static_cast<double>(h.scratch_bytes()), "bytes");
  res.set("core.aggregates", static_cast<double>(aggregates), "count");
  res.set("bench.trace_overhead_frac", p50 > 0 ? percentile(traced_ms, 50) / p50 - 1.0 : 0.0,
          "ratio");
  res.set("bench.untimed_frac", layers.untimed_frac(), "ratio");
  res.note("traced_samples", std::to_string(traced_ms.size()));
  res.note("serial_samples", std::to_string(serial_ms.size()));
  return res;
}

}  // namespace perfbench
