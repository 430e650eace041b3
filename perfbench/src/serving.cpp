/// \file serving.cpp
/// \brief The two serving workloads, both through `serve::Service` with one
/// pool entry per worker thread (serial contexts, the pool default).
///
///  - `serve_mesh`: open loop against a CG+AMG service on a 3D Laplacian:
///    reference steps at a fixed rate around a search for the capacity.
///    Workers claim the next scheduled item by atomic index and wait until
///    it is due; every `kWriteEvery`-th item is a `Service::customize` write
///    and reads are pinned to epochs by index. Exercises the single-RHS
///    solve path and the serve layer (lease, pool, epochs); writes run the
///    warm value-only Galerkin replay.
///  - `serve_batched_powerlaw`: closed loop of K-wide waves through
///    `Service::solve_batch` with block-CG+AMG on the hub-skewed power-law
///    operator, the only workload that exercises the K-wide layer.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <limits>
#include <memory>
#include <thread>

#include "check/digest.hpp"
#include "common.hpp"
#include "graph/generators.hpp"
#include "multilevel/builder.hpp"
#include "serve/service.hpp"
#include "solver/vector_ops.hpp"

namespace perfbench {
namespace {

using parmis::graph::CrsMatrix;
using parmis::serve::PoolStats;
using parmis::serve::RequestOutcome;
using parmis::serve::ServeRequest;
using parmis::serve::Service;

constexpr double kTolerance = 1e-8;
constexpr int kBatchWidth = 8;
/// Wave tail percentile: each half of a 25 s traced run holds about 750
/// waves, which leaves at least 10 beyond p95 (p99 would need 1000).
constexpr double kWaveTailPercentile = 95;

// serve_mesh load shape; perfbench/README.md gives the measurements each
// number is derived from. A rate is sustained when its read p99 meets
// kLatencyLimitMs and the median of the last tenth of its reads does too
// (no growing backlog).
constexpr double kReferenceRate = 150.0;  ///< about 55% of the measured capacity
constexpr double kLatencyLimitMs = 100.0; ///< between stable and saturated steps' p99
constexpr std::size_t kWriteEvery = 15;   ///< customize writes take ~5% of worker time
constexpr std::size_t kStepReads = 1000;  ///< reads per step: 10 beyond its p99
constexpr double kSearchFactor = 1.1;     ///< capacity search: first step off the estimate
constexpr std::size_t kSampleEvery = 16;  ///< every 16th read has its residual checked

struct ServiceBuild {
  std::unique_ptr<Service> service;
  double seconds = 0.0;
};

/// Cold serving setup: Galerkin hierarchy build at the kernel context,
/// `Service` construction, then every pool entry warmed (level adoption,
/// solver scratch, and the K-wide workspaces when `warm_k > 1`).
ServiceBuild build_service(const CrsMatrix& a, const std::string& solver, const RunConfig& cfg,
                           int warm_k) {
  const Clock::time_point t0 = Clock::now();
  parmis::multilevel::Options mo;
  mo.complexity_cap = 10.0;
  mo.min_coarse_size = 500;
  mo.ctx = kernel_context(cfg);
  parmis::multilevel::HierarchyHandle h;
  (void)parmis::multilevel::Builder(mo).build_galerkin(a, h);

  Service::Options so;
  so.pool.solver = solver;
  so.pool.prec = "amg";
  so.pool.size = static_cast<std::size_t>(cfg.workers);
  so.iter.tolerance = kTolerance;
  so.iter.max_iterations = 500;
  so.record_attempts = false;
  auto service = std::make_unique<Service>(so, a, h.ops(),
                                           parmis::multilevel::galerkin_workspace(h));

  const std::shared_ptr<const parmis::serve::ServingState> st = service->current();
  const std::size_t n = static_cast<std::size_t>(a.num_rows);
  const std::size_t k = static_cast<std::size_t>(std::max(1, warm_k));
  std::vector<scalar_t> b(n * k), x(n * k);
  parmis::solver::random_fill(b, 1);
  std::vector<parmis::serve::HandlePool::Lease> leases;
  for (std::size_t e = 0; e < service->pool().size(); ++e) {
    leases.push_back(service->pool().acquire());
    parmis::serve::HandlePool::Entry& entry = leases.back().entry();
    service->pool().ensure(entry, parmis::serve::PrecKey{st->epoch, std::string()}, *st->a,
                           st->levels.get());
    const std::span<const scalar_t> b1(b.data(), n);
    const std::span<scalar_t> x1(x.data(), n);
    std::fill(x1.begin(), x1.end(), 0.0);
    (void)entry.handle.solve(*st->a, b1, x1, so.iter);
    if (warm_k > 1) {
      std::fill(x.begin(), x.end(), 0.0);
      (void)entry.handle.solve_batch(*st->a, b, x, warm_k, so.iter);
    }
  }
  leases.clear();
  return {std::move(service), seconds_since(t0)};
}

/// Repeated cold setup (median reported); the last service is the one measured.
ServiceBuild setup_service(const CrsMatrix& a, const std::string& solver, const RunConfig& cfg,
                           int warm_k, std::vector<double>& setup_s) {
  ServiceBuild sb;
  while (more_setups(setup_s)) {
    sb = ServiceBuild{};  // release the previous service before building the next
    sb = build_service(a, solver, cfg, warm_k);
    setup_s.push_back(sb.seconds);
  }
  return sb;
}

PoolStats pool_delta(const PoolStats& after, const PoolStats& before) {
  PoolStats d;
  d.acquires = after.acquires - before.acquires;
  d.warm_hits = after.warm_hits - before.warm_hits;
  d.cache_hits = after.cache_hits - before.cache_hits;
  d.level_adoptions = after.level_adoptions - before.level_adoptions;
  d.prec_builds = after.prec_builds - before.prec_builds;
  d.evictions = after.evictions - before.evictions;
  return d;
}

void set_pool_metrics(Result& res, const PoolStats& d) {
  res.set("serve.pool.warm_hit_ratio",
          d.acquires ? static_cast<double>(d.warm_hits) / static_cast<double>(d.acquires) : 0.0,
          "ratio");
  res.set("serve.pool.acquires", static_cast<double>(d.acquires), "count");
  res.set("serve.pool.level_adoptions", static_cast<double>(d.level_adoptions), "count");
  res.set("serve.pool.prec_builds", static_cast<double>(d.prec_builds), "count");
}

/// Values of customize write `w`: off-diagonals scaled by a seeded factor
/// in [0.7, 1.0], diagonal kept, so every published operator stays
/// strictly diagonally dominant and SPD.
void write_values(const CrsMatrix& base, std::uint64_t seed, std::uint64_t w,
                  std::vector<scalar_t>& out) {
  const scalar_t s = 0.7 + 0.3 * unit_uniform(seed, 4, w);
  out.resize(base.values.size());
  for (ordinal_t i = 0; i < base.num_rows; ++i) {
    for (parmis::offset_t k = base.row_map[static_cast<std::size_t>(i)];
         k < base.row_map[static_cast<std::size_t>(i) + 1]; ++k) {
      const std::size_t kk = static_cast<std::size_t>(k);
      out[kk] = base.entries[kk] == i ? base.values[kk] : s * base.values[kk];
    }
  }
}

// ------------------------------------------------------------ serve_mesh

struct Item {
  double due_s = 0.0;     ///< offset from the step start
  bool write = false;
  std::uint64_t id = 0;   ///< global item index (rhs seed / write index source)
  std::uint64_t epoch = 0;        ///< reads: pinned epoch; writes: expected base epoch
  std::uint64_t write_index = 0;  ///< writes: global write counter
};

/// What one worker saw; merged after the step.
struct WorkerLog {
  std::vector<std::pair<std::size_t, double>> latency;  ///< reads: (item, completion - due)
  std::vector<double> queue_ms;     ///< reads: start - due
  std::vector<double> lag_ms;       ///< idle worker oversleep past due
  std::vector<double> customize_ms; ///< writes: the Service::customize call
  std::vector<std::pair<std::uint64_t, std::uint64_t>> digests;  ///< (item, solution digest)
  std::vector<double> iterations;
  double busy_s = 0.0;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
};

struct StepResult {
  double rate = 0.0;
  WorkerLog log;  ///< merged
  std::vector<double> latency_ms;  ///< read latencies (ms), item order
  double wall_s = 0.0;
  double achieved_rps = 0.0;
  double busy_frac = 0.0;  ///< worker busy time / (wall time * workers)
  bool sustained = false;
};

/// Items of a step holding `reads` reads (every kWriteEvery-th item is a write).
std::size_t step_items(std::size_t reads) {
  return (reads * kWriteEvery + kWriteEvery - 2) / (kWriteEvery - 1);
}

/// Run `n_items` scheduled items at `rate` arrivals per second.
StepResult run_step(Service& svc, const CrsMatrix& base, const RunConfig& cfg, double rate,
                    std::size_t n_items, std::uint64_t& item0, std::uint64_t& writes0) {
  std::vector<Item> items(n_items);
  std::uint64_t epoch = svc.epoch();
  for (std::size_t i = 0; i < n_items; ++i) {
    Item& it = items[i];
    it.due_s = static_cast<double>(i) / rate;
    it.id = item0 + i;
    it.write = i % kWriteEvery == kWriteEvery / 2;
    it.epoch = epoch;
    if (it.write) {
      it.write_index = writes0++;
      ++epoch;  // reads after this write pin the epoch it publishes
    }
  }
  item0 += n_items;
  const std::size_t n = static_cast<std::size_t>(base.num_rows);

  std::atomic<std::size_t> next{0};
  std::vector<WorkerLog> logs(static_cast<std::size_t>(cfg.workers));
  const Clock::time_point t0 = Clock::now() + std::chrono::milliseconds(5);
  auto worker = [&](WorkerLog& log) {
    std::vector<scalar_t> x(n), b(n), values;
    for (;;) {
      const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= n_items) break;
      const Item& it = items[i];
      const Clock::time_point due =
          t0 + std::chrono::duration_cast<Clock::duration>(std::chrono::duration<double>(it.due_s));
      if (it.write) write_values(base, cfg.seed, it.write_index, values);
      if (Clock::now() < due) {
        // Idle workers spin (yielding) rather than sleep: a sleeping worker
        // lets its core halt, and on virtual machines the wake-up cost made
        // low-load latencies noisier than loaded ones.
        while (Clock::now() < due) std::this_thread::yield();
        log.lag_ms.push_back(ms_between(due, Clock::now()));
      }
      const Clock::time_point start = Clock::now();
      bool ok = true;
      if (it.write) {
        PERFBENCH_SPAN(op, "op", it.id);
        try {
          (void)svc.state(it.epoch);  // writes publish in index order
          PERFBENCH_SPAN(s, "serve.customize", it.id);
          const Clock::time_point c0 = Clock::now();
          const std::uint64_t e = svc.customize(values);
          log.customize_ms.push_back(ms_between(c0, Clock::now()));
          ok = e == it.epoch + 1;
        } catch (const std::exception& ex) {
          std::fprintf(stderr, "perfbench: customize %llu failed: %s\n",
                       static_cast<unsigned long long>(it.write_index), ex.what());
          (void)svc.republish();  // unblock reads pinned to the next epoch
          ok = false;
        }
        log.busy_s += seconds_since(start);
      } else {
        const bool sample = it.id % kSampleEvery == 0;
        const ServeRequest req{it.id, mix(cfg.seed, 5, it.id), it.epoch};
        RequestOutcome out;
        {
          PERFBENCH_SPAN(op, "op", it.id);
          try {
            PERFBENCH_SPAN(s, "serve.request", it.id);
            out = svc.solve(req, sample ? std::span<scalar_t>(x) : std::span<scalar_t>());
          } catch (const std::exception& ex) {
            std::fprintf(stderr, "perfbench: request %llu failed: %s\n",
                         static_cast<unsigned long long>(it.id), ex.what());
            ok = false;
          }
        }
        const Clock::time_point end = Clock::now();
        log.busy_s += std::chrono::duration<double>(end - start).count();
        log.latency.emplace_back(i, ms_between(due, end));
        log.queue_ms.push_back(std::max(0.0, ms_between(due, start)));
        if (ok) {
          ok = out.converged && out.epoch == it.epoch;
          log.iterations.push_back(out.iterations);
          log.digests.emplace_back(it.id, out.solution_digest);
          if (ok && sample) {
            // Independent check against the matrix of the pinned epoch.
            parmis::solver::random_fill(b, req.rhs_seed);
            ok = true_relative_residual(*svc.state(it.epoch)->a, b, x) <= kTolerance;
          }
        }
      }
      ++log.attempted;
      if (!ok) ++log.failed;
    }
  };
  std::vector<std::thread> pool;
  for (WorkerLog& log : logs) pool.emplace_back(worker, std::ref(log));
  for (std::thread& t : pool) t.join();

  StepResult sr;
  sr.rate = rate;
  sr.wall_s = seconds_since(t0);
  for (WorkerLog& l : logs) {
    WorkerLog& m = sr.log;
    auto append = [](std::vector<double>& to, const std::vector<double>& from) {
      to.insert(to.end(), from.begin(), from.end());
    };
    m.latency.insert(m.latency.end(), l.latency.begin(), l.latency.end());
    append(m.queue_ms, l.queue_ms);
    append(m.lag_ms, l.lag_ms);
    append(m.customize_ms, l.customize_ms);
    append(m.iterations, l.iterations);
    m.digests.insert(m.digests.end(), l.digests.begin(), l.digests.end());
    m.busy_s += l.busy_s;
    m.attempted += l.attempted;
    m.failed += l.failed;
  }
  std::sort(sr.log.latency.begin(), sr.log.latency.end());
  std::vector<double> last_tenth;
  for (const auto& [item, ms] : sr.log.latency) {
    sr.latency_ms.push_back(ms);
    if (item >= n_items - n_items / 10) last_tenth.push_back(ms);
  }
  sr.achieved_rps = static_cast<double>(n_items) / sr.wall_s;
  sr.busy_frac = sr.log.busy_s / (sr.wall_s * static_cast<double>(cfg.workers));
  sr.sustained = sr.log.failed == 0 && percentile(sr.latency_ms, 99) <= kLatencyLimitMs &&
                 median(last_tenth) <= kLatencyLimitMs;
  return sr;
}

std::uint64_t combined_digest(std::vector<std::pair<std::uint64_t, std::uint64_t>> digests) {
  std::sort(digests.begin(), digests.end());
  std::uint64_t h = 0;
  for (const auto& d : digests) h = parmis::check::digest_combine(h, d.second);
  return h;
}

}  // namespace

CrsMatrix mesh_operator(Size size) {
  const ordinal_t nx = size == Size::Full ? 24 : 10;
  return parmis::graph::laplace3d(nx, nx, nx);
}

Result run_serve_mesh(const RunConfig& cfg) {
  Result res;
  const CrsMatrix a = mesh_operator(cfg.size);
  {
    // The mesh is fixed; the seed drives right-hand sides and write values.
    std::vector<scalar_t> v;
    write_values(a, cfg.seed, 0, v);
    std::uint64_t d = parmis::check::digest(a);
    d = parmis::check::digest_combine(d, mix(cfg.seed, 5, 0));
    d = parmis::check::digest_combine(d, parmis::check::digest(v));
    res.note("input_digest", parmis::check::digest_hex(d));
  }
  res.note("input", "laplace3d n=" + std::to_string(a.num_rows) +
                        " nnz=" + std::to_string(a.num_entries()));
  std::vector<double> setup;
  ServiceBuild sb = setup_service(a, "cg", cfg, 1, setup);
  Service& svc = *sb.service;
  const PoolStats pool0 = svc.pool().stats();

  std::uint64_t item0 = 0;
  std::uint64_t writes0 = 0;
  std::vector<std::pair<std::uint64_t, std::uint64_t>> digests;
  auto account = [&](const StepResult& sr) {
    res.attempted += sr.log.attempted;
    res.failed += sr.log.failed;
    digests.insert(digests.end(), sr.log.digests.begin(), sr.log.digests.end());
  };

  if (!cfg.trace) {
    // Two reference steps of half the reads, one opening and one closing
    // the run, give op_ms_p50, so part of the host's drift over the run
    // averages out. The opening step's utilisation estimates the capacity; the
    // search probes there, walks by kSearchFactor until a sustained and an
    // unsustained rate bracket the capacity, then bisects in log rate while
    // the run's seconds last. ops_per_s is the achieved rate of the highest
    // sustained probe.
    const Clock::time_point run0 = Clock::now();
    const std::size_t reads = cfg.size == Size::Full ? kStepReads : 40;
    const std::size_t items = step_items(reads);
    const std::size_t ref_items = step_items(reads / 2);
    const StepResult ref = run_step(svc, a, cfg, kReferenceRate, ref_items, item0, writes0);
    account(ref);
    auto note_step = [&](const char* key, const StepResult& sr) {
      char buf[160];
      std::snprintf(buf, sizeof buf,
                    "rate=%.1f achieved=%.2f p50=%.3f p99=%.3f busy=%.3f sustained=%d", sr.rate,
                    sr.achieved_rps, percentile(sr.latency_ms, 50), percentile(sr.latency_ms, 99),
                    sr.busy_frac, sr.sustained ? 1 : 0);
      res.note(key, buf);
    };
    note_step("reference", ref);
    double lo = ref.sustained ? kReferenceRate : 0.0;  // highest sustained rate probed
    double sustained_rps = ref.sustained ? ref.achieved_rps : 0.0;
    double hi = std::numeric_limits<double>::infinity();  // lowest unsustained rate probed
    double rate = kReferenceRate / std::max(ref.busy_frac, 1e-3);
    while (seconds_since(run0) + (static_cast<double>(items) / rate + ref.wall_s) <=
           cfg.seconds) {
      const StepResult sr = run_step(svc, a, cfg, rate, items, item0, writes0);
      account(sr);
      note_step("probe", sr);
      if (sr.sustained && rate > lo) {
        lo = rate;
        sustained_rps = sr.achieved_rps;
      } else if (!sr.sustained) {
        hi = std::min(hi, rate);
      }
      if (hi > lo * kSearchFactor * kSearchFactor) {
        rate = sr.sustained ? lo * kSearchFactor : hi / kSearchFactor;
      } else {
        rate = std::sqrt(lo * hi);
      }
    }
    const StepResult closing = run_step(svc, a, cfg, kReferenceRate, ref_items, item0, writes0);
    account(closing);
    note_step("reference", closing);
    std::vector<double> latency = ref.latency_ms;
    latency.insert(latency.end(), closing.latency_ms.begin(), closing.latency_ms.end());
    res.set("setup_s", median(setup), "s");
    res.set("op_ms_p50", percentile(latency, 50), "ms");
    res.set("ops_per_s", sustained_rps, "1/s");
    res.set("peak_rss_mb", peak_rss_mb(), "MiB");
    res.note("samples", std::to_string(latency.size()));
    res.note("combined_digest", parmis::check::digest_hex(combined_digest(digests)));
    return res;
  }

  // Traced run: the reference rate twice, untraced then traced.
  const std::size_t half =
      static_cast<std::size_t>(std::llround(0.5 * cfg.seconds * kReferenceRate));
  const StepResult plain = run_step(svc, a, cfg, kReferenceRate, half, item0, writes0);
  account(plain);
  StepResult traced;
  {
    const TraceScope trace(true);
    traced = run_step(svc, a, cfg, kReferenceRate, half, item0, writes0);
  }
  account(traced);
  const LayerTimes layers{benchmark_spans()};
  parmis::obs::clear_events();
  const PoolStats pd = pool_delta(svc.pool().stats(), pool0);
  std::vector<double> customize = plain.log.customize_ms;
  customize.insert(customize.end(), traced.log.customize_ms.begin(),
                   traced.log.customize_ms.end());
  const std::vector<double> request = layers.self_ms("serve.request");
  const double p50 = percentile(plain.latency_ms, 50);
  set_percentile(res, "op_ms_tail", plain.latency_ms, 99);
  set_percentile(res, "serve.request.ms_p50", request, 50);
  set_percentile(res, "serve.request.ms_p99", request, 99);
  set_percentile(res, "serve.queue_wait.ms_p99", traced.log.queue_ms, 99);
  res.set("solver.iterations_mean", mean(traced.log.iterations), "count");
  set_percentile(res, "serve.generator_lag.ms_p99", traced.log.lag_ms, 99);
  set_percentile(res, "serve.customize.ms_p50", customize, 50);
  double customize_ms = 0.0;
  for (double ms : plain.log.customize_ms) customize_ms += ms;
  res.set("serve.write_time_frac", customize_ms * 1e-3 / plain.log.busy_s, "ratio");
  set_pool_metrics(res, pd);
  res.set("serve.worker_busy_frac", traced.busy_frac, "ratio");
  res.set("bench.trace_overhead_frac",
          p50 > 0 ? percentile(traced.latency_ms, 50) / p50 - 1.0 : 0.0, "ratio");
  res.set("bench.untimed_frac", layers.untimed_frac(), "ratio");
  res.note("combined_digest", parmis::check::digest_hex(combined_digest(digests)));
  return res;
}

// ------------------------------------------------ serve_batched_powerlaw

Result run_serve_batched_powerlaw(const RunConfig& cfg) {
  Result res;
  const CrsMatrix a = powerlaw_operator(cfg.size, cfg.seed);
  res.note("input_digest", parmis::check::digest_hex(parmis::check::digest(a)));
  res.note("input", "powerlaw laplacian n=" + std::to_string(a.num_rows) +
                        " nnz=" + std::to_string(a.num_entries()));
  std::vector<double> setup;
  ServiceBuild sb = setup_service(a, "block-cg", cfg, kBatchWidth, setup);
  Service& svc = *sb.service;
  const PoolStats pool0 = svc.pool().stats();

  struct Log {
    std::vector<double> wave_ms, traced_ms, iterations;
    std::vector<std::pair<double, double>> done;  ///< (completion s, ms) of untraced waves
    std::vector<std::pair<ServeRequest, std::uint64_t>> samples;  ///< (request, digest)
    double busy_s = 0.0;
    std::uint64_t attempted = 0, failed = 0, columns = 0;
  };
  std::vector<Log> logs(static_cast<std::size_t>(cfg.workers));
  std::atomic<std::uint64_t> next_wave{0};
  std::atomic<bool> traced_phase{false};
  const std::uint64_t epoch = svc.epoch();
  const double budget = cfg.seconds;
  const Clock::time_point start = Clock::now();
  // Traced run: first half untraced, second half traced (switched by the
  // first worker to cross the midpoint).
  auto worker = [&](Log& log) {
    std::vector<ServeRequest> reqs(kBatchWidth);
    for (;;) {
      const double t = seconds_since(start);
      if (t >= budget) break;
      const bool traced = cfg.trace && t >= 0.5 * budget;
      if (traced && !traced_phase.exchange(true)) parmis::obs::set_tracing(true, 0);
      const std::uint64_t w = next_wave.fetch_add(1, std::memory_order_relaxed);
      const Clock::time_point t0 = Clock::now();
      std::vector<RequestOutcome> outs;
      bool ok = true;
      {
        PERFBENCH_SPAN(op, "op", w);
        for (int c = 0; c < kBatchWidth; ++c) {
          const std::uint64_t id = w * kBatchWidth + static_cast<std::uint64_t>(c);
          reqs[static_cast<std::size_t>(c)] = ServeRequest{id, mix(cfg.seed, 6, id), epoch};
        }
        try {
          PERFBENCH_SPAN(s, "serve.batch_wave", w);
          outs = svc.solve_batch(reqs, kBatchWidth);
        } catch (const std::exception& ex) {
          std::fprintf(stderr, "perfbench: wave %llu failed: %s\n",
                       static_cast<unsigned long long>(w), ex.what());
          ok = false;
        }
      }
      const double ms = ms_between(t0, Clock::now());
      if (traced) {
        log.traced_ms.push_back(ms);
      } else {
        log.wave_ms.push_back(ms);
        log.done.emplace_back(seconds_since(start), ms);
      }
      log.busy_s += ms * 1e-3;
      for (const RequestOutcome& o : outs) {
        ok = ok && o.converged;
        log.iterations.push_back(o.iterations);
      }
      ok = ok && outs.size() == static_cast<std::size_t>(kBatchWidth);
      if (ok && w % 16 == 0) {
        const std::size_t c = static_cast<std::size_t>(w / 16 % kBatchWidth);
        log.samples.emplace_back(reqs[c], outs[c].solution_digest);
      }
      log.columns += outs.size();
      ++log.attempted;
      if (!ok) ++log.failed;
    }
  };
  std::vector<std::thread> threads;
  for (Log& log : logs) threads.emplace_back(worker, std::ref(log));
  for (std::thread& t : threads) t.join();
  const double elapsed = seconds_since(start);
  if (traced_phase.load()) parmis::obs::set_tracing(false, 0);

  Log all;
  for (Log& l : logs) {
    all.wave_ms.insert(all.wave_ms.end(), l.wave_ms.begin(), l.wave_ms.end());
    all.traced_ms.insert(all.traced_ms.end(), l.traced_ms.begin(), l.traced_ms.end());
    all.done.insert(all.done.end(), l.done.begin(), l.done.end());
    all.iterations.insert(all.iterations.end(), l.iterations.begin(), l.iterations.end());
    all.samples.insert(all.samples.end(), l.samples.begin(), l.samples.end());
    all.busy_s += l.busy_s;
    all.attempted += l.attempted;
    all.failed += l.failed;
    all.columns += l.columns;
  }
  const PoolStats pd = pool_delta(svc.pool().stats(), pool0);
  const LayerTimes layers{cfg.trace ? benchmark_spans() : std::vector<SpanSelf>{}};
  parmis::obs::clear_events();

  // Sampled wave columns must be bit-identical to a single-RHS solve of the
  // same request, whose solution must meet the tolerance on a true residual.
  std::vector<scalar_t> x(static_cast<std::size_t>(a.num_rows));
  std::vector<scalar_t> b(x.size());
  std::uint64_t sample_failures = 0;
  for (const auto& [req, digest] : all.samples) {
    const RequestOutcome single = svc.solve(req, x);
    parmis::solver::random_fill(b, req.rhs_seed);
    if (single.solution_digest != digest || true_relative_residual(a, b, x) > kTolerance) {
      ++sample_failures;
    }
  }
  res.attempted = all.attempted;
  res.failed = all.failed + sample_failures;
  res.note("sampled_columns", std::to_string(all.samples.size()));

  if (!cfg.trace) {
    res.set("setup_s", median(setup), "s");
    res.set("op_ms_p50", percentile(all.wave_ms, 50), "ms");
    res.set("ops_per_s", closed_loop_rate(all.done, cfg.workers, kBatchWidth), "1/s");
    res.set("peak_rss_mb", peak_rss_mb(), "MiB");
    res.note("samples", std::to_string(all.wave_ms.size()));
    return res;
  }
  const std::vector<double> wave = layers.self_ms("serve.batch_wave");
  const double p50 = percentile(all.wave_ms, 50);
  set_percentile(res, "op_ms_tail", all.wave_ms, kWaveTailPercentile);
  set_percentile(res, "serve.batch_wave.ms_p50", wave, 50);
  set_percentile(res, "serve.batch_wave.ms_p95", wave, kWaveTailPercentile);
  res.set("serve.wave_width_mean",
          all.attempted
              ? static_cast<double>(all.columns) / static_cast<double>(all.attempted)
              : 0.0,
          "count");
  res.set("solver.block_iterations_mean", mean(all.iterations), "count");
  set_pool_metrics(res, pd);
  res.set("serve.worker_busy_frac", all.busy_s / (elapsed * static_cast<double>(cfg.workers)),
          "ratio");
  res.set("bench.trace_overhead_frac", p50 > 0 ? percentile(all.traced_ms, 50) / p50 - 1.0 : 0.0,
          "ratio");
  res.set("bench.untimed_frac", layers.untimed_frac(), "ratio");
  return res;
}

}  // namespace perfbench
