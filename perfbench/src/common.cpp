#include "common.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <string_view>

#include "check/digest.hpp"
#include "obs/telemetry.hpp"

namespace perfbench {

double percentile(std::vector<double> v, double q) {
  std::sort(v.begin(), v.end());
  return parmis::obs::percentile(v, q / 100.0);
}

void set_percentile(Result& res, const std::string& name, std::vector<double> v, double q) {
  const std::size_t n = v.size();
  const std::size_t rank = static_cast<std::size_t>(std::ceil(q / 100.0 * static_cast<double>(n)));
  const std::size_t beyond = n - std::min(n, rank);
  char buf[96];
  std::snprintf(buf, sizeof buf, "p%g of %zu samples, %zu beyond", q, n, beyond);
  res.note(name + ".samples", buf);
  if (beyond < kMinBeyond) {
    std::fprintf(stderr, "perfbench: %s rests on %zu samples beyond p%g (want %zu)\n",
                 name.c_str(), beyond, q, kMinBeyond);
  }
  res.set(name, percentile(std::move(v), q), "ms");
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double s = 0.0;
  for (double x : v) s += x;
  return s / static_cast<double>(v.size());
}

double closed_loop_rate(std::vector<std::pair<double, double>> ops, int concurrency,
                        double work_per_op, int blocks) {
  std::sort(ops.begin(), ops.end());
  const std::size_t n = ops.size();
  const std::size_t nb = std::min<std::size_t>(static_cast<std::size_t>(blocks), n);
  std::vector<double> slice_mean_ms;
  for (std::size_t b = 0; b < nb; ++b) {
    double sum = 0.0;
    const std::size_t lo = b * n / nb, hi = (b + 1) * n / nb;
    for (std::size_t i = lo; i < hi; ++i) sum += ops[i].second;
    slice_mean_ms.push_back(sum / static_cast<double>(hi - lo));
  }
  const double ms = median(slice_mean_ms);
  return ms > 0.0 ? 1000.0 * concurrency * work_per_op / ms : 0.0;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

std::uint64_t mix(std::uint64_t seed, std::uint64_t stream, std::uint64_t index) {
  // splitmix64 finalizer over a combination of the three words.
  std::uint64_t z = seed * 0x9E3779B97F4A7C15ULL ^
                    (stream + 0x632BE59BD9B4E019ULL) * 0xBF58476D1CE4E5B9ULL ^
                    (index + 1) * 0x94D049BB133111EBULL;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

double unit_uniform(std::uint64_t seed, std::uint64_t stream, std::uint64_t index) {
  return static_cast<double>(mix(seed, stream, index) >> 11) * 0x1.0p-53;
}

parmis::Context kernel_context(const RunConfig& cfg) {
  return parmis::Context::openmp(cfg.kernel_threads);
}

double true_relative_residual(const parmis::graph::CrsMatrix& a, std::span<const scalar_t> b,
                              std::span<const scalar_t> x) {
  long double rr = 0.0L;
  long double bb = 0.0L;
  for (ordinal_t i = 0; i < a.num_rows; ++i) {
    long double ax = 0.0L;
    for (parmis::offset_t k = a.row_map[static_cast<std::size_t>(i)];
         k < a.row_map[static_cast<std::size_t>(i) + 1]; ++k) {
      ax += static_cast<long double>(a.values[static_cast<std::size_t>(k)]) *
            x[static_cast<std::size_t>(a.entries[static_cast<std::size_t>(k)])];
    }
    const long double r = b[static_cast<std::size_t>(i)] - ax;
    rr += r * r;
    bb += static_cast<long double>(b[static_cast<std::size_t>(i)]) * b[static_cast<std::size_t>(i)];
  }
  if (bb == 0.0L) return std::sqrt(static_cast<double>(rr));
  return static_cast<double>(std::sqrt(rr / bb));
}

std::uint64_t aggregation_digest(const parmis::core::Aggregation& agg) {
  return parmis::check::digest_combine(parmis::check::digest(agg.labels),
                                       static_cast<std::uint64_t>(agg.num_aggregates));
}

bool aggregation_ok(parmis::graph::GraphView g, const parmis::core::Aggregation& agg,
                    std::uint64_t reference_digest, bool full) {
  if (aggregation_digest(agg) != reference_digest) return false;
  return !full || parmis::core::verify_aggregation(g, agg);
}

// ------------------------------------------------------------ tracing

std::vector<SpanSelf> benchmark_spans() {
  constexpr std::string_view kPrefix = "bench.";
  struct Ev {
    const char* name;
    std::int64_t start, end;
  };
  std::map<std::uint32_t, std::vector<Ev>> by_thread;
  for (const parmis::obs::TraceEvent& e : parmis::obs::collect_events()) {
    if (e.dur_ns < 0 || e.name == nullptr) continue;
    const std::string_view name(e.name);
    if (name.substr(0, kPrefix.size()) != kPrefix) continue;
    by_thread[e.tid].push_back({e.name, e.start_ns, e.start_ns + e.dur_ns});
  }
  std::vector<SpanSelf> out;
  for (auto& [tid, evs] : by_thread) {
    // Parents start no later than their children and end no earlier; sort
    // by start, longest first, and walk with a stack of open spans.
    std::sort(evs.begin(), evs.end(), [](const Ev& a, const Ev& b) {
      return a.start != b.start ? a.start < b.start : a.end > b.end;
    });
    std::vector<std::size_t> stack;  // indices into `out`
    std::vector<std::int64_t> stack_end;
    for (const Ev& e : evs) {
      while (!stack_end.empty() && stack_end.back() <= e.start) {
        stack.pop_back();
        stack_end.pop_back();
      }
      SpanSelf s;
      s.name = std::string(std::string_view(e.name).substr(kPrefix.size()));
      s.dur_ms = static_cast<double>(e.end - e.start) * 1e-6;
      s.self_ms = s.dur_ms;
      s.root = stack.empty();
      if (!stack.empty()) out[stack.back()].self_ms -= s.dur_ms;
      out.push_back(std::move(s));
      stack.push_back(out.size() - 1);
      stack_end.push_back(e.end);
    }
  }
  return out;
}

std::vector<double> LayerTimes::self_ms(const std::string& name) const {
  std::vector<double> v;
  for (const SpanSelf& s : spans) {
    if (s.name == name) v.push_back(s.self_ms);
  }
  return v;
}

double LayerTimes::untimed_frac() const {
  double wall = 0.0;
  double untimed = 0.0;
  for (const SpanSelf& s : spans) {
    if (!s.root) continue;
    wall += s.dur_ms;
    untimed += s.self_ms;
  }
  return wall > 0.0 ? untimed / wall : 0.0;
}

}  // namespace perfbench
