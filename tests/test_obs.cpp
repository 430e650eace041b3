/// \file test_obs.cpp
/// \brief Observability layer: disabled-path zero-cost, span recording and
/// nesting, per-thread attribution, Chrome-trace well-formedness, the
/// Report/JsonArrayWriter schema helpers, Context trace pinning, and the
/// tracing-never-changes-results determinism guard.

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <set>
#include <string>
#include <vector>

#include "core/mis2.hpp"
#include "graph/generators.hpp"
#include "graph/ops.hpp"
#include "graph/spgemm.hpp"
#include "multilevel/builder.hpp"
#include "obs/report.hpp"
#include "obs/telemetry.hpp"
#include "obs/timer.hpp"
#include "obs/trace.hpp"
#include "parallel/context.hpp"
#include "parallel/execution.hpp"
#include "partition/interface.hpp"
#include "solver/handle.hpp"
#include "solver/vector_ops.hpp"
#include "test_utils.hpp"

namespace parmis {
namespace {

/// Every trace test restores the process-global default (tracing off,
/// buffers empty) so suites compose in any order.
class ObsTrace : public ::testing::Test {
 protected:
  void SetUp() override {
    obs::set_tracing(false);
    obs::clear_events();
  }
  void TearDown() override {
    obs::set_tracing(false);
    obs::clear_events();
  }
};

using ObsContext = ObsTrace;
using ObsDeterminism = ObsTrace;

std::vector<obs::TraceEvent> events_named(const char* name) {
  std::vector<obs::TraceEvent> out;
  for (const obs::TraceEvent& e : obs::collect_events()) {
    if (!std::strcmp(e.name, name)) out.push_back(e);
  }
  return out;
}

TEST_F(ObsTrace, DisabledSpansCostNothing) {
  const std::uint64_t events_before = obs::total_events();
  const std::uint64_t bytes_before = obs::allocated_bytes();
  for (int i = 0; i < 100000; ++i) {
    PARMIS_SPAN("obs.test.disabled");
    obs::Span extra("obs.test.disabled2");
    extra.arg("i", i);
    EXPECT_FALSE(extra.active());
    obs::counter("obs.test.counter", i);
  }
  // The zero-allocation contract: a disabled span site neither records an
  // event nor touches block storage.
  EXPECT_EQ(obs::total_events(), events_before);
  EXPECT_EQ(obs::allocated_bytes(), bytes_before);
}

TEST_F(ObsTrace, DisabledSpansAreFast) {
  // Loose sanity bound, not a benchmark (bench/obs_overhead pins the real
  // number): a million disabled span sites must be effectively free.
  Timer t;
  for (int i = 0; i < 1000000; ++i) {
    PARMIS_SPAN("obs.test.fast");
  }
  EXPECT_LT(t.seconds(), 0.25);
}

TEST_F(ObsTrace, SpanRecordsNameArgsAndDuration) {
  obs::set_tracing(true);
  {
    obs::Span span("obs.test.record");
    span.arg("alpha", 7);
    span.arg("beta", -3);
    span.arg("dropped", 99);  // max two args; silently ignored
    EXPECT_TRUE(span.active());
  }
  obs::set_tracing(false);

  const std::vector<obs::TraceEvent> got = events_named("obs.test.record");
  ASSERT_EQ(got.size(), 1u);
  EXPECT_GE(got[0].dur_ns, 0);
  ASSERT_EQ(got[0].nargs, 2);
  EXPECT_STREQ(got[0].arg_name[0], "alpha");
  EXPECT_EQ(got[0].arg_val[0], 7);
  EXPECT_STREQ(got[0].arg_name[1], "beta");
  EXPECT_EQ(got[0].arg_val[1], -3);
}

TEST_F(ObsTrace, NestedSpansAreContained) {
  obs::set_tracing(true);
  {
    obs::Span outer("obs.test.outer");
    {
      obs::Span inner("obs.test.inner");
    }
  }
  obs::set_tracing(false);

  const std::vector<obs::TraceEvent> outer = events_named("obs.test.outer");
  const std::vector<obs::TraceEvent> inner = events_named("obs.test.inner");
  ASSERT_EQ(outer.size(), 1u);
  ASSERT_EQ(inner.size(), 1u);
  EXPECT_LE(outer[0].start_ns, inner[0].start_ns);
  EXPECT_GE(outer[0].start_ns + outer[0].dur_ns, inner[0].start_ns + inner[0].dur_ns);
}

TEST_F(ObsTrace, CounterSamplesAreRecorded) {
  obs::set_tracing(true);
  obs::counter("obs.test.gauge", 42);
  obs::set_tracing(false);

  const std::vector<obs::TraceEvent> got = events_named("obs.test.gauge");
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0].dur_ns, -1);  // counter marker
  ASSERT_EQ(got[0].nargs, 1);
  EXPECT_EQ(got[0].arg_val[0], 42);
}

TEST_F(ObsTrace, ClearEventsEmptiesBuffers) {
  obs::set_tracing(true);
  {
    PARMIS_SPAN("obs.test.cleared");
  }
  obs::set_tracing(false);
  EXPECT_GT(obs::total_events(), 0u);
  obs::clear_events();
  EXPECT_EQ(obs::total_events(), 0u);
  EXPECT_TRUE(obs::collect_events().empty());
}

TEST_F(ObsTrace, SummarizeAggregatesByName) {
  obs::set_tracing(true);
  for (int i = 0; i < 5; ++i) {
    PARMIS_SPAN("obs.test.sum_a");
  }
  {
    PARMIS_SPAN("obs.test.sum_b");
  }
  obs::set_tracing(false);

  const std::vector<obs::SpanSummary> sums = obs::summarize_spans();
  ASSERT_EQ(sums.size(), 2u);
  EXPECT_EQ(sums[0].name, "obs.test.sum_a");  // sorted by name
  EXPECT_EQ(sums[0].count, 5u);
  EXPECT_EQ(sums[1].name, "obs.test.sum_b");
  EXPECT_EQ(sums[1].count, 1u);
  EXPECT_GE(sums[0].total_seconds, sums[0].max_seconds);
  EXPECT_LE(sums[0].min_seconds, sums[0].max_seconds);
}

#ifdef PARMIS_HAVE_OPENMP
TEST_F(ObsTrace, ThreadAttributionUnderOpenMP) {
  // Per-chunk spans record on the worker that ran the chunk, so a traced
  // parallel kernel shows more than one tid. Thread count pinned
  // explicitly: single-core CI hosts default to one thread.
  const graph::CrsGraph g = graph::random_geometric_3d(4000, 12.0, 7);
  obs::set_tracing(true, /*chunk_sample_every=*/1);
  {
    par::ScopedExecution scope(par::Backend::OpenMP, 4);
    (void)core::mis2(g);
  }
  obs::set_tracing(false);

  std::set<std::uint32_t> tids;
  for (const obs::TraceEvent& e : obs::collect_events()) {
    if (!std::strcmp(e.name, "par.chunk")) tids.insert(e.tid);
  }
  EXPECT_GE(tids.size(), 2u);
}

TEST_F(ObsTrace, ChunkSamplingZeroSuppressesChunkSpans) {
  const graph::CrsGraph g = graph::random_geometric_3d(2000, 12.0, 7);
  obs::set_tracing(true, /*chunk_sample_every=*/0);
  {
    par::ScopedExecution scope(par::Backend::OpenMP, 4);
    (void)core::mis2(g);
  }
  obs::set_tracing(false);
  EXPECT_TRUE(events_named("par.chunk").empty());
  // The algorithm-level spans still record.
  EXPECT_FALSE(events_named("mis2.run").empty());
}
#endif  // PARMIS_HAVE_OPENMP

TEST_F(ObsTrace, GalerkinBuildTracesOneProlongatorSpanPerLevel) {
  // The smoothed prolongator is a child of each level's triple product, so
  // the triple product's children account for it.
  const graph::CrsMatrix a = graph::laplace3d(12, 12, 12);
  multilevel::Options mo;
  mo.min_coarse_size = 20;
  multilevel::HierarchyHandle h;
  obs::set_tracing(true);
  const std::vector<multilevel::OperatorLevel>& ops =
      multilevel::Builder(mo).build_galerkin(a, h);
  obs::set_tracing(false);
  ASSERT_GE(ops.size(), 3u);

  const std::vector<obs::TraceEvent> pro = events_named("multilevel.prolongator");
  const std::vector<obs::TraceEvent> tp = events_named("multilevel.triple_product");
  ASSERT_EQ(pro.size(), ops.size() - 1);
  ASSERT_EQ(tp.size(), pro.size());
  for (std::size_t l = 0; l < pro.size(); ++l) {
    EXPECT_EQ(pro[l].tid, tp[l].tid) << l;
    EXPECT_GE(pro[l].start_ns, tp[l].start_ns) << l;
    EXPECT_LE(pro[l].start_ns + pro[l].dur_ns, tp[l].start_ns + tp[l].dur_ns) << l;
  }
}

/// Minimal structural JSON validator: brackets/braces balance outside of
/// strings, strings terminate, no trailing garbage. Catches the classes of
/// emitter bug (missing comma handling is caught by real parsers in CI's
/// python3 smoke; here we guard nesting and escaping).
bool json_balanced(const std::string& s) {
  std::vector<char> stack;
  bool in_string = false;
  for (std::size_t i = 0; i < s.size(); ++i) {
    const char c = s[i];
    if (in_string) {
      if (c == '\\') {
        ++i;  // skip escaped char
      } else if (c == '"') {
        in_string = false;
      } else if (static_cast<unsigned char>(c) < 0x20) {
        return false;  // raw control character inside a string
      }
      continue;
    }
    switch (c) {
      case '"': in_string = true; break;
      case '{': stack.push_back('}'); break;
      case '[': stack.push_back(']'); break;
      case '}':
      case ']':
        if (stack.empty() || stack.back() != c) return false;
        stack.pop_back();
        break;
      default: break;
    }
  }
  return !in_string && stack.empty();
}

TEST_F(ObsTrace, ChromeTraceJsonIsWellFormed) {
  const graph::CrsGraph g = test::adjacency_of(graph::laplace3d(8, 8, 8));
  obs::set_tracing(true, 1);
  (void)core::mis2(g);
  obs::counter("obs.test.ctr", 3);
  obs::set_tracing(false);

  const std::string json = obs::chrome_trace_json();
  EXPECT_EQ(json.rfind("{\"traceEvents\":[", 0), 0u);
  EXPECT_TRUE(json_balanced(json)) << json.substr(0, 400);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"C\""), std::string::npos);
  EXPECT_NE(json.find("mis2.run"), std::string::npos);

  // Round-trip through the file writer.
  const std::string path = ::testing::TempDir() + "parmis_trace_test.json";
  ASSERT_TRUE(obs::write_chrome_trace(path));
  std::FILE* f = std::fopen(path.c_str(), "rb");
  ASSERT_NE(f, nullptr);
  std::string file_contents;
  char buf[4096];
  std::size_t got;
  while ((got = std::fread(buf, 1, sizeof(buf), f)) > 0) file_contents.append(buf, got);
  std::fclose(f);
  std::remove(path.c_str());
  EXPECT_EQ(file_contents, json);
}

TEST_F(ObsContext, ScopePinsAndRestoresTracing) {
  ASSERT_FALSE(obs::tracing_enabled());

  Context on = Context::serial();
  on.trace.mode = obs::TraceOptions::Mode::On;
  on.trace.chunk_sample_every = 8;
  {
    Context::Scope scope(on);
    EXPECT_TRUE(obs::tracing_enabled());
    EXPECT_EQ(obs::trace_state().chunk_sample_every, 8);
  }
  EXPECT_FALSE(obs::tracing_enabled());

  // Off pins tracing off inside an enabled region; Inherit leaves it alone.
  obs::set_tracing(true, 2);
  Context off = Context::serial();
  off.trace.mode = obs::TraceOptions::Mode::Off;
  {
    Context::Scope scope(off);
    EXPECT_FALSE(obs::tracing_enabled());
  }
  EXPECT_TRUE(obs::tracing_enabled());
  EXPECT_EQ(obs::trace_state().chunk_sample_every, 2);

  Context inherit = Context::serial();  // trace.mode defaults to Inherit
  {
    Context::Scope scope(inherit);
    EXPECT_TRUE(obs::tracing_enabled());
    EXPECT_EQ(obs::trace_state().chunk_sample_every, 2);
  }
  EXPECT_TRUE(obs::tracing_enabled());
}

/// Tracing must never change what any algorithm computes: the full
/// mis2 → partition → hierarchy → solve chain is bit-identical with
/// tracing off and on, per backend.
TEST_F(ObsDeterminism, TracingNeverChangesResults) {
  const graph::CrsGraph g = graph::random_geometric_3d(2500, 12.0, 17);
  const graph::CrsMatrix a = graph::laplacian_matrix(g, 1.0);
  const std::vector<scalar_t> b = solver::random_vector(a.num_rows, 1);

  struct Snapshot {
    std::vector<char> mis;
    std::vector<ordinal_t> parts;
    std::vector<offset_t> coarse_row_map;
    std::vector<scalar_t> x;
    int iterations = 0;
    bool operator==(const Snapshot& o) const {
      return mis == o.mis && parts == o.parts && coarse_row_map == o.coarse_row_map &&
             x == o.x && iterations == o.iterations;
    }
  };
  auto run = [&] {
    Snapshot s;
    s.mis = core::mis2(g).in_set;
    const partition::WeightedGraph wg = partition::WeightedGraph::unit(graph::CrsGraph(g));
    s.parts = partition::partitioners().find("multilevel-mis2").make()->run(wg, 4).part;
    multilevel::Options mo;
    mo.min_coarse_size = 100;
    multilevel::HierarchyHandle handle;
    const multilevel::Builder builder(mo);
    (void)builder.build_galerkin(a, handle);
    s.coarse_row_map = handle.ops().back().a.row_map;
    s.x.assign(static_cast<std::size_t>(a.num_rows), 0);
    solver::IterOptions opts;
    opts.tolerance = 1e-10;
    opts.max_iterations = 200;
    s.iterations = solver::SolveHandle("cg").solve(a, b, s.x, opts).iterations;
    return s;
  };

  std::vector<std::pair<par::Backend, int>> configs{{par::Backend::Serial, 1}};
#ifdef PARMIS_HAVE_OPENMP
  configs.emplace_back(par::Backend::OpenMP, 4);
#endif
  for (const auto& [backend, threads] : configs) {
    par::ScopedExecution scope(backend, threads);
    obs::set_tracing(false);
    const Snapshot off = run();
    obs::set_tracing(true, 1);
    const Snapshot on = run();
    obs::set_tracing(false);
    obs::clear_events();
    EXPECT_TRUE(off == on) << "tracing changed results on backend "
                           << (backend == par::Backend::Serial ? "Serial" : "OpenMP");
  }
}

// ------------------------------------------------------------ Report layer

TEST(ObsReport, InsertionOrderAndTypes) {
  obs::Report r;
  r.set("name", "power\"law");  // escaped
  r.set("rows", static_cast<std::int64_t>(123));
  r.set("ratio", 0.5);
  r.set("ok", true);
  r.set("levels", std::vector<std::int64_t>{3, 2, 1});
  EXPECT_EQ(r.to_json(),
            "{\"name\": \"power\\\"law\", \"rows\": 123, \"ratio\": 0.5, "
            "\"ok\": true, \"levels\": [3,2,1]}");
}

TEST(ObsReport, OverwriteKeepsFirstPosition) {
  obs::Report r;
  r.set("a", 1);
  r.set("b", 2);
  r.set("a", 9);  // overwrite in place, not append
  EXPECT_EQ(r.to_json(), "{\"a\": 9, \"b\": 2}");
}

TEST(ObsReport, JsonArrayWriterRoundTrip) {
  const std::string path = ::testing::TempDir() + "parmis_report_test.json";
  {
    obs::JsonArrayWriter w(path);
    ASSERT_TRUE(w.ok());
    obs::Report r;
    r.set("i", 1);
    w.row(r.to_json());
    r.set("i", 2);
    w.row(r.to_json());
    EXPECT_TRUE(w.close());
  }
  std::FILE* f = std::fopen(path.c_str(), "rb");
  ASSERT_NE(f, nullptr);
  std::string contents;
  char buf[1024];
  std::size_t got;
  while ((got = std::fread(buf, 1, sizeof(buf), f)) > 0) contents.append(buf, got);
  std::fclose(f);
  std::remove(path.c_str());
  EXPECT_EQ(contents, "[\n{\"i\": 1},\n{\"i\": 2}\n]\n");
}

TEST(ObsReport, SpanSummaryAdapter) {
  obs::set_tracing(false);
  obs::clear_events();
  obs::Report empty;
  obs::add_span_summary(empty);
  EXPECT_TRUE(empty.empty());  // nothing buffered -> no "spans" key

  obs::set_tracing(true);
  {
    PARMIS_SPAN("obs.test.adapter");
  }
  obs::set_tracing(false);
  obs::Report r;
  obs::add_span_summary(r);
  const std::string json = r.to_json();
  EXPECT_NE(json.find("\"spans\": ["), std::string::npos);
  EXPECT_NE(json.find("\"name\": \"obs.test.adapter\""), std::string::npos);
  EXPECT_NE(json.find("\"count\": 1"), std::string::npos);
  obs::clear_events();
}

}  // namespace
}  // namespace parmis
