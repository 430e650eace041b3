/// \file graph_partition.cpp
/// \brief Batch partitioning driver over the pluggable `Partitioner`
/// registry: run any set of registered algorithms over any set of graphs
/// and print a quality comparison table (paper §II/§VII use case).
///
/// Usage:
///   graph_partition [--algos=a,b,...|all] [--graphs=SPEC,SPEC,...]
///                   [--k=K] [--scale=F] [--json] [--trace=FILE]
///                   [--trace-sample=N] [--list]
///
/// `--json` rows are `obs::Report` objects (same telemetry schema as
/// linear_solve and the benches); `--trace=FILE` records obs spans for
/// the whole batch into a Chrome trace-event file.
///
/// Graph SPECs are shared with parmis_tool (see graph_inputs.hpp):
///   file.mtx | gen:laplace2d:NX | gen:laplace3d:NX | gen:elasticity:NX |
///   gen:rgg:N:DEG | gen:powerlaw:N[:EXP] | reg:NAME | reg:table2
///
/// Examples:
///   graph_partition --list
///   graph_partition --algos=multilevel-mis2,ldg,lp-grow --k=8
///   graph_partition --graphs=reg:Serena,gen:laplace2d:300 --scale=0.05 --json

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "check/digest.hpp"
#include "graph_inputs.hpp"
#include "obs/report.hpp"
#include "obs/telemetry.hpp"
#include "obs/trace.hpp"
#include "partition/interface.hpp"
#include "resilience/fault.hpp"

namespace {

using namespace parmis;
using examples::split_csv;

void usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--algos=a,b,...|all] [--graphs=SPEC,...] [--k=K] [--scale=F]\n"
               "          [--json] [--digest] [--trace=FILE] [--trace-sample=N] [--list]\n"
               "  SPEC: file.mtx | gen:laplace2d:NX | gen:laplace3d:NX | gen:elasticity:NX |\n"
               "        gen:rgg:N:DEG | gen:powerlaw:N[:EXP] | reg:NAME | reg:table2\n",
               argv0);
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> algos;
  std::vector<std::string> graphs;
  ordinal_t k = 8;
  double scale = 0.05;
  bool json = false;
  // --digest: print check::digest_hex of each labeling — one word a user
  // can diff across machines/backends ("same digest = same bits").
  bool digest = false;
  std::string trace_path;
  int trace_sample = 1;

  for (int i = 1; i < argc; ++i) {
    const char* s = argv[i];
    if (!std::strncmp(s, "--algos=", 8)) {
      const std::string v = s + 8;
      algos = v == "all" ? partition::partitioners().names() : split_csv(v);
    } else if (!std::strncmp(s, "--graphs=", 9)) {
      graphs = split_csv(s + 9);
    } else if (!std::strncmp(s, "--k=", 4)) {
      k = static_cast<ordinal_t>(std::atoi(s + 4));
    } else if (!std::strncmp(s, "--scale=", 8)) {
      scale = std::atof(s + 8);
    } else if (!std::strcmp(s, "--json")) {
      json = true;
    } else if (!std::strcmp(s, "--digest")) {
      digest = true;
    } else if (!std::strncmp(s, "--trace=", 8)) {
      trace_path = s + 8;
    } else if (!std::strncmp(s, "--trace-sample=", 15)) {
      trace_sample = std::atoi(s + 15);
    } else if (!std::strcmp(s, "--list")) {
      std::printf("registered partitioners:\n");
      partition::partitioners().print(stdout, 16);
      return 0;
    } else {
      usage(argv[0]);
      return 1;
    }
  }
  if (k < 1) {
    std::fprintf(stderr, "--k must be a positive integer\n");
    return 1;
  }
  // Fault points (e.g. partition.bisect_fail) armed from the environment;
  // compiled out unless the build configures PARMIS_CHECK_INVARIANTS.
  resilience::arm_faults_from_env();
  if (algos.empty()) algos = partition::partitioners().names();
  if (graphs.empty()) graphs = {"gen:rgg:100000:14"};

  // reg:table2 expands to the full Table II suite.
  {
    std::vector<std::string> expanded;
    for (const std::string& spec : graphs) {
      if (spec == "reg:table2") {
        for (const graph::MatrixSpec& m : graph::table2_matrices()) {
          expanded.push_back("reg:" + m.name);
        }
      } else {
        expanded.push_back(spec);
      }
    }
    graphs = std::move(expanded);
  }

  // Fail fast on unknown algorithm names before loading any graph.
  std::vector<std::unique_ptr<partition::Partitioner>> partitioners;
  for (const std::string& name : algos) {
    try {
      partitioners.push_back(partition::partitioners().find(name).make());
    } catch (const std::out_of_range& e) {
      std::fprintf(stderr, "%s (try --list)\n", e.what());
      return 1;
    }
  }

  if (!trace_path.empty()) obs::set_tracing(true, trace_sample);

  bool any_failed = false;
  for (const std::string& spec : graphs) {
    graph::CrsGraph g;
    try {
      g = examples::load_graph(spec, scale);
    } catch (const std::exception& e) {
      // Report and keep going: a typo in one spec must not throw away the
      // rest of a long batch.
      std::fprintf(stderr, "cannot load '%s': %s\n", spec.c_str(), e.what());
      any_failed = true;
      continue;
    }
    const partition::WeightedGraph wg = partition::WeightedGraph::unit(std::move(g));
    // --json keeps stdout pure JSON-lines (one object per run) so the
    // output pipes straight into jq; the human table goes to stdout only
    // in the default mode.
    if (!json) {
      std::printf("\n%s: %d vertices, %lld edges, k=%d\n", spec.c_str(), wg.graph.num_rows,
                  static_cast<long long>(wg.graph.num_entries() / 2), k);
      std::printf("  %-16s %12s %7s %10s %9s %7s %6s %9s\n", "algorithm", "cut", "cut%",
                  "commvol", "boundary%", "imbal%", "empty", "time(s)");
    }
    for (const auto& p : partitioners) {
      const partition::PartitionResult r = p->run(wg, k);
      const partition::QualityReport& q = r.quality;
      const std::string pdigest =
          digest ? check::digest_hex(check::digest(r.part)) : std::string{};
      if (json) {
        obs::Report report;
        obs::add_graph(report, spec, wg.graph.num_rows, wg.graph.num_entries());
        report.set("algorithm", p->name());
        report.set("k", static_cast<std::int64_t>(k));
        report.set("seconds", r.seconds);
        if (digest) report.set("part_digest", pdigest);
        report.set_raw("quality", q.to_json());
        std::printf("%s\n", report.to_json().c_str());
      } else {
        std::printf("  %-16s %12lld %6.2f%% %10lld %8.2f%% %6.2f%% %6d %9.3f%s%s\n",
                    p->name().c_str(), static_cast<long long>(q.edge_cut),
                    100.0 * q.cut_fraction(), static_cast<long long>(q.comm_volume),
                    100.0 * q.boundary_fraction, 100.0 * q.imbalance, q.empty_parts, r.seconds,
                    digest ? "  " : "", pdigest.c_str());
      }
    }
  }

  if (!trace_path.empty()) {
    obs::set_tracing(false);
    if (!obs::write_chrome_trace(trace_path)) {
      std::fprintf(stderr, "cannot write trace file '%s'\n", trace_path.c_str());
      any_failed = true;
    } else if (!json) {
      std::printf("\ntrace: %llu events -> %s (load in chrome://tracing or Perfetto)\n",
                  static_cast<unsigned long long>(obs::total_events()), trace_path.c_str());
    }
  }
  return any_failed ? 1 : 0;
}
