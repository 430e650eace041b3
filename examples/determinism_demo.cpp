/// \file determinism_demo.cpp
/// \brief Demonstrates the paper's headline property: Algorithm 1 returns
/// a bit-identical MIS-2 on every backend and thread count, and on every
/// repetition — here expressed through explicit execution contexts and a
/// reusable handle (one scratch allocation for the whole sweep).
///
/// Run: ./determinism_demo [n]

#include <cstdio>
#include <stdexcept>

#include "core/mis2.hpp"
#include "graph/rgg.hpp"
#include "graph_inputs.hpp"
#include "parallel/context.hpp"
#include "random/hash.hpp"

namespace {

/// Order-sensitive checksum of the member list.
std::uint64_t checksum(const std::vector<parmis::ordinal_t>& members) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (parmis::ordinal_t v : members) {
    h = (h ^ static_cast<std::uint64_t>(v)) * 0x100000001b3ull;
  }
  return h;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace parmis;
  ordinal_t n = 100000;
  try {
    if (argc > 1) n = examples::parse_size_arg(argv[1], "n");
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "%s\n", e.what());
    return 1;
  }
  const graph::CrsGraph g = graph::random_geometric_3d(n, 16.0, 3);

  struct Config {
    const char* name;
    Context ctx;
  };
  const Config configs[] = {
      {"serial", Context::serial()},       {"openmp-1", Context::openmp(1)},
      {"openmp-2", Context::openmp(2)},    {"openmp-8", Context::openmp(8)},
      {"openmp-max", Context::openmp(0)},
  };

  std::printf("MIS-2 on RGG n=%d across execution contexts:\n", n);
  core::Mis2Handle handle;  // one handle: scratch is reused across the sweep
  std::uint64_t reference = 0;
  bool all_equal = true;
  for (const Config& c : configs) {
    handle.set_context(c.ctx);
    const Context::Validation v = c.ctx.validate();
    const core::Mis2Result& r = handle.run(g);
    const std::uint64_t sum = checksum(r.members);
    if (reference == 0) reference = sum;
    all_equal = all_equal && sum == reference;
    std::printf("  %-10s -> |MIS-2| = %6d, iterations = %2d, checksum = %016llx%s\n", c.name,
                r.set_size(), r.iterations, static_cast<unsigned long long>(sum),
                v.fell_back ? "  (fell back to Serial)" : "");
  }
  std::printf(all_equal ? "all contexts agree bit-for-bit\n" : "MISMATCH DETECTED (bug!)\n");
  return all_equal ? 0 : 1;
}
