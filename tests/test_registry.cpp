/// \file test_registry.cpp
/// \brief The `Registry<Spec>` contract, checked on every registry in the
/// library: unique non-empty names, non-empty descriptions, `names()` in
/// spec order, and one exact error text for an unknown name. The checks
/// that belong to one module (its leading entry, `make()` naming its
/// product, building and applying) stay with that module's tests.

#include <gtest/gtest.h>

#include <cstdio>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/registry.hpp"
#include "core/coarsener.hpp"
#include "graph/registry.hpp"
#include "partition/interface.hpp"
#include "solver/interface.hpp"

namespace parmis {
namespace {

template <class Spec>
void expect_contract(const Registry<Spec>& registry, const std::string& kind) {
  const std::vector<Spec>& specs = registry.specs();
  ASSERT_FALSE(specs.empty()) << kind;

  const std::vector<std::string> names = registry.names();
  ASSERT_EQ(names.size(), specs.size()) << kind;
  std::set<std::string> seen;
  for (std::size_t i = 0; i < specs.size(); ++i) {
    const Spec& spec = specs[i];
    EXPECT_EQ(names[i], spec.name) << kind << " #" << i;
    EXPECT_FALSE(spec.name.empty()) << kind << " #" << i;
    if constexpr (requires { spec.description; }) {
      EXPECT_FALSE(spec.description.empty()) << kind << " " << spec.name;
    }
    EXPECT_TRUE(seen.insert(spec.name).second) << kind << " " << spec.name << " registered twice";
    EXPECT_EQ(&registry.find(spec.name), &spec) << kind << " " << spec.name;
  }

  for (const std::string name : {"no-such-entry", ""}) {
    try {
      (void)registry.find(name);
      ADD_FAILURE() << kind << ": find('" << name << "') did not throw";
    } catch (const std::out_of_range& e) {
      EXPECT_EQ(std::string(e.what()), "unknown " + kind + " '" + name + "'");
    }
  }
}

TEST(RegistryContract, Coarseners) { expect_contract(core::coarseners(), "coarsener"); }

TEST(RegistryContract, Partitioners) { expect_contract(partition::partitioners(), "partitioner"); }

TEST(RegistryContract, Solvers) { expect_contract(solver::solvers(), "solver"); }

TEST(RegistryContract, Preconditioners) {
  expect_contract(solver::preconditioners(), "preconditioner");
}

TEST(RegistryContract, ExperimentMatrices) {
  expect_contract(graph::experiment_matrices(), "experiment matrix");
}

TEST(RegistryContract, PrintWritesOneAlignedRowPerSpec) {
  struct Spec {
    std::string name;
    std::string description;
  };
  const Registry<Spec> registry("widget", {{"a", "first"}, {"long-name", "second"}});
  std::FILE* f = std::tmpfile();
  ASSERT_NE(f, nullptr);
  registry.print(f, 6);
  std::rewind(f);
  std::string text;
  for (int c; (c = std::fgetc(f)) != EOF;) text.push_back(static_cast<char>(c));
  std::fclose(f);
  EXPECT_EQ(text, "  a      first\n  long-name second\n");
}

}  // namespace
}  // namespace parmis
