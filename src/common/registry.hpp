#pragma once
/// \file registry.hpp
/// \brief `Registry<Spec>`: the ordered name→spec table behind every
/// pluggable component — coarseners, partitioners, solvers,
/// preconditioners and the experiment matrices.
///
/// A registry is built once (a function-local static in its module) and
/// never changes afterwards, so lookups are lock-free reads. Callers look
/// a spec up by name and use it: `coarseners().find("hem").make()`.
/// Lookups belong in setup paths (one per handle or builder build), never
/// inside a kernel.

#include <cstdio>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

namespace parmis {

/// An ordered table of specs keyed by `Spec::name`. `kind` names what the
/// specs are ("solver", "coarsener", ...) and appears in lookup errors.
template <class Spec>
class Registry {
 public:
  Registry(std::string kind, std::vector<Spec> specs)
      : kind_(std::move(kind)), specs_(std::move(specs)) {}

  /// All specs, registration order.
  [[nodiscard]] const std::vector<Spec>& specs() const { return specs_; }

  /// All names, registration order.
  [[nodiscard]] std::vector<std::string> names() const {
    std::vector<std::string> out;
    out.reserve(specs_.size());
    for (const Spec& s : specs_) out.push_back(s.name);
    return out;
  }

  /// The spec called `name`; throws std::out_of_range
  /// ("unknown <kind> '<name>'") if there is none.
  [[nodiscard]] const Spec& find(const std::string& name) const {
    for (const Spec& s : specs_) {
      if (s.name == name) return s;
    }
    throw std::out_of_range("unknown " + kind_ + " '" + name + "'");
  }

  /// One `  <name> <description>` row per spec, names left-aligned in a
  /// `name_width`-wide column (the drivers' `--list` output).
  void print(std::FILE* out, int name_width) const {
    for (const Spec& s : specs_) {
      std::fprintf(out, "  %-*s %s\n", name_width, s.name.c_str(), s.description.c_str());
    }
  }

 private:
  std::string kind_;
  std::vector<Spec> specs_;
};

}  // namespace parmis
