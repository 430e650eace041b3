#pragma once
/// \file graph_inputs.hpp
/// \brief Shared graph-spec loader for the example binaries.
///
/// Spec syntax (the same across parmis_tool and graph_partition):
///   path/to/matrix.mtx          any Matrix Market coordinate file
///   gen:laplace3d:NX            NX^3 7-point grid
///   gen:laplace2d:NX            NX^2 5-point grid
///   gen:elasticity:NX           NX^3 27-point, 3 dof
///   gen:rgg:N:DEG               3D random geometric graph
///   gen:powerlaw:N[:EXP]        power-law degrees, exponent EXP (default 2.2)
///   reg:NAME                    a Table II surrogate (e.g. reg:Serena)
///
/// Every input is symmetrized and stripped of self loops, so general
/// matrices are accepted.

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <stdexcept>
#include <string>
#include <vector>

#include "check/validate.hpp"
#include "graph/generators.hpp"
#include "graph/matrix_market.hpp"
#include "graph/ops.hpp"
#include "graph/registry.hpp"
#include "graph/rgg.hpp"

namespace parmis::examples {

/// Comma-separated argument lists (--algos=a,b / --solvers=s,... / ...),
/// shared by the batch drivers. Empty fields are dropped.
inline std::vector<std::string> split_csv(const std::string& s) {
  std::vector<std::string> out;
  std::size_t pos = 0;
  while (pos <= s.size()) {
    const std::size_t comma = s.find(',', pos);
    const std::size_t end = comma == std::string::npos ? s.size() : comma;
    if (end > pos) out.push_back(s.substr(pos, end - pos));
    if (comma == std::string::npos) break;
    pos = comma + 1;
  }
  return out;
}

/// A positional size argument of the example drivers (a vertex count or a
/// grid side): a decimal integer >= `min` whose `dims`-th power times
/// `dofs` (unknowns per grid point), the row count it generates, fits the
/// 32-bit vertex ordinal. Throws std::invalid_argument naming `what`
/// otherwise.
inline ordinal_t parse_size_arg(const char* text, const char* what, ordinal_t min = 2,
                                int dims = 1, int dofs = 1) {
  errno = 0;
  char* end = nullptr;
  const long long v = std::strtoll(text, &end, 10);
  if (*text == '\0' || *end != '\0' || errno == ERANGE || v < min) {
    throw std::invalid_argument(std::string(what) + " must be an integer >= " +
                                std::to_string(min) + ", got '" + text + "'");
  }
  std::int64_t cells = dofs;
  for (int d = 0; d < dims; ++d) {
    if (v > max_ordinal / cells) {
      throw std::invalid_argument(std::string(what) + " " + text +
                                  " overflows the 32-bit vertex ordinal");
    }
    cells *= v;
  }
  return static_cast<ordinal_t>(v);
}

/// Build the adjacency described by `spec`; `scale` applies to registry
/// surrogates only (fraction of the paper |V|). Throws std::runtime_error
/// on a malformed spec, unknown generator, or unreadable file, and
/// std::out_of_range ("unknown experiment matrix 'NAME'") on an unknown
/// `reg:NAME`, so batch drivers can report the spec and keep going.
inline graph::CrsGraph load_graph(const std::string& spec, double scale = 1.0) {
  // idx-th colon-separated field; empty when the spec has too few fields.
  auto field = [&](std::size_t idx) -> std::string {
    std::size_t pos = 0;
    for (std::size_t i = 0; i < idx; ++i) {
      pos = spec.find(':', pos);
      if (pos == std::string::npos) return "";
      ++pos;
    }
    const std::size_t end = spec.find(':', pos);
    return spec.substr(pos, end == std::string::npos ? std::string::npos : end - pos);
  };
  auto bad_spec = [&](const std::string& why) {
    return std::runtime_error("bad graph spec '" + spec + "': " + why);
  };
  // Checked numeric fields: std::atoi silently truncates garbage to 0 and
  // wraps overflowing sizes, so "gen:rgg:9999999999:14" used to become a
  // tiny (or negative) graph instead of an error.
  auto parse_ordinal = [&](const std::string& text, const char* what) -> ordinal_t {
    errno = 0;
    char* end = nullptr;
    const long long v = std::strtoll(text.c_str(), &end, 10);
    if (text.empty() || end != text.c_str() + text.size()) {
      throw bad_spec(std::string(what) + " is not an integer: '" + text + "'");
    }
    if (errno == ERANGE || v < 0 || v > max_ordinal) {
      throw bad_spec(std::string(what) + " overflows the 32-bit vertex ordinal: '" + text + "'");
    }
    return static_cast<ordinal_t>(v);
  };
  auto parse_double = [&](const std::string& text, const char* what) -> double {
    errno = 0;
    char* end = nullptr;
    const double v = std::strtod(text.c_str(), &end);
    if (text.empty() || end != text.c_str() + text.size() || !std::isfinite(v)) {
      throw bad_spec(std::string(what) + " is not a finite number: '" + text + "'");
    }
    return v;
  };
  // Grid generators produce f(nx) vertices (nx^2, nx^3, 3*nx^3); reject
  // sizes whose vertex count overflows ordinal_t before generating.
  auto check_grid_cells = [&](ordinal_t nx, int dims, ordinal_t dof) {
    std::int64_t cells = dof;
    for (int d = 0; d < dims; ++d) cells *= nx;
    if (cells > max_ordinal) {
      throw bad_spec("grid of " + std::to_string(cells) +
                     " vertices overflows the 32-bit vertex ordinal");
    }
  };

  graph::CrsMatrix m;
  if (spec.rfind("gen:", 0) == 0) {
    const std::string kind = field(1);
    if (kind == "laplace3d" || kind == "laplace2d" || kind == "elasticity") {
      const ordinal_t nx = parse_ordinal(field(2), "grid size");
      if (nx < 2) throw bad_spec("needs a grid size >= 2, e.g. gen:laplace2d:100");
      check_grid_cells(nx, kind == "laplace2d" ? 2 : 3, kind == "elasticity" ? 3 : 1);
      m = kind == "laplace3d"   ? graph::laplace3d(nx, nx, nx)
          : kind == "laplace2d" ? graph::laplace2d(nx, nx)
                                : graph::elasticity3d(nx, nx, nx);
    } else if (kind == "rgg") {
      const ordinal_t n = parse_ordinal(field(2), "N");
      const double deg = parse_double(field(3), "DEG");
      if (n < 1 || deg <= 0) throw bad_spec("needs N and DEG, e.g. gen:rgg:100000:14");
      return graph::random_geometric_3d(n, deg, 1);
    } else if (kind == "powerlaw") {
      const ordinal_t n = parse_ordinal(field(2), "N");
      const double exp = field(3).empty() ? 2.2 : parse_double(field(3), "EXP");
      if (n < 1 || exp <= 1) throw bad_spec("needs N [EXP>1], e.g. gen:powerlaw:100000:2.2");
      return graph::power_law_graph(n, exp, 4, std::max<ordinal_t>(64, n / 60), 42);
    } else {
      throw bad_spec("unknown generator");
    }
  } else if (spec.rfind("reg:", 0) == 0) {
    m = graph::experiment_matrices().find(spec.substr(4)).build(scale);
  } else {
    m = graph::read_matrix_market(spec);
  }
  graph::CrsGraph g = graph::remove_self_loops(graph::symmetrize(graph::GraphView(m)));
  // Boundary validation, unconditional: whatever the source, a graph
  // handed to the drivers satisfies the kernel preconditions.
  if (const check::Result res = check::validate(
          graph::GraphView(g), {.require_loop_free = true, .require_symmetric = true});
      !res) {
    throw std::runtime_error("graph spec '" + spec + "': " + res.diagnostic());
  }
  return g;
}

}  // namespace parmis::examples
