#pragma once
/// \file registry.hpp
/// \brief The 17-matrix experiment suite from the paper (Table II), plus
/// bodyy5 (Table VI), as buildable surrogates.
///
/// Two of the paper's inputs (Laplace3D_100, Elasticity3D_60) are generated
/// exactly; the 15 SuiteSparse matrices are replaced by synthetic
/// surrogates matched in |V| and average degree (DESIGN.md §4): 2D/3D
/// stencil grids for the grid-like inputs and 3D random geometric graphs
/// for the unstructured FEM inputs. Paper-reported statistics are carried
/// along so benchmark output can show paper-vs-surrogate side by side.

#include <functional>
#include <string>
#include <vector>

#include "common/registry.hpp"
#include "graph/crs.hpp"

namespace parmis::graph {

/// Statistics of the original matrix as reported in Table II of the paper.
struct PaperStats {
  std::int64_t rows;       ///< |V|
  double nnz_millions;     ///< |E| in millions (paper's convention)
  double avg_degree;       ///< average adjacency degree
  ordinal_t max_degree;    ///< maximum adjacency degree
};

/// A buildable experiment matrix.
struct MatrixSpec {
  std::string name;
  PaperStats paper;
  bool in_table2;  ///< member of the 17-matrix Table II suite
  /// Build the surrogate at `scale` (fraction of the paper |V|; 1.0 =
  /// paper scale). Returns an SPD matrix; MIS/coloring benchmarks use only
  /// its structure.
  std::function<CrsMatrix(double scale)> build;
};

/// All experiment matrices, Table II's 17 first (in the paper's row order),
/// then extras (bodyy5).
const Registry<MatrixSpec>& experiment_matrices();

/// The 17 Table II matrices only.
std::vector<MatrixSpec> table2_matrices();

}  // namespace parmis::graph
