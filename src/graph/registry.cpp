#include "graph/registry.hpp"

#include <cmath>

#include "graph/generators.hpp"
#include "graph/rgg.hpp"

namespace parmis::graph {

namespace {

/// Diagonal shift attached to RGG Laplacian surrogates. Small enough that
/// the matrices are ill-conditioned like their FEM originals, large enough
/// to be safely SPD.
constexpr scalar_t kRggShift = 0.05;

ordinal_t scaled(std::int64_t n, double scale, double exponent) {
  const double s = std::pow(scale, exponent);
  return static_cast<ordinal_t>(std::llround(static_cast<double>(n) * s));
}

MatrixSpec rgg_spec(std::string name, PaperStats paper, double degree, std::uint64_t seed) {
  MatrixSpec spec;
  spec.name = std::move(name);
  spec.paper = paper;
  spec.in_table2 = true;
  spec.build = [paper, degree, seed](double scale) {
    const ordinal_t n = scaled(paper.rows, scale, 1.0);
    return laplacian_matrix(random_geometric_3d(n, degree, seed), kRggShift);
  };
  return spec;
}

MatrixSpec grid2d_spec(std::string name, PaperStats paper, ordinal_t nx, ordinal_t ny,
                       Stencil2D stencil = Stencil2D::FivePoint) {
  MatrixSpec spec;
  spec.name = std::move(name);
  spec.paper = paper;
  spec.in_table2 = true;
  spec.build = [nx, ny, stencil](double scale) {
    const double s = std::sqrt(scale);
    return laplace2d(std::max<ordinal_t>(2, static_cast<ordinal_t>(std::llround(nx * s))),
                     std::max<ordinal_t>(2, static_cast<ordinal_t>(std::llround(ny * s))), stencil);
  };
  return spec;
}

MatrixSpec grid3d_spec(std::string name, PaperStats paper, ordinal_t nx, ordinal_t ny,
                       ordinal_t nz, Stencil3D stencil = Stencil3D::SevenPoint) {
  MatrixSpec spec;
  spec.name = std::move(name);
  spec.paper = paper;
  spec.in_table2 = true;
  spec.build = [nx, ny, nz, stencil](double scale) {
    const double s = std::cbrt(scale);
    auto dim = [s](ordinal_t d) {
      return std::max<ordinal_t>(2, static_cast<ordinal_t>(std::llround(d * s)));
    };
    return laplace3d(dim(nx), dim(ny), dim(nz), stencil);
  };
  return spec;
}

std::vector<MatrixSpec> matrix_specs() {
  std::vector<MatrixSpec> specs;

  // Table II order. Paper stats: {rows, |E| (millions), avg deg, max deg}.
  specs.push_back(rgg_spec("af_shell7", {504855, 9.047, 17.92, 35}, 17.92, 0xAF5E11ull));
  specs.push_back(grid2d_spec("apache2", {715176, 2.767, 3.87, 4}, 846, 845));
  specs.push_back(rgg_spec("audikw_1", {943695, 39.298, 41.64, 114}, 41.64, 0xA0D1ull));
  specs.push_back(grid2d_spec("ecology2", {999999, 2.998, 3.0, 3}, 1000, 1000));

  {
    MatrixSpec spec;
    spec.name = "Elasticity3D_60";
    spec.paper = {648000, 50.758, 78.33, 81};
    spec.in_table2 = true;
    spec.build = [](double scale) {
      const double s = std::cbrt(scale);
      const ordinal_t d = std::max<ordinal_t>(2, static_cast<ordinal_t>(std::llround(60 * s)));
      return elasticity3d(d, d, d);
    };
    specs.push_back(std::move(spec));
  }

  specs.push_back(rgg_spec("Emilia_923", {923136, 20.964, 22.71, 48}, 22.71, 0xE1111Aull));
  specs.push_back(rgg_spec("Fault_639", {638802, 14.627, 22.9, 114}, 22.9, 0xFA017ull));
  specs.push_back(rgg_spec("Geo_1438", {1437960, 32.297, 22.46, 48}, 22.46, 0x6E0ull));
  specs.push_back(rgg_spec("Hook_1498", {1498023, 31.208, 20.83, 57}, 20.83, 0x400Cull));

  {
    MatrixSpec spec;
    spec.name = "Laplace3D_100";
    spec.paper = {1000000, 6.94, 6.94, 7};
    spec.in_table2 = true;
    spec.build = [](double scale) {
      const double s = std::cbrt(scale);
      const ordinal_t d = std::max<ordinal_t>(2, static_cast<ordinal_t>(std::llround(100 * s)));
      return laplace3d(d, d, d);
    };
    specs.push_back(std::move(spec));
  }

  specs.push_back(rgg_spec("ldoor", {952203, 23.737, 24.93, 49}, 24.93, 0x1D002ull));
  specs.push_back(grid2d_spec("parabolic_fem", {525825, 2.1, 3.99, 7}, 725, 725));
  specs.push_back(rgg_spec("PFlow_742", {742793, 18.941, 25.5, 58}, 25.5, 0xBF102ull));
  specs.push_back(rgg_spec("Serena", {1391349, 32.962, 23.69, 201}, 23.69, 0x5E2E4Aull));
  specs.push_back(grid3d_spec("StocF-1465", {1465137, 11.235, 7.67, 80}, 114, 114, 113));
  specs.push_back(grid2d_spec("thermal2", {1228045, 4.904, 3.99, 10}, 1108, 1108));
  specs.push_back(grid2d_spec("tmt_sym", {726713, 2.904, 4.0, 5}, 852, 853));

  // Extras beyond Table II (Table VI uses bodyy5).
  {
    MatrixSpec spec;
    spec.name = "bodyy5";
    spec.paper = {18589, 0.104, 5.61, 8};
    spec.in_table2 = false;
    spec.build = [](double scale) {
      const double s = std::sqrt(scale);
      const ordinal_t d = std::max<ordinal_t>(2, static_cast<ordinal_t>(std::llround(137 * s)));
      return laplace2d(d, d, Stencil2D::NinePoint);
    };
    specs.push_back(std::move(spec));
  }

  return specs;
}

}  // namespace

const Registry<MatrixSpec>& experiment_matrices() {
  static const Registry<MatrixSpec> registry("experiment matrix", matrix_specs());
  return registry;
}

std::vector<MatrixSpec> table2_matrices() {
  std::vector<MatrixSpec> out;
  for (const MatrixSpec& s : experiment_matrices().specs()) {
    if (s.in_table2) out.push_back(s);
  }
  return out;
}

}  // namespace parmis::graph
