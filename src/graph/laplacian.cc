#include "graph/laplacian.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include "common/logging.h"
#include "tensor/linalg.h"

namespace cascn {

namespace {

/// Extracts the n x n active-block dense adjacency (with root self-loop)
/// from an observed cascade.
Tensor ActiveAdjacency(const Cascade& cascade, int n) {
  Tensor w(n, n);
  w.At(0, 0) = 1.0;  // root self-connection (Fig. 3)
  for (int i = 1; i < n; ++i) {
    for (int p : cascade.event(i).parents) {
      if (p < n) w.At(p, i) = 1.0;
    }
  }
  return w;
}

/// Embeds an n x n dense block into a padded sparse matrix.
CsrMatrix EmbedPadded(const Tensor& block, int padded_size) {
  std::vector<Triplet> trips;
  for (int i = 0; i < block.rows(); ++i)
    for (int j = 0; j < block.cols(); ++j)
      if (block.At(i, j) != 0.0) trips.push_back({i, j, block.At(i, j)});
  return CsrMatrix::FromTriplets(padded_size, padded_size, std::move(trips));
}

}  // namespace

Result<CsrMatrix> CascadeLaplacian(const Cascade& cascade, int padded_size,
                                   const CasLaplacianOptions& options) {
  if (options.alpha <= 0.0 || options.alpha >= 1.0)
    return Status::InvalidArgument("CasLaplacian alpha must be in (0, 1)");
  const int n = std::min(cascade.size(), padded_size);
  CASCN_CHECK(padded_size >= n && n >= 1);

  // Step 1: degree and weighted adjacency of the active block.
  const Tensor w = ActiveAdjacency(cascade, n);
  std::vector<double> out_degree(n, 0.0);
  for (int i = 0; i < n; ++i)
    for (int j = 0; j < n; ++j) out_degree[i] += w.At(i, j);

  // Step 2: transition matrix P_c = (1-a) E/n + a D^{-1} W (Eq. 7), with
  // dangling rows replaced by the uniform distribution so P_c stays
  // row-stochastic.
  const double teleport = (1.0 - options.alpha) / n;
  Tensor pc(n, n, teleport);
  for (int i = 0; i < n; ++i) {
    if (out_degree[i] > 0) {
      for (int j = 0; j < n; ++j)
        pc.At(i, j) += options.alpha * w.At(i, j) / out_degree[i];
    } else {
      for (int j = 0; j < n; ++j) pc.At(i, j) += options.alpha / n;
    }
  }

  // Step 3: stationary distribution phi^T P_c = phi^T.
  const CsrMatrix pc_sparse = CsrMatrix::FromDense(pc);
  CASCN_ASSIGN_OR_RETURN(
      std::vector<double> phi,
      StationaryDistribution(pc_sparse, options.stationary_max_iterations,
                             options.stationary_tolerance));

  // Steps 4-5: Delta_c = Phi^{1/2} (I - P_c) Phi^{-1/2} (Eq. 8).
  Tensor delta(n, n);
  for (int i = 0; i < n; ++i) {
    CASCN_CHECK(phi[i] > 0) << "stationary distribution must be positive";
    const double sqrt_phi_i = std::sqrt(phi[i]);
    for (int j = 0; j < n; ++j) {
      const double identity = i == j ? 1.0 : 0.0;
      delta.At(i, j) =
          sqrt_phi_i * (identity - pc.At(i, j)) / std::sqrt(phi[j]);
    }
  }
  return EmbedPadded(delta, padded_size);
}

CsrMatrix UndirectedNormalizedLaplacian(const Cascade& cascade,
                                        int padded_size) {
  const int n = std::min(cascade.size(), padded_size);
  Tensor w = ActiveAdjacency(cascade, n);
  // The root self-connection is a snapshot-representation artefact; the
  // standard normalised Laplacian is defined over a loop-free W.
  w.At(0, 0) = 0.0;
  // Symmetrise.
  for (int i = 0; i < n; ++i)
    for (int j = i + 1; j < n; ++j) {
      const double v = std::max(w.At(i, j), w.At(j, i));
      w.At(i, j) = v;
      w.At(j, i) = v;
    }
  std::vector<double> degree(n, 0.0);
  for (int i = 0; i < n; ++i)
    for (int j = 0; j < n; ++j) degree[i] += w.At(i, j);

  Tensor lap(n, n);
  for (int i = 0; i < n; ++i) {
    lap.At(i, i) = 1.0;
    if (degree[i] <= 0) continue;  // isolated: identity row
    for (int j = 0; j < n; ++j) {
      if (w.At(i, j) == 0.0 || degree[j] <= 0) continue;
      lap.At(i, j) -= w.At(i, j) / std::sqrt(degree[i] * degree[j]);
    }
  }
  return EmbedPadded(lap, padded_size);
}

CsrMatrix ScaleLaplacian(const CsrMatrix& laplacian, double lambda_max,
                         int active_n) {
  CASCN_CHECK(lambda_max > 0) << "lambda_max must be positive";
  CASCN_CHECK(active_n >= 1 && active_n <= laplacian.rows());
  // 2 L / lambda_max - I on the active block only; the padded region stays
  // identically zero so padding nodes never mix into the signal.
  std::vector<Triplet> trips;
  const auto& offsets = laplacian.row_offsets();
  const auto& cols = laplacian.col_indices();
  const auto& vals = laplacian.values();
  const double scale = 2.0 / lambda_max;
  for (int r = 0; r < laplacian.rows(); ++r)
    for (int k = offsets[r]; k < offsets[r + 1]; ++k)
      trips.push_back({r, cols[k], scale * vals[k]});
  for (int i = 0; i < active_n; ++i) trips.push_back({i, i, -1.0});
  return CsrMatrix::FromTriplets(laplacian.rows(), laplacian.cols(),
                                 std::move(trips));
}

double EstimateLambdaMax(const CsrMatrix& laplacian, int active_n) {
  if (active_n <= 1) return 2.0;
  // The active block started as the padded matrix would be: same value.
  const double lambda = PowerIterationLargestEigenvalue(
      laplacian.LeadingBlock(active_n), 64, laplacian.rows());
  if (!std::isfinite(lambda) || lambda < 1e-6) return 2.0;
  return lambda;
}

}  // namespace cascn
