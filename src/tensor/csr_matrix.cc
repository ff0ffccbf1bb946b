#include "tensor/csr_matrix.h"

#include <algorithm>
#include <cstdint>
#include <map>

#include "common/logging.h"
#include "parallel/parallel_for.h"
#include "tensor/kernels.h"

namespace cascn {

namespace {

// Multiply-add count (nnz * dense cols) below which sparse products stay
// serial; per-snapshot operators in the CasCN configs are far under this.
constexpr uint64_t kParallelSparseCutoff = uint64_t{1} << 18;

bool UseParallelKernel(uint64_t work) {
  return work >= kParallelSparseCutoff && parallel::ConfiguredThreads() > 1;
}

size_t RowGrain(int rows) {
  const size_t chunks = parallel::ConfiguredThreads() * 4;
  return std::max<size_t>(1, static_cast<size_t>(rows) / chunks);
}

}  // namespace

CsrMatrix CsrMatrix::FromTriplets(int rows, int cols,
                                  std::vector<Triplet> triplets) {
  CsrMatrix m;
  m.rows_ = rows;
  m.cols_ = cols;
  std::sort(triplets.begin(), triplets.end(),
            [](const Triplet& a, const Triplet& b) {
              return a.row != b.row ? a.row < b.row : a.col < b.col;
            });
  m.row_offsets_.assign(rows + 1, 0);
  for (size_t i = 0; i < triplets.size(); ++i) {
    const Triplet& t = triplets[i];
    CASCN_CHECK(t.row >= 0 && t.row < rows && t.col >= 0 && t.col < cols)
        << "triplet out of bounds";
    if (!m.col_indices_.empty() && i > 0 && triplets[i - 1].row == t.row &&
        triplets[i - 1].col == t.col) {
      m.values_.back() += t.value;  // merge duplicates
      continue;
    }
    m.col_indices_.push_back(t.col);
    m.values_.push_back(t.value);
    ++m.row_offsets_[t.row + 1];
  }
  for (int r = 0; r < rows; ++r) m.row_offsets_[r + 1] += m.row_offsets_[r];
  return m;
}

CsrMatrix CsrMatrix::FromDense(const Tensor& dense) {
  std::vector<Triplet> trips;
  for (int i = 0; i < dense.rows(); ++i)
    for (int j = 0; j < dense.cols(); ++j)
      if (dense.At(i, j) != 0.0) trips.push_back({i, j, dense.At(i, j)});
  return FromTriplets(dense.rows(), dense.cols(), std::move(trips));
}

CsrMatrix CsrMatrix::Identity(int n) {
  std::vector<Triplet> trips;
  trips.reserve(n);
  for (int i = 0; i < n; ++i) trips.push_back({i, i, 1.0});
  return FromTriplets(n, n, std::move(trips));
}

Tensor CsrMatrix::ToDense() const {
  Tensor out(rows_, cols_);
  for (int r = 0; r < rows_; ++r)
    for (int k = row_offsets_[r]; k < row_offsets_[r + 1]; ++k)
      out.At(r, col_indices_[k]) += values_[k];
  return out;
}

Tensor CsrMatrix::MatMulDense(const Tensor& dense) const {
  CASCN_CHECK(cols_ == dense.rows());
  Tensor out(rows_, dense.cols());
  auto gather = [&](size_t r0, size_t r1) {
    kernels::Kernels().sparse_rows(row_offsets_.data(), col_indices_.data(),
                                   values_.data(), dense.data(), out.data(),
                                   dense.cols(), r0, r1);
  };
  // Each output row gathers its nonzeros, in stored order, from disjoint
  // state: safe to row-partition, and bit-identical either way.
  if (UseParallelKernel(uint64_t(nnz()) * uint64_t(dense.cols()))) {
    parallel::ParallelForRange(static_cast<size_t>(rows_), RowGrain(rows_),
                               gather);
  } else {
    gather(0, static_cast<size_t>(rows_));
  }
  return out;
}

Tensor CsrMatrix::TransposeMatMulDense(const Tensor& dense) const {
  CASCN_CHECK(rows_ == dense.rows());
  Tensor out(cols_, dense.cols());
  auto scatter = [&](size_t c0, size_t c1) {
    kernels::Kernels().sparse_scatter(row_offsets_.data(), col_indices_.data(),
                                      values_.data(), rows_, dense.data(),
                                      out.data(), dense.cols(), c0, c1);
  };
  // The scatter (output row = column index) races across input rows, so
  // the pool partitions *output* rows: every worker scans all nonzeros and
  // applies those landing in its slice, in input-row order either way.
  if (UseParallelKernel(uint64_t(nnz()) * uint64_t(dense.cols()))) {
    parallel::ParallelForRange(static_cast<size_t>(cols_), RowGrain(cols_),
                               scatter);
  } else {
    scatter(0, kernels::kAllRows);
  }
  return out;
}

CsrMatrix CsrMatrix::Transposed() const {
  std::vector<Triplet> trips;
  trips.reserve(values_.size());
  for (int r = 0; r < rows_; ++r)
    for (int k = row_offsets_[r]; k < row_offsets_[r + 1]; ++k)
      trips.push_back({col_indices_[k], r, values_[k]});
  return FromTriplets(cols_, rows_, std::move(trips));
}

CsrMatrix CsrMatrix::Add(const CsrMatrix& other, double alpha,
                         double beta) const {
  CASCN_CHECK(rows_ == other.rows_ && cols_ == other.cols_);
  std::vector<Triplet> trips;
  trips.reserve(values_.size() + other.values_.size());
  for (int r = 0; r < rows_; ++r)
    for (int k = row_offsets_[r]; k < row_offsets_[r + 1]; ++k)
      trips.push_back({r, col_indices_[k], alpha * values_[k]});
  for (int r = 0; r < other.rows_; ++r)
    for (int k = other.row_offsets_[r]; k < other.row_offsets_[r + 1]; ++k)
      trips.push_back({r, other.col_indices_[k], beta * other.values_[k]});
  return FromTriplets(rows_, cols_, std::move(trips));
}

CsrMatrix CsrMatrix::MatMulSparse(const CsrMatrix& other) const {
  CASCN_CHECK(cols_ == other.rows_);
  std::vector<Triplet> trips;
  std::map<int, double> row_accum;
  for (int r = 0; r < rows_; ++r) {
    row_accum.clear();
    for (int k = row_offsets_[r]; k < row_offsets_[r + 1]; ++k) {
      const int mid = col_indices_[k];
      const double v = values_[k];
      for (int k2 = other.row_offsets_[mid]; k2 < other.row_offsets_[mid + 1];
           ++k2) {
        row_accum[other.col_indices_[k2]] += v * other.values_[k2];
      }
    }
    for (const auto& [c, v] : row_accum)
      if (v != 0.0) trips.push_back({r, c, v});
  }
  return FromTriplets(rows_, other.cols_, std::move(trips));
}

CsrMatrix CsrMatrix::LeadingBlock(int n) const {
  CASCN_CHECK(n >= 0 && n <= rows_ && n <= cols_);
  CASCN_CHECK(row_offsets_[n] == nnz() &&
              std::all_of(col_indices_.begin(), col_indices_.end(),
                          [n](int c) { return c < n; }))
      << "matrix has an entry outside the leading " << n << "x" << n
      << " block";
  CsrMatrix out;
  out.rows_ = out.cols_ = n;
  out.row_offsets_.assign(row_offsets_.begin(), row_offsets_.begin() + n + 1);
  out.col_indices_ = col_indices_;
  out.values_ = values_;
  return out;
}

CsrMatrix CsrMatrix::Scaled(double alpha) const {
  CsrMatrix out = *this;
  for (double& v : out.values_) v *= alpha;
  return out;
}

}  // namespace cascn
