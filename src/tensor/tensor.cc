#include "tensor/tensor.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <sstream>

#include "common/logging.h"
#include "parallel/parallel_for.h"
#include "tensor/kernels.h"

namespace cascn {

namespace {

// Multiply-add count below which a matmul is not worth farming out to the
// pool. 2^19 keeps every per-snapshot kernel in the tiny CasCN configs —
// and BM_DenseMatMul/64 (64^3 = 2^18 work) — on the fast serial path.
constexpr uint64_t kParallelDenseCutoff = uint64_t{1} << 19;

bool UseParallelKernel(uint64_t work) {
  return work >= kParallelDenseCutoff && parallel::ConfiguredThreads() > 1;
}

// Rows per chunk so each worker claims a handful of chunks (load balance)
// without degenerating into per-row claims.
size_t RowGrain(int rows) {
  const size_t chunks = parallel::ConfiguredThreads() * 4;
  return std::max<size_t>(1, static_cast<size_t>(rows) / chunks);
}

/// c += the terms' products (see kernels::Table::products). Output rows are
/// independent, so large shapes are row-partitioned over the shared pool;
/// each element's accumulation order is the same in both branches, so the
/// results are bit-identical at any thread count.
void RunProducts(const kernels::Term* terms, int count, bool skip_zero,
                 uint64_t work, Tensor& c) {
  const auto& products = kernels::Kernels().products;
  auto rows = [&](size_t i0, size_t i1) {
    products(terms, count, skip_zero, c.data(), c.cols(), i0, i1);
  };
  if (UseParallelKernel(work)) {
    parallel::ParallelForRange(static_cast<size_t>(c.rows()),
                               RowGrain(c.rows()), rows);
  } else {
    rows(0, static_cast<size_t>(c.rows()));
  }
}

}  // namespace

Tensor::Tensor(int rows, int cols) : rows_(rows), cols_(cols) {
  CASCN_CHECK(rows >= 0 && cols >= 0);
  data_.assign(static_cast<size_t>(rows) * cols, 0.0);
}

Tensor::Tensor(int rows, int cols, double value) : Tensor(rows, cols) {
  Fill(value);
}

Tensor Tensor::FromRows(const std::vector<std::vector<double>>& rows) {
  if (rows.empty()) return Tensor();
  const int r = static_cast<int>(rows.size());
  const int c = static_cast<int>(rows[0].size());
  Tensor t(r, c);
  for (int i = 0; i < r; ++i) {
    CASCN_CHECK(static_cast<int>(rows[i].size()) == c)
        << "ragged rows in Tensor::FromRows";
    for (int j = 0; j < c; ++j) t.At(i, j) = rows[i][j];
  }
  return t;
}

Tensor Tensor::RandomNormal(int rows, int cols, double stddev, Rng& rng) {
  Tensor t(rows, cols);
  for (double& x : t.data_) x = rng.Normal(0.0, stddev);
  return t;
}

Tensor Tensor::RandomUniform(int rows, int cols, double lo, double hi,
                             Rng& rng) {
  Tensor t(rows, cols);
  for (double& x : t.data_) x = rng.Uniform(lo, hi);
  return t;
}

Tensor Tensor::Identity(int n) {
  Tensor t(n, n);
  for (int i = 0; i < n; ++i) t.At(i, i) = 1.0;
  return t;
}

void Tensor::Fill(double value) {
  std::fill(data_.begin(), data_.end(), value);
}

void Tensor::AddInPlace(const Tensor& other) {
  CASCN_CHECK(SameShape(other));
  for (size_t i = 0; i < data_.size(); ++i) data_[i] += other.data_[i];
}

void Tensor::Axpy(double alpha, const Tensor& other) {
  CASCN_CHECK(SameShape(other));
  for (size_t i = 0; i < data_.size(); ++i) data_[i] += alpha * other.data_[i];
}

void Tensor::Scale(double alpha) {
  for (double& x : data_) x *= alpha;
}

Tensor Tensor::Transposed() const {
  Tensor out(cols_, rows_);
  for (int i = 0; i < rows_; ++i)
    for (int j = 0; j < cols_; ++j) out.At(j, i) = At(i, j);
  return out;
}

double Tensor::Sum() const {
  double s = 0;
  for (double x : data_) s += x;
  return s;
}

double Tensor::MeanValue() const {
  return data_.empty() ? 0.0 : Sum() / static_cast<double>(data_.size());
}

double Tensor::AbsMax() const {
  double m = 0;
  for (double x : data_) m = std::max(m, std::fabs(x));
  return m;
}

double Tensor::Norm() const {
  double s = 0;
  for (double x : data_) s += x * x;
  return std::sqrt(s);
}

Tensor Tensor::ColSums() const {
  Tensor out(1, cols_);
  for (int i = 0; i < rows_; ++i)
    for (int j = 0; j < cols_; ++j) out.At(0, j) += At(i, j);
  return out;
}

Tensor Tensor::RowSums() const {
  Tensor out(rows_, 1);
  for (int i = 0; i < rows_; ++i)
    for (int j = 0; j < cols_; ++j) out.At(i, 0) += At(i, j);
  return out;
}

Tensor Tensor::Row(int r) const {
  CASCN_CHECK(r >= 0 && r < rows_);
  Tensor out(1, cols_);
  for (int j = 0; j < cols_; ++j) out.At(0, j) = At(r, j);
  return out;
}

void Tensor::SetRow(int r, const Tensor& row) {
  CASCN_CHECK(r >= 0 && r < rows_ && row.rows() == 1 && row.cols() == cols_);
  for (int j = 0; j < cols_; ++j) At(r, j) = row.At(0, j);
}

std::string Tensor::ToString() const {
  std::ostringstream os;
  os << "Tensor(" << rows_ << "x" << cols_ << ")[";
  for (int i = 0; i < rows_; ++i) {
    os << (i == 0 ? "[" : ", [");
    for (int j = 0; j < cols_; ++j) {
      if (j > 0) os << ", ";
      os << At(i, j);
    }
    os << "]";
  }
  os << "]";
  return os.str();
}

Tensor MatMul(const Tensor& a, const Tensor& b) {
  CASCN_CHECK(a.cols() == b.rows());
  const int m = a.rows(), k = a.cols(), n = b.cols();
  const kernels::Term term{a.data(), static_cast<size_t>(k), 1, k, b.data()};
  Tensor c(m, n);
  RunProducts(&term, 1, /*skip_zero=*/true,
              uint64_t(m) * uint64_t(k) * uint64_t(n), c);
  return c;
}

Tensor MatMulSum(const std::vector<const Tensor*>& lhs,
                 const std::vector<const Tensor*>& rhs) {
  CASCN_CHECK(!lhs.empty() && lhs.size() == rhs.size())
      << "MatMulSum needs equally many left and right factors";
  const int m = lhs[0]->rows(), n = rhs[0]->cols();
  std::vector<kernels::Term> terms;
  uint64_t work = 0;
  for (size_t t = 0; t < lhs.size(); ++t) {
    const Tensor& a = *lhs[t];
    const Tensor& b = *rhs[t];
    CASCN_CHECK(a.rows() == m && b.cols() == n && a.cols() <= b.rows())
        << "MatMulSum shape mismatch";
    terms.push_back({a.data(), static_cast<size_t>(a.cols()), 1, a.cols(),
                     b.data()});
    work += uint64_t(m) * uint64_t(a.cols()) * uint64_t(n);
  }
  Tensor c(m, n);
  RunProducts(terms.data(), static_cast<int>(terms.size()),
              /*skip_zero=*/true, work, c);
  return c;
}

Tensor MatMulTransposeA(const Tensor& a, const Tensor& b) {
  CASCN_CHECK(a.rows() == b.rows());
  const int m = a.cols(), k = a.rows(), n = b.cols();
  // Row i of A^T is column i of A.
  const kernels::Term term{a.data(), 1, static_cast<size_t>(m), k, b.data()};
  Tensor c(m, n);
  RunProducts(&term, 1, /*skip_zero=*/true,
              uint64_t(m) * uint64_t(k) * uint64_t(n), c);
  return c;
}

Tensor MatMulTransposeB(const Tensor& a, const Tensor& b) {
  CASCN_CHECK(a.cols() == b.cols());
  const int m = a.rows(), k = a.cols(), n = b.rows();
  // Packed as B^T, so the kernel runs across output columns; each element
  // is still one dot product over p ascending, from zero, with no entry
  // skipped.
  const Tensor bt = b.Transposed();
  const kernels::Term term{a.data(), static_cast<size_t>(k), 1, k, bt.data()};
  Tensor c(m, n);
  RunProducts(&term, 1, /*skip_zero=*/false,
              uint64_t(m) * uint64_t(k) * uint64_t(n), c);
  return c;
}

Tensor Add(const Tensor& a, const Tensor& b) {
  CASCN_CHECK(a.SameShape(b));
  Tensor c = a;
  c.AddInPlace(b);
  return c;
}

Tensor Sub(const Tensor& a, const Tensor& b) {
  CASCN_CHECK(a.SameShape(b));
  Tensor c = a;
  c.Axpy(-1.0, b);
  return c;
}

Tensor Mul(const Tensor& a, const Tensor& b) {
  CASCN_CHECK(a.SameShape(b));
  Tensor c(a.rows(), a.cols());
  for (int i = 0; i < a.rows(); ++i)
    for (int j = 0; j < a.cols(); ++j) c.At(i, j) = a.At(i, j) * b.At(i, j);
  return c;
}

bool AllClose(const Tensor& a, const Tensor& b, double tol) {
  if (!a.SameShape(b)) return false;
  for (int i = 0; i < a.rows(); ++i)
    for (int j = 0; j < a.cols(); ++j)
      if (std::fabs(a.At(i, j) - b.At(i, j)) > tol) return false;
  return true;
}

}  // namespace cascn
