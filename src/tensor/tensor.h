// Tensor: a dense row-major matrix of doubles. The value type underlying the
// cascn autodiff engine (variable.h) and all model parameters.
//
// Tensors are 2-D throughout CasCN; vectors are represented as 1xN or Nx1
// matrices. Operations that can fail on caller-supplied shapes return
// Status/Result; shape mismatches inside the engine are programming errors
// and CHECK-fail.

#ifndef CASCN_TENSOR_TENSOR_H_
#define CASCN_TENSOR_TENSOR_H_

#include <cstddef>
#include <string>
#include <vector>

#include "common/rng.h"
#include "obs/profiler.h"

namespace cascn {

/// Dense row-major matrix of doubles.
class Tensor {
 public:
  /// Empty 0x0 tensor.
  Tensor() = default;

  /// Zero-initialised rows x cols tensor. Pre: rows, cols >= 0.
  Tensor(int rows, int cols);

  /// Tensor filled with `value`.
  Tensor(int rows, int cols, double value);

  /// Builds from nested initializer-style data; all rows must have equal
  /// length.
  static Tensor FromRows(const std::vector<std::vector<double>>& rows);

  /// rows x cols with independent samples from N(0, stddev^2).
  static Tensor RandomNormal(int rows, int cols, double stddev, Rng& rng);

  /// rows x cols with independent samples from U[lo, hi).
  static Tensor RandomUniform(int rows, int cols, double lo, double hi,
                              Rng& rng);

  /// Identity matrix of size n.
  static Tensor Identity(int n);

  int rows() const { return rows_; }
  int cols() const { return cols_; }
  int size() const { return rows_ * cols_; }
  bool empty() const { return size() == 0; }
  bool SameShape(const Tensor& other) const {
    return rows_ == other.rows_ && cols_ == other.cols_;
  }

  double& At(int r, int c) { return data_[static_cast<size_t>(r) * cols_ + c]; }
  double At(int r, int c) const {
    return data_[static_cast<size_t>(r) * cols_ + c];
  }
  double& operator()(int r, int c) { return At(r, c); }
  double operator()(int r, int c) const { return At(r, c); }

  double* data() { return data_.data(); }
  const double* data() const { return data_.data(); }

  /// Sets every element to `value`.
  void Fill(double value);
  /// Sets every element to zero.
  void Zero() { Fill(0.0); }

  /// this += other. Pre: same shape.
  void AddInPlace(const Tensor& other);
  /// this += alpha * other. Pre: same shape.
  void Axpy(double alpha, const Tensor& other);
  /// this *= alpha.
  void Scale(double alpha);

  /// Element-wise transform (out-of-place). A template, so the transform
  /// inlines into the loop instead of costing an indirect call per element.
  template <typename F>
  Tensor Map(F&& f) const {
    Tensor out(rows_, cols_);
    for (size_t i = 0; i < data_.size(); ++i) out.data_[i] = f(data_[i]);
    return out;
  }

  Tensor Transposed() const;

  /// Sum over all elements.
  double Sum() const;
  /// Mean over all elements; 0 if empty.
  double MeanValue() const;
  /// Largest absolute element; 0 if empty.
  double AbsMax() const;
  /// Frobenius norm.
  double Norm() const;

  /// 1 x cols vector of column sums.
  Tensor ColSums() const;
  /// rows x 1 vector of row sums.
  Tensor RowSums() const;

  /// Copy of row r as a 1 x cols tensor.
  Tensor Row(int r) const;
  /// Writes `row` (1 x cols) into row r.
  void SetRow(int r, const Tensor& row);

  /// Human-readable rendering for debugging/tests.
  std::string ToString() const;

 private:
  int rows_ = 0;
  int cols_ = 0;
  // Tracked so the profiler can account live/peak tensor bytes.
  obs::TrackedVector<double> data_;
};

/// C = A * B. Pre: A.cols == B.rows.
Tensor MatMul(const Tensor& a, const Tensor& b);

/// sum_t lhs[t] * rhs[t]: each product is summed over p ascending on its
/// own, skipping zero entries of lhs[t], and the products are added left to
/// right, so the value equals the MatMul/Add chain bit for bit. rhs[t] may
/// have more rows than lhs[t] has columns: only its leading lhs[t].cols
/// rows are read, which is the product with lhs[t] zero-padded (a compact
/// left factor whose trailing columns are all zero). Pre: equal non-zero
/// counts, lhs[t].cols <= rhs[t].rows, all products of one shape.
Tensor MatMulSum(const std::vector<const Tensor*>& lhs,
                 const std::vector<const Tensor*>& rhs);

/// C = A^T * B without materialising A^T. Pre: A.rows == B.rows.
Tensor MatMulTransposeA(const Tensor& a, const Tensor& b);

/// C = A * B^T without materialising B^T. Pre: A.cols == B.cols.
Tensor MatMulTransposeB(const Tensor& a, const Tensor& b);

/// Element-wise binary ops. Pre: same shape.
Tensor Add(const Tensor& a, const Tensor& b);
Tensor Sub(const Tensor& a, const Tensor& b);
Tensor Mul(const Tensor& a, const Tensor& b);

/// True when all elements differ by at most `tol`.
bool AllClose(const Tensor& a, const Tensor& b, double tol = 1e-9);

}  // namespace cascn

#endif  // CASCN_TENSOR_TENSOR_H_
