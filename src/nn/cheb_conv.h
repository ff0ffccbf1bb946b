// ChebConv: K-order Chebyshev spectral graph convolution (Defferrard et al.
// 2016, Eq. 3 of the CasCN paper):
//
//   y = sum_{k=0}^{K-1} T_k(L~) X W_k
//
// with T_k the Chebyshev polynomials of the scaled Laplacian L~, precomputed
// once per cascade over its a active nodes (graph/chebyshev.h), and W_k the
// trainable filters. Propagate forms the terms T_k X once for every filter
// bank sharing X; Apply weights them.

#ifndef CASCN_NN_CHEB_CONV_H_
#define CASCN_NN_CHEB_CONV_H_

#include <vector>

#include "common/rng.h"
#include "nn/module.h"
#include "tensor/csr_matrix.h"

namespace cascn::nn {

/// K-order Chebyshev filter bank mapping (a x in) signals to (a x out).
class ChebConv : public Module {
 public:
  /// `k` filters of shape in x out, plus a shared bias when with_bias.
  ChebConv(int in_features, int out_features, int k, Rng& rng,
           bool with_bias = true);

  /// {T_0 x, ..., T_{K-1} x} of the leading a rows of `x`, for the basis
  /// T_0 = I, T_1, ... (each a x a); T_0 x is those rows themselves.
  static std::vector<ag::Variable> Propagate(
      const std::vector<CsrMatrix>& cheb_basis, const ag::Variable& x);
  /// sum_k terms[k] W_k plus the bias over `rows` rows (the rows past a get
  /// the bias alone). A term narrower than `in` (an a x a snapshot) meets
  /// W_k's leading rows only.
  ag::Variable Apply(const std::vector<ag::Variable>& terms,
                     int rows = 0) const;
  ag::Variable Forward(const std::vector<CsrMatrix>& cheb_basis,
                       const ag::Variable& x, int rows = 0) const {
    return Apply(Propagate(cheb_basis, x), rows);
  }

  int order() const { return static_cast<int>(weights_.size()); }
  const std::vector<ag::Variable>& weights() const { return weights_; }

 private:
  std::vector<ag::Variable> weights_;  // K tensors, each in x out
  ag::Variable bias_;                  // 1 x out; undefined when disabled
};

}  // namespace cascn::nn

#endif  // CASCN_NN_CHEB_CONV_H_
