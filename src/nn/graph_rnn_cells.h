// Graph-convolutional recurrent cells: the structural-temporal core of
// CasCN (Section IV-C, Eq. 12-14). A standard LSTM's dense input/hidden
// multiplications are replaced by Chebyshev graph convolutions over the
// cascade Laplacian, and peephole connections V (.) c couple the gates to
// the memory cell:
//
//   i_t = sigmoid(W_i *G X_t + U_i *G h_{t-1} + V_i (.) c_{t-1} + b_i)
//   f_t = sigmoid(W_f *G X_t + U_f *G h_{t-1} + V_f (.) c_{t-1} + b_f)
//   c_t = f_t (.) c_{t-1} + i_t (.) tanh(W_c *G X_t + U_c *G h_{t-1} + b_c)
//   o_t = sigmoid(W_o *G X_t + U_o *G h_{t-1} + V_o (.) c_t + b_o)
//   h_t = o_t (.) tanh(c_t)
//
// The peepholes V are n x d_h as in the paper, n the padded cascade size.
// X_t and the Chebyshev basis span the a <= n active nodes (a x a), so only
// bias and peephole drive a row >= a: its h_t depends on the parameters
// alone. Step runs a state of a <= rows <= n rows, rows past a seeing no
// convolution; PaddedStep runs rows that see no input. The LSTM stacks its
// gates' filters column-wise and fuses the element-wise cell
// (ag::FusedLstmCell): one MatMulSum per side and one op per step.
//
// GraphConvGruCell is the CasCN-GRU variant: same graph convolutions with
// GRU gating and no separate memory cell.

#ifndef CASCN_NN_GRAPH_RNN_CELLS_H_
#define CASCN_NN_GRAPH_RNN_CELLS_H_

#include <memory>
#include <vector>

#include "common/rng.h"
#include "nn/cheb_conv.h"
#include "nn/module.h"
#include "nn/rnn_cells.h"

namespace cascn::nn {

/// LSTM cell whose gates are Chebyshev graph convolutions (CasCN Eq. 12-14).
class GraphConvLstmCell : public Module {
 public:
  /// `num_nodes` is the padded cascade size n (also the input feature width,
  /// because the snapshot signal X_t is the n x n adjacency matrix).
  GraphConvLstmCell(int num_nodes, int hidden_dim, int cheb_order, Rng& rng);

  /// Zero state of `rows` nodes (default n).
  RnnState InitialState(int rows = 0) const;

  /// Per Chebyshev order, the gates' filters stacked [i | f | o | c]: X side
  /// (n x 4d) and h side (d x 4d). Stack once per forward.
  struct Filters { std::vector<ag::Variable> x, h; };
  Filters StackedFilters() const;

  /// One step over snapshot signal `x` (a x a) with the cascade's a x a
  /// Chebyshev basis; `filters` are stacked here when not given.
  RnnState Step(const std::vector<CsrMatrix>& cheb_basis,
                const ag::Variable& x, const RnnState& prev,
                const Filters& filters = {}) const;
  /// A step of rows first_row, ... that see no input (reads v and b only).
  RnnState PaddedStep(const RnnState& prev, int first_row) const;

  int num_nodes() const { return num_nodes_; }
  int hidden_dim() const { return hidden_dim_; }
  int cheb_order() const { return conv_[0]->order(); }

 private:
  int num_nodes_;
  int hidden_dim_;
  // Filter banks of gates i, f, o, c for input X, then the same for h.
  std::unique_ptr<ChebConv> conv_[8];
  // Peephole weights (n x hidden) and biases (1 x hidden).
  ag::Variable v_i_, v_f_, v_o_;
  ag::Variable b_i_, b_f_, b_o_, b_c_;
};

/// GRU counterpart used by the CasCN-GRU variant (Table IV).
class GraphConvGruCell : public Module {
 public:
  GraphConvGruCell(int num_nodes, int hidden_dim, int cheb_order, Rng& rng);

  RnnState InitialState(int rows = 0) const;
  RnnState Step(const std::vector<CsrMatrix>& cheb_basis,
                const ag::Variable& x, const RnnState& prev) const;
  /// Rows that see no input: h <- tanh(b_n) + sigmoid(b_z) (h - tanh(b_n)).
  RnnState PaddedStep(const RnnState& prev, int first_row) const;

 private:
  int num_nodes_;
  int hidden_dim_;
  std::unique_ptr<ChebConv> conv_[6];  // gates r, z, n for X, then for h
  ag::Variable b_r_, b_z_, b_n_;
};

}  // namespace cascn::nn

#endif  // CASCN_NN_GRAPH_RNN_CELLS_H_
