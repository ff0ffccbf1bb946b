#include "nn/graph_rnn_cells.h"

#include "common/logging.h"
#include "obs/trace.h"

namespace cascn::nn {

GraphConvLstmCell::GraphConvLstmCell(int num_nodes, int hidden_dim,
                                     int cheb_order, Rng& rng)
    : num_nodes_(num_nodes), hidden_dim_(hidden_dim) {
  // Filter banks in initialisation order: X-side (n inputs), then h-side.
  for (int g = 0; g < 8; ++g) {
    conv_[g] = std::make_unique<ChebConv>(g < 4 ? num_nodes : hidden_dim,
                                          hidden_dim, cheb_order, rng,
                                          /*with_bias=*/false);
    RegisterSubmodule(std::string(g < 4 ? "conv_x_" : "conv_h_") + "ifoc"[g % 4],
                      conv_[g].get());
  }
  // Peepholes start at zero so early training matches a peephole-free LSTM.
  v_i_ = RegisterParameter("v_i", Tensor(num_nodes, hidden_dim));
  v_f_ = RegisterParameter("v_f", Tensor(num_nodes, hidden_dim));
  v_o_ = RegisterParameter("v_o", Tensor(num_nodes, hidden_dim));
  b_i_ = RegisterParameter("b_i", Tensor(1, hidden_dim));
  b_f_ = RegisterParameter("b_f", Tensor(1, hidden_dim, 1.0));
  b_o_ = RegisterParameter("b_o", Tensor(1, hidden_dim));
  b_c_ = RegisterParameter("b_c", Tensor(1, hidden_dim));
}

RnnState GraphConvLstmCell::InitialState(int rows) const {
  const Tensor zero(rows ? rows : num_nodes_, hidden_dim_);
  return {ag::Variable::Leaf(zero), ag::Variable::Leaf(zero)};
}

GraphConvLstmCell::Filters GraphConvLstmCell::StackedFilters() const {
  Filters out;
  for (int k = 0; k < cheb_order(); ++k) {
    std::vector<ag::Variable> x, h;
    for (int g = 0; g < 4; ++g) {
      x.push_back(conv_[g]->weights()[k]);
      h.push_back(conv_[4 + g]->weights()[k]);
    }
    out.x.push_back(ag::ConcatCols(x));
    out.h.push_back(ag::ConcatCols(h));
  }
  return out;
}

RnnState GraphConvLstmCell::Step(const std::vector<CsrMatrix>& basis,
                                 const ag::Variable& x, const RnnState& prev,
                                 const Filters& filters) const {
  CASCN_TRACE_SPAN("graph_lstm_step");
  CASCN_CHECK(x.rows() == x.cols() && x.rows() <= num_nodes_)
      << "snapshot signal must be square and at most n x n";
  const Filters w = filters.x.empty() ? StackedFilters() : filters;
  // T_k X and T_k h, formed once and weighted by all four gates at once.
  const auto zx = ag::MatMulSum(ChebConv::Propagate(basis, x), w.x);
  const auto zh = ag::MatMulSum(ChebConv::Propagate(basis, prev.h), w.h);
  const ag::LstmOutput out = ag::FusedLstmCell(
      zx, zh, {b_i_, b_f_, b_o_, b_c_}, {v_i_, v_f_, v_o_}, prev.c);
  return {out.h, out.c};
}

RnnState GraphConvLstmCell::PaddedStep(const RnnState& prev,
                                       int first_row) const {
  const ag::LstmOutput out =
      ag::FusedLstmCell({}, {}, {b_i_, b_f_, b_o_, b_c_}, {v_i_, v_f_, v_o_},
                        prev.c, first_row);
  return {out.h, out.c};
}

GraphConvGruCell::GraphConvGruCell(int num_nodes, int hidden_dim,
                                   int cheb_order, Rng& rng)
    : num_nodes_(num_nodes), hidden_dim_(hidden_dim) {
  for (int g = 0; g < 6; ++g) {
    conv_[g] = std::make_unique<ChebConv>(g < 3 ? num_nodes : hidden_dim,
                                          hidden_dim, cheb_order, rng,
                                          /*with_bias=*/false);
    RegisterSubmodule(std::string(g < 3 ? "conv_x_" : "conv_h_") + "rzn"[g % 3],
                      conv_[g].get());
  }
  b_r_ = RegisterParameter("b_r", Tensor(1, hidden_dim));
  b_z_ = RegisterParameter("b_z", Tensor(1, hidden_dim));
  b_n_ = RegisterParameter("b_n", Tensor(1, hidden_dim));
}

RnnState GraphConvGruCell::InitialState(int rows) const {
  return {ag::Variable::Leaf(Tensor(rows ? rows : num_nodes_, hidden_dim_)),
          {}};
}

RnnState GraphConvGruCell::Step(const std::vector<CsrMatrix>& cheb_basis,
                                const ag::Variable& x,
                                const RnnState& prev) const {
  CASCN_TRACE_SPAN("graph_gru_step");
  CASCN_CHECK(x.rows() == x.cols() && x.rows() <= num_nodes_)
      << "snapshot signal must be square and at most n x n";
  const auto xs = ChebConv::Propagate(cheb_basis, x);
  const auto hs = ChebConv::Propagate(cheb_basis, prev.h);
  // Convolutions over the a active rows; the rows past a get the bias alone.
  auto gate = [&](int g, const std::vector<ag::Variable>& terms,
                  const ag::Variable& bias) {
    return ag::AddRowBroadcast(
        ag::Add(conv_[g]->Apply(xs), conv_[3 + g]->Apply(terms)), bias,
        prev.h.rows());
  };
  const ag::Variable r = ag::Sigmoid(gate(0, hs, b_r_));
  const ag::Variable z = ag::Sigmoid(gate(1, hs, b_z_));
  const ag::Variable n = ag::Tanh(gate(
      2, ChebConv::Propagate(cheb_basis, ag::Mul(r, prev.h)), b_n_));
  return {ag::Add(n, ag::Mul(z, ag::Sub(prev.h, n))), {}};
}

RnnState GraphConvGruCell::PaddedStep(const RnnState& prev,
                                      int /*first_row*/) const {
  const ag::Variable none = ag::Variable::Leaf(Tensor(0, hidden_dim_));
  const int rows = prev.h.rows();
  const ag::Variable z = ag::Sigmoid(ag::AddRowBroadcast(none, b_z_, rows));
  const ag::Variable n = ag::Tanh(ag::AddRowBroadcast(none, b_n_, rows));
  return {ag::Add(n, ag::Mul(z, ag::Sub(prev.h, n))), {}};
}

}  // namespace cascn::nn
