// Reverse-mode automatic differentiation over Tensor values.
//
// A Variable wraps a node in a dynamically-built computation graph. Each
// forward op records a backward closure; Backward() on a scalar loss
// topologically sorts the graph and accumulates gradients into every node
// with requires_grad set (model parameters are such leaf nodes and persist
// across per-sample graphs, so their .grad() accumulates over a minibatch
// until the optimizer consumes and zeroes it).
//
// Graphs hold parent references only, so per-sample graph nodes are freed
// when the loss Variable goes out of scope while parameter leaves survive.
//
// Inference needs no graph: under a NoGradGuard every op computes its value
// only, recording neither parents nor a backward closure.
//
// The op set is exactly what the CasCN models and baselines need: dense and
// sparse matmul, broadcast bias, gate nonlinearities, pooling, concat/slice,
// row gather (embeddings), row softmax (attention), scalar scaling (learned
// time decay) and the fused graph-LSTM cell.

#ifndef CASCN_TENSOR_VARIABLE_H_
#define CASCN_TENSOR_VARIABLE_H_

#include <functional>
#include <memory>
#include <unordered_map>
#include <utility>
#include <vector>

#include "obs/profiler.h"
#include "tensor/csr_matrix.h"
#include "tensor/tensor.h"

namespace cascn::ag {

namespace internal {

/// One node of the computation graph.
struct Node {
  Tensor value;
  Tensor grad;  // allocated lazily on first accumulation
  bool requires_grad = false;
  bool needs_grad = false;  // requires_grad or any ancestor requires it
  bool no_grad = false;     // built under a NoGradGuard: a value, no graph
  // The op that produced this node; Backward() attributes the backward
  // closure's wall-clock to it when the profiler is active.
  obs::OpKind op = obs::OpKind::kLeaf;
  // Estimated backward FLOPs, set at construction while profiling.
  uint64_t profile_backward_flops = 0;
  std::vector<std::shared_ptr<Node>> parents;
  // Propagates grad (already accumulated in `grad`) to parents.
  std::function<void(Node&)> backward;

  /// grad += g. The first accumulation copies g, or takes it over when it
  /// is a temporary, instead of adding it to zeros. Pre: g has value's shape.
  void AccumGrad(const Tensor& g);
  void AccumGrad(Tensor&& g);
};

}  // namespace internal

/// Value-semantic handle to a computation-graph node.
class Variable {
 public:
  /// Null handle; most ops CHECK against defined().
  Variable() = default;

  /// Leaf node. requires_grad marks it as a trainable parameter.
  static Variable Leaf(Tensor value, bool requires_grad = false);

  bool defined() const { return node_ != nullptr; }
  const Tensor& value() const;
  Tensor& mutable_value();

  /// Gradient accumulated by the last Backward() pass(es). Zero-sized until
  /// a gradient has been accumulated.
  const Tensor& grad() const;

  /// Mutable access to the gradient buffer (optimizer internals).
  Tensor& mutable_grad();

  bool requires_grad() const;

  /// Zeroes this node's gradient buffer.
  void ZeroGrad();

  int rows() const { return value().rows(); }
  int cols() const { return value().cols(); }

  /// Runs backpropagation from this node. Pre: 1x1 scalar.
  void Backward() const;

  /// Internal: used by op constructors.
  const std::shared_ptr<internal::Node>& node() const { return node_; }
  static Variable FromNode(std::shared_ptr<internal::Node> node);

 private:
  std::shared_ptr<internal::Node> node_;
};

// ---- Concurrent-backward gradient capture ---------------------------------

/// Collects the parameter-leaf gradient accumulations of one or more
/// Backward() passes instead of letting them land in the shared
/// Node::grad buffers. While a ScopedGradCapture is active on a thread,
/// every AccumGrad on a requires_grad leaf is diverted into the thread's
/// sink; intermediate (per-graph, unshared) nodes are unaffected. This is
/// what makes per-sample Backward() calls safe to run concurrently: each
/// worker writes only its own sink, and the trainer later combines sinks in
/// a fixed order (tree reduction over sample indices) so the floating-point
/// accumulation order — and therefore every resulting bit — is independent
/// of the thread count.
///
/// Entry order within a sink is the (deterministic) order leaves are first
/// reached by the sample's serial backward pass.
class GradSink {
 public:
  /// sink[node] += g; the first accumulation copies g, or takes it over
  /// when it is a temporary.
  void Accumulate(internal::Node* node, const Tensor& g);
  void Accumulate(internal::Node* node, Tensor&& g);

  /// this[node] += other[node] for every entry of `other`, appending
  /// entries for leaves this sink has not seen. `other` is not modified.
  void Merge(const GradSink& other);

  /// Applies every captured gradient to its node's shared grad buffer
  /// (exactly as AccumGrad would have without capture) and clears the sink.
  /// Call outside any capture scope, from one thread.
  void Flush();

  void Clear();
  bool empty() const { return entries_.empty(); }

 private:
  /// Accumulate, with g copied or moved as G deduces.
  template <typename G>
  void Insert(internal::Node* node, G&& g);

  std::vector<std::pair<internal::Node*, Tensor>> entries_;
  std::unordered_map<internal::Node*, size_t> index_;
};

/// RAII: installs `sink` as the calling thread's gradient capture target,
/// restoring the previous target (usually none) on destruction.
class ScopedGradCapture {
 public:
  explicit ScopedGradCapture(GradSink* sink);
  ~ScopedGradCapture();

  ScopedGradCapture(const ScopedGradCapture&) = delete;
  ScopedGradCapture& operator=(const ScopedGradCapture&) = delete;

 private:
  GradSink* previous_;
};

// ---- Grad mode -------------------------------------------------------------

/// False while a NoGradGuard is alive on the calling thread.
bool GradEnabled();

/// RAII: switches graph recording off for the calling thread. Ops run under
/// it return value-only nodes (no parents, no backward closure, so no
/// operator copies), and Backward() on such a node CHECK-fails. Other
/// threads, and their ScopedGradCapture backward passes, are unaffected.
class NoGradGuard {
 public:
  NoGradGuard();
  ~NoGradGuard();

  NoGradGuard(const NoGradGuard&) = delete;
  NoGradGuard& operator=(const NoGradGuard&) = delete;

 private:
  bool previous_;
};

// ---- Element-wise and broadcast arithmetic --------------------------------

/// a + b. Pre: same shape.
Variable Add(const Variable& a, const Variable& b);
/// a - b. Pre: same shape.
Variable Sub(const Variable& a, const Variable& b);
/// Element-wise a * b. Pre: same shape.
Variable Mul(const Variable& a, const Variable& b);
/// a (m x d) + row vector b (1 x d) broadcast over rows. With rows > m, a
/// is first zero-padded to `rows` rows, so the rows past m are b alone.
Variable AddRowBroadcast(const Variable& a, const Variable& b, int rows = 0);
/// alpha * a for a compile-time-known scalar.
Variable ScalarMul(const Variable& a, double alpha);
/// a + alpha element-wise.
Variable AddScalar(const Variable& a, double alpha);
/// a scaled by a learned 1x1 Variable s: s * a.
Variable ScaleByScalar(const Variable& a, const Variable& s);

// ---- Matrix products -------------------------------------------------------

/// Dense a @ b. Pre: a.cols == b.rows.
Variable MatMul(const Variable& a, const Variable& b);
/// sum_i lhs[i] @ rhs[i], each product formed on its own and the products
/// added left to right, so the value equals the MatMul/Add chain bit for
/// bit. A left factor narrower than its right factor is tall multiplies only
/// the right factor's leading rows: the product of a compact signal whose
/// trailing columns are all zero. Pre: equal non-zero counts,
/// lhs[i].cols <= rhs[i].rows, all products of one shape.
Variable MatMulSum(const std::vector<Variable>& lhs,
                   const std::vector<Variable>& rhs);
/// Constant sparse operator @ dense variable. Pre: op.cols == x.rows.
Variable SparseMatMul(const CsrMatrix& op, const Variable& x);

// ---- Nonlinearities --------------------------------------------------------

Variable Sigmoid(const Variable& a);
Variable Tanh(const Variable& a);
Variable Relu(const Variable& a);
/// Element-wise square.
Variable Square(const Variable& a);
/// Numerically-stable softplus: log(1 + exp(a)). Used to keep learned time-
/// decay weights positive.
Variable Softplus(const Variable& a);
/// Row-wise softmax (attention weights).
Variable SoftmaxRows(const Variable& a);

// ---- Reductions and reshaping ---------------------------------------------

/// Sum of all elements -> 1x1.
Variable Sum(const Variable& a);
/// Mean of all elements -> 1x1.
Variable Mean(const Variable& a);
/// Column-wise mean over rows: n x d -> 1 x d.
Variable MeanRows(const Variable& a);
/// Column-wise sum over rows: n x d -> 1 x d.
Variable SumRows(const Variable& a);
/// Horizontal concat of equally-tall blocks: n x d1, n x d2, ... ->
/// n x (d1 + d2 + ...).
Variable ConcatCols(const std::vector<Variable>& parts);
/// Vertical concat of equally-wide blocks.
Variable ConcatRows(const std::vector<Variable>& parts);
/// Rows [start, start+len) of a.
Variable SliceRows(const Variable& a, int start, int len);
/// Gathers rows of `table` by index (embedding lookup); indices may repeat.
Variable GatherRows(const Variable& table, const std::vector<int>& indices);
/// Transpose.
Variable Transpose(const Variable& a);

// ---- Fused recurrent cell ----------------------------------------------------

/// h_t and c_t of one graph-LSTM step.
struct LstmOutput {
  Variable h, c;
};

/// The element-wise part of a graph-LSTM step (CasCN Eq. 12-14) as one op.
/// For state row r (peephole row p = first_row + r) and column j:
///   i = sigmoid(((zx_i + zh_i) + b_i) + v_i[p] * c_prev)
///   f = sigmoid(((zx_f + zh_f) + b_f) + v_f[p] * c_prev)
///   g = tanh((zx_g + zh_g) + b_g),    c = f * c_prev + i * g
///   o = sigmoid(((zx_o + zh_o) + b_o) + v_o[p] * c),    h = o * tanh(c)
/// `zx` and `zh` hold the input and hidden convolutions with the gates
/// stacked column-wise [i | f | o | g] (a x 4d, a <= c_prev.rows); rows at
/// or past a, and every row when both are undefined, see zero there.
/// `biases` are b_i, b_f, b_o, b_g (1 x d each) and `peepholes` v_i, v_f,
/// v_o (at least first_row + c_prev.rows rows). Each scalar is formed in the
/// order the unfused Add/Mul/Sigmoid/Tanh chain forms it, so the values are
/// that chain's bit for bit; the backward is written by hand.
LstmOutput FusedLstmCell(const Variable& zx, const Variable& zh,
                         const std::vector<Variable>& biases,
                         const std::vector<Variable>& peepholes,
                         const Variable& c_prev, int first_row = 0);

}  // namespace cascn::ag

#endif  // CASCN_TENSOR_VARIABLE_H_
