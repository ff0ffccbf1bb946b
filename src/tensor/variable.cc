#include "tensor/variable.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <unordered_set>

#include "common/logging.h"
#include "tensor/kernels.h"

namespace cascn::ag {

namespace {

// Capture target for the calling thread; see ScopedGradCapture.
thread_local GradSink* t_active_sink = nullptr;
// Graph recording for the calling thread; see NoGradGuard.
thread_local bool t_grad_enabled = true;

}  // namespace

namespace internal {

namespace {

/// grad += g, taking g over (a copy or a move, as G deduces) when grad is
/// still empty.
template <typename G>
void AddOrTake(Tensor& grad, const Tensor& value, G&& g) {
  CASCN_CHECK(g.SameShape(value)) << "gradient shape differs from its value";
  if (grad.empty()) {
    grad = std::forward<G>(g);
  } else {
    grad.AddInPlace(g);
  }
}

/// node.grad += g, or into the thread's sink when node is a parameter leaf
/// under capture; g is copied or moved as G deduces.
template <typename G>
void AccumGradInto(Node& node, G&& g) {
  if (node.requires_grad && t_active_sink != nullptr) {
    t_active_sink->Accumulate(&node, std::forward<G>(g));
  } else {
    AddOrTake(node.grad, node.value, std::forward<G>(g));
  }
}

}  // namespace

// Only requires_grad leaves (model parameters) are shared across
// concurrently-built per-sample graphs; AccumGrad diverts those into the
// thread's sink when capture is active. Intermediate nodes are private to
// their graph and accumulate in place as always.
void Node::AccumGrad(const Tensor& g) { AccumGradInto(*this, g); }

void Node::AccumGrad(Tensor&& g) { AccumGradInto(*this, std::move(g)); }

}  // namespace internal

template <typename G>
void GradSink::Insert(internal::Node* node, G&& g) {
  auto [it, inserted] = index_.try_emplace(node, entries_.size());
  if (inserted) {
    entries_.emplace_back(node, std::forward<G>(g));
  } else {
    entries_[it->second].second.AddInPlace(g);
  }
}

void GradSink::Accumulate(internal::Node* node, const Tensor& g) {
  Insert(node, g);
}

void GradSink::Accumulate(internal::Node* node, Tensor&& g) {
  Insert(node, std::move(g));
}

void GradSink::Merge(const GradSink& other) {
  for (const auto& [node, g] : other.entries_) Accumulate(node, g);
}

void GradSink::Flush() {
  for (auto& [node, g] : entries_)
    internal::AddOrTake(node->grad, node->value, std::move(g));
  Clear();
}

void GradSink::Clear() {
  entries_.clear();
  index_.clear();
}

ScopedGradCapture::ScopedGradCapture(GradSink* sink)
    : previous_(t_active_sink) {
  t_active_sink = sink;
}

ScopedGradCapture::~ScopedGradCapture() { t_active_sink = previous_; }

bool GradEnabled() { return t_grad_enabled; }

NoGradGuard::NoGradGuard() : previous_(t_grad_enabled) {
  t_grad_enabled = false;
}

NoGradGuard::~NoGradGuard() { t_grad_enabled = previous_; }

using internal::Node;

namespace {

using NodeList = std::initializer_list<std::shared_ptr<Node>>;

/// Creates an op node over `parents` whose needs_grad is derived from them.
/// Under a NoGradGuard the node holds its value only: the parent list and
/// the backward closure are never built.
template <typename Backward, typename Parents = NodeList>
std::shared_ptr<Node> MakeOpNode(Tensor value, const Parents& parents,
                                 Backward&& backward) {
  auto node = std::make_shared<Node>();
  node->value = std::move(value);
  if (!t_grad_enabled) {
    node->no_grad = true;
    return node;
  }
  node->parents.assign(parents.begin(), parents.end());
  for (const auto& p : node->parents) {
    if (p->needs_grad) {
      node->needs_grad = true;
      break;
    }
  }
  if (node->needs_grad) node->backward = std::forward<Backward>(backward);
  return node;
}

const std::shared_ptr<Node>& CheckedNode(const Variable& v) {
  CASCN_CHECK(v.defined()) << "operation on a null Variable";
  return v.node();
}

uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Scopes one op construction for the profiler: started before the forward
/// compute, finished via Done() with work estimates. Tags the node with its
/// op kind unconditionally (an int store) so Backward() can attribute the
/// closure even when profiling is switched on later; timing and FLOP
/// accumulation only happen while the profiler is active.
struct OpProfile {
  explicit OpProfile(obs::OpKind kind)
      : kind(kind), active(obs::Profiler::Get().enabled()) {
    if (active) start_ns = NowNs();
  }

  Variable Done(std::shared_ptr<Node> node, uint64_t forward_flops,
                uint64_t backward_flops) const {
    node->op = kind;
    if (active) {
      node->profile_backward_flops = backward_flops;
      obs::Profiler::Get().RecordForward(
          kind, NowNs() - start_ns, forward_flops,
          static_cast<uint64_t>(node->value.size()) * sizeof(double));
    }
    return Variable::FromNode(std::move(node));
  }

  obs::OpKind kind;
  bool active;
  uint64_t start_ns = 0;
};

uint64_t Elems(const std::shared_ptr<Node>& n) {
  return static_cast<uint64_t>(n->value.size());
}

/// `t` cut or zero-padded to `rows` rows (row-major: a prefix copy).
Tensor Resized(const Tensor& t, int rows) {
  Tensor out(rows, t.cols());
  std::copy(t.data(), t.data() + std::min(t.size(), out.size()), out.data());
  return out;
}

/// f applied element-wise by a kernel of the table.
Tensor MapKernel(void (*f)(const double*, double*, size_t), const Tensor& x) {
  Tensor out(x.rows(), x.cols());
  f(x.data(), out.data(), static_cast<size_t>(x.size()));
  return out;
}

}  // namespace

Variable Variable::Leaf(Tensor value, bool requires_grad) {
  auto node = std::make_shared<Node>();
  node->value = std::move(value);
  node->requires_grad = requires_grad;
  node->needs_grad = requires_grad;
  return FromNode(std::move(node));
}

Variable Variable::FromNode(std::shared_ptr<internal::Node> node) {
  Variable v;
  v.node_ = std::move(node);
  return v;
}

const Tensor& Variable::value() const {
  CASCN_CHECK(defined());
  return node_->value;
}

Tensor& Variable::mutable_value() {
  CASCN_CHECK(defined());
  return node_->value;
}

const Tensor& Variable::grad() const {
  CASCN_CHECK(defined());
  return node_->grad;
}

Tensor& Variable::mutable_grad() {
  CASCN_CHECK(defined());
  return node_->grad;
}

bool Variable::requires_grad() const {
  CASCN_CHECK(defined());
  return node_->requires_grad;
}

void Variable::ZeroGrad() {
  CASCN_CHECK(defined());
  if (!node_->grad.empty()) node_->grad.Zero();
}

void Variable::Backward() const {
  CASCN_CHECK(defined());
  CASCN_CHECK(!node_->no_grad)
      << "Backward() on a value computed under ag::NoGradGuard, which "
         "records no graph";
  CASCN_CHECK(node_->value.rows() == 1 && node_->value.cols() == 1)
      << "Backward() requires a scalar (1x1) loss";
  // Iterative post-order DFS to produce a topological order (parents before
  // children in `order` after the walk; we then traverse in reverse).
  std::vector<Node*> order;
  std::unordered_set<Node*> visited;
  std::vector<std::pair<Node*, size_t>> stack;
  stack.emplace_back(node_.get(), 0);
  visited.insert(node_.get());
  while (!stack.empty()) {
    auto& [node, next_parent] = stack.back();
    if (next_parent < node->parents.size()) {
      Node* parent = node->parents[next_parent].get();
      ++next_parent;
      if (parent->needs_grad && visited.insert(parent).second) {
        stack.emplace_back(parent, 0);
      }
    } else {
      order.push_back(node);
      stack.pop_back();
    }
  }
  Tensor seed(1, 1);
  seed.At(0, 0) = 1.0;
  node_->AccumGrad(std::move(seed));
  const bool profiling = obs::Profiler::Get().enabled();
  for (auto it = order.rbegin(); it != order.rend(); ++it) {
    Node* node = *it;
    if (!node->backward || node->grad.empty()) continue;
    if (profiling) {
      const uint64_t start_ns = NowNs();
      node->backward(*node);
      obs::Profiler::Get().RecordBackward(node->op, NowNs() - start_ns,
                                          node->profile_backward_flops);
    } else {
      node->backward(*node);
    }
  }
}

// ---- Element-wise and broadcast arithmetic --------------------------------

Variable Add(const Variable& a, const Variable& b) {
  const auto& an = CheckedNode(a);
  const auto& bn = CheckedNode(b);
  CASCN_CHECK(an->value.SameShape(bn->value)) << "Add shape mismatch";
  OpProfile prof(obs::OpKind::kAdd);
  const uint64_t n = Elems(an);
  return prof.Done(
      MakeOpNode(cascn::Add(an->value, bn->value), {an, bn},
                 [](Node& self) {
                   if (self.parents[0]->needs_grad)
                     self.parents[0]->AccumGrad(self.grad);
                   if (self.parents[1]->needs_grad)
                     self.parents[1]->AccumGrad(self.grad);
                 }),
      n, 2 * n);
}

Variable Sub(const Variable& a, const Variable& b) {
  const auto& an = CheckedNode(a);
  const auto& bn = CheckedNode(b);
  CASCN_CHECK(an->value.SameShape(bn->value)) << "Sub shape mismatch";
  OpProfile prof(obs::OpKind::kSub);
  const uint64_t n = Elems(an);
  return prof.Done(
      MakeOpNode(cascn::Sub(an->value, bn->value), {an, bn},
                 [](Node& self) {
                   if (self.parents[0]->needs_grad)
                     self.parents[0]->AccumGrad(self.grad);
                   if (self.parents[1]->needs_grad) {
                     Tensor neg = self.grad;
                     neg.Scale(-1.0);
                     self.parents[1]->AccumGrad(std::move(neg));
                   }
                 }),
      n, 2 * n);
}

Variable Mul(const Variable& a, const Variable& b) {
  const auto& an = CheckedNode(a);
  const auto& bn = CheckedNode(b);
  CASCN_CHECK(an->value.SameShape(bn->value)) << "Mul shape mismatch";
  OpProfile prof(obs::OpKind::kMul);
  const uint64_t n = Elems(an);
  return prof.Done(
      MakeOpNode(cascn::Mul(an->value, bn->value), {an, bn},
                 [](Node& self) {
                   if (self.parents[0]->needs_grad)
                     self.parents[0]->AccumGrad(
                         cascn::Mul(self.grad, self.parents[1]->value));
                   if (self.parents[1]->needs_grad)
                     self.parents[1]->AccumGrad(
                         cascn::Mul(self.grad, self.parents[0]->value));
                 }),
      n, 2 * n);
}

Variable AddRowBroadcast(const Variable& a, const Variable& b, int rows) {
  const auto& an = CheckedNode(a);
  const auto& bn = CheckedNode(b);
  CASCN_CHECK(bn->value.rows() == 1 && bn->value.cols() == an->value.cols())
      << "AddRowBroadcast expects b to be 1 x a.cols";
  OpProfile prof(obs::OpKind::kAddRowBroadcast);
  const int m = an->value.rows();
  // Rows past m start as zeros, so each of them becomes 0 + b.
  Tensor out = rows > m ? Resized(an->value, rows) : an->value;
  for (int i = 0; i < out.rows(); ++i)
    for (int j = 0; j < out.cols(); ++j) out.At(i, j) += bn->value.At(0, j);
  const uint64_t n = static_cast<uint64_t>(out.size());
  return prof.Done(
      MakeOpNode(std::move(out), {an, bn},
                 [m](Node& self) {
                   if (self.parents[0]->needs_grad && m == self.grad.rows())
                     self.parents[0]->AccumGrad(self.grad);
                   else if (self.parents[0]->needs_grad)
                     self.parents[0]->AccumGrad(Resized(self.grad, m));
                   if (self.parents[1]->needs_grad)
                     self.parents[1]->AccumGrad(self.grad.ColSums());
                 }),
      n, 2 * n);
}

Variable ScalarMul(const Variable& a, double alpha) {
  const auto& an = CheckedNode(a);
  OpProfile prof(obs::OpKind::kScalarMul);
  const uint64_t n = Elems(an);
  Tensor out = an->value;
  out.Scale(alpha);
  return prof.Done(MakeOpNode(std::move(out), {an},
                              [alpha](Node& self) {
                                Tensor g = self.grad;
                                g.Scale(alpha);
                                self.parents[0]->AccumGrad(std::move(g));
                              }),
                   n, n);
}

Variable AddScalar(const Variable& a, double alpha) {
  const auto& an = CheckedNode(a);
  OpProfile prof(obs::OpKind::kAddScalar);
  const uint64_t n = Elems(an);
  Tensor out = an->value;
  for (int i = 0; i < out.rows(); ++i)
    for (int j = 0; j < out.cols(); ++j) out.At(i, j) += alpha;
  return prof.Done(MakeOpNode(std::move(out), {an},
                              [](Node& self) {
                                self.parents[0]->AccumGrad(self.grad);
                              }),
                   n, n);
}

Variable ScaleByScalar(const Variable& a, const Variable& s) {
  const auto& an = CheckedNode(a);
  const auto& sn = CheckedNode(s);
  CASCN_CHECK(sn->value.rows() == 1 && sn->value.cols() == 1)
      << "ScaleByScalar expects a 1x1 scale";
  OpProfile prof(obs::OpKind::kScaleByScalar);
  const uint64_t n = Elems(an);
  Tensor out = an->value;
  out.Scale(sn->value.At(0, 0));
  return prof.Done(
      MakeOpNode(std::move(out), {an, sn},
                 [](Node& self) {
                   const double sv = self.parents[1]->value.At(0, 0);
                   if (self.parents[0]->needs_grad) {
                     Tensor g = self.grad;
                     g.Scale(sv);
                     self.parents[0]->AccumGrad(std::move(g));
                   }
                   if (self.parents[1]->needs_grad) {
                     Tensor gs(1, 1);
                     gs.At(0, 0) =
                         cascn::Mul(self.grad, self.parents[0]->value).Sum();
                     self.parents[1]->AccumGrad(std::move(gs));
                   }
                 }),
      n, 2 * n);
}

// ---- Matrix products -------------------------------------------------------

Variable MatMul(const Variable& a, const Variable& b) {
  const auto& an = CheckedNode(a);
  const auto& bn = CheckedNode(b);
  CASCN_CHECK(an->value.cols() == bn->value.rows()) << "MatMul shape mismatch";
  OpProfile prof(obs::OpKind::kMatMul);
  const uint64_t m = static_cast<uint64_t>(an->value.rows());
  const uint64_t k = static_cast<uint64_t>(an->value.cols());
  const uint64_t n = static_cast<uint64_t>(bn->value.cols());
  return prof.Done(
      MakeOpNode(cascn::MatMul(an->value, bn->value), {an, bn},
                 [](Node& self) {
                   // dL/dA = G B^T ; dL/dB = A^T G
                   if (self.parents[0]->needs_grad)
                     self.parents[0]->AccumGrad(
                         MatMulTransposeB(self.grad, self.parents[1]->value));
                   if (self.parents[1]->needs_grad)
                     self.parents[1]->AccumGrad(
                         MatMulTransposeA(self.parents[0]->value, self.grad));
                 }),
      2 * m * k * n, 4 * m * k * n);
}

Variable MatMulSum(const std::vector<Variable>& lhs,
                   const std::vector<Variable>& rhs) {
  OpProfile prof(obs::OpKind::kMatMulSum);
  const size_t terms = lhs.size();
  std::vector<std::shared_ptr<Node>> nodes;
  nodes.reserve(2 * terms);
  for (const auto& v : lhs) nodes.push_back(CheckedNode(v));
  for (const auto& v : rhs) nodes.push_back(CheckedNode(v));
  std::vector<const Tensor*> a, b;
  uint64_t flops = 0;
  for (size_t i = 0; i < terms; ++i) {
    a.push_back(&nodes[i]->value);
    b.push_back(&nodes[terms + i]->value);
    flops += 2 * uint64_t(a[i]->rows()) * uint64_t(a[i]->cols()) *
             uint64_t(b[i]->cols());
  }
  return prof.Done(
      MakeOpNode(cascn::MatMulSum(a, b), nodes,
                 [terms](Node& self) {
                   for (size_t i = 0; i < terms; ++i) {
                     Node& a = *self.parents[i];
                     Node& b = *self.parents[terms + i];
                     const int k = a.value.cols();
                     const bool narrow = k < b.value.rows();
                     // dL/dA = G B^T over B's leading k rows.
                     if (a.needs_grad && !narrow)
                       a.AccumGrad(MatMulTransposeB(self.grad, b.value));
                     else if (a.needs_grad)
                       a.AccumGrad(MatMulTransposeB(self.grad,
                                                    Resized(b.value, k)));
                     // dL/dB = A^T G in B's leading k rows, zero below.
                     if (b.needs_grad && !narrow)
                       b.AccumGrad(MatMulTransposeA(a.value, self.grad));
                     else if (b.needs_grad)
                       b.AccumGrad(Resized(
                           MatMulTransposeA(a.value, self.grad),
                           b.value.rows()));
                   }
                 }),
      flops, 2 * flops);
}

Variable SparseMatMul(const CsrMatrix& op, const Variable& x) {
  const auto& xn = CheckedNode(x);
  CASCN_CHECK(op.cols() == xn->value.rows()) << "SparseMatMul shape mismatch";
  OpProfile prof(obs::OpKind::kSparseMatMul);
  const uint64_t work = 2 * static_cast<uint64_t>(op.nnz()) *
                        static_cast<uint64_t>(xn->value.cols());
  Tensor out = op.MatMulDense(xn->value);
  if (!t_grad_enabled || !xn->needs_grad)
    return prof.Done(MakeOpNode(std::move(out), {xn}, nullptr), work, work);
  // The backward closure owns a copy of the operator; cascade operators are
  // small, and the copy is made only when a gradient will flow through it.
  return prof.Done(
      MakeOpNode(std::move(out), {xn},
                 [op](Node& self) {
                   // dL/dX = Op^T G
                   self.parents[0]->AccumGrad(
                       op.TransposeMatMulDense(self.grad));
                 }),
      work, work);
}

// ---- Nonlinearities --------------------------------------------------------

Variable Sigmoid(const Variable& a) {
  const auto& an = CheckedNode(a);
  OpProfile prof(obs::OpKind::kSigmoid);
  const uint64_t n = Elems(an);
  Tensor out = MapKernel(kernels::Kernels().sigmoid, an->value);
  return prof.Done(
      MakeOpNode(std::move(out), {an},
                 [](Node& self) {
                   Tensor g(self.value.rows(), self.value.cols());
                   for (int i = 0; i < g.rows(); ++i)
                     for (int j = 0; j < g.cols(); ++j) {
                       const double y = self.value.At(i, j);
                       g.At(i, j) = self.grad.At(i, j) * y * (1.0 - y);
                     }
                   self.parents[0]->AccumGrad(std::move(g));
                 }),
      4 * n, 3 * n);
}

Variable Tanh(const Variable& a) {
  const auto& an = CheckedNode(a);
  OpProfile prof(obs::OpKind::kTanh);
  const uint64_t n = Elems(an);
  Tensor out = MapKernel(kernels::Kernels().tanh, an->value);
  return prof.Done(
      MakeOpNode(std::move(out), {an},
                 [](Node& self) {
                   Tensor g(self.value.rows(), self.value.cols());
                   for (int i = 0; i < g.rows(); ++i)
                     for (int j = 0; j < g.cols(); ++j) {
                       const double y = self.value.At(i, j);
                       g.At(i, j) = self.grad.At(i, j) * (1.0 - y * y);
                     }
                   self.parents[0]->AccumGrad(std::move(g));
                 }),
      4 * n, 3 * n);
}

Variable Relu(const Variable& a) {
  const auto& an = CheckedNode(a);
  OpProfile prof(obs::OpKind::kRelu);
  const uint64_t n = Elems(an);
  Tensor out = an->value.Map([](double x) { return x > 0 ? x : 0.0; });
  return prof.Done(
      MakeOpNode(std::move(out), {an},
                 [](Node& self) {
                   Tensor g(self.value.rows(), self.value.cols());
                   for (int i = 0; i < g.rows(); ++i)
                     for (int j = 0; j < g.cols(); ++j)
                       g.At(i, j) =
                           self.value.At(i, j) > 0 ? self.grad.At(i, j) : 0.0;
                   self.parents[0]->AccumGrad(std::move(g));
                 }),
      n, n);
}

Variable Square(const Variable& a) {
  const auto& an = CheckedNode(a);
  OpProfile prof(obs::OpKind::kSquare);
  const uint64_t n = Elems(an);
  Tensor out = an->value.Map([](double x) { return x * x; });
  return prof.Done(
      MakeOpNode(std::move(out), {an},
                 [](Node& self) {
                   Tensor g(self.value.rows(), self.value.cols());
                   const Tensor& x = self.parents[0]->value;
                   for (int i = 0; i < g.rows(); ++i)
                     for (int j = 0; j < g.cols(); ++j)
                       g.At(i, j) = self.grad.At(i, j) * 2.0 * x.At(i, j);
                   self.parents[0]->AccumGrad(std::move(g));
                 }),
      n, 2 * n);
}

Variable Softplus(const Variable& a) {
  const auto& an = CheckedNode(a);
  OpProfile prof(obs::OpKind::kSoftplus);
  const uint64_t n = Elems(an);
  Tensor out = an->value.Map([](double x) {
    // log(1 + e^x) without overflow: x + log1p(e^-x) for large x.
    return x > 20 ? x : std::log1p(std::exp(x));
  });
  return prof.Done(
      MakeOpNode(std::move(out), {an},
                 [](Node& self) {
                   Tensor g(self.value.rows(), self.value.cols());
                   const Tensor& x = self.parents[0]->value;
                   for (int i = 0; i < g.rows(); ++i)
                     for (int j = 0; j < g.cols(); ++j) {
                       const double xv = x.At(i, j);
                       const double sig =
                           xv >= 0 ? 1.0 / (1.0 + std::exp(-xv))
                                   : std::exp(xv) / (1.0 + std::exp(xv));
                       g.At(i, j) = self.grad.At(i, j) * sig;
                     }
                   self.parents[0]->AccumGrad(std::move(g));
                 }),
      4 * n, 4 * n);
}

Variable SoftmaxRows(const Variable& a) {
  const auto& an = CheckedNode(a);
  OpProfile prof(obs::OpKind::kSoftmaxRows);
  const uint64_t n = Elems(an);
  Tensor out(an->value.rows(), an->value.cols());
  for (int i = 0; i < out.rows(); ++i) {
    double mx = -1e300;
    for (int j = 0; j < out.cols(); ++j)
      mx = std::max(mx, an->value.At(i, j));
    double denom = 0;
    for (int j = 0; j < out.cols(); ++j) {
      out.At(i, j) = std::exp(an->value.At(i, j) - mx);
      denom += out.At(i, j);
    }
    for (int j = 0; j < out.cols(); ++j) out.At(i, j) /= denom;
  }
  return prof.Done(
      MakeOpNode(std::move(out), {an},
                 [](Node& self) {
                   // Per row: dL/dx_j = y_j (g_j - sum_k g_k y_k)
                   Tensor g(self.value.rows(), self.value.cols());
                   for (int i = 0; i < g.rows(); ++i) {
                     double dot = 0;
                     for (int j = 0; j < g.cols(); ++j)
                       dot += self.grad.At(i, j) * self.value.At(i, j);
                     for (int j = 0; j < g.cols(); ++j)
                       g.At(i, j) =
                           self.value.At(i, j) * (self.grad.At(i, j) - dot);
                   }
                   self.parents[0]->AccumGrad(std::move(g));
                 }),
      5 * n, 3 * n);
}

// ---- Reductions and reshaping ---------------------------------------------

Variable Sum(const Variable& a) {
  const auto& an = CheckedNode(a);
  OpProfile prof(obs::OpKind::kSum);
  const uint64_t n = Elems(an);
  Tensor out(1, 1);
  out.At(0, 0) = an->value.Sum();
  return prof.Done(
      MakeOpNode(std::move(out), {an},
                 [](Node& self) {
                   const double g = self.grad.At(0, 0);
                   Tensor full(self.parents[0]->value.rows(),
                               self.parents[0]->value.cols(), g);
                   self.parents[0]->AccumGrad(std::move(full));
                 }),
      n, n);
}

Variable Mean(const Variable& a) {
  const auto& an = CheckedNode(a);
  OpProfile prof(obs::OpKind::kMean);
  const uint64_t n = Elems(an);
  const double inv = 1.0 / std::max(1, an->value.size());
  Tensor out(1, 1);
  out.At(0, 0) = an->value.Sum() * inv;
  return prof.Done(
      MakeOpNode(std::move(out), {an},
                 [inv](Node& self) {
                   const double g = self.grad.At(0, 0) * inv;
                   Tensor full(self.parents[0]->value.rows(),
                               self.parents[0]->value.cols(), g);
                   self.parents[0]->AccumGrad(std::move(full));
                 }),
      n, n);
}

Variable SumRows(const Variable& a) {
  const auto& an = CheckedNode(a);
  OpProfile prof(obs::OpKind::kSumRows);
  const uint64_t n = Elems(an);
  return prof.Done(
      MakeOpNode(an->value.ColSums(), {an},
                 [](Node& self) {
                   Tensor g(self.parents[0]->value.rows(),
                            self.parents[0]->value.cols());
                   for (int i = 0; i < g.rows(); ++i)
                     for (int j = 0; j < g.cols(); ++j)
                       g.At(i, j) = self.grad.At(0, j);
                   self.parents[0]->AccumGrad(std::move(g));
                 }),
      n, n);
}

Variable MeanRows(const Variable& a) {
  const auto& an = CheckedNode(a);
  OpProfile prof(obs::OpKind::kMeanRows);
  const uint64_t n = Elems(an);
  const double inv = 1.0 / std::max(1, an->value.rows());
  Tensor out = an->value.ColSums();
  out.Scale(inv);
  return prof.Done(
      MakeOpNode(std::move(out), {an},
                 [inv](Node& self) {
                   Tensor g(self.parents[0]->value.rows(),
                            self.parents[0]->value.cols());
                   for (int i = 0; i < g.rows(); ++i)
                     for (int j = 0; j < g.cols(); ++j)
                       g.At(i, j) = self.grad.At(0, j) * inv;
                   self.parents[0]->AccumGrad(std::move(g));
                 }),
      n, n);
}

Variable ConcatCols(const std::vector<Variable>& parts) {
  CASCN_CHECK(!parts.empty());
  OpProfile prof(obs::OpKind::kConcatCols);
  std::vector<std::shared_ptr<internal::Node>> nodes;
  int total_cols = 0;
  for (const auto& p : parts) {
    nodes.push_back(CheckedNode(p));
    CASCN_CHECK(p.rows() == parts[0].rows()) << "ConcatCols row mismatch";
    total_cols += p.cols();
  }
  Tensor out(parts[0].rows(), total_cols);
  int c = 0;
  for (const auto& n : nodes) {
    for (int i = 0; i < out.rows(); ++i)
      for (int j = 0; j < n->value.cols(); ++j)
        out.At(i, c + j) = n->value.At(i, j);
    c += n->value.cols();
  }
  return prof.Done(
      MakeOpNode(std::move(out), std::move(nodes),
                 [](Node& self) {
                   int c = 0;
                   for (auto& parent : self.parents) {
                     const int pc = parent->value.cols();
                     if (parent->needs_grad) {
                       Tensor g(self.grad.rows(), pc);
                       for (int i = 0; i < g.rows(); ++i)
                         for (int j = 0; j < pc; ++j)
                           g.At(i, j) = self.grad.At(i, c + j);
                       parent->AccumGrad(std::move(g));
                     }
                     c += pc;
                   }
                 }),
      0, 0);
}

Variable ConcatRows(const std::vector<Variable>& parts) {
  CASCN_CHECK(!parts.empty());
  OpProfile prof(obs::OpKind::kConcatRows);
  std::vector<std::shared_ptr<internal::Node>> nodes;
  int total_rows = 0;
  const int cols = parts[0].cols();
  for (const auto& p : parts) {
    CASCN_CHECK(p.cols() == cols) << "ConcatRows col mismatch";
    nodes.push_back(CheckedNode(p));
    total_rows += p.rows();
  }
  Tensor out(total_rows, cols);
  int r = 0;
  for (const auto& n : nodes) {
    for (int i = 0; i < n->value.rows(); ++i, ++r)
      for (int j = 0; j < cols; ++j) out.At(r, j) = n->value.At(i, j);
  }
  return prof.Done(
      MakeOpNode(std::move(out), std::move(nodes),
                 [](Node& self) {
                   int r = 0;
                   for (auto& parent : self.parents) {
                     const int pr = parent->value.rows();
                     if (parent->needs_grad) {
                       Tensor g(pr, parent->value.cols());
                       for (int i = 0; i < pr; ++i)
                         for (int j = 0; j < g.cols(); ++j)
                           g.At(i, j) = self.grad.At(r + i, j);
                       parent->AccumGrad(std::move(g));
                     }
                     r += pr;
                   }
                 }),
      0, 0);
}

Variable SliceRows(const Variable& a, int start, int len) {
  const auto& an = CheckedNode(a);
  CASCN_CHECK(start >= 0 && len >= 0 && start + len <= an->value.rows())
      << "SliceRows out of range";
  OpProfile prof(obs::OpKind::kSliceRows);
  Tensor out(len, an->value.cols());
  for (int i = 0; i < len; ++i)
    for (int j = 0; j < out.cols(); ++j)
      out.At(i, j) = an->value.At(start + i, j);
  return prof.Done(
      MakeOpNode(std::move(out), {an},
                 [start, len](Node& self) {
                   Tensor g(self.parents[0]->value.rows(),
                            self.parents[0]->value.cols());
                   for (int i = 0; i < len; ++i)
                     for (int j = 0; j < g.cols(); ++j)
                       g.At(start + i, j) = self.grad.At(i, j);
                   self.parents[0]->AccumGrad(std::move(g));
                 }),
      0, 0);
}

Variable GatherRows(const Variable& table, const std::vector<int>& indices) {
  const auto& tn = CheckedNode(table);
  OpProfile prof(obs::OpKind::kGatherRows);
  Tensor out(static_cast<int>(indices.size()), tn->value.cols());
  for (size_t i = 0; i < indices.size(); ++i) {
    CASCN_CHECK(indices[i] >= 0 && indices[i] < tn->value.rows())
        << "GatherRows index out of range";
    for (int j = 0; j < out.cols(); ++j)
      out.At(static_cast<int>(i), j) = tn->value.At(indices[i], j);
  }
  return prof.Done(
      MakeOpNode(std::move(out), {tn},
                 [indices](Node& self) {
                   Tensor g(self.parents[0]->value.rows(),
                            self.parents[0]->value.cols());
                   for (size_t i = 0; i < indices.size(); ++i)
                     for (int j = 0; j < g.cols(); ++j)
                       g.At(indices[i], j) +=
                           self.grad.At(static_cast<int>(i), j);
                   self.parents[0]->AccumGrad(std::move(g));
                 }),
      0, static_cast<uint64_t>(indices.size()) *
             static_cast<uint64_t>(tn->value.cols()));
}

Variable Transpose(const Variable& a) {
  const auto& an = CheckedNode(a);
  OpProfile prof(obs::OpKind::kTranspose);
  return prof.Done(
      MakeOpNode(an->value.Transposed(), {an},
                 [](Node& self) {
                   self.parents[0]->AccumGrad(self.grad.Transposed());
                 }),
      0, 0);
}

// ---- Fused recurrent cell ----------------------------------------------------

LstmOutput FusedLstmCell(const Variable& zx, const Variable& zh,
                         const std::vector<Variable>& biases,
                         const std::vector<Variable>& peepholes,
                         const Variable& c_prev, int first_row) {
  CASCN_CHECK(biases.size() == 4 && peepholes.size() == 3)
      << "FusedLstmCell takes 4 biases and 3 peepholes";
  CASCN_CHECK(zx.defined() == zh.defined())
      << "FusedLstmCell takes both convolutions or neither";
  // Parents: [zx, zh,] b_i, b_f, b_o, b_g, v_i, v_f, v_o, c_prev.
  std::vector<std::shared_ptr<Node>> parents;
  if (zx.defined()) parents = {CheckedNode(zx), CheckedNode(zh)};
  const size_t base = parents.size();
  for (const auto& b : biases) parents.push_back(CheckedNode(b));
  for (const auto& v : peepholes) parents.push_back(CheckedNode(v));
  parents.push_back(CheckedNode(c_prev));
  const int m = c_prev.rows(), d = c_prev.cols(), a = base ? zx.rows() : 0;
  CASCN_CHECK(!base || (a <= m && zx.cols() == 4 * d &&
                        zh.value().SameShape(zx.value())))
      << "FusedLstmCell convolutions must be a x 4d, a <= the state rows";
  for (const auto& b : biases)
    CASCN_CHECK(b.rows() == 1 && b.cols() == d) << "bias must be 1 x d";
  for (const auto& v : peepholes)
    CASCN_CHECK(v.cols() == d && first_row >= 0 && first_row + m <= v.rows())
        << "peephole rows do not cover the state rows";
  OpProfile prof(obs::OpKind::kFusedLstmCell);
  // [i | f | g | o | tanh(c)] per element, for the backward.
  std::shared_ptr<Tensor> saved;
  if (t_grad_enabled) saved = std::make_shared<Tensor>(m, 5 * d);
  Tensor c(m, d), h(m, d);
  kernels::LstmCellArgs args;
  args.rows = m;
  args.d = d;
  args.active = a;
  if (base) {
    args.zx = zx.value().data();
    args.zh = zh.value().data();
  }
  for (int k = 0; k < 4; ++k) args.bias[k] = biases[k].value().data();
  for (int k = 0; k < 3; ++k)
    args.peephole[k] =
        peepholes[k].value().data() + static_cast<size_t>(first_row) * d;
  args.c_prev = c_prev.value().data();
  args.c = c.data();
  args.h = h.data();
  args.saved = saved ? saved->data() : nullptr;
  kernels::Kernels().lstm_cell(args);
  // c: its backward takes dL/dc (from h_t and from step t + 1) through the
  // i, f and g gates.
  auto c_node = MakeOpNode(std::move(c), parents, [saved, a, base, first_row](
                                                      Node& self) {
    const int m = self.grad.rows(), d = self.grad.cols();
    const Tensor& s = *saved;
    Node& cp = *self.parents[base + 7];
    const Tensor& vi = self.parents[base + 4]->value;
    const Tensor& vf = self.parents[base + 5]->value;
    Tensor dz(a, 4 * d), dcp(m, d), dvi(vi.rows(), d), dvf(vi.rows(), d);
    Tensor dbi(1, d), dbf(1, d), dbg(1, d);
    for (int r = 0; r < m; ++r) {
      const int p = first_row + r;
      for (int j = 0; j < d; ++j) {
        const double gc = self.grad.At(r, j), c0 = cp.value.At(r, j);
        const double i = s.At(r, j), f = s.At(r, d + j), g = s.At(r, 2 * d + j);
        const double di = gc * g * i * (1.0 - i);
        const double df = gc * c0 * f * (1.0 - f);
        const double dg = gc * i * (1.0 - g * g);
        dcp.At(r, j) = gc * f + di * vi.At(p, j) + df * vf.At(p, j);
        dvi.At(p, j) = di * c0;
        dvf.At(p, j) = df * c0;
        dbi.At(0, j) += di;
        dbf.At(0, j) += df;
        dbg.At(0, j) += dg;
        if (r < a) dz.At(r, j) = di, dz.At(r, d + j) = df, dz.At(r, 3 * d + j) = dg;
      }
    }
    for (size_t k = 0; k < base; ++k)
      if (self.parents[k]->needs_grad) self.parents[k]->AccumGrad(dz);
    const std::pair<size_t, Tensor*> grads[] = {
        {0, &dbi}, {1, &dbf}, {3, &dbg}, {4, &dvi}, {5, &dvf}, {7, &dcp}};
    for (const auto& [k, g] : grads)
      if (self.parents[base + k]->needs_grad)
        self.parents[base + k]->AccumGrad(std::move(*g));
  });
  c_node->op = obs::OpKind::kFusedLstmCell;
  // h = o * tanh(c): its backward feeds the o gate and c.
  parents.push_back(c_node);
  auto h_node = MakeOpNode(std::move(h), parents, [saved, a, base, first_row](
                                                      Node& self) {
    const int m = self.grad.rows(), d = self.grad.cols();
    const Tensor& s = *saved;
    Node& cn = *self.parents[base + 8];
    const Tensor& vo = self.parents[base + 6]->value;
    Tensor dz(a, 4 * d), dc(m, d), dvo(vo.rows(), d), dbo(1, d);
    for (int r = 0; r < m; ++r) {
      const int p = first_row + r;
      for (int j = 0; j < d; ++j) {
        const double gh = self.grad.At(r, j);
        const double o = s.At(r, 3 * d + j), tc = s.At(r, 4 * d + j);
        const double dpo = gh * tc * o * (1.0 - o);
        dc.At(r, j) = gh * o * (1.0 - tc * tc) + dpo * vo.At(p, j);
        dvo.At(p, j) = dpo * cn.value.At(r, j);
        dbo.At(0, j) += dpo;
        if (r < a) dz.At(r, 2 * d + j) = dpo;
      }
    }
    for (size_t k = 0; k < base; ++k)
      if (self.parents[k]->needs_grad) self.parents[k]->AccumGrad(dz);
    const std::pair<size_t, Tensor*> grads[] = {
        {2, &dbo}, {6, &dvo}, {8, &dc}};
    for (const auto& [k, g] : grads)
      if (self.parents[base + k]->needs_grad)
        self.parents[base + k]->AccumGrad(std::move(*g));
  });
  const uint64_t work = 30 * static_cast<uint64_t>(m) * d;
  LstmOutput out;
  out.c = Variable::FromNode(std::move(c_node));
  out.h = prof.Done(std::move(h_node), work, work);
  return out;
}

}  // namespace cascn::ag
