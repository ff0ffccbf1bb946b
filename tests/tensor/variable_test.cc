#include "tensor/variable.h"

#include <atomic>
#include <cmath>
#include <thread>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "tensor/grad_check.h"

namespace cascn::ag {
namespace {

Variable RandomLeaf(int rows, int cols, uint64_t seed,
                    bool requires_grad = true) {
  Rng rng(seed);
  return Variable::Leaf(Tensor::RandomNormal(rows, cols, 1.0, rng),
                        requires_grad);
}

TEST(VariableTest, LeafHoldsValue) {
  Variable v = Variable::Leaf(Tensor::FromRows({{1, 2}}));
  EXPECT_EQ(v.rows(), 1);
  EXPECT_EQ(v.cols(), 2);
  EXPECT_DOUBLE_EQ(v.value().At(0, 1), 2.0);
  EXPECT_FALSE(v.requires_grad());
}

TEST(VariableTest, ForwardValuesMatchTensorOps) {
  Variable a = Variable::Leaf(Tensor::FromRows({{1, 2}, {3, 4}}));
  Variable b = Variable::Leaf(Tensor::FromRows({{5, 6}, {7, 8}}));
  EXPECT_TRUE(AllClose(Add(a, b).value(), Tensor::FromRows({{6, 8}, {10, 12}})));
  EXPECT_TRUE(AllClose(Sub(a, b).value(),
                       Tensor::FromRows({{-4, -4}, {-4, -4}})));
  EXPECT_TRUE(AllClose(Mul(a, b).value(), Tensor::FromRows({{5, 12}, {21, 32}})));
  EXPECT_TRUE(AllClose(MatMul(a, b).value(),
                       Tensor::FromRows({{19, 22}, {43, 50}})));
}

TEST(VariableTest, BackwardThroughSimpleChain) {
  // loss = sum(a * a) -> dloss/da = 2a.
  Variable a = Variable::Leaf(Tensor::FromRows({{2, -3}}), true);
  Variable loss = Sum(Square(a));
  loss.Backward();
  EXPECT_DOUBLE_EQ(a.grad().At(0, 0), 4.0);
  EXPECT_DOUBLE_EQ(a.grad().At(0, 1), -6.0);
}

TEST(VariableTest, GradAccumulatesAcrossBackwardCalls) {
  Variable a = Variable::Leaf(Tensor::FromRows({{1.0}}), true);
  Sum(Square(a)).Backward();
  Sum(Square(a)).Backward();
  EXPECT_DOUBLE_EQ(a.grad().At(0, 0), 4.0);  // 2 + 2
  a.ZeroGrad();
  EXPECT_DOUBLE_EQ(a.grad().At(0, 0), 0.0);
}

TEST(VariableTest, DiamondGraphAccumulatesBothPaths) {
  // loss = sum((a + a) * a) = 2 sum(a^2) -> grad = 4a.
  Variable a = Variable::Leaf(Tensor::FromRows({{3.0}}), true);
  Variable loss = Sum(Mul(Add(a, a), a));
  loss.Backward();
  EXPECT_DOUBLE_EQ(a.grad().At(0, 0), 12.0);
}

TEST(VariableTest, ConstantBranchesGetNoGradient) {
  Variable a = Variable::Leaf(Tensor::FromRows({{1.0}}), true);
  Variable c = Variable::Leaf(Tensor::FromRows({{5.0}}), false);
  Variable loss = Sum(Mul(a, c));
  loss.Backward();
  EXPECT_DOUBLE_EQ(a.grad().At(0, 0), 5.0);
  EXPECT_TRUE(c.grad().empty());
}

// --- Gradient checks for every op -------------------------------------------

TEST(GradCheckTest, Add) {
  Variable a = RandomLeaf(3, 2, 1);
  Variable b = RandomLeaf(3, 2, 2, false);
  auto r = CheckGradient(a, [&](const Variable& x) { return Sum(Add(x, b)); });
  EXPECT_TRUE(r.ok) << "rel err " << r.max_rel_error;
}

TEST(GradCheckTest, SubBothSides) {
  Variable a = RandomLeaf(2, 3, 3);
  Variable b = RandomLeaf(2, 3, 4);
  auto ra =
      CheckGradient(a, [&](const Variable& x) { return Sum(Sub(x, b)); });
  EXPECT_TRUE(ra.ok);
  auto rb =
      CheckGradient(b, [&](const Variable& x) { return Sum(Sub(a, x)); });
  EXPECT_TRUE(rb.ok);
}

TEST(GradCheckTest, MulElementwise) {
  Variable a = RandomLeaf(3, 3, 5);
  Variable b = RandomLeaf(3, 3, 6, false);
  auto r = CheckGradient(
      a, [&](const Variable& x) { return Sum(Square(Mul(x, b))); });
  EXPECT_TRUE(r.ok) << r.max_rel_error;
}

TEST(GradCheckTest, AddRowBroadcast) {
  Variable a = RandomLeaf(4, 3, 7);
  Variable bias = RandomLeaf(1, 3, 8);
  auto ra = CheckGradient(a, [&](const Variable& x) {
    return Sum(Square(AddRowBroadcast(x, bias)));
  });
  EXPECT_TRUE(ra.ok);
  auto rb = CheckGradient(bias, [&](const Variable& x) {
    return Sum(Square(AddRowBroadcast(a, x)));
  });
  EXPECT_TRUE(rb.ok);
}

TEST(GradCheckTest, ScalarOps) {
  Variable a = RandomLeaf(2, 2, 9);
  auto r1 = CheckGradient(
      a, [&](const Variable& x) { return Sum(Square(ScalarMul(x, -2.5))); });
  EXPECT_TRUE(r1.ok);
  auto r2 = CheckGradient(
      a, [&](const Variable& x) { return Sum(Square(AddScalar(x, 1.5))); });
  EXPECT_TRUE(r2.ok);
}

TEST(GradCheckTest, ScaleByScalarBothInputs) {
  Variable a = RandomLeaf(3, 2, 10);
  Variable s = RandomLeaf(1, 1, 11);
  auto ra = CheckGradient(a, [&](const Variable& x) {
    return Sum(Square(ScaleByScalar(x, s)));
  });
  EXPECT_TRUE(ra.ok);
  auto rs = CheckGradient(s, [&](const Variable& x) {
    return Sum(Square(ScaleByScalar(a, x)));
  });
  EXPECT_TRUE(rs.ok);
}

TEST(GradCheckTest, MatMulBothSides) {
  Variable a = RandomLeaf(3, 4, 12);
  Variable b = RandomLeaf(4, 2, 13);
  auto ra = CheckGradient(
      a, [&](const Variable& x) { return Sum(Square(MatMul(x, b))); });
  EXPECT_TRUE(ra.ok) << ra.max_rel_error;
  auto rb = CheckGradient(
      b, [&](const Variable& x) { return Sum(Square(MatMul(a, x))); });
  EXPECT_TRUE(rb.ok) << rb.max_rel_error;
}

TEST(GradCheckTest, SparseMatMul) {
  CsrMatrix op = CsrMatrix::FromTriplets(
      3, 3, {{0, 0, 2.0}, {0, 2, -1.0}, {1, 1, 0.5}, {2, 0, 1.5}});
  Variable x = RandomLeaf(3, 2, 14);
  auto r = CheckGradient(x, [&](const Variable& v) {
    return Sum(Square(SparseMatMul(op, v)));
  });
  EXPECT_TRUE(r.ok) << r.max_rel_error;
}

TEST(GradCheckTest, MatMulSumAllFactors) {
  // A narrow left factor (3 x 2) meets the leading 2 rows of its 4 x 3
  // right factor; the other term is square-compatible.
  Variable a0 = RandomLeaf(3, 2, 50), b0 = RandomLeaf(4, 3, 51);
  Variable a1 = RandomLeaf(3, 3, 52), b1 = RandomLeaf(3, 3, 53);
  for (Variable* leaf : {&a0, &b0, &a1, &b1}) {
    auto r = CheckGradient(*leaf, [&](const Variable&) {
      return Sum(Square(MatMulSum({a0, a1}, {b0, b1})));
    });
    EXPECT_TRUE(r.ok) << r.max_rel_error;
  }
  b0.ZeroGrad();
  Sum(MatMulSum({a0, a1}, {b0, b1})).Backward();
  for (int j = 0; j < 3; ++j) {
    EXPECT_EQ(b0.grad().At(2, j), 0.0) << "rows past a0.cols get no grad";
    EXPECT_EQ(b0.grad().At(3, j), 0.0);
  }
}

TEST(VariableTest, MatMulSumEqualsMatMulAddChainBitForBit) {
  Variable a0 = RandomLeaf(5, 3, 54), a1 = RandomLeaf(5, 3, 55);
  Variable b0 = RandomLeaf(7, 4, 56), b1 = RandomLeaf(7, 4, 57);
  // The chain's reference pads the narrow left factors with zero columns.
  auto pad_cols = [](const Variable& v, int cols) {
    Tensor t(v.rows(), cols);
    for (int i = 0; i < v.rows(); ++i)
      for (int j = 0; j < v.cols(); ++j) t.At(i, j) = v.value().At(i, j);
    return Variable::Leaf(t);
  };
  const Tensor chain = Add(MatMul(pad_cols(a0, 7), b0),
                           MatMul(pad_cols(a1, 7), b1)).value();
  const Tensor fused = MatMulSum({a0, a1}, {b0, b1}).value();
  ASSERT_TRUE(chain.SameShape(fused));
  for (int i = 0; i < chain.rows(); ++i)
    for (int j = 0; j < chain.cols(); ++j)
      EXPECT_EQ(chain.At(i, j), fused.At(i, j));
}

TEST(GradCheckTest, AddRowBroadcastPadded) {
  Variable a = RandomLeaf(2, 3, 58);
  Variable b = RandomLeaf(1, 3, 59);
  for (Variable* leaf : {&a, &b}) {
    auto r = CheckGradient(*leaf, [&](const Variable&) {
      return Sum(Square(AddRowBroadcast(a, b, 5)));
    });
    EXPECT_TRUE(r.ok) << r.max_rel_error;
  }
  const Tensor padded = AddRowBroadcast(a, b, 4).value();
  ASSERT_EQ(padded.rows(), 4);
  EXPECT_EQ(padded.At(1, 2), a.value().At(1, 2) + b.value().At(0, 2));
  EXPECT_EQ(padded.At(3, 0), 0.0 + b.value().At(0, 0));
}

TEST(GradCheckTest, Nonlinearities) {
  for (uint64_t seed : {20ull, 21ull}) {
    Variable a = RandomLeaf(3, 3, seed);
    EXPECT_TRUE(CheckGradient(a, [](const Variable& x) {
                  return Sum(Sigmoid(x));
                }).ok);
    EXPECT_TRUE(
        CheckGradient(a, [](const Variable& x) { return Sum(Tanh(x)); }).ok);
    EXPECT_TRUE(CheckGradient(a, [](const Variable& x) {
                  return Sum(Softplus(x));
                }).ok);
    EXPECT_TRUE(CheckGradient(a, [](const Variable& x) {
                  return Sum(Square(x));
                }).ok);
  }
}

TEST(GradCheckTest, ReluAwayFromKink) {
  // Values kept away from 0 so finite differences are valid.
  Tensor init = Tensor::FromRows({{1.0, -1.0}, {2.0, -0.5}});
  Variable a = Variable::Leaf(init, true);
  auto r =
      CheckGradient(a, [](const Variable& x) { return Sum(Relu(x)); });
  EXPECT_TRUE(r.ok);
}

TEST(GradCheckTest, SoftmaxRows) {
  Variable a = RandomLeaf(3, 4, 22);
  Variable weight = RandomLeaf(3, 4, 23, false);
  auto r = CheckGradient(a, [&](const Variable& x) {
    return Sum(Mul(SoftmaxRows(x), weight));
  });
  EXPECT_TRUE(r.ok) << r.max_rel_error;
}

TEST(GradCheckTest, Reductions) {
  Variable a = RandomLeaf(3, 4, 24);
  EXPECT_TRUE(
      CheckGradient(a, [](const Variable& x) { return Mean(x); }).ok);
  EXPECT_TRUE(CheckGradient(a, [](const Variable& x) {
                return Sum(Square(SumRows(x)));
              }).ok);
  EXPECT_TRUE(CheckGradient(a, [](const Variable& x) {
                return Sum(Square(MeanRows(x)));
              }).ok);
}

TEST(GradCheckTest, ConcatAndSlice) {
  Variable a = RandomLeaf(3, 2, 25);
  Variable b = RandomLeaf(3, 3, 26);
  auto rc = CheckGradient(a, [&](const Variable& x) {
    return Sum(Square(ConcatCols({x, b})));
  });
  EXPECT_TRUE(rc.ok);
  Variable c = RandomLeaf(4, 2, 27);
  auto rr = CheckGradient(c, [&](const Variable& x) {
    return Sum(Square(ConcatRows({x, a})));
  });
  EXPECT_TRUE(rr.ok);
  auto rs = CheckGradient(c, [](const Variable& x) {
    return Sum(Square(SliceRows(x, 1, 2)));
  });
  EXPECT_TRUE(rs.ok);
}

TEST(GradCheckTest, ConcatColsOfManyBlocks) {
  Variable a = RandomLeaf(3, 2, 70), b = RandomLeaf(3, 1, 71);
  Variable c = RandomLeaf(3, 4, 72);
  // `a` appears twice, so its gradient sums both column blocks.
  for (Variable* leaf : {&a, &b, &c}) {
    auto r = CheckGradient(*leaf, [&](const Variable&) {
      return Sum(Square(ConcatCols({a, b, c, a})));
    });
    EXPECT_TRUE(r.ok) << r.max_rel_error;
  }
  const Tensor out = ConcatCols({a, b, c, a}).value();
  ASSERT_EQ(out.cols(), 9);
  EXPECT_EQ(out.At(1, 2), b.value().At(1, 0));
  EXPECT_EQ(out.At(2, 6), c.value().At(2, 3));
  EXPECT_EQ(out.At(0, 8), a.value().At(0, 1));
}

/// Inputs of one fused LSTM step: a conv rows, m state rows, width d.
struct LstmInputs {
  LstmInputs(int a, int m, int d, int peephole_rows, uint64_t seed)
      : zx(RandomLeaf(a, 4 * d, seed)),
        zh(RandomLeaf(a, 4 * d, seed + 1)),
        c(RandomLeaf(m, d, seed + 2)) {
    for (int k = 0; k < 4; ++k) b.push_back(RandomLeaf(1, d, seed + 3 + k));
    for (int k = 0; k < 3; ++k)
      v.push_back(RandomLeaf(peephole_rows, d, seed + 7 + k));
  }
  std::vector<Variable*> Leaves() {
    std::vector<Variable*> out = {&zx, &zh, &c};
    for (auto& x : b) out.push_back(&x);
    for (auto& x : v) out.push_back(&x);
    return out;
  }
  Variable zx, zh, c;
  std::vector<Variable> b, v;
};

TEST(GradCheckTest, FusedLstmCellEveryInput) {
  // Row 2 sees no convolution; the peepholes are read from row 1 on.
  LstmInputs in(/*a=*/2, /*m=*/3, /*d=*/2, /*peephole_rows=*/5, 80);
  auto two_steps = [&](const Variable&) {
    // c_1 feeds h_1 and step 2, so its gradient arrives from both.
    const LstmOutput s1 = FusedLstmCell(in.zx, in.zh, in.b, in.v, in.c, 1);
    const LstmOutput s2 = FusedLstmCell(in.zx, in.zh, in.b, in.v, s1.c, 1);
    return Add(Sum(Square(s1.h)),
               Add(Sum(Square(s2.h)), Sum(ScalarMul(s2.c, 0.7))));
  };
  for (Variable* leaf : in.Leaves()) {
    auto r = CheckGradient(*leaf, two_steps);
    EXPECT_TRUE(r.ok) << r.max_rel_error;
  }
  // Without convolutions every row is driven by bias and peephole alone.
  for (Variable* leaf : in.Leaves()) {
    if (leaf == &in.zx || leaf == &in.zh) continue;
    auto r = CheckGradient(*leaf, [&](const Variable&) {
      const LstmOutput out = FusedLstmCell({}, {}, in.b, in.v, in.c, 2);
      return Add(Sum(Square(out.h)), Sum(out.c));
    });
    EXPECT_TRUE(r.ok) << r.max_rel_error;
  }
}

TEST(VariableTest, FusedLstmCellEqualsUnfusedChainBitForBit) {
  const int a = 3, m = 5, d = 4, first_row = 2;
  LstmInputs in(a, m, d, first_row + m, 90);
  // Column block k of the stacked convolutions, as its own leaf.
  auto gate = [&](const Variable& z, int k) {
    Tensor t(a, d);
    for (int i = 0; i < a; ++i)
      for (int j = 0; j < d; ++j) t.At(i, j) = z.value().At(i, k * d + j);
    return Variable::Leaf(t);
  };
  auto pre = [&](int k) {  // (x + h) over a rows, plus b over all m rows
    return AddRowBroadcast(Add(gate(in.zx, k), gate(in.zh, k)), in.b[k], m);
  };
  auto peep = [&](int k, const Variable& c) {
    return Mul(SliceRows(in.v[k], first_row, m), c);
  };
  const Variable i = Sigmoid(Add(pre(0), peep(0, in.c)));
  const Variable f = Sigmoid(Add(pre(1), peep(1, in.c)));
  const Variable g = Tanh(pre(3));
  const Variable c = Add(Mul(f, in.c), Mul(i, g));
  const Variable o = Sigmoid(Add(pre(2), peep(2, c)));
  const Variable h = Mul(o, Tanh(c));
  const LstmOutput fused =
      FusedLstmCell(in.zx, in.zh, in.b, in.v, in.c, first_row);
  for (int r = 0; r < m; ++r)
    for (int j = 0; j < d; ++j) {
      EXPECT_EQ(fused.c.value().At(r, j), c.value().At(r, j));
      EXPECT_EQ(fused.h.value().At(r, j), h.value().At(r, j));
    }
}

TEST(VariableTest, FusedLstmCellUnderNoGradMatches) {
  LstmInputs in(2, 4, 3, 4, 100);
  const LstmOutput graph = FusedLstmCell(in.zx, in.zh, in.b, in.v, in.c);
  NoGradGuard no_grad;
  const LstmOutput value = FusedLstmCell(in.zx, in.zh, in.b, in.v, in.c);
  EXPECT_TRUE(value.h.node()->parents.empty());
  for (int r = 0; r < 4; ++r)
    for (int j = 0; j < 3; ++j) {
      EXPECT_EQ(value.h.value().At(r, j), graph.h.value().At(r, j));
      EXPECT_EQ(value.c.value().At(r, j), graph.c.value().At(r, j));
    }
}

TEST(GradCheckTest, GatherRowsWithRepeats) {
  Variable table = RandomLeaf(5, 3, 28);
  const std::vector<int> indices = {0, 2, 2, 4};
  auto r = CheckGradient(table, [&](const Variable& x) {
    return Sum(Square(GatherRows(x, indices)));
  });
  EXPECT_TRUE(r.ok) << r.max_rel_error;
}

TEST(GradCheckTest, Transpose) {
  Variable a = RandomLeaf(2, 4, 29);
  Variable b = RandomLeaf(2, 2, 30, false);
  auto r = CheckGradient(a, [&](const Variable& x) {
    return Sum(Square(MatMul(Transpose(x), b)));
  });
  EXPECT_TRUE(r.ok);
}

TEST(GradCheckTest, DeepComposite) {
  // A small MLP-like composite touching many ops at once.
  Variable w1 = RandomLeaf(3, 4, 31);
  Variable b1 = RandomLeaf(1, 4, 32);
  Variable w2 = RandomLeaf(4, 1, 33);
  Variable x = RandomLeaf(2, 3, 34, false);
  auto forward = [&](const Variable& w) {
    Variable h = Tanh(AddRowBroadcast(MatMul(x, w), b1));
    return Sum(Square(MatMul(h, w2)));
  };
  auto r = CheckGradient(w1, forward);
  EXPECT_TRUE(r.ok) << r.max_rel_error;
}

/// A small graph touching several op kinds, with a trainable leaf.
Variable NoGradProbe(const Variable& w, const Variable& x) {
  const CsrMatrix op =
      CsrMatrix::FromTriplets(3, 3, {{0, 1, 0.5}, {2, 2, -1.0}});
  return Sum(Sigmoid(MatMulSum({SparseMatMul(op, x), x}, {w, w})));
}

TEST(NoGradTest, SameValuesAndNoGraph) {
  Variable w = RandomLeaf(3, 3, 60);
  Variable x = RandomLeaf(3, 3, 61, /*requires_grad=*/false);
  const Variable with_graph = NoGradProbe(w, x);
  EXPECT_TRUE(GradEnabled());
  Variable without;
  {
    NoGradGuard no_grad;
    EXPECT_FALSE(GradEnabled());
    without = NoGradProbe(w, x);
  }
  EXPECT_TRUE(GradEnabled());
  EXPECT_EQ(with_graph.value().At(0, 0), without.value().At(0, 0));
  EXPECT_FALSE(with_graph.node()->parents.empty());
  EXPECT_TRUE(without.node()->parents.empty());
  EXPECT_FALSE(without.node()->backward);
  EXPECT_FALSE(without.node()->needs_grad);
}

TEST(NoGradTest, GuardsNest) {
  {
    NoGradGuard outer;
    {
      NoGradGuard inner;
      EXPECT_FALSE(GradEnabled());
    }
    EXPECT_FALSE(GradEnabled()) << "inner guard must restore, not enable";
  }
  EXPECT_TRUE(GradEnabled());
}

TEST(NoGradTest, BackwardOnNoGradValueDies) {
  Variable w = RandomLeaf(3, 3, 62);
  Variable x = RandomLeaf(3, 3, 63, /*requires_grad=*/false);
  Variable loss;
  {
    NoGradGuard no_grad;
    loss = NoGradProbe(w, x);
  }
  EXPECT_DEATH(loss.Backward(), "NoGradGuard");
}

TEST(NoGradTest, GuardIsThreadLocal) {
  Variable w = RandomLeaf(3, 3, 64);
  Variable x = RandomLeaf(3, 3, 65, /*requires_grad=*/false);
  NoGradProbe(w, x).Backward();
  const Tensor expected = w.grad();
  w.ZeroGrad();

  // One thread forwards under the guard while another runs a captured
  // backward pass; the second must still see every gradient.
  std::atomic<bool> stop{false};
  std::thread inference([&] {
    NoGradGuard no_grad;
    while (!stop.load()) {
      const Variable v = NoGradProbe(w, x);
      EXPECT_TRUE(v.node()->parents.empty());
    }
  });
  std::vector<GradSink> sinks(20);
  std::thread training([&] {
    for (GradSink& sink : sinks) {
      const Variable loss = NoGradProbe(w, x);
      ScopedGradCapture capture(&sink);
      loss.Backward();
    }
  });
  training.join();
  stop = true;
  inference.join();
  for (GradSink& sink : sinks) {
    EXPECT_FALSE(sink.empty());
    sink.Flush();
    ASSERT_FALSE(w.grad().empty());
    for (int i = 0; i < 3; ++i)
      for (int j = 0; j < 3; ++j)
        EXPECT_EQ(w.grad().At(i, j), expected.At(i, j));
    w.ZeroGrad();
  }
}

TEST(VariableTest, BackwardRequiresScalar) {
  Variable a = RandomLeaf(2, 2, 35);
  EXPECT_DEATH(Add(a, a).Backward(), "scalar");
}

TEST(VariableTest, ShapeMismatchDies) {
  Variable a = RandomLeaf(2, 2, 36);
  Variable b = RandomLeaf(3, 2, 37);
  EXPECT_DEATH(Add(a, b), "shape");
}

}  // namespace
}  // namespace cascn::ag
