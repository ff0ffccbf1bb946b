// Oracle tests of the kernel layer (tensor/kernels.h): every product is
// bit-equal to a naive loop kept here, the AVX2 and baseline tables return
// the same bits, and the transcendentals stay within fixed ulp bounds of
// libm with NaN, infinities, signed zeros and subnormals handled exactly.

#include "tensor/kernels.h"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <optional>
#include <string>
#include <vector>

#include "common/rng.h"
#include "nn/graph_rnn_cells.h"
#include "parallel/parallel_for.h"
#include "tensor/csr_matrix.h"
#include "tensor/tensor.h"
#include "tensor/variable.h"

namespace cascn {
namespace {

using kernels::Table;
using kernels::Term;

constexpr int kSizes[] = {1, 2, 3, 4, 5, 7, 9, 12, 16, 17, 31, 32, 33, 48, 49};
constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

uint64_t Bits(double x) { return std::bit_cast<uint64_t>(x); }

/// Counts elements whose bits differ and reports the first one.
void ExpectSameBits(const double* got, const double* want, size_t n,
                    const std::string& what) {
  size_t mismatches = 0;
  for (size_t i = 0; i < n; ++i) {
    if (Bits(got[i]) == Bits(want[i])) continue;
    if (mismatches++ == 0)
      ADD_FAILURE() << what << ": element " << i << " is " << got[i]
                    << ", expected " << want[i];
  }
  EXPECT_EQ(mismatches, 0u) << what;
}

void ExpectSameBits(const Tensor& got, const Tensor& want,
                    const std::string& what) {
  ASSERT_TRUE(got.SameShape(want)) << what;
  ExpectSameBits(got.data(), want.data(), static_cast<size_t>(got.size()),
                 what);
}

std::string Shape(int m, int k, int n) {
  return std::to_string(m) + "x" + std::to_string(k) + "x" + std::to_string(n);
}

/// Random entries with exact zeros and negative zeros mixed in.
Tensor WithZeros(int rows, int cols, Rng& rng) {
  Tensor t = Tensor::RandomNormal(rows, cols, 1.0, rng);
  for (int i = 0; i < t.size(); ++i) {
    if (i % 5 == 2) t.data()[i] = 0.0;
    if (i % 7 == 3) t.data()[i] = -0.0;
  }
  return t;
}

// ---- Naive oracles ------------------------------------------------------------

/// c(i, j) = sum_p a(i, p) b(p, j) over p ascending from +0, zero entries
/// of a skipped; b may be taller than a is wide.
Tensor NaiveMatMul(const Tensor& a, const Tensor& b) {
  Tensor c(a.rows(), b.cols());
  for (int i = 0; i < a.rows(); ++i)
    for (int j = 0; j < b.cols(); ++j) {
      double s = 0.0;
      for (int p = 0; p < a.cols(); ++p)
        if (a.At(i, p) != 0.0) s += a.At(i, p) * b.At(p, j);
      c.At(i, j) = s;
    }
  return c;
}

/// A^T B, zero entries of A skipped.
Tensor NaiveTransposeA(const Tensor& a, const Tensor& b) {
  Tensor c(a.cols(), b.cols());
  for (int i = 0; i < a.cols(); ++i)
    for (int j = 0; j < b.cols(); ++j) {
      double s = 0.0;
      for (int p = 0; p < a.rows(); ++p)
        if (a.At(p, i) != 0.0) s += a.At(p, i) * b.At(p, j);
      c.At(i, j) = s;
    }
  return c;
}

/// A B^T: plain dot products, nothing skipped.
Tensor NaiveTransposeB(const Tensor& a, const Tensor& b) {
  Tensor c(a.rows(), b.rows());
  for (int i = 0; i < a.rows(); ++i)
    for (int j = 0; j < b.rows(); ++j) {
      double s = 0.0;
      for (int p = 0; p < a.cols(); ++p) s += a.At(i, p) * b.At(j, p);
      c.At(i, j) = s;
    }
  return c;
}

/// CSR * dense, each row's nonzeros in stored order.
Tensor NaiveSparse(const CsrMatrix& s, const Tensor& dense) {
  Tensor out(s.rows(), dense.cols());
  for (int r = 0; r < s.rows(); ++r)
    for (int k = s.row_offsets()[r]; k < s.row_offsets()[r + 1]; ++k)
      for (int j = 0; j < dense.cols(); ++j)
        out.At(r, j) += s.values()[k] * dense.At(s.col_indices()[k], j);
  return out;
}

/// CSR^T * dense as a scatter over input rows r = 0, 1, ...
Tensor NaiveSparseTranspose(const CsrMatrix& s, const Tensor& dense) {
  Tensor out(s.cols(), dense.cols());
  for (int r = 0; r < s.rows(); ++r)
    for (int k = s.row_offsets()[r]; k < s.row_offsets()[r + 1]; ++k)
      for (int j = 0; j < dense.cols(); ++j)
        out.At(s.col_indices()[k], j) += s.values()[k] * dense.At(r, j);
  return out;
}

CsrMatrix RandomSparse(int rows, int cols, double density, Rng& rng) {
  std::vector<Triplet> trips;
  for (int i = 0; i < rows; ++i)
    for (int j = 0; j < cols; ++j)
      if (rng.Bernoulli(density)) trips.push_back({i, j, rng.Normal()});
  return CsrMatrix::FromTriplets(rows, cols, std::move(trips));
}

// ---- Products -----------------------------------------------------------------

TEST(KernelsTest, DenseProductsEqualNaiveLoopsBitForBit) {
  Rng rng(11);
  for (int m : kSizes)
    for (int k : kSizes)
      for (int n : kSizes) {
        const std::string shape = Shape(m, k, n);
        Tensor a = WithZeros(m, k, rng);
        Tensor b = Tensor::RandomNormal(k, n, 1.0, rng);
        // An all-zero column of A hides an inf and a NaN row of B.
        const int hidden = k / 2;
        for (int i = 0; i < m; ++i) a.At(i, hidden) = i % 2 ? 0.0 : -0.0;
        for (int j = 0; j < n; ++j) b.At(hidden, j) = j % 2 ? kInf : kNaN;
        ExpectSameBits(MatMul(a, b), NaiveMatMul(a, b), "MatMul " + shape);

        // A^T B with A k x m: the hidden row of A is all zero.
        Tensor at = WithZeros(k, m, rng);
        for (int i = 0; i < m; ++i) at.At(hidden, i) = 0.0;
        ExpectSameBits(MatMulTransposeA(at, b), NaiveTransposeA(at, b),
                       "MatMulTransposeA " + shape);

        const Tensor bt = Tensor::RandomNormal(n, k, 1.0, rng);
        ExpectSameBits(MatMulTransposeB(a, bt), NaiveTransposeB(a, bt),
                       "MatMulTransposeB " + shape);
      }
}

TEST(KernelsTest, MatMulSumWithNarrowFactorEqualsNaiveSum) {
  Rng rng(12);
  for (int m : kSizes)
    for (int n : kSizes) {
      const int k = 1 + (m + n) % 17;
      // A narrow left factor: b0 has more rows than a0 has columns.
      const Tensor a0 = WithZeros(m, k, rng);
      const Tensor b0 = Tensor::RandomNormal(k + 3, n, 1.0, rng);
      const Tensor a1 = WithZeros(m, n, rng);
      const Tensor b1 = Tensor::RandomNormal(n, n, 1.0, rng);
      const Tensor a2 = WithZeros(m, 2, rng);
      const Tensor b2 = Tensor::RandomNormal(2, n, 1.0, rng);
      Tensor want = Add(Add(NaiveMatMul(a0, b0), NaiveMatMul(a1, b1)),
                        NaiveMatMul(a2, b2));
      ExpectSameBits(MatMulSum({&a0, &a1, &a2}, {&b0, &b1, &b2}), want,
                     "MatMulSum " + Shape(m, k, n));
    }
}

TEST(KernelsTest, SparseProductsEqualNaiveLoopsBitForBit) {
  Rng rng(13);
  for (int rows : kSizes)
    for (int cols : kSizes)
      for (int n : {1, 3, 4, 12, 17, 48}) {
        const CsrMatrix s = RandomSparse(rows, cols, 0.3, rng);
        const Tensor x = Tensor::RandomNormal(cols, n, 1.0, rng);
        const Tensor g = Tensor::RandomNormal(rows, n, 1.0, rng);
        const std::string shape = Shape(rows, cols, n);
        ExpectSameBits(s.MatMulDense(x), NaiveSparse(s, x),
                       "MatMulDense " + shape);
        ExpectSameBits(s.TransposeMatMulDense(g), NaiveSparseTranspose(s, g),
                       "TransposeMatMulDense " + shape);
      }
}

/// Runs `table`'s product kernel over all rows of `out` (accumulating).
void RunProducts(const Table& table, const std::vector<Term>& terms,
                 bool skip_zero, Tensor& out) {
  table.products(terms.data(), static_cast<int>(terms.size()), skip_zero,
                 out.data(), out.cols(), 0, static_cast<size_t>(out.rows()));
}

TEST(KernelsTest, ProductsAccumulateIntoANonZeroOutput) {
  Rng rng(20);
  for (const Table* table : {&kernels::Kernels(), &kernels::BaselineKernels()})
    for (int m : {1, 5, 12, 17})
      for (int k : {1, 4, 9, 33})
        for (int n : {1, 3, 12, 49}) {
          const Tensor a = WithZeros(m, k, rng);
          const Tensor b = Tensor::RandomNormal(k, n, 1.0, rng);
          const Tensor c = Tensor::RandomNormal(m, n, 1.0, rng);
          // c(i, j) + a(i, 0) b(0, j) + a(i, 1) b(1, j) + ..., zeros skipped.
          Tensor want = c;
          for (int i = 0; i < m; ++i)
            for (int j = 0; j < n; ++j)
              for (int p = 0; p < k; ++p)
                if (a.At(i, p) != 0.0) want.At(i, j) += a.At(i, p) * b.At(p, j);
          Tensor got = c;
          RunProducts(*table, {{a.data(), static_cast<size_t>(k), 1, k,
                                b.data()}},
                      /*skip_zero=*/true, got);
          ExpectSameBits(got, want,
                         std::string(table->name) + " " + Shape(m, k, n));
        }
}

TEST(KernelsTest, ParallelBranchesEqualNaiveLoopsAtOneAndFourThreads) {
  const size_t saved = parallel::ConfiguredThreads();
  Rng rng(14);
  // 96^3 multiply-adds and 2^13 nonzeros x 64 columns: past both cutoffs.
  const Tensor a = WithZeros(96, 96, rng);
  const Tensor b = Tensor::RandomNormal(96, 96, 1.0, rng);
  const CsrMatrix s = RandomSparse(256, 256, 0.125, rng);
  const Tensor x = Tensor::RandomNormal(256, 64, 1.0, rng);
  for (size_t threads : {1u, 4u}) {
    parallel::SetThreads(threads);
    const std::string at = " at " + std::to_string(threads) + " threads";
    ExpectSameBits(MatMul(a, b), NaiveMatMul(a, b), "MatMul" + at);
    ExpectSameBits(MatMulTransposeA(a, b), NaiveTransposeA(a, b),
                   "MatMulTransposeA" + at);
    ExpectSameBits(MatMulTransposeB(a, b), NaiveTransposeB(a, b),
                   "MatMulTransposeB" + at);
    ExpectSameBits(MatMulSum({&a, &b}, {&b, &a}),
                   Add(NaiveMatMul(a, b), NaiveMatMul(b, a)),
                   "MatMulSum" + at);
    ExpectSameBits(s.MatMulDense(x), NaiveSparse(s, x), "MatMulDense" + at);
    ExpectSameBits(s.TransposeMatMulDense(x), NaiveSparseTranspose(s, x),
                   "TransposeMatMulDense" + at);
  }
  parallel::SetThreads(saved);
}

// ---- AVX2 and baseline side by side -------------------------------------------

/// The AVX2 table, or skips the test on a host without AVX2.
#define REQUIRE_AVX2(table)                                                \
  const Table* table = kernels::Avx2Kernels();                             \
  if (table == nullptr) GTEST_SKIP() << "this CPU has no AVX2; only the "  \
                                        "baseline kernels can run here"

TEST(KernelsTest, Avx2AndBaselineProductsAreBitEqual) {
  REQUIRE_AVX2(avx2);
  const Table& base = kernels::BaselineKernels();
  Rng rng(15);
  for (int m : kSizes)
    for (int k : kSizes)
      for (int n : kSizes) {
        const Tensor a0 = WithZeros(m, k, rng);
        const Tensor a1 = WithZeros(m, n, rng);
        Tensor b0 = Tensor::RandomNormal(k, n, 1.0, rng);
        b0.At(0, 0) = kInf;
        const Tensor b1 = Tensor::RandomNormal(n, n, 1.0, rng);
        const std::vector<Term> terms = {
            {a0.data(), static_cast<size_t>(k), 1, k, b0.data()},
            {a1.data(), 1, static_cast<size_t>(m), std::min(m, n),
             b1.data()}};
        for (bool skip_zero : {true, false}) {
          // Accumulating into a non-zero C.
          const Tensor c = Tensor::RandomNormal(m, n, 1.0, rng);
          Tensor got = c, want = c;
          RunProducts(*avx2, terms, skip_zero, got);
          RunProducts(base, terms, skip_zero, want);
          ExpectSameBits(got, want, "products " + Shape(m, k, n));
        }
        const CsrMatrix s = RandomSparse(m, k, 0.4, rng);
        const Tensor x = Tensor::RandomNormal(k, n, 1.0, rng);
        Tensor got(m, n), want(m, n);
        avx2->sparse_rows(s.row_offsets().data(), s.col_indices().data(),
                          s.values().data(), x.data(), got.data(), n, 0,
                          static_cast<size_t>(m));
        base.sparse_rows(s.row_offsets().data(), s.col_indices().data(),
                         s.values().data(), x.data(), want.data(), n, 0,
                         static_cast<size_t>(m));
        ExpectSameBits(got, want, "sparse_rows " + Shape(m, k, n));
        const Tensor g = Tensor::RandomNormal(m, n, 1.0, rng);
        Tensor got_t(k, n), want_t(k, n);
        avx2->sparse_scatter(s.row_offsets().data(), s.col_indices().data(),
                             s.values().data(), m, g.data(), got_t.data(), n,
                             0, static_cast<size_t>(k));
        base.sparse_scatter(s.row_offsets().data(), s.col_indices().data(),
                            s.values().data(), m, g.data(), want_t.data(), n,
                            0, static_cast<size_t>(k));
        ExpectSameBits(got_t, want_t, "sparse_scatter " + Shape(m, k, n));
      }
}

/// Inputs that reach every branch of the transcendentals: the full
/// argument range, tiny and huge magnitudes, and the special values.
std::vector<double> MixedInputs(size_t n) {
  std::vector<double> x;
  Rng rng(16);
  for (size_t i = 0; i < n; ++i) x.push_back(rng.Uniform(-800.0, 800.0));
  for (int e = -1074; e <= 1023; e += 7) {
    x.push_back(std::ldexp(1.0, e));
    x.push_back(-std::ldexp(1.5, e));
  }
  for (double v : {0.0, -0.0, kInf, -kInf, kNaN, -kNaN})
    x.push_back(v);
  return x;
}

TEST(KernelsTest, Avx2AndBaselineTranscendentalsAreBitEqual) {
  REQUIRE_AVX2(avx2);
  const Table& base = kernels::BaselineKernels();
  const std::vector<double> x = MixedInputs(100000);
  std::vector<double> got(x.size()), want(x.size());
  using Fn = void (*)(const double*, double*, size_t);
  const std::pair<const char*, Fn Table::*> fns[] = {
      {"sigmoid", &Table::sigmoid}, {"tanh", &Table::tanh}};
  for (const auto& [name, fn] : fns) {
    (avx2->*fn)(x.data(), got.data(), x.size());
    (base.*fn)(x.data(), want.data(), x.size());
    ExpectSameBits(got.data(), want.data(), x.size(), name);
  }
  // The exponential's contract covers x <= 0 only.
  std::vector<double> neg;
  for (double v : x)
    if (!(v > 0.0)) neg.push_back(v);
  kernels::ExpForTesting(*avx2, neg.data(), got.data(), neg.size());
  kernels::ExpForTesting(base, neg.data(), want.data(), neg.size());
  ExpectSameBits(got.data(), want.data(), neg.size(), "exp");
}

TEST(KernelsTest, Avx2AndBaselineLstmCellsAreBitEqual) {
  REQUIRE_AVX2(avx2);
  const Table& base = kernels::BaselineKernels();
  Rng rng(17);
  for (int d : {1, 3, 4, 5, 12, 13}) {
    const int rows = 11, active = 7;
    const Tensor zx = Tensor::RandomNormal(active, 4 * d, 2.0, rng);
    const Tensor zh = Tensor::RandomNormal(active, 4 * d, 2.0, rng);
    const Tensor b = Tensor::RandomNormal(4, d, 1.0, rng);
    const Tensor v = Tensor::RandomNormal(3 * rows, d, 1.0, rng);
    const Tensor c_prev = Tensor::RandomNormal(rows, d, 3.0, rng);
    Tensor out[2][3];
    const Table* tables[] = {avx2, &base};
    for (int t = 0; t < 2; ++t) {
      for (auto& o : out[t]) o = Tensor(rows, 5 * d);
      kernels::LstmCellArgs args;
      args.rows = rows;
      args.d = d;
      args.active = active;
      args.zx = zx.data();
      args.zh = zh.data();
      for (int g = 0; g < 4; ++g) args.bias[g] = b.data() + g * d;
      for (int g = 0; g < 3; ++g)
        args.peephole[g] = v.data() + static_cast<size_t>(g) * rows * d;
      args.c_prev = c_prev.data();
      args.c = out[t][0].data();
      args.h = out[t][1].data();
      args.saved = out[t][2].data();
      tables[t]->lstm_cell(args);
    }
    for (int o = 0; o < 3; ++o)
      ExpectSameBits(out[0][o], out[1][o],
                     "lstm_cell output " + std::to_string(o) + " at d = " +
                         std::to_string(d));
  }
}

// ---- Transcendentals against libm ---------------------------------------------

/// Distance in units in the last place, over the ordered bit patterns, so
/// it counts subnormal steps too and is 0 for equal values.
uint64_t UlpDistance(double a, double b) {
  auto ordered = [](double x) {
    const int64_t i = std::bit_cast<int64_t>(x);
    return i < 0 ? std::numeric_limits<int64_t>::min() - i : i;
  };
  const int64_t d = ordered(a) - ordered(b);
  return static_cast<uint64_t>(d < 0 ? -d : d);
}

/// The logistic function as ag::Sigmoid computed it on libm.
double LibmSigmoid(double x) {
  if (x >= 0) return 1.0 / (1.0 + std::exp(-x));
  const double e = std::exp(x);
  return e / (1.0 + e);
}

/// Largest ulp distance of `fn` to `reference` over `x`.
template <typename Fn>
uint64_t MaxUlp(Fn fn, double (*reference)(double),
                const std::vector<double>& x) {
  std::vector<double> y(x.size());
  fn(x.data(), y.data(), x.size());
  uint64_t worst = 0;
  for (size_t i = 0; i < x.size(); ++i)
    worst = std::max(worst, UlpDistance(y[i], reference(x[i])));
  return worst;
}

/// n points evenly spread over [lo, hi].
std::vector<double> Sweep(double lo, double hi, size_t n) {
  std::vector<double> x(n);
  for (size_t i = 0; i < n; ++i)
    x[i] = lo + (hi - lo) * static_cast<double>(i) / static_cast<double>(n - 1);
  return x;
}

/// +-2^-e(1 + f) for e in [1, 80]: the tiny-argument range.
std::vector<double> TinySweep() {
  std::vector<double> x;
  for (int e = 1; e <= 80; ++e)
    for (int f = 0; f < 2000; ++f) {
      const double v = std::ldexp(1.0 + f / 2000.0, -e);
      x.push_back(v);
      x.push_back(-v);
    }
  return x;
}

double LibmExp(double x) { return std::exp(x); }
double LibmTanh(double x) { return std::tanh(x); }

TEST(KernelsTest, ExpIsWithinOneUlpOfLibm) {
  for (const Table* table : {&kernels::Kernels(), &kernels::BaselineKernels()}) {
    auto exp = [table](const double* x, double* y, size_t n) {
      kernels::ExpForTesting(*table, x, y, n);
    };
    // The whole of (-746, 0], subnormal results included, plus [-1, 0].
    EXPECT_LE(MaxUlp(exp, LibmExp, Sweep(-746.0, 0.0, 1500001)), 1u)
        << table->name;
    EXPECT_LE(MaxUlp(exp, LibmExp, Sweep(-1.0, 0.0, 500001)), 1u)
        << table->name;
    EXPECT_LE(MaxUlp(exp, LibmExp, Sweep(-745.2, -708.0, 200001)), 1u)
        << table->name << " in the subnormal range";
  }
}

TEST(KernelsTest, SigmoidIsWithinTwoUlpOfTheLibmFormula) {
  for (const Table* table : {&kernels::Kernels(), &kernels::BaselineKernels()}) {
    EXPECT_LE(MaxUlp(table->sigmoid, LibmSigmoid, Sweep(-40.0, 40.0, 1000001)),
              2u)
        << table->name;
    EXPECT_LE(MaxUlp(table->sigmoid, LibmSigmoid, TinySweep()), 2u)
        << table->name;
  }
}

TEST(KernelsTest, TanhIsWithinFourUlpOfLibm) {
  for (const Table* table : {&kernels::Kernels(), &kernels::BaselineKernels()}) {
    EXPECT_LE(MaxUlp(table->tanh, LibmTanh, Sweep(-40.0, 40.0, 1000001)), 4u)
        << table->name;
    EXPECT_LE(MaxUlp(table->tanh, LibmTanh, TinySweep()), 4u) << table->name;
  }
}

TEST(KernelsTest, SpecialValuesAreExact) {
  const Table& k = kernels::Kernels();
  const double x[] = {kNaN, kInf, -kInf, 0.0, -0.0, -745.2, -744.5, 710.0};
  constexpr size_t n = sizeof(x) / sizeof(x[0]);
  double e[n], s[n], t[n];
  kernels::ExpForTesting(k, x, e, n);
  k.sigmoid(x, s, n);
  k.tanh(x, t, n);
  EXPECT_TRUE(std::isnan(e[0]) && std::isnan(s[0]) && std::isnan(t[0]));
  // exp, for x <= 0: e^-inf = 0, e^+-0 = 1, below -745.14 rounds to +0,
  // e^-744.5 is the smallest subnormal.
  const double want_exp[] = {kNaN, 0.0, 0.0, 1.0, 1.0, 0.0,
                             std::exp(-744.5), 0.0};
  const double want_sigmoid[] = {kNaN, 1.0, 0.0, 0.5, 0.5, 0.0,
                                 LibmSigmoid(-744.5), 1.0};
  const double want_tanh[] = {kNaN, 1.0, -1.0, 0.0, -0.0, -1.0, -1.0, 1.0};
  for (size_t i = 1; i < n; ++i) {
    if (x[i] <= 0.0) {
      EXPECT_EQ(Bits(e[i]), Bits(want_exp[i])) << "exp(" << x[i] << ")";
    }
    EXPECT_EQ(Bits(s[i]), Bits(want_sigmoid[i])) << "sigmoid(" << x[i] << ")";
    EXPECT_EQ(Bits(t[i]), Bits(want_tanh[i])) << "tanh(" << x[i] << ")";
  }
  EXPECT_EQ(std::bit_cast<uint64_t>(e[6]), 1u) << "smallest subnormal";
}

TEST(KernelsTest, ValueDoesNotDependOnLaneOrTail) {
  Rng rng(18);
  const double probes[] = {-3.7, 0.25, -1e-9, 19.5, -708.9, kNaN};
  for (const Table* table : {&kernels::Kernels(), &kernels::BaselineKernels()}) {
    const Table& k = *table;
    auto exp = [&k](const double* x, double* y, size_t n) {
      kernels::ExpForTesting(k, x, y, n);
    };
    for (double probe : probes) {
      double alone[3];
      exp(&probe, &alone[0], 1);
      k.sigmoid(&probe, &alone[1], 1);
      k.tanh(&probe, &alone[2], 1);
      // Every position of arrays of 1 to 9 elements: each full lane and each
      // tail length.
      for (size_t len = 1; len <= 9; ++len)
        for (size_t at = 0; at < len; ++at) {
          std::vector<double> x(len), y(len);
          for (double& v : x) v = rng.Uniform(-30.0, 30.0);
          x[at] = probe;
          exp(x.data(), y.data(), len);
          EXPECT_EQ(Bits(y[at]), Bits(alone[0])) << k.name << " exp lane " << at;
          k.sigmoid(x.data(), y.data(), len);
          EXPECT_EQ(Bits(y[at]), Bits(alone[1]))
              << k.name << " sigmoid lane " << at;
          k.tanh(x.data(), y.data(), len);
          EXPECT_EQ(Bits(y[at]), Bits(alone[2]))
              << k.name << " tanh lane " << at;
        }
    }
  }
}

// ---- NaN reaches the cell's output --------------------------------------------

TEST(KernelsTest, NaNGateBiasPropagatesThroughTheGraphLstmStep) {
  // The trainer's non-finite guard relies on a NaN in the recurrence
  // reaching what follows it; the gate kernels must not swallow it.
  Rng rng(19);
  const int n = 6, d = 5;
  nn::GraphConvLstmCell cell(n, d, 2, rng);
  for (auto& [name, p] : cell.NamedParameters())
    if (name == "b_c") p.mutable_value().At(0, 1) = kNaN;
  const std::vector<CsrMatrix> basis = {CsrMatrix::Identity(n),
                                        CsrMatrix::Identity(n)};
  const ag::Variable x =
      ag::Variable::Leaf(Tensor::RandomNormal(n, n, 1.0, rng));
  for (bool grad : {true, false}) {
    std::optional<ag::NoGradGuard> no_grad;
    if (!grad) no_grad.emplace();
    const nn::RnnState next = cell.Step(basis, x, cell.InitialState());
    for (int r = 0; r < n; ++r) {
      EXPECT_TRUE(std::isnan(next.c.value().At(r, 1))) << "row " << r;
      EXPECT_TRUE(std::isnan(next.h.value().At(r, 1))) << "row " << r;
      EXPECT_TRUE(std::isfinite(next.h.value().At(r, 0))) << "row " << r;
    }
  }
}

}  // namespace
}  // namespace cascn
