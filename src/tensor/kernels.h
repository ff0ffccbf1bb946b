// Vectorised kernels of the model core: the dense and sparse products, the
// gate non-linearities and the fused graph-LSTM cell.
//
// Every kernel is written once, over a lane of doubles (kernels_lanes.inc),
// and compiled twice from that one source: for the baseline target with
// two-double lanes (SSE2 on x86-64) and, on x86, for AVX2 with four-double
// lanes. Kernels() picks one of the two tables once, from the CPU it runs
// on. Each lane does the same IEEE operations in the same order (no FMA, no
// reassociation), so both tables return the same bits, and an element's
// value does not depend on its lane or on the table.

#ifndef CASCN_TENSOR_KERNELS_H_
#define CASCN_TENSOR_KERNELS_H_

#include <cstddef>

namespace cascn::kernels {

/// An output-row range's end that covers every row.
constexpr size_t kAllRows = static_cast<size_t>(-1);

/// One term A * B of a product whose output has n columns. Element (i, p)
/// of A is a[i * row_stride + p * col_stride], for p < k; B is row-major
/// with n columns, and only its leading k rows are read.
struct Term {
  const double* a = nullptr;
  size_t row_stride = 0;
  size_t col_stride = 0;
  int k = 0;
  const double* b = nullptr;
};

/// The operands of the element-wise graph-LSTM cell (ag::FusedLstmCell).
/// Matrices are row-major and d columns wide unless stated.
struct LstmCellArgs {
  int rows = 0;    // state rows
  int d = 0;       // hidden width
  int active = 0;  // leading rows that have convolutions
  // Input and hidden convolutions, active x 4d, gates stacked [i | f | o | g];
  // null when active is 0.
  const double* zx = nullptr;
  const double* zh = nullptr;
  const double* bias[4] = {};       // b_i, b_f, b_o, b_g: 1 x d each
  const double* peephole[3] = {};   // v_i, v_f, v_o, from the first state row
  const double* c_prev = nullptr;
  double* c = nullptr;
  double* h = nullptr;
  double* saved = nullptr;  // rows x 5d [i | f | g | o | tanh c], or null
};

/// One instantiation of every kernel.
struct Table {
  const char* name;
  /// Rows [i0, i1) of `out` (n columns): term 0 accumulates into out, and
  /// each later term is summed from zero on its own and then added, left to
  /// right. Every sum runs over p ascending. With skip_zero an A entry equal
  /// to zero adds nothing, so an inf or NaN in B behind it never reaches out.
  void (*products)(const Term* terms, int count, bool skip_zero, double* out,
                   int n, size_t i0, size_t i1);
  /// Rows [r0, r1) of `out` (n columns) += the CSR rows times `dense`, each
  /// row's nonzeros taken in stored order.
  void (*sparse_rows)(const int* offsets, const int* cols,
                      const double* values, const double* dense, double* out,
                      int n, size_t r0, size_t r1);
  /// The transpose of the CSR operator (`rows` rows) times `dense`, for the
  /// output rows in [c0, c1), or all of them for [0, kAllRows): output row
  /// cols[k] += values[k] * dense row r, over r ascending and each row's
  /// nonzeros in stored order.
  void (*sparse_scatter)(const int* offsets, const int* cols,
                         const double* values, int rows, const double* dense,
                         double* out, int n, size_t c0, size_t c1);
  /// y = (x >= 0 ? 1 : e) / (1 + e) with e = e^-|x|.
  void (*sigmoid)(const double* x, double* y, size_t n);
  /// y = sign(x) * (-m) / (2 + m) with m = expm1(-2|x|).
  void (*tanh)(const double* x, double* y, size_t n);
  /// The fused cell's forward; see ag::FusedLstmCell for the formulas.
  void (*lstm_cell)(const LstmCellArgs& args);
};

/// The table for this CPU: AVX2 when it has AVX2, else the baseline.
/// Chosen on first use and fixed for the life of the process.
const Table& Kernels();

/// The baseline instantiation, which runs on every host.
const Table& BaselineKernels();

/// The AVX2 instantiation, or null when the CPU (or the target) has none.
const Table* Avx2Kernels();

/// y = e^x element-wise with `table`'s instantiation of the exponential
/// behind sigmoid and tanh, which call it only for x <= 0. There it is
/// within 1 ulp of the correctly rounded value, subnormal results included;
/// NaN propagates and e^-inf = 0. Exposed for tests.
void ExpForTesting(const Table& table, const double* x, double* y, size_t n);

}  // namespace cascn::kernels

#endif  // CASCN_TENSOR_KERNELS_H_
