#include "tensor/kernels.h"

#include <cstdint>
#include <cstring>

namespace cascn::kernels {

namespace {

#define CASCN_INLINE inline __attribute__((always_inline))

// Two instantiations of the one lane source, kernels_lanes.inc. Each uses
// the widest lane its target keeps in registers: a lane wider than the
// vector registers would live on the stack.

namespace baseline {
using Lane = double __attribute__((vector_size(16)));
using Bits = uint64_t __attribute__((vector_size(16)));
constexpr char kTableName[] = "baseline";
#include "tensor/kernels_lanes.inc"
}  // namespace baseline

#if defined(__x86_64__) || defined(__i386__)
#define CASCN_HAVE_AVX2_KERNELS 1
#pragma GCC push_options
#pragma GCC target("avx2")
namespace avx2 {
using Lane = double __attribute__((vector_size(32)));
using Bits = uint64_t __attribute__((vector_size(32)));
constexpr char kTableName[] = "avx2";
#include "tensor/kernels_lanes.inc"
}  // namespace avx2
#pragma GCC pop_options
#endif

#undef CASCN_INLINE

}  // namespace

const Table& BaselineKernels() { return baseline::kTable; }

const Table* Avx2Kernels() {
#ifdef CASCN_HAVE_AVX2_KERNELS
  static const bool supported = [] {
    __builtin_cpu_init();
    return __builtin_cpu_supports("avx2") != 0;
  }();
  if (supported) return &avx2::kTable;
#endif
  return nullptr;
}

const Table& Kernels() {
  static const Table& table =
      Avx2Kernels() != nullptr ? *Avx2Kernels() : BaselineKernels();
  return table;
}

void ExpForTesting(const Table& table, const double* x, double* y, size_t n) {
#ifdef CASCN_HAVE_AVX2_KERNELS
  if (&table == &avx2::kTable) return avx2::ExpFn(x, y, n);
#endif
  baseline::ExpFn(x, y, n);
}

}  // namespace cascn::kernels
