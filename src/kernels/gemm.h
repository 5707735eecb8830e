// The one matrix multiply behind MatMul and the Conv2D kernels (DESIGN.md
// §15): a packed, cache-blocked, register-blocked GEMM.

#ifndef TFREPRO_KERNELS_GEMM_H_
#define TFREPRO_KERNELS_GEMM_H_

#include <cstdint>

namespace tfrepro {

// c[m,n] += op(a) * op(b), all row-major. op(a) is a[m,k], or with
// transpose_a the transpose of a[k,m]; op(b) is b[k,n], or with transpose_b
// the transpose of b[n,k].
//
// Each element of c is summed from its value in c, k ascending, with no
// term skipped, so 0 * Inf and 0 * NaN give NaN whatever the transpose
// flags. The order does not depend on the call, the thread or the blocking,
// so results are bit-reproducible. Defined for every NumericDispatch type:
// float, double, int32_t, int64_t and uint8_t.
template <typename T>
void Gemm(const T* a, const T* b, T* c, int64_t m, int64_t k, int64_t n,
          bool transpose_a, bool transpose_b);

}  // namespace tfrepro

#endif  // TFREPRO_KERNELS_GEMM_H_
