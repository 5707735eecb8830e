// NumPy-style broadcasting helpers for element-wise binary kernels.

#ifndef TFREPRO_KERNELS_BROADCAST_H_
#define TFREPRO_KERNELS_BROADCAST_H_

#include <vector>

#include "core/status.h"
#include "core/tensor_shape.h"
#include "kernels/ewise_loop.h"

namespace tfrepro {

// Computes the broadcasted output shape of `a` op `b`; error if the shapes
// are incompatible.
Result<TensorShape> BroadcastShape(const TensorShape& a, const TensorShape& b);

// Element strides of `in` aligned to (right-justified against) `out`;
// broadcast dimensions get stride 0.
std::vector<int64_t> BroadcastStrides(const TensorShape& in,
                                      const TensorShape& out);

// Applies fn(a[i], b[j]) over the broadcasted iteration space.
template <typename Ta, typename Tout, typename Fn>
void BroadcastBinary(const Ta* a, const TensorShape& a_shape, const Ta* b,
                     const TensorShape& b_shape, Tout* out,
                     const TensorShape& out_shape, Fn fn) {
  int64_t n = out_shape.num_elements();
  if (a_shape == b_shape) {
    ForEachElement(n, [&](Tout& o, Ta x, Ta y) { o = fn(x, y); }, out, a, b);
    return;
  }
  if (a_shape.num_elements() == 1) {
    const Ta av = a[0];
    ForEachElement(n, [&](Tout& o, Ta y) { o = fn(av, y); }, out, b);
    return;
  }
  if (b_shape.num_elements() == 1) {
    const Ta bv = b[0];
    ForEachElement(n, [&](Tout& o, Ta x) { o = fn(x, bv); }, out, a);
    return;
  }
  std::vector<int64_t> sa = BroadcastStrides(a_shape, out_shape);
  std::vector<int64_t> sb = BroadcastStrides(b_shape, out_shape);
  int rank = out_shape.rank();
  std::vector<int64_t> index(rank, 0);
  int64_t ia = 0;
  int64_t ib = 0;
  for (int64_t i = 0; i < n; ++i) {
    out[i] = fn(a[ia], b[ib]);
    for (int d = rank - 1; d >= 0; --d) {
      ++index[d];
      ia += sa[d];
      ib += sb[d];
      if (index[d] < out_shape.dim(d)) break;
      index[d] = 0;
      ia -= sa[d] * out_shape.dim(d);
      ib -= sb[d] * out_shape.dim(d);
    }
  }
}

}  // namespace tfrepro

#endif  // TFREPRO_KERNELS_BROADCAST_H_
