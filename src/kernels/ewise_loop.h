// The one loop behind the memory-bound kernels (DESIGN.md §15): Relu and
// the other unary ops, the fused activation gradients, AddN, the contiguous
// cases of BroadcastBinary, BiasAdd, MaxPool and the dense optimizer
// updates.

#ifndef TFREPRO_KERNELS_EWISE_LOOP_H_
#define TFREPRO_KERNELS_EWISE_LOOP_H_

#include <cstdint>

namespace tfrepro {

// Calls fn(p[i]...) for i in [0, n), ascending: fn takes one element of
// each buffer, by reference where it writes that buffer. The buffers must
// not overlap, except that read-only buffers may be the same.
//
// The loop runs in blocks of 8 with a scalar tail. The block's fixed trip
// count and the __restrict parameters let GCC's -O2 vectorizer, which adds
// no runtime alias checks and no epilogues, if-convert and vectorize it: a
// select such as x > 0 ? x : 0 then costs no branch. __restrict has to sit
// on parameters; GCC ignores it on locals of the kernels' dispatch lambdas.
// fn runs once per element in the same arithmetic as a plain loop, so
// results are bit-identical to one; a select stays a select (never a
// multiply by a 0/1 mask), so NaN and Inf keep their meaning.
template <typename Fn, typename... T>
void ForEachElement(int64_t n, Fn fn, T* __restrict... p) {
  int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    for (int j = 0; j < 8; ++j) fn(p[i + j]...);
  }
  for (; i < n; ++i) fn(p[i]...);
}

}  // namespace tfrepro

#endif  // TFREPRO_KERNELS_EWISE_LOOP_H_
