// Packed GEMM (DESIGN.md §15). The loop nest is the usual one for a
// register-blocked multiply: for each kNc-column block of B and kKc-deep
// slice of k, B is packed into kNr-column panels; for each kMc-row block of
// A, A is packed into kMr-row panels; then a kMr x kNr micro-kernel runs
// over every (A panel, B panel) pair. Packing reads either layout through a
// (row stride, column stride) pair, which is where the transposes go, so
// all four transpose combinations run the same micro-kernel.

#include "kernels/gemm.h"

#include <algorithm>

namespace tfrepro {
namespace {

// Micro-tile: kMr rows by two 16-byte vectors of columns. 6 x 8 floats are
// twelve SSE accumulators, which with the two B vectors and the broadcast A
// value fill the sixteen registers of the baseline x86-64 ISA, no spills.
constexpr int64_t kMr = 6;
template <typename T>
constexpr int64_t kNr = 32 / sizeof(T);

// Block sizes. A kKc-deep B panel (8 KB of floats) stays in L1 while the
// micro-kernel sweeps the packed A block (kABytes) out of L2.
constexpr int64_t kKc = 256;
constexpr int64_t kABytes = 64 << 10;
constexpr int64_t kBBytes = 64 << 10;
template <typename T>
constexpr int64_t kMc = kABytes / (kKc * sizeof(T)) / kMr * kMr;
template <typename T>
constexpr int64_t kNc = kBBytes / (kKc * sizeof(T)) / kNr<T> * kNr<T>;

// Packs the rows x depth block whose (i, p) element is src[i * rs + p * cs]
// into panels of `width` rows: panel by panel, p-major, zero-filling the
// rows past `rows` in the last panel.
template <typename T>
void Pack(const T* src, int64_t rs, int64_t cs, int64_t rows, int64_t depth,
          int64_t width, T* dst) {
  for (int64_t i0 = 0; i0 < rows; i0 += width) {
    const int64_t w = std::min(width, rows - i0);
    for (int64_t p = 0; p < depth; ++p) {
      const T* s = src + i0 * rs + p * cs;
      for (int64_t i = 0; i < w; ++i) *dst++ = s[i * rs];
      for (int64_t i = w; i < width; ++i) *dst++ = T{0};
    }
  }
}

// c[kMr, kNr<T>] (row stride ldc) += the depth-kc product of one packed A
// panel and one packed B panel. The fixed trip counts, unrolled over rows,
// keep the accumulators in vector registers.
template <typename T>
void MicroKernel(int64_t kc, const T* ap, const T* bp, T* c, int64_t ldc) {
  constexpr int64_t nr = kNr<T>;
  T acc[kMr][nr];
#pragma GCC unroll 8
  for (int64_t i = 0; i < kMr; ++i) {
    for (int64_t j = 0; j < nr; ++j) acc[i][j] = c[i * ldc + j];
  }
  for (int64_t p = 0; p < kc; ++p, ap += kMr, bp += nr) {
#pragma GCC unroll 8
    for (int64_t i = 0; i < kMr; ++i) {
      for (int64_t j = 0; j < nr; ++j) acc[i][j] += ap[i] * bp[j];
    }
  }
#pragma GCC unroll 8
  for (int64_t i = 0; i < kMr; ++i) {
    for (int64_t j = 0; j < nr; ++j) c[i * ldc + j] = acc[i][j];
  }
}

// A tile cut short by the edge of c (mr < kMr or nr < kNr) runs the same
// micro-kernel on a full-size copy.
template <typename T>
void EdgeKernel(int64_t kc, const T* ap, const T* bp, T* c, int64_t ldc,
                int64_t mr, int64_t nr) {
  T tile[kMr * kNr<T>] = {};
  for (int64_t i = 0; i < mr; ++i) {
    std::copy_n(c + i * ldc, nr, tile + i * kNr<T>);
  }
  MicroKernel(kc, ap, bp, tile, kNr<T>);
  for (int64_t i = 0; i < mr; ++i) {
    std::copy_n(tile + i * kNr<T>, nr, c + i * ldc);
  }
}

}  // namespace

template <typename T>
void Gemm(const T* a, const T* b, T* c, int64_t m, int64_t k, int64_t n,
          bool transpose_a, bool transpose_b) {
  constexpr int64_t nr = kNr<T>;
  // op(a)(i, p) = a[i * a_rs + p * a_cs]; op(b)(p, j) = b[p * b_rs + j * b_cs].
  const int64_t a_rs = transpose_a ? 1 : k, a_cs = transpose_a ? m : 1;
  const int64_t b_rs = transpose_b ? 1 : n, b_cs = transpose_b ? k : 1;
  const int64_t mc = kMc<T>, nc = kNc<T>, kc = kKc;
  // The packed blocks live on the stack: no allocation per call, and unlike
  // a long-lived heap buffer they pin no malloc arena (which kept freed
  // tensor memory resident). Only the pages a problem reaches get touched.
  T a_pack[kMc<T> * kKc];
  T b_pack[kKc * kNc<T>];

  for (int64_t j0 = 0; j0 < n; j0 += nc) {
    const int64_t nb = std::min(nc, n - j0);
    for (int64_t p0 = 0; p0 < k; p0 += kc) {
      const int64_t kb = std::min(kc, k - p0);
      // B is packed as columns: its "rows" are j, its depth is p.
      Pack(b + p0 * b_rs + j0 * b_cs, b_cs, b_rs, nb, kb, nr, b_pack);
      for (int64_t i0 = 0; i0 < m; i0 += mc) {
        const int64_t mb = std::min(mc, m - i0);
        Pack(a + i0 * a_rs + p0 * a_cs, a_rs, a_cs, mb, kb, kMr, a_pack);
        for (int64_t jr = 0; jr < nb; jr += nr) {
          const T* bp = b_pack + jr * kb;
          for (int64_t ir = 0; ir < mb; ir += kMr) {
            const T* ap = a_pack + ir * kb;
            T* ct = c + (i0 + ir) * n + j0 + jr;
            if (mb - ir >= kMr && nb - jr >= nr) {
              MicroKernel(kb, ap, bp, ct, n);
            } else {
              EdgeKernel(kb, ap, bp, ct, n, std::min(kMr, mb - ir),
                         std::min(nr, nb - jr));
            }
          }
        }
      }
    }
  }
}

template void Gemm<float>(const float*, const float*, float*, int64_t,
                          int64_t, int64_t, bool, bool);
template void Gemm<double>(const double*, const double*, double*, int64_t,
                           int64_t, int64_t, bool, bool);
template void Gemm<int32_t>(const int32_t*, const int32_t*, int32_t*,
                            int64_t, int64_t, int64_t, bool, bool);
template void Gemm<int64_t>(const int64_t*, const int64_t*, int64_t*,
                            int64_t, int64_t, int64_t, bool, bool);
template void Gemm<uint8_t>(const uint8_t*, const uint8_t*, uint8_t*,
                            int64_t, int64_t, int64_t, bool, bool);

}  // namespace tfrepro
