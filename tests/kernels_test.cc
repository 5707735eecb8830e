// Value-level tests for the kernel library: each exercises one operation's
// semantics through a real session (construction, placement, execution),
// including error paths and dtype dispatch.

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <random>
#include <thread>

#include "graph/ops.h"
#include "kernels/elementwise_functors.h"
#include "kernels/gemm.h"
#include "runtime/session.h"

namespace tfrepro {
namespace {

using ops::Const;

// Evaluates a single fetched output built by `fn`.
Tensor Eval(const std::function<Output(GraphBuilder*)>& fn) {
  Graph g;
  GraphBuilder b(&g);
  Output out = fn(&b);
  TF_CHECK_OK(b.status());
  SessionOptions options;
  options.optimizer.do_constant_folding = false;  // exercise the kernels
  auto session = DirectSession::Create(g, options);
  TF_CHECK_OK(session.status());
  std::vector<Tensor> results;
  TF_CHECK_OK(session.value()->Run({out.name()}, &results));
  return results[0];
}

Status EvalStatus(const std::function<Output(GraphBuilder*)>& fn) {
  Graph g;
  GraphBuilder b(&g);
  Output out = fn(&b);
  TF_RETURN_IF_ERROR(b.status());
  SessionOptions options;
  options.optimizer.do_constant_folding = false;
  auto session = DirectSession::Create(g, options);
  std::vector<Tensor> results;
  return session.value()->Run({out.name()}, &results);
}

std::vector<float> Vec(const Tensor& t) {
  std::vector<float> v(t.num_elements());
  for (int64_t i = 0; i < t.num_elements(); ++i) v[i] = t.flat<float>(i);
  return v;
}

TEST(KernelsTest, ElementwiseBinaryFloat) {
  Tensor r = Eval([](GraphBuilder* b) {
    return ops::Sub(b, Const(b, Tensor::Vec<float>({5, 7})),
                    Const(b, Tensor::Vec<float>({2, 10})));
  });
  EXPECT_EQ(Vec(r), (std::vector<float>{3, -3}));
}

TEST(KernelsTest, ElementwiseBinaryInt64) {
  Tensor r = Eval([](GraphBuilder* b) {
    return ops::Mul(b, Const(b, Tensor::Vec<int64_t>({1LL << 33, 3})),
                    Const(b, Tensor::Vec<int64_t>({2, 3})));
  });
  EXPECT_EQ(r.flat<int64_t>(0), 1LL << 34);
  EXPECT_EQ(r.flat<int64_t>(1), 9);
}

TEST(KernelsTest, FloorDivAndModMatchPythonSemantics) {
  Tensor q = Eval([](GraphBuilder* b) {
    return b->Op("FloorDiv")
        .Input(Const(b, Tensor::Vec<int32_t>({7, -7, 7, -7})))
        .Input(Const(b, Tensor::Vec<int32_t>({2, 2, -2, -2})))
        .Attr("T", DataType::kInt32)
        .Finalize();
  });
  EXPECT_EQ(q.flat<int32_t>(0), 3);
  EXPECT_EQ(q.flat<int32_t>(1), -4);
  EXPECT_EQ(q.flat<int32_t>(2), -4);
  EXPECT_EQ(q.flat<int32_t>(3), 3);
  Tensor m = Eval([](GraphBuilder* b) {
    return b->Op("Mod")
        .Input(Const(b, Tensor::Vec<int32_t>({7, -7})))
        .Input(Const(b, Tensor::Vec<int32_t>({3, 3})))
        .Attr("T", DataType::kInt32)
        .Finalize();
  });
  EXPECT_EQ(m.flat<int32_t>(0), 1);
  EXPECT_EQ(m.flat<int32_t>(1), 2);  // Python-style: -7 mod 3 == 2
}

TEST(KernelsTest, UnaryMathValues) {
  Tensor r = Eval([](GraphBuilder* b) {
    return ops::Exp(b, Const(b, Tensor::Vec<float>({0, 1})));
  });
  EXPECT_FLOAT_EQ(r.flat<float>(0), 1.0f);
  EXPECT_NEAR(r.flat<float>(1), std::exp(1.0f), 1e-5);
  Tensor s = Eval([](GraphBuilder* b) {
    return ops::Sign(b, Const(b, Tensor::Vec<float>({-3, 0, 9})));
  });
  EXPECT_EQ(Vec(s), (std::vector<float>{-1, 0, 1}));
}

TEST(KernelsTest, ComparisonsAndLogic) {
  Tensor r = Eval([](GraphBuilder* b) {
    Output lt = ops::Less(b, Const(b, Tensor::Vec<float>({1, 5})),
                          Const(b, Tensor::Vec<float>({3, 3})));
    Output gt = ops::Greater(b, Const(b, Tensor::Vec<float>({1, 5})),
                             Const(b, Tensor::Vec<float>({3, 3})));
    return ops::LogicalAnd(b, ops::LogicalNot(b, lt), gt);
  });
  EXPECT_FALSE(r.flat<bool>(0));
  EXPECT_TRUE(r.flat<bool>(1));
}

TEST(KernelsTest, SelectElementwiseAndVectorCond) {
  Tensor r = Eval([](GraphBuilder* b) {
    Tensor cond(DataType::kBool, TensorShape({2}));
    cond.flat<bool>(0) = true;
    cond.flat<bool>(1) = false;
    return ops::Select(b, Const(b, Tensor(cond)),
                       Const(b, Tensor::FromVector<float>({1, 2, 3, 4},
                                                          TensorShape({2, 2}))),
                       Const(b, Tensor::FromVector<float>({9, 9, 9, 9},
                                                          TensorShape({2, 2}))));
  });
  EXPECT_EQ(Vec(r), (std::vector<float>{1, 2, 9, 9}));
}

TEST(KernelsTest, CastFloatIntBool) {
  Tensor r = Eval([](GraphBuilder* b) {
    return ops::Cast(b, Const(b, Tensor::Vec<float>({1.9f, -2.7f})),
                     DataType::kInt32);
  });
  EXPECT_EQ(r.flat<int32_t>(0), 1);
  EXPECT_EQ(r.flat<int32_t>(1), -2);
  Tensor fb = Eval([](GraphBuilder* b) {
    Tensor bools(DataType::kBool, TensorShape({2}));
    bools.flat<bool>(1) = true;
    return ops::Cast(b, Const(b, Tensor(bools)), DataType::kFloat);
  });
  EXPECT_EQ(Vec(fb), (std::vector<float>{0, 1}));
}

TEST(KernelsTest, ReductionsWithKeepDims) {
  Tensor input = Tensor::FromVector<float>({1, 2, 3, 4, 5, 6},
                                           TensorShape({2, 3}));
  Tensor kept = Eval([&](GraphBuilder* b) {
    return ops::Sum(b, Const(b, Tensor(input)), ops::ConstVecI32(b, {1}),
                    /*keep_dims=*/true);
  });
  EXPECT_EQ(kept.shape().DebugString(), "[2,1]");
  EXPECT_EQ(Vec(kept), (std::vector<float>{6, 15}));
  Tensor dropped = Eval([&](GraphBuilder* b) {
    return ops::Sum(b, Const(b, Tensor(input)), ops::ConstVecI32(b, {1}));
  });
  EXPECT_EQ(dropped.shape().DebugString(), "[2]");
}

TEST(KernelsTest, ReductionNegativeAxisAndProd) {
  Tensor r = Eval([](GraphBuilder* b) {
    return b->Op("Prod")
        .Input(Const(b, Tensor::FromVector<float>({1, 2, 3, 4},
                                                  TensorShape({2, 2}))))
        .Input(ops::ConstVecI32(b, {-1}))
        .Attr("T", DataType::kFloat)
        .Attr("keep_dims", false)
        .Finalize();
  });
  EXPECT_EQ(Vec(r), (std::vector<float>{2, 12}));
}

TEST(KernelsTest, ArgMaxOverAxes) {
  Tensor input = Tensor::FromVector<float>({1, 9, 3, 8, 5, 6},
                                           TensorShape({2, 3}));
  Tensor by_row = Eval([&](GraphBuilder* b) {
    return ops::ArgMax(b, Const(b, Tensor(input)), 1);
  });
  EXPECT_EQ(by_row.flat<int64_t>(0), 1);
  EXPECT_EQ(by_row.flat<int64_t>(1), 0);
  Tensor by_col = Eval([&](GraphBuilder* b) {
    return ops::ArgMax(b, Const(b, Tensor(input)), 0);
  });
  EXPECT_EQ(by_col.flat<int64_t>(0), 1);
  EXPECT_EQ(by_col.flat<int64_t>(1), 0);
  EXPECT_EQ(by_col.flat<int64_t>(2), 1);
}

TEST(KernelsTest, ConcatAndSplitRoundTrip) {
  Tensor r = Eval([](GraphBuilder* b) {
    Output m = Const(b, Tensor::FromVector<float>({1, 2, 3, 4, 5, 6},
                                                  TensorShape({2, 3})));
    std::vector<Output> parts = ops::Split(b, 1, m, 3);
    return ops::Concat(b, 1, {parts[2], parts[1], parts[0]});
  });
  EXPECT_EQ(Vec(r), (std::vector<float>{3, 2, 1, 6, 5, 4}));
}

TEST(KernelsTest, SliceAndPadInverse) {
  Tensor r = Eval([](GraphBuilder* b) {
    Output m = Const(b, Tensor::FromVector<float>({1, 2, 3, 4, 5, 6, 7, 8, 9},
                                                  TensorShape({3, 3})));
    Output middle = ops::Slice(b, m, {1, 1}, {1, 2});  // [[5, 6]]
    Output paddings = Const(b, Tensor::FromVector<int32_t>(
                                   {1, 1, 1, 0}, TensorShape({2, 2})));
    return b->Op("Pad")
        .Input(middle)
        .Input(paddings)
        .Attr("T", DataType::kFloat)
        .Finalize();
  });
  EXPECT_EQ(r.shape().DebugString(), "[3,3]");
  EXPECT_EQ(r.matrix<float>(1, 1), 5.0f);
  EXPECT_EQ(r.matrix<float>(1, 2), 6.0f);
  EXPECT_EQ(r.matrix<float>(0, 0), 0.0f);
}

TEST(KernelsTest, SliceNegativeSizeMeansToEnd) {
  Tensor r = Eval([](GraphBuilder* b) {
    Output v = Const(b, Tensor::Vec<float>({1, 2, 3, 4, 5}));
    return ops::Slice(b, v, {2}, {-1});
  });
  EXPECT_EQ(Vec(r), (std::vector<float>{3, 4, 5}));
}

TEST(KernelsTest, TransposeTileExpandSqueeze) {
  Tensor t = Eval([](GraphBuilder* b) {
    Output m = Const(b, Tensor::FromVector<float>({1, 2, 3, 4, 5, 6},
                                                  TensorShape({2, 3})));
    return ops::Transpose(b, m, {1, 0});
  });
  EXPECT_EQ(t.shape().DebugString(), "[3,2]");
  EXPECT_EQ(t.matrix<float>(0, 1), 4.0f);

  Tensor tiled = Eval([](GraphBuilder* b) {
    return ops::Tile(b, Const(b, Tensor::Vec<float>({1, 2})), {3});
  });
  EXPECT_EQ(Vec(tiled), (std::vector<float>{1, 2, 1, 2, 1, 2}));

  Tensor expanded = Eval([](GraphBuilder* b) {
    Output e = ops::ExpandDims(b, Const(b, Tensor::Vec<float>({1, 2})), 0);
    return b->Op("Squeeze")
        .Input(e)
        .Attr("T", DataType::kFloat)
        .Finalize();
  });
  EXPECT_EQ(expanded.shape().DebugString(), "[2]");
}

TEST(KernelsTest, PackUnpackAxis1) {
  Tensor r = Eval([](GraphBuilder* b) {
    Output a = Const(b, Tensor::Vec<float>({1, 2}));
    Output c = Const(b, Tensor::Vec<float>({3, 4}));
    return ops::Pack(b, {a, c}, /*axis=*/1);
  });
  EXPECT_EQ(r.shape().DebugString(), "[2,2]");
  EXPECT_EQ(r.matrix<float>(0, 1), 3.0f);
  EXPECT_EQ(r.matrix<float>(1, 0), 2.0f);
}

TEST(KernelsTest, OneHot) {
  Tensor r = Eval([](GraphBuilder* b) {
    return ops::OneHot(b, Const(b, Tensor::Vec<int64_t>({1, 0, 3})), 4);
  });
  EXPECT_EQ(r.shape().DebugString(), "[3,4]");
  EXPECT_EQ(r.matrix<float>(0, 1), 1.0f);
  EXPECT_EQ(r.matrix<float>(0, 0), 0.0f);
  EXPECT_EQ(r.matrix<float>(2, 3), 1.0f);
}

TEST(KernelsTest, GatherOutOfRangeFails) {
  Status s = EvalStatus([](GraphBuilder* b) {
    Output params = Const(b, Tensor::FromVector<float>({1, 2, 3, 4},
                                                       TensorShape({2, 2})));
    return ops::Gather(b, params, Const(b, Tensor::Vec<int32_t>({5})));
  });
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), Code::kOutOfRange);
}

TEST(KernelsTest, UnsortedSegmentSum) {
  Tensor r = Eval([](GraphBuilder* b) {
    Output data = Const(b, Tensor::FromVector<float>({1, 2, 3, 4, 5, 6},
                                                     TensorShape({3, 2})));
    Output ids = Const(b, Tensor::Vec<int32_t>({1, 0, 1}));
    return ops::UnsortedSegmentSum(b, data, ids, Const(b, int32_t{2}));
  });
  EXPECT_EQ(r.shape().DebugString(), "[2,2]");
  EXPECT_EQ(r.matrix<float>(0, 0), 3.0f);   // row 1
  EXPECT_EQ(r.matrix<float>(1, 0), 6.0f);   // rows 0 + 2
  EXPECT_EQ(r.matrix<float>(1, 1), 8.0f);
}

TEST(KernelsTest, MatMulTransposeCombos) {
  Tensor a = Tensor::FromVector<float>({1, 2, 3, 4, 5, 6}, TensorShape({2, 3}));
  // (A^T)^T x A^T with explicit flags == A x A^T.
  Tensor r = Eval([&](GraphBuilder* b) {
    Output at = Const(b, Tensor::FromVector<float>({1, 4, 2, 5, 3, 6},
                                                   TensorShape({3, 2})));
    return ops::MatMul(b, at, at, /*ta=*/true, /*tb=*/false);
  });
  // A x A^T = [[14, 32], [32, 77]].
  EXPECT_EQ(Vec(r), (std::vector<float>{14, 32, 32, 77}));
}

// Reference kernels: the direct loops that MatMul and the Conv2D kernels
// ran before the shared GEMM, minus their skip of zero inputs (which turned
// 0 * Inf and 0 * NaN into 0).
template <typename T>
void ReferenceMatMul(const T* a, const T* b, T* c, int64_t m, int64_t k,
                     int64_t n, bool ta, bool tb) {
  for (int64_t i = 0; i < m; ++i) {
    for (int64_t j = 0; j < n; ++j) {
      T acc{0};
      for (int64_t kk = 0; kk < k; ++kk) {
        acc += (ta ? a[kk * m + i] : a[i * k + kk]) *
               (tb ? b[j * k + kk] : b[kk * n + j]);
      }
      c[i * n + j] = acc;
    }
  }
}

struct ConvGeometry {
  int64_t batch, in_h, in_w, in_c, k_h, k_w, out_c, stride;
  bool same;
  int64_t out_h() const {
    return same ? (in_h + stride - 1) / stride : (in_h - k_h) / stride + 1;
  }
  int64_t out_w() const {
    return same ? (in_w + stride - 1) / stride : (in_w - k_w) / stride + 1;
  }
  int64_t pad_top() const {
    return same ? std::max<int64_t>(0, (out_h() - 1) * stride + k_h - in_h) / 2
                : 0;
  }
  int64_t pad_left() const {
    return same ? std::max<int64_t>(0, (out_w() - 1) * stride + k_w - in_w) / 2
                : 0;
  }
};

// Visits every (input element, filter element, output element) triple the
// convolution multiplies, in the order of the direct seven-deep loop.
template <typename F>
void ForEachConvTerm(const ConvGeometry& g, F&& fn) {
  for (int64_t b = 0; b < g.batch; ++b) {
    for (int64_t oh = 0; oh < g.out_h(); ++oh) {
      for (int64_t ow = 0; ow < g.out_w(); ++ow) {
        const int64_t o = ((b * g.out_h() + oh) * g.out_w() + ow) * g.out_c;
        for (int64_t kh = 0; kh < g.k_h; ++kh) {
          const int64_t ih = oh * g.stride + kh - g.pad_top();
          if (ih < 0 || ih >= g.in_h) continue;
          for (int64_t kw = 0; kw < g.k_w; ++kw) {
            const int64_t iw = ow * g.stride + kw - g.pad_left();
            if (iw < 0 || iw >= g.in_w) continue;
            const int64_t i = ((b * g.in_h + ih) * g.in_w + iw) * g.in_c;
            const int64_t f = (kh * g.k_w + kw) * g.in_c * g.out_c;
            for (int64_t ic = 0; ic < g.in_c; ++ic) {
              for (int64_t oc = 0; oc < g.out_c; ++oc) {
                fn(i + ic, f + ic * g.out_c + oc, o + oc);
              }
            }
          }
        }
      }
    }
  }
}

template <typename T>
Tensor RandomTensor(std::mt19937* rng, const TensorShape& shape) {
  Tensor t(DataTypeToEnum<T>::value, shape);
  for (int64_t i = 0; i < t.num_elements(); ++i) {
    if constexpr (std::is_floating_point_v<T>) {
      t.flat<T>(i) = std::uniform_real_distribution<T>(-1, 1)(*rng);
    } else {
      t.flat<T>(i) =
          static_cast<T>(std::uniform_int_distribution<int>(-5, 5)(*rng));
    }
  }
  return t;
}

// Floating types agree within 1e-5 relative; integer types exactly.
template <typename T>
void ExpectAgrees(const Tensor& got, const Tensor& want,
                  const std::string& what) {
  ASSERT_EQ(got.shape(), want.shape()) << what;
  for (int64_t i = 0; i < want.num_elements(); ++i) {
    const T g = got.flat<T>(i), w = want.flat<T>(i);
    if constexpr (std::is_floating_point_v<T>) {
      ASSERT_NEAR(g, w, 1e-5 * std::max<double>(1, std::abs(w)))
          << what << " at element " << i;
    } else {
      ASSERT_EQ(g, w) << what << " at element " << i;
    }
  }
}

// Ragged sizes around the micro-tile (6 rows by 32 bytes of columns: 8
// float/int32 or 4 double/int64 columns) and past one cache block in each
// dimension (60 rows, 256 deep, 64 columns for float). k == 0 must leave
// the output all zeros.
template <typename T>
void SweepGemm() {
  std::mt19937 rng(7);
  for (bool ta : {false, true}) {
    for (bool tb : {false, true}) {
      for (int64_t m : {1, 5, 7, 9, 70}) {
        for (int64_t k : {0, 1, 3, 5, 7, 9, 300}) {
          for (int64_t n : {1, 3, 5, 7, 9, 200}) {
            Tensor a = RandomTensor<T>(&rng, ta ? TensorShape({k, m})
                                                : TensorShape({m, k}));
            Tensor b = RandomTensor<T>(&rng, tb ? TensorShape({n, k})
                                                : TensorShape({k, n}));
            Tensor got(DataTypeToEnum<T>::value, TensorShape({m, n}));
            Tensor want(DataTypeToEnum<T>::value, TensorShape({m, n}));
            Gemm(a.data<T>(), b.data<T>(), got.data<T>(), m, k, n, ta, tb);
            ReferenceMatMul(a.data<T>(), b.data<T>(), want.data<T>(), m, k, n,
                            ta, tb);
            ExpectAgrees<T>(got, want,
                            "m=" + std::to_string(m) + " k=" +
                                std::to_string(k) + " n=" + std::to_string(n) +
                                " ta=" + std::to_string(ta) +
                                " tb=" + std::to_string(tb));
            if (::testing::Test::HasFatalFailure()) return;
          }
        }
      }
    }
  }
}

TEST(GemmTest, MatchesReferenceFloat) { SweepGemm<float>(); }
TEST(GemmTest, MatchesReferenceDouble) { SweepGemm<double>(); }
TEST(GemmTest, MatchesReferenceInt32) { SweepGemm<int32_t>(); }
TEST(GemmTest, MatchesReferenceInt64) { SweepGemm<int64_t>(); }

// Each element's reduction order is fixed, so repeated calls and calls on
// two threads at once give the same bits.
TEST(GemmTest, BitIdenticalAcrossCallsAndThreads) {
  std::mt19937 rng(11);
  const int64_t m = 130, k = 600, n = 400;
  Tensor a = RandomTensor<float>(&rng, TensorShape({k, m}));
  Tensor b = RandomTensor<float>(&rng, TensorShape({k, n}));
  auto run = [&] {
    std::vector<float> c(m * n, 0.0f);
    Gemm(a.data<float>(), b.data<float>(), c.data(), m, k, n, true, false);
    return c;
  };
  const std::vector<float> first = run();
  EXPECT_EQ(run(), first);
  std::vector<float> t1, t2;
  std::thread th1([&] { t1 = run(); });
  std::thread th2([&] { t2 = run(); });
  th1.join();
  th2.join();
  EXPECT_EQ(t1, first);
  EXPECT_EQ(t2, first);
}

// The MatMul op against the reference, every dtype and transpose pair, at
// one ragged shape.
template <typename T>
void CheckMatMulOp() {
  std::mt19937 rng(3);
  const int64_t m = 7, k = 10, n = 9;
  for (bool ta : {false, true}) {
    for (bool tb : {false, true}) {
      Tensor a = RandomTensor<T>(&rng, ta ? TensorShape({k, m})
                                          : TensorShape({m, k}));
      Tensor b = RandomTensor<T>(&rng, tb ? TensorShape({n, k})
                                          : TensorShape({k, n}));
      Tensor got = Eval([&](GraphBuilder* g) {
        return ops::MatMul(g, Const(g, a), Const(g, b), ta, tb);
      });
      Tensor want(DataTypeToEnum<T>::value, TensorShape({m, n}));
      ReferenceMatMul(a.data<T>(), b.data<T>(), want.data<T>(), m, k, n, ta,
                      tb);
      ExpectAgrees<T>(got, want, "MatMul ta=" + std::to_string(ta) +
                                     " tb=" + std::to_string(tb));
    }
  }
}

TEST(KernelsTest, MatMulOpMatchesReferenceAllDtypes) {
  CheckMatMulOp<float>();
  CheckMatMulOp<double>();
  CheckMatMulOp<int32_t>();
  CheckMatMulOp<int64_t>();
}

// 0 * Inf and 0 * NaN are NaN whatever the transpose flags: A and B are
// symmetric, so every flag pair computes the same product, whose [0,0]
// element includes A[0,0] * B[0,0] = 0 * x.
TEST(KernelsTest, MatMulZeroTimesNonFiniteIsNaN) {
  for (float x : {std::numeric_limits<float>::infinity(),
                  std::numeric_limits<float>::quiet_NaN()}) {
    for (bool ta : {false, true}) {
      for (bool tb : {false, true}) {
        Tensor r = Eval([&](GraphBuilder* b) {
          return ops::MatMul(
              b,
              Const(b, Tensor::FromVector<float>({0, 1, 1, 1},
                                                 TensorShape({2, 2}))),
              Const(b, Tensor::FromVector<float>({x, 1, 1, 1},
                                                 TensorShape({2, 2}))),
              ta, tb);
        });
        EXPECT_TRUE(std::isnan(r.flat<float>(0)))
            << "x=" << x << " ta=" << ta << " tb=" << tb;
        EXPECT_EQ(r.flat<float>(3), 2.0f);
      }
    }
  }
}

TEST(KernelsTest, Conv2DZeroTimesNaNIsNaN) {
  const float nan = std::numeric_limits<float>::quiet_NaN();
  Tensor zero = Tensor::FromVector<float>({0}, TensorShape({1, 1, 1, 1}));
  Tensor nan_t = Tensor::FromVector<float>({nan}, TensorShape({1, 1, 1, 1}));
  Tensor fwd = Eval([&](GraphBuilder* b) {
    return ops::Conv2D(b, Const(b, zero), Const(b, nan_t), {1, 1, 1, 1},
                       "VALID");
  });
  EXPECT_TRUE(std::isnan(fwd.flat<float>(0)));
  Tensor filter_grad = Eval([&](GraphBuilder* b) {
    return b->Op("Conv2DBackpropFilter")
        .Input(Const(b, zero))
        .Input(ops::ConstVecI32(b, {1, 1, 1, 1}))
        .Input(Const(b, nan_t))
        .Attr("T", DataType::kFloat)
        .Attr("strides", std::vector<int64_t>{1, 1, 1, 1})
        .Attr("padding", "VALID")
        .Finalize();
  });
  EXPECT_TRUE(std::isnan(filter_grad.flat<float>(0)));
}

TEST(KernelsTest, Conv2DBackpropRejectsMismatchedGradient) {
  // The forward output of a 1x4x4x1 input through a 3x3x1x2 VALID filter is
  // [1,2,2,2]; a [1,3,3,2] gradient would be read past its end.
  Tensor input(DataType::kFloat, TensorShape({1, 4, 4, 1}));
  Tensor filter(DataType::kFloat, TensorShape({3, 3, 1, 2}));
  Tensor grad(DataType::kFloat, TensorShape({1, 3, 3, 2}));
  const std::vector<int64_t> strides = {1, 1, 1, 1};
  Status filter_status = EvalStatus([&](GraphBuilder* b) {
    return b->Op("Conv2DBackpropFilter")
        .Input(Const(b, input))
        .Input(ops::ConstVecI32(b, {3, 3, 1, 2}))
        .Input(Const(b, grad))
        .Attr("T", DataType::kFloat)
        .Attr("strides", strides)
        .Attr("padding", "VALID")
        .Finalize();
  });
  EXPECT_FALSE(filter_status.ok());
  Status input_status = EvalStatus([&](GraphBuilder* b) {
    return b->Op("Conv2DBackpropInput")
        .Input(ops::ConstVecI32(b, {1, 4, 4, 1}))
        .Input(Const(b, filter))
        .Input(Const(b, grad))
        .Attr("T", DataType::kFloat)
        .Attr("strides", strides)
        .Attr("padding", "VALID")
        .Finalize();
  });
  EXPECT_FALSE(input_status.ok());
}

// Conv2D, Conv2DBackpropInput and Conv2DBackpropFilter against the direct
// loops: SAME and VALID, strides 1 and 2, a 3x2 filter over 3 channels, one
// input large enough to span several im2col chunks and one filter whose
// im2col row outgrows a chunk.
template <typename T>
void CheckConvOps(const ConvGeometry& g) {
  std::mt19937 rng(5);
  const TensorShape in_shape({g.batch, g.in_h, g.in_w, g.in_c});
  const TensorShape f_shape({g.k_h, g.k_w, g.in_c, g.out_c});
  const TensorShape out_shape({g.batch, g.out_h(), g.out_w(), g.out_c});
  Tensor input = RandomTensor<T>(&rng, in_shape);
  Tensor filter = RandomTensor<T>(&rng, f_shape);
  Tensor grad = RandomTensor<T>(&rng, out_shape);
  Tensor want_out(DataTypeToEnum<T>::value, out_shape);
  Tensor want_din(DataTypeToEnum<T>::value, in_shape);
  Tensor want_dfilter(DataTypeToEnum<T>::value, f_shape);
  ForEachConvTerm(g, [&](int64_t i, int64_t f, int64_t o) {
    want_out.flat<T>(o) += input.flat<T>(i) * filter.flat<T>(f);
    want_din.flat<T>(i) += grad.flat<T>(o) * filter.flat<T>(f);
    want_dfilter.flat<T>(f) += input.flat<T>(i) * grad.flat<T>(o);
  });

  Graph graph;
  GraphBuilder b(&graph);
  const std::vector<int64_t> strides = {1, g.stride, g.stride, 1};
  const std::string padding = g.same ? "SAME" : "VALID";
  auto sizes = [&](const TensorShape& s) {
    return ops::ConstVecI32(&b, {static_cast<int32_t>(s.dim(0)),
                                 static_cast<int32_t>(s.dim(1)),
                                 static_cast<int32_t>(s.dim(2)),
                                 static_cast<int32_t>(s.dim(3))});
  };
  Output out = ops::Conv2D(&b, Const(&b, input), Const(&b, filter), strides,
                           padding);
  Output din = b.Op("Conv2DBackpropInput")
                   .Input(sizes(in_shape))
                   .Input(Const(&b, filter))
                   .Input(Const(&b, grad))
                   .Attr("T", DataTypeToEnum<T>::value)
                   .Attr("strides", strides)
                   .Attr("padding", padding)
                   .Finalize();
  Output dfilter = b.Op("Conv2DBackpropFilter")
                       .Input(Const(&b, input))
                       .Input(sizes(f_shape))
                       .Input(Const(&b, grad))
                       .Attr("T", DataTypeToEnum<T>::value)
                       .Attr("strides", strides)
                       .Attr("padding", padding)
                       .Finalize();
  TF_CHECK_OK(b.status());
  SessionOptions options;
  options.optimizer.do_constant_folding = false;
  auto session = DirectSession::Create(graph, options);
  TF_CHECK_OK(session.status());
  std::vector<Tensor> results;
  TF_CHECK_OK(session.value()->Run({out.name(), din.name(), dfilter.name()},
                                   &results));
  const std::string what = padding + " stride " + std::to_string(g.stride) +
                           " " + in_shape.DebugString();
  ExpectAgrees<T>(results[0], want_out, "Conv2D " + what);
  ExpectAgrees<T>(results[1], want_din, "Conv2DBackpropInput " + what);
  ExpectAgrees<T>(results[2], want_dfilter, "Conv2DBackpropFilter " + what);
}

template <typename T>
void SweepConvOps() {
  for (bool same : {true, false}) {
    for (int64_t stride : {1, 2}) {
      CheckConvOps<T>({2, 7, 6, 3, 3, 2, 5, stride, same});
    }
  }
  // VALID with the filter wider than the input: stride 2 still gives one
  // output pixel, whose taps past the input edge contribute nothing.
  CheckConvOps<T>({1, 2, 2, 3, 3, 3, 4, 2, false});
  CheckConvOps<T>({4, 24, 24, 3, 3, 3, 16, 1, true});
  // One im2col row (1x1x16500 taps) larger than the whole chunk scratch.
  CheckConvOps<T>({1, 2, 2, 16500, 1, 1, 2, 1, false});
}

TEST(KernelsTest, Conv2DOpsMatchReferenceFloat) { SweepConvOps<float>(); }
TEST(KernelsTest, Conv2DOpsMatchReferenceDouble) { SweepConvOps<double>(); }

TEST(KernelsTest, Conv2DHandComputed) {
  // 1x2x2x1 input, 2x2 filter of ones, VALID -> single sum.
  Tensor r = Eval([](GraphBuilder* b) {
    Tensor input(DataType::kFloat, TensorShape({1, 2, 2, 1}));
    for (int i = 0; i < 4; ++i) input.flat<float>(i) = i + 1;
    Tensor filter(DataType::kFloat, TensorShape({2, 2, 1, 1}));
    for (int i = 0; i < 4; ++i) filter.flat<float>(i) = 1;
    return ops::Conv2D(b, Const(b, Tensor(input)), Const(b, Tensor(filter)),
                       {1, 1, 1, 1}, "VALID");
  });
  EXPECT_EQ(r.shape().DebugString(), "[1,1,1,1]");
  EXPECT_FLOAT_EQ(*r.data<float>(), 10.0f);
}

TEST(KernelsTest, Conv2DSamePaddingShape) {
  Tensor r = Eval([](GraphBuilder* b) {
    Tensor input(DataType::kFloat, TensorShape({2, 5, 5, 3}));
    Tensor filter(DataType::kFloat, TensorShape({3, 3, 3, 8}));
    return ops::Conv2D(b, Const(b, Tensor(input)), Const(b, Tensor(filter)),
                       {1, 2, 2, 1}, "SAME");
  });
  EXPECT_EQ(r.shape().DebugString(), "[2,3,3,8]");
}

TEST(KernelsTest, MaxPoolValues) {
  Tensor r = Eval([](GraphBuilder* b) {
    Tensor input(DataType::kFloat, TensorShape({1, 2, 2, 1}));
    input.flat<float>(0) = 1;
    input.flat<float>(1) = 7;
    input.flat<float>(2) = 3;
    input.flat<float>(3) = 2;
    return ops::MaxPool(b, Const(b, Tensor(input)), {1, 2, 2, 1}, {1, 2, 2, 1},
                        "VALID");
  });
  EXPECT_FLOAT_EQ(*r.data<float>(), 7.0f);
}

TEST(KernelsTest, AvgPoolValues) {
  Tensor r = Eval([](GraphBuilder* b) {
    Tensor input(DataType::kFloat, TensorShape({1, 2, 2, 1}));
    for (int i = 0; i < 4; ++i) input.flat<float>(i) = i + 1;
    return ops::AvgPool(b, Const(b, Tensor(input)), {1, 2, 2, 1}, {1, 2, 2, 1},
                        "VALID");
  });
  EXPECT_FLOAT_EQ(*r.data<float>(), 2.5f);
}

TEST(KernelsTest, SoftmaxRowsSumToOne) {
  Tensor r = Eval([](GraphBuilder* b) {
    return ops::Softmax(b, Const(b, Tensor::FromVector<float>(
                                        {1, 2, 3, 1000, 1001, 1002},
                                        TensorShape({2, 3}))));
  });
  for (int row = 0; row < 2; ++row) {
    float sum = 0;
    for (int c = 0; c < 3; ++c) sum += r.matrix<float>(row, c);
    EXPECT_NEAR(sum, 1.0f, 1e-5);
  }
  // Numerical stability: large logits must not produce NaN.
  EXPECT_FALSE(std::isnan(r.matrix<float>(1, 0)));
  // Softmax is shift-invariant, so the two rows are identical.
  EXPECT_NEAR(r.matrix<float>(0, 0), r.matrix<float>(1, 0), 1e-5);
}

TEST(KernelsTest, SparseXentLossMatchesManual) {
  Tensor r = Eval([](GraphBuilder* b) {
    Output logits = Const(b, Tensor::FromVector<float>({0, 0, 0},
                                                       TensorShape({1, 3})));
    Node* xent = ops::SparseSoftmaxCrossEntropyWithLogits(
        b, logits, Const(b, Tensor::Vec<int64_t>({1})));
    return Output(xent, 0);
  });
  EXPECT_NEAR(r.flat<float>(0), std::log(3.0f), 1e-5);
}

TEST(KernelsTest, RandomSeedDeterminism) {
  auto draw = [](int64_t seed) {
    return Eval([seed](GraphBuilder* b) {
      return ops::RandomUniform(b, {8}, DataType::kFloat, seed);
    });
  };
  Tensor a = draw(5);
  Tensor b2 = draw(5);
  Tensor c = draw(6);
  EXPECT_EQ(Vec(a), Vec(b2));   // same seed, fresh kernels -> same stream
  EXPECT_NE(Vec(a), Vec(c));    // different seed -> different stream
}

TEST(KernelsTest, FillAndRange) {
  Tensor f = Eval([](GraphBuilder* b) {
    return ops::Fill(b, ops::ConstVecI32(b, {2, 2}), Const(b, 3.5f));
  });
  EXPECT_EQ(Vec(f), (std::vector<float>{3.5f, 3.5f, 3.5f, 3.5f}));
  Tensor r = Eval([](GraphBuilder* b) {
    return ops::Range(b, Const(b, int32_t{2}), Const(b, int32_t{9}),
                      Const(b, int32_t{3}));
  });
  EXPECT_EQ(r.num_elements(), 3);
  EXPECT_EQ(r.flat<int32_t>(2), 8);
}

TEST(KernelsTest, ShapeRankSize) {
  Graph g;
  GraphBuilder b(&g);
  Output m = Const(&b, Tensor(DataType::kFloat, TensorShape({2, 3, 4})));
  Output shape = ops::Shape(&b, m);
  Output rank = ops::Rank(&b, m);
  Output size = ops::Size(&b, m);
  TF_CHECK_OK(b.status());
  SessionOptions options;
  options.optimizer.do_constant_folding = false;
  auto session = DirectSession::Create(g, options);
  std::vector<Tensor> out;
  TF_CHECK_OK(
      session.value()->Run({shape.name(), rank.name(), size.name()}, &out));
  EXPECT_EQ(out[0].flat<int32_t>(1), 3);
  EXPECT_EQ(*out[1].data<int32_t>(), 3);
  EXPECT_EQ(*out[2].data<int32_t>(), 24);
}

TEST(KernelsTest, ReshapeWithInferredDim) {
  Tensor r = Eval([](GraphBuilder* b) {
    Output v = Const(b, Tensor::Vec<float>({1, 2, 3, 4, 5, 6}));
    return ops::Reshape(b, v, {2, -1});
  });
  EXPECT_EQ(r.shape().DebugString(), "[2,3]");
}

TEST(KernelsTest, ScatterUpdateReplacesRows) {
  Graph g;
  GraphBuilder b(&g);
  Output v = ops::Variable(&b, DataType::kFloat, TensorShape({3, 2}), "v");
  Output init = ops::Assign(
      &b, v, Const(&b, Tensor::FromVector<float>({0, 0, 0, 0, 0, 0},
                                                 TensorShape({3, 2}))));
  Output upd = b.Op("ScatterUpdate")
                   .Input(v)
                   .Input(Const(&b, Tensor::Vec<int32_t>({2})))
                   .Input(Const(&b, Tensor::FromVector<float>(
                                        {7, 8}, TensorShape({1, 2}))))
                   .Attr("T", DataType::kFloat)
                   .Attr("Tindices", DataType::kInt32)
                   .Finalize();
  Output read = ops::Identity(&b, v);
  TF_CHECK_OK(b.status());
  auto session = DirectSession::Create(g);
  TF_CHECK_OK(session.value()->Run({}, {}, {init.node->name()}, nullptr));
  TF_CHECK_OK(session.value()->Run({}, {}, {upd.node->name()}, nullptr));
  std::vector<Tensor> out;
  TF_CHECK_OK(session.value()->Run({read.name()}, &out));
  EXPECT_EQ(out[0].matrix<float>(2, 0), 7.0f);
  EXPECT_EQ(out[0].matrix<float>(2, 1), 8.0f);
  EXPECT_EQ(out[0].matrix<float>(0, 0), 0.0f);
}

TEST(KernelsTest, CountUpToLimit) {
  Graph g;
  GraphBuilder b(&g);
  Output v = ops::Variable(&b, DataType::kInt64, TensorShape(), "counter");
  Output init = ops::Assign(&b, v, Const(&b, Tensor::Scalar(int64_t{0})));
  Output next = b.Op("CountUpTo")
                    .Input(v)
                    .Attr("T", DataType::kInt64)
                    .Attr("limit", int64_t{3})
                    .Finalize();
  TF_CHECK_OK(b.status());
  auto session = DirectSession::Create(g);
  TF_CHECK_OK(session.value()->Run({}, {}, {init.node->name()}, nullptr));
  for (int i = 0; i < 3; ++i) {
    std::vector<Tensor> out;
    TF_CHECK_OK(session.value()->Run({next.name()}, &out));
    EXPECT_EQ(*out[0].data<int64_t>(), i);
  }
  std::vector<Tensor> out;
  Status s = session.value()->Run({next.name()}, &out);
  EXPECT_EQ(s.code(), Code::kOutOfRange);
}

TEST(KernelsTest, SumToShapeOfInverseBroadcast) {
  Tensor r = Eval([](GraphBuilder* b) {
    Output grad = Const(b, Tensor::FromVector<float>({1, 2, 3, 4, 5, 6},
                                                     TensorShape({2, 3})));
    Output target = Const(b, Tensor::Vec<float>({0, 0, 0}));
    return ops::SumToShapeOf(b, grad, target);
  });
  EXPECT_EQ(Vec(r), (std::vector<float>{5, 7, 9}));
  Tensor scalar = Eval([](GraphBuilder* b) {
    Output grad = Const(b, Tensor::Vec<float>({1, 2, 3}));
    return ops::SumToShapeOf(b, grad, Const(b, 0.0f));
  });
  EXPECT_FLOAT_EQ(*scalar.data<float>(), 6.0f);
}

TEST(KernelsTest, AddNAccumulates) {
  Tensor r = Eval([](GraphBuilder* b) {
    Output x = Const(b, Tensor::Vec<float>({1, 1}));
    return ops::AddN(b, {x, x, x, x});
  });
  EXPECT_EQ(Vec(r), (std::vector<float>{4, 4}));
}

TEST(KernelsTest, BiasAddRankThree) {
  Tensor r = Eval([](GraphBuilder* b) {
    Tensor value(DataType::kFloat, TensorShape({2, 2, 2}));
    return ops::BiasAdd(b, Const(b, Tensor(value)),
                        Const(b, Tensor::Vec<float>({10, 20})));
  });
  EXPECT_EQ(r.flat<float>(0), 10.0f);
  EXPECT_EQ(r.flat<float>(1), 20.0f);
  EXPECT_EQ(r.flat<float>(7), 20.0f);
}

// Reference loops for the kernels on kernels/ewise_loop.h: the plain scalar
// loops those kernels ran before it, applying the same per-element
// arithmetic. Each kernel must match its reference bit for bit (memcmp) on
// inputs that mix signs with +-0, +-Inf and NaN, at lengths around the
// helper's block of 8 and at the convnet's 1 MB activations. The one
// exception is which NaN a NaN result is: IEEE 754 leaves open which input
// NaN an operation returns, and GCC swaps the operands of + and * freely,
// so a sum of -NaN (from Inf - Inf) and NaN may come out as either.
const int64_t kEwiseLengths[] = {0, 1, 7, 8, 9, 17, 262144};

template <typename T>
Tensor SpecialTensor(std::mt19937* rng, const TensorShape& shape) {
  const T special[] = {T{0}, -T{0}, std::numeric_limits<T>::infinity(),
                       -std::numeric_limits<T>::infinity(),
                       std::numeric_limits<T>::quiet_NaN()};
  Tensor t(DataTypeToEnum<T>::value, shape);
  const int64_t n = t.num_elements();
  for (int64_t i = 0; i < n; ++i) {
    const int pick = std::uniform_int_distribution<int>(0, 15)(*rng);
    t.flat<T>(i) = pick < 5 ? special[pick]
                            : std::uniform_real_distribution<T>(-2, 2)(*rng);
  }
  return t;
}

// The reference tensor with element i set to f(i).
template <typename T, typename F>
Tensor ReferenceTensor(const TensorShape& shape, F&& f) {
  Tensor t(DataTypeToEnum<T>::value, shape);
  const int64_t n = t.num_elements();
  for (int64_t i = 0; i < n; ++i) t.flat<T>(i) = f(i);
  return t;
}

template <typename T>
void ExpectBitIdentical(const Tensor& got, const Tensor& want,
                        const std::string& what) {
  ASSERT_EQ(got.shape(), want.shape()) << what;
  const int64_t n = want.num_elements();
  for (int64_t i = 0; i < n; ++i) {
    if constexpr (std::is_floating_point_v<T>) {
      if (std::isnan(got.data<T>()[i]) && std::isnan(want.data<T>()[i])) {
        continue;
      }
    }
    ASSERT_EQ(std::memcmp(got.data<T>() + i, want.data<T>() + i, sizeof(T)),
              0)
        << what << " at element " << i << ": " << got.data<T>()[i]
        << " vs " << want.data<T>()[i];
  }
}

// Runs `op` with T = the first input's dtype over Const inputs.
Tensor EvalOp(const std::string& op, const std::vector<Tensor>& inputs) {
  return Eval([&](GraphBuilder* b) {
    NodeBuilder node = b->Op(op);
    for (const Tensor& t : inputs) node.Input(Const(b, t));
    return node.Attr("T", inputs[0].dtype()).Finalize();
  });
}

template <typename T>
void CheckUnaryOps() {
  const std::vector<std::pair<const char*, T (*)(T)>> ops = {
      {"Neg", &NegFunc::Run<T>},       {"Exp", &ExpFunc::Run<T>},
      {"Log", &LogFunc::Run<T>},       {"Sqrt", &SqrtFunc::Run<T>},
      {"Rsqrt", &RsqrtFunc::Run<T>},   {"Square", &SquareFunc::Run<T>},
      {"Abs", &AbsFunc::Run<T>},       {"Sign", &SignFunc::Run<T>},
      {"Tanh", &TanhFunc::Run<T>},     {"Sigmoid", &SigmoidFunc::Run<T>},
      {"Relu", &ReluFunc::Run<T>},     {"Floor", &FloorFunc::Run<T>},
      {"Ceil", &CeilFunc::Run<T>},     {"Reciprocal", &ReciprocalFunc::Run<T>},
  };
  std::mt19937 rng(21);
  for (int64_t n : kEwiseLengths) {
    const Tensor x = SpecialTensor<T>(&rng, TensorShape({n}));
    for (const auto& [name, fn] : ops) {
      const Tensor want = ReferenceTensor<T>(
          x.shape(), [&](int64_t i) { return fn(x.flat<T>(i)); });
      ExpectBitIdentical<T>(EvalOp(name, {x}), want,
                            std::string(name) + " n=" + std::to_string(n));
      if (::testing::Test::HasFatalFailure()) return;
    }
  }
}

TEST(EwiseKernelsTest, UnaryOpsMatchReferenceFloat) { CheckUnaryOps<float>(); }
TEST(EwiseKernelsTest, UnaryOpsMatchReferenceDouble) {
  CheckUnaryOps<double>();
}

template <typename T>
void CheckActivationGrads() {
  std::mt19937 rng(22);
  for (int64_t n : kEwiseLengths) {
    const TensorShape shape({n});
    const Tensor a = SpecialTensor<T>(&rng, shape);
    const Tensor b = SpecialTensor<T>(&rng, shape);
    const std::string len = " n=" + std::to_string(n);
    // ReluGrad(g = a, x = b).
    ExpectBitIdentical<T>(
        EvalOp("ReluGrad", {a, b}),
        ReferenceTensor<T>(shape,
                           [&](int64_t i) {
                             return b.flat<T>(i) > T{0} ? a.flat<T>(i) : T{0};
                           }),
        "ReluGrad" + len);
    // SigmoidGrad and TanhGrad (y = a, dy = b).
    ExpectBitIdentical<T>(
        EvalOp("SigmoidGrad", {a, b}),
        ReferenceTensor<T>(shape,
                           [&](int64_t i) {
                             const T y = a.flat<T>(i);
                             return b.flat<T>(i) * y * (T{1} - y);
                           }),
        "SigmoidGrad" + len);
    ExpectBitIdentical<T>(
        EvalOp("TanhGrad", {a, b}),
        ReferenceTensor<T>(shape,
                           [&](int64_t i) {
                             const T y = a.flat<T>(i);
                             return b.flat<T>(i) * (T{1} - y * y);
                           }),
        "TanhGrad" + len);
    // AddN of three: ((0 + a) + b) + a.
    const Tensor sum = Eval([&](GraphBuilder* g) {
      return ops::AddN(g, {Const(g, a), Const(g, b), Const(g, a)});
    });
    ExpectBitIdentical<T>(
        sum,
        ReferenceTensor<T>(shape,
                           [&](int64_t i) {
                             T acc{0};
                             acc += a.flat<T>(i);
                             acc += b.flat<T>(i);
                             acc += a.flat<T>(i);
                             return acc;
                           }),
        "AddN" + len);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

TEST(EwiseKernelsTest, ActivationGradsAndAddNMatchReferenceFloat) {
  CheckActivationGrads<float>();
}
TEST(EwiseKernelsTest, ActivationGradsAndAddNMatchReferenceDouble) {
  CheckActivationGrads<double>();
}

// ReluGrad is a select: a non-finite gradient where x <= 0 gives +0, which
// g * (x > 0) would turn into NaN.
TEST(EwiseKernelsTest, ReluGradDropsNonFiniteGradientWhereInputNotPositive) {
  const float inf = std::numeric_limits<float>::infinity();
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const Tensor g = Tensor::Vec<float>({inf, -inf, nan, nan, inf});
  const Tensor x = Tensor::Vec<float>({0.0f, -0.0f, -1.0f, -inf, nan});
  const Tensor got = EvalOp("ReluGrad", {g, x});
  for (int64_t i = 0; i < 5; ++i) {
    EXPECT_EQ(got.flat<float>(i), 0.0f) << i;
    EXPECT_FALSE(std::signbit(got.flat<float>(i))) << i;
  }
}

// The three contiguous cases of BroadcastBinary: equal shapes, scalar a,
// scalar b.
template <typename T, typename Functor, typename Out = T>
void CheckBroadcastFastPaths(const std::string& op, std::mt19937* rng) {
  for (int64_t n : kEwiseLengths) {
    const TensorShape shape({n});
    const Tensor a = SpecialTensor<T>(rng, shape);
    const Tensor b = SpecialTensor<T>(rng, shape);
    const Tensor s = SpecialTensor<T>(rng, TensorShape({}));
    const T sv = s.flat<T>(0);
    const std::string len = " n=" + std::to_string(n);
    ExpectBitIdentical<Out>(
        EvalOp(op, {a, b}),
        ReferenceTensor<Out>(shape,
                             [&](int64_t i) {
                               return Functor::template Run<T>(a.flat<T>(i),
                                                               b.flat<T>(i));
                             }),
        op + " equal shapes" + len);
    ExpectBitIdentical<Out>(
        EvalOp(op, {s, b}),
        ReferenceTensor<Out>(shape,
                             [&](int64_t i) {
                               return Functor::template Run<T>(sv,
                                                               b.flat<T>(i));
                             }),
        op + " scalar a" + len);
    ExpectBitIdentical<Out>(
        EvalOp(op, {a, s}),
        ReferenceTensor<Out>(shape,
                             [&](int64_t i) {
                               return Functor::template Run<T>(a.flat<T>(i),
                                                               sv);
                             }),
        op + " scalar b" + len);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

struct LessThan {
  template <typename T>
  static bool Run(T x, T y) {
    return x < y;
  }
};

template <typename T>
void CheckBroadcastOps() {
  std::mt19937 rng(23);
  CheckBroadcastFastPaths<T, AddFunc>("Add", &rng);
  CheckBroadcastFastPaths<T, SubFunc>("Sub", &rng);
  CheckBroadcastFastPaths<T, MulFunc>("Mul", &rng);
  CheckBroadcastFastPaths<T, DivFunc>("Div", &rng);
  CheckBroadcastFastPaths<T, MaximumFunc>("Maximum", &rng);
  CheckBroadcastFastPaths<T, MinimumFunc>("Minimum", &rng);
  CheckBroadcastFastPaths<T, SquaredDifferenceFunc>("SquaredDifference",
                                                    &rng);
  CheckBroadcastFastPaths<T, LessThan, bool>("Less", &rng);
}

TEST(EwiseKernelsTest, BroadcastFastPathsMatchReferenceFloat) {
  CheckBroadcastOps<float>();
}
TEST(EwiseKernelsTest, BroadcastFastPathsMatchReferenceDouble) {
  CheckBroadcastOps<double>();
}

// BiasAdd and BiasAddGrad at rank 2 and rank 4, channel counts around the
// block of 8; BiasAddGrad sums rows in order from 0.
template <typename T>
void CheckBiasOps() {
  std::mt19937 rng(24);
  for (const TensorShape& shape :
       {TensorShape({5, 1}), TensorShape({3, 7}), TensorShape({4, 8}),
        TensorShape({6, 9}), TensorShape({64, 512}), TensorShape({0, 17}),
        TensorShape({2, 3, 2, 17}), TensorShape({64, 8, 8, 32}),
        TensorShape({1, 2, 2, 3})}) {
    const int64_t c = shape.dim(shape.rank() - 1);
    const Tensor value = SpecialTensor<T>(&rng, shape);
    const Tensor bias = SpecialTensor<T>(&rng, TensorShape({c}));
    ExpectBitIdentical<T>(
        EvalOp("BiasAdd", {value, bias}),
        ReferenceTensor<T>(shape,
                           [&](int64_t i) {
                             return value.flat<T>(i) + bias.flat<T>(i % c);
                           }),
        "BiasAdd " + shape.DebugString());
    const int64_t rows = shape.num_elements() / c;
    ExpectBitIdentical<T>(
        EvalOp("BiasAddGrad", {value}),
        ReferenceTensor<T>(TensorShape({c}),
                           [&](int64_t j) {
                             T acc{0};
                             for (int64_t r = 0; r < rows; ++r) {
                               acc += value.flat<T>(r * c + j);
                             }
                             return acc;
                           }),
        "BiasAddGrad " + shape.DebugString());
    if (::testing::Test::HasFatalFailure()) return;
  }
}

TEST(EwiseKernelsTest, BiasOpsMatchReferenceFloat) { CheckBiasOps<float>(); }
TEST(EwiseKernelsTest, BiasOpsMatchReferenceDouble) { CheckBiasOps<double>(); }

// The direct MaxPool loop: per output element, taps in (kh, kw) order,
// keeping a tap only when it is greater than the best so far.
template <typename T>
Tensor ReferenceMaxPool(const Tensor& in, const ConvGeometry& g) {
  Tensor out(DataTypeToEnum<T>::value,
             TensorShape({g.batch, g.out_h(), g.out_w(), g.in_c}));
  for (int64_t b = 0; b < g.batch; ++b) {
    for (int64_t oh = 0; oh < g.out_h(); ++oh) {
      for (int64_t ow = 0; ow < g.out_w(); ++ow) {
        for (int64_t c = 0; c < g.in_c; ++c) {
          T best = std::numeric_limits<T>::lowest();
          for (int64_t kh = 0; kh < g.k_h; ++kh) {
            const int64_t ih = oh * g.stride + kh - g.pad_top();
            if (ih < 0 || ih >= g.in_h) continue;
            for (int64_t kw = 0; kw < g.k_w; ++kw) {
              const int64_t iw = ow * g.stride + kw - g.pad_left();
              if (iw < 0 || iw >= g.in_w) continue;
              const T v =
                  in.flat<T>(((b * g.in_h + ih) * g.in_w + iw) * g.in_c + c);
              if (v > best) best = v;
            }
          }
          out.flat<T>(((b * g.out_h() + oh) * g.out_w() + ow) * g.in_c + c) =
              best;
        }
      }
    }
  }
  return out;
}

// Ties (values from a small set, +0 against -0 included), NaN inside
// windows, SAME padding, and in_c of 1, 3, 8 and 19.
template <typename T>
void CheckMaxPool() {
  std::mt19937 rng(25);
  const T values[] = {T{-1}, T{0}, -T{0}, T{1}, T{2},
                      std::numeric_limits<T>::quiet_NaN()};
  for (int64_t in_c : {1, 3, 8, 19}) {
    for (bool same : {true, false}) {
      for (auto [k, stride] : {std::pair<int64_t, int64_t>{2, 2}, {3, 2},
                               {3, 1}}) {
        const ConvGeometry g{2, 7, 6, in_c, k, k, in_c, stride, same};
        Tensor in(DataTypeToEnum<T>::value,
                  TensorShape({g.batch, g.in_h, g.in_w, in_c}));
        for (int64_t i = 0; i < in.num_elements(); ++i) {
          in.flat<T>(i) = values[std::uniform_int_distribution<int>(0, 5)(rng)];
        }
        const std::vector<int64_t> ksize = {1, k, k, 1};
        const std::vector<int64_t> strides = {1, stride, stride, 1};
        const Tensor got = Eval([&](GraphBuilder* b) {
          return ops::MaxPool(b, Const(b, in), ksize, strides,
                              same ? "SAME" : "VALID");
        });
        ExpectBitIdentical<T>(got, ReferenceMaxPool<T>(in, g),
                              "MaxPool in_c=" + std::to_string(in_c) +
                                  " k=" + std::to_string(k) + " stride=" +
                                  std::to_string(stride) +
                                  (same ? " SAME" : " VALID"));
        if (::testing::Test::HasFatalFailure()) return;
      }
    }
  }
}

TEST(EwiseKernelsTest, MaxPoolMatchesReferenceFloat) { CheckMaxPool<float>(); }
TEST(EwiseKernelsTest, MaxPoolMatchesReferenceDouble) {
  CheckMaxPool<double>();
}

// One ApplyGradientDescent or ApplyMomentum step on variables initialized
// from special values; returns var and, for momentum, accum.
template <typename T>
std::vector<Tensor> RunApply(bool momentum, const Tensor& var0,
                             const Tensor& accum0, const Tensor& grad, T lr,
                             T mom) {
  const DataType dt = DataTypeToEnum<T>::value;
  Graph graph;
  GraphBuilder b(&graph);
  Output var = ops::Variable(&b, dt, var0.shape(), "var");
  Output accum = ops::Variable(&b, dt, var0.shape(), "accum");
  Node* init = ops::Group(&b,
                          {ops::Assign(&b, var, Const(&b, var0)),
                           ops::Assign(&b, accum, Const(&b, accum0))},
                          "init");
  Output apply =
      momentum ? b.Op("ApplyMomentum")
                     .Input(var)
                     .Input(accum)
                     .Input(Const(&b, Tensor::Scalar(lr)))
                     .Input(Const(&b, grad))
                     .Input(Const(&b, Tensor::Scalar(mom)))
                     .Attr("T", dt)
                     .Finalize()
               : b.Op("ApplyGradientDescent")
                     .Input(var)
                     .Input(Const(&b, Tensor::Scalar(lr)))
                     .Input(Const(&b, grad))
                     .Attr("T", dt)
                     .Finalize();
  TF_CHECK_OK(b.status());
  auto session = DirectSession::Create(graph);
  TF_CHECK_OK(session.status());
  TF_CHECK_OK(session.value()->Run({}, {}, {init->name()}, nullptr));
  TF_CHECK_OK(session.value()->Run({}, {}, {apply.node->name()}, nullptr));
  std::vector<Tensor> out;
  TF_CHECK_OK(session.value()->Run({var.name(), accum.name()}, &out));
  return out;
}

template <typename T>
void CheckApplyOps() {
  std::mt19937 rng(26);
  const T lr = T(0.25), mom = T(0.875);
  for (int64_t n : kEwiseLengths) {
    const TensorShape shape({n});
    const Tensor var0 = SpecialTensor<T>(&rng, shape);
    const Tensor accum0 = SpecialTensor<T>(&rng, shape);
    const Tensor grad = SpecialTensor<T>(&rng, shape);
    const std::string len = " n=" + std::to_string(n);
    std::vector<Tensor> sgd = RunApply<T>(false, var0, accum0, grad, lr, mom);
    ExpectBitIdentical<T>(sgd[0],
                          ReferenceTensor<T>(shape,
                                             [&](int64_t i) {
                                               T v = var0.flat<T>(i);
                                               v -= lr * grad.flat<T>(i);
                                               return v;
                                             }),
                          "ApplyGradientDescent" + len);
    std::vector<Tensor> momentum =
        RunApply<T>(true, var0, accum0, grad, lr, mom);
    Tensor want_var(DataTypeToEnum<T>::value, shape);
    Tensor want_accum(DataTypeToEnum<T>::value, shape);
    for (int64_t i = 0; i < n; ++i) {
      T a = accum0.flat<T>(i);
      T v = var0.flat<T>(i);
      a = mom * a + grad.flat<T>(i);
      v -= lr * a;
      want_accum.flat<T>(i) = a;
      want_var.flat<T>(i) = v;
    }
    ExpectBitIdentical<T>(momentum[0], want_var, "ApplyMomentum var" + len);
    ExpectBitIdentical<T>(momentum[1], want_accum,
                          "ApplyMomentum accum" + len);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

TEST(EwiseKernelsTest, ApplyOpsMatchReferenceFloat) { CheckApplyOps<float>(); }
TEST(EwiseKernelsTest, ApplyOpsMatchReferenceDouble) {
  CheckApplyOps<double>();
}

TEST(EwiseKernelsTest, ApplyMomentumRejectsMismatchedShapes) {
  Graph graph;
  GraphBuilder b(&graph);
  Output var = ops::Variable(&b, DataType::kFloat, TensorShape({4}), "var");
  Output accum =
      ops::Variable(&b, DataType::kFloat, TensorShape({4}), "accum");
  Node* init = ops::Group(
      &b,
      {ops::Assign(&b, var, Const(&b, Tensor::Vec<float>({1, 2, 3, 4}))),
       ops::Assign(&b, accum, Const(&b, Tensor::Vec<float>({0, 0, 0, 0})))},
      "init");
  Output apply = b.Op("ApplyMomentum")
                     .Input(var)
                     .Input(accum)
                     .Input(Const(&b, 0.5f))
                     .Input(Const(&b, Tensor::Vec<float>({1, 1})))
                     .Input(Const(&b, 0.9f))
                     .Attr("T", DataType::kFloat)
                     .Finalize();
  TF_CHECK_OK(b.status());
  auto session = DirectSession::Create(graph);
  TF_CHECK_OK(session.status());
  TF_CHECK_OK(session.value()->Run({}, {}, {init->name()}, nullptr));
  EXPECT_FALSE(
      session.value()->Run({}, {}, {apply.node->name()}, nullptr).ok());
}

TEST(KernelsTest, DynamicPartitionEmptyPartitions) {
  Graph g;
  GraphBuilder b(&g);
  Output data = Const(&b, Tensor::Vec<float>({1, 2, 3}));
  Output partitions = Const(&b, Tensor::Vec<int32_t>({2, 2, 2}));
  std::vector<Output> parts = ops::DynamicPartition(&b, data, partitions, 3);
  TF_CHECK_OK(b.status());
  SessionOptions options;
  options.optimizer.do_constant_folding = false;
  auto session = DirectSession::Create(g, options);
  std::vector<Tensor> out;
  TF_CHECK_OK(session.value()->Run(
      {parts[0].name(), parts[1].name(), parts[2].name()}, &out));
  EXPECT_EQ(out[0].num_elements(), 0);
  EXPECT_EQ(out[1].num_elements(), 0);
  EXPECT_EQ(out[2].num_elements(), 3);
}

}  // namespace
}  // namespace tfrepro
