// Tests for the autodiff library (§4.1), including numerical gradient
// checks: for each op we compare the symbolic gradient against a central
// finite difference computed through the same session.

#include "autodiff/gradients.h"

#include <gtest/gtest.h>

#include <cmath>
#include <functional>

#include "graph/ops.h"
#include "runtime/session.h"

namespace tfrepro {
namespace {

using ops::Const;

// Builds y = f(x) for a placeholder x of `x_shape`, then checks
// d(sum(y))/dx against finite differences at `x0`.
void CheckGradient(
    const std::function<Output(GraphBuilder*, Output)>& f, Tensor x0,
    double tolerance = 2e-2) {
  Graph g;
  GraphBuilder b(&g);
  Output x = ops::Placeholder(&b, DataType::kFloat, x0.shape(), "x");
  Output y = f(&b, x);
  Output loss = ops::SumAll(&b, y);
  std::vector<Output> grads;
  ASSERT_TRUE(AddGradients(&b, {loss}, {x}, {}, &grads).ok()) << b.status();
  ASSERT_TRUE(b.ok()) << b.status();
  ASSERT_TRUE(grads[0].valid());

  auto session = DirectSession::Create(g);
  ASSERT_TRUE(session.ok()) << session.status();

  auto eval_loss = [&](const Tensor& xv) -> float {
    std::vector<Tensor> out;
    TF_CHECK_OK(session.value()->Run({{"x", xv}}, {loss.name()}, {}, &out));
    return *out[0].data<float>();
  };

  std::vector<Tensor> out;
  ASSERT_TRUE(
      session.value()->Run({{"x", x0}}, {grads[0].name()}, {}, &out).ok());
  Tensor symbolic = out[0];
  ASSERT_EQ(symbolic.shape(), x0.shape());

  const float eps = 1e-2f;
  for (int64_t i = 0; i < x0.num_elements(); ++i) {
    Tensor xp = x0.Clone();
    Tensor xm = x0.Clone();
    xp.flat<float>(i) += eps;
    xm.flat<float>(i) -= eps;
    double numeric = (eval_loss(xp) - eval_loss(xm)) / (2.0 * eps);
    EXPECT_NEAR(symbolic.flat<float>(i), numeric, tolerance)
        << "at element " << i;
  }
}

TEST(GradientsTest, Square) {
  CheckGradient([](GraphBuilder* b, Output x) { return ops::Square(b, x); },
                Tensor::Vec<float>({-1.5f, 0.5f, 2.0f}));
}

TEST(GradientsTest, ExpLog) {
  CheckGradient(
      [](GraphBuilder* b, Output x) {
        return ops::Log(b, ops::Exp(b, x));
      },
      Tensor::Vec<float>({-0.5f, 0.25f, 1.0f}));
}

TEST(GradientsTest, Sqrt) {
  CheckGradient([](GraphBuilder* b, Output x) { return ops::Sqrt(b, x); },
                Tensor::Vec<float>({0.5f, 1.0f, 4.0f}));
}

TEST(GradientsTest, Tanh) {
  CheckGradient([](GraphBuilder* b, Output x) { return ops::Tanh(b, x); },
                Tensor::Vec<float>({-1.0f, 0.0f, 0.7f}));
}

TEST(GradientsTest, Sigmoid) {
  CheckGradient([](GraphBuilder* b, Output x) { return ops::Sigmoid(b, x); },
                Tensor::Vec<float>({-2.0f, 0.1f, 1.5f}));
}

TEST(GradientsTest, Relu) {
  CheckGradient([](GraphBuilder* b, Output x) { return ops::Relu(b, x); },
                Tensor::Vec<float>({-1.0f, 0.5f, 2.0f}));
}

TEST(GradientsTest, MulWithConstant) {
  CheckGradient(
      [](GraphBuilder* b, Output x) {
        return ops::Mul(b, x, Const(b, Tensor::Vec<float>({2, 3, 4})));
      },
      Tensor::Vec<float>({1.0f, -1.0f, 0.5f}));
}

TEST(GradientsTest, DivByConstant) {
  CheckGradient(
      [](GraphBuilder* b, Output x) {
        return ops::Div(b, Const(b, Tensor::Vec<float>({1, 2, 3})), x);
      },
      Tensor::Vec<float>({1.0f, 2.0f, -1.5f}));
}

TEST(GradientsTest, BroadcastAddReducesGradient) {
  // x is a row vector broadcast over a matrix; gradient must sum over rows.
  CheckGradient(
      [](GraphBuilder* b, Output x) {
        Output m = Const(b, Tensor::FromVector<float>({1, 2, 3, 4, 5, 6},
                                                      TensorShape({2, 3})));
        return ops::Mul(b, ops::Add(b, m, x), ops::Add(b, m, x));
      },
      Tensor::Vec<float>({0.5f, -0.5f, 1.0f}));
}

TEST(GradientsTest, ScalarBroadcastMul) {
  CheckGradient(
      [](GraphBuilder* b, Output x) {
        Output m = Const(b, Tensor::FromVector<float>({1, 2, 3, 4},
                                                      TensorShape({2, 2})));
        return ops::Mul(b, x, m);  // x scalar
      },
      Tensor::Scalar(1.5f));
}

TEST(GradientsTest, MatMul) {
  CheckGradient(
      [](GraphBuilder* b, Output x) {
        Output w = Const(b, Tensor::FromVector<float>({1, -2, 3, 0.5f, 1, -1},
                                                      TensorShape({3, 2})));
        return ops::MatMul(b, x, w);
      },
      Tensor::FromVector<float>({1, 2, 3, 4, 5, 6}, TensorShape({2, 3})));
}

TEST(GradientsTest, MatMulTransposed) {
  CheckGradient(
      [](GraphBuilder* b, Output x) {
        Output w = Const(b, Tensor::FromVector<float>({1, -2, 3, 0.5f, 1, -1},
                                                      TensorShape({2, 3})));
        return ops::MatMul(b, x, w, /*ta=*/false, /*tb=*/true);
      },
      Tensor::FromVector<float>({1, 2, 3, 4, 5, 6}, TensorShape({2, 3})));
}

TEST(GradientsTest, MatMulTransposeA) {
  CheckGradient(
      [](GraphBuilder* b, Output x) {
        Output w = Const(b, Tensor::FromVector<float>({1, -2, 3, 0.5f, 1, -1},
                                                      TensorShape({3, 2})));
        return ops::MatMul(b, x, w, /*ta=*/true, /*tb=*/false);
      },
      Tensor::FromVector<float>({1, 2, 3, 4, 5, 6}, TensorShape({3, 2})));
}

TEST(GradientsTest, MatMulTransposeBOnSecondOperand) {
  CheckGradient(
      [](GraphBuilder* b, Output x) {
        Output w = Const(b, Tensor::FromVector<float>({1, -2, 3, 0.5f, 1, -1},
                                                      TensorShape({2, 3})));
        return ops::MatMul(b, w, x, /*ta=*/false, /*tb=*/true);
      },
      Tensor::FromVector<float>({1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12},
                                TensorShape({4, 3})));
}

TEST(GradientsTest, BiasAdd) {
  CheckGradient(
      [](GraphBuilder* b, Output x) {
        Output m = Const(b, Tensor::FromVector<float>({1, 2, 3, 4, 5, 6},
                                                      TensorShape({2, 3})));
        return ops::Square(b, ops::BiasAdd(b, m, x));
      },
      Tensor::Vec<float>({0.1f, -0.2f, 0.3f}));
}

TEST(GradientsTest, SumReduction) {
  CheckGradient(
      [](GraphBuilder* b, Output x) {
        return ops::Square(b, ops::Sum(b, x, ops::ConstVecI32(b, {0})));
      },
      Tensor::FromVector<float>({1, 2, 3, 4, 5, 6}, TensorShape({2, 3})));
}

TEST(GradientsTest, MeanReduction) {
  CheckGradient(
      [](GraphBuilder* b, Output x) {
        return ops::Square(b, ops::MeanAll(b, x));
      },
      Tensor::FromVector<float>({1, 2, 3, 4}, TensorShape({2, 2})));
}

TEST(GradientsTest, MaxReduction) {
  CheckGradient(
      [](GraphBuilder* b, Output x) {
        return ops::MaxReduce(b, x, ops::ConstVecI32(b, {0}));
      },
      Tensor::FromVector<float>({1, 5, 3, 4, 2, 6}, TensorShape({2, 3})));
}

TEST(GradientsTest, ReshapeAndConcat) {
  CheckGradient(
      [](GraphBuilder* b, Output x) {
        Output r = ops::Reshape(b, x, {2, 2});
        Output c = ops::Concat(b, 1, {r, r});
        return ops::Square(b, c);
      },
      Tensor::Vec<float>({1, 2, 3, 4}));
}

TEST(GradientsTest, ConcatUnequalSizes) {
  CheckGradient(
      [](GraphBuilder* b, Output x) {
        Output other = Const(b, Tensor::FromVector<float>({10, 20},
                                                          TensorShape({2, 1})));
        Output r = ops::Reshape(b, x, {2, 2});
        Output c = ops::Concat(b, 1, {r, other});
        return ops::Square(b, c);
      },
      Tensor::Vec<float>({1, 2, 3, 4}));
}

TEST(GradientsTest, SliceGrad) {
  CheckGradient(
      [](GraphBuilder* b, Output x) {
        return ops::Square(b, ops::Slice(b, x, {1}, {2}));
      },
      Tensor::Vec<float>({1, 2, 3, 4}));
}

TEST(GradientsTest, TransposeGrad) {
  CheckGradient(
      [](GraphBuilder* b, Output x) {
        return ops::Square(b, ops::Transpose(b, x, {1, 0}));
      },
      Tensor::FromVector<float>({1, 2, 3, 4, 5, 6}, TensorShape({2, 3})));
}

TEST(GradientsTest, GatherGrad) {
  CheckGradient(
      [](GraphBuilder* b, Output x) {
        Output idx = Const(b, Tensor::Vec<int32_t>({2, 0, 2}));
        return ops::Square(b, ops::Gather(b, x, idx));
      },
      Tensor::FromVector<float>({1, 2, 3, 4, 5, 6}, TensorShape({3, 2})));
}

TEST(GradientsTest, PackUnpackGrad) {
  CheckGradient(
      [](GraphBuilder* b, Output x) {
        std::vector<Output> parts = ops::Unpack(b, x, 2, 0);
        return ops::Square(b, ops::Pack(b, {parts[1], parts[0]}, 0));
      },
      Tensor::FromVector<float>({1, 2, 3, 4}, TensorShape({2, 2})));
}

TEST(GradientsTest, DynamicPartitionStitchGrad) {
  // The embedding-layer routing of Figure 3 is differentiable end-to-end.
  CheckGradient(
      [](GraphBuilder* b, Output x) {
        Output parts_spec = Const(b, Tensor::Vec<int32_t>({0, 1, 0, 1}));
        std::vector<Output> parts =
            ops::DynamicPartition(b, x, parts_spec, 2);
        Output doubled = ops::Mul(b, parts[1], Const(b, 2.0f));
        Output positions = ops::Range(b, Const(b, int32_t{0}),
                                      Const(b, int32_t{4}),
                                      Const(b, int32_t{1}));
        std::vector<Output> pos_parts =
            ops::DynamicPartition(b, positions, parts_spec, 2);
        Output stitched = ops::DynamicStitch(b, pos_parts, {parts[0], doubled});
        return ops::Square(b, stitched);
      },
      Tensor::Vec<float>({1, 2, 3, 4}));
}

TEST(GradientsTest, SoftmaxGrad) {
  CheckGradient(
      [](GraphBuilder* b, Output x) {
        Output weights = Const(b, Tensor::FromVector<float>(
                                      {3, 1, -1, 2, 1, 1}, TensorShape({2, 3})));
        return ops::Mul(b, ops::Softmax(b, x), weights);
      },
      Tensor::FromVector<float>({0.5f, -0.5f, 1.0f, 0.1f, 0.2f, 0.3f},
                                TensorShape({2, 3})));
}

TEST(GradientsTest, SoftmaxCrossEntropyGrad) {
  CheckGradient(
      [](GraphBuilder* b, Output x) {
        Output labels = Const(b, Tensor::FromVector<float>(
                                     {1, 0, 0, 0, 0.5f, 0.5f},
                                     TensorShape({2, 3})));
        Node* xent = ops::SoftmaxCrossEntropyWithLogits(b, x, labels);
        return Output(xent, 0);
      },
      Tensor::FromVector<float>({0.5f, -0.5f, 1.0f, 0.1f, 0.2f, 0.3f},
                                TensorShape({2, 3})));
}

TEST(GradientsTest, SparseSoftmaxCrossEntropyGrad) {
  CheckGradient(
      [](GraphBuilder* b, Output x) {
        Output labels = Const(b, Tensor::Vec<int64_t>({2, 0}));
        Node* xent = ops::SparseSoftmaxCrossEntropyWithLogits(b, x, labels);
        return Output(xent, 0);
      },
      Tensor::FromVector<float>({0.5f, -0.5f, 1.0f, 0.1f, 0.2f, 0.3f},
                                TensorShape({2, 3})));
}

TEST(GradientsTest, Conv2DGrad) {
  CheckGradient(
      [](GraphBuilder* b, Output x) {
        Tensor filter(DataType::kFloat, TensorShape({2, 2, 1, 2}));
        for (int i = 0; i < 8; ++i) filter.flat<float>(i) = 0.1f * (i - 3);
        return ops::Conv2D(b, x, Const(b, filter), {1, 1, 1, 1}, "SAME");
      },
      Tensor::FromVector<float>({1, 2, 3, 4, 5, 6, 7, 8, 9},
                                TensorShape({1, 3, 3, 1})),
      5e-2);
}

TEST(GradientsTest, MaxPoolGrad) {
  CheckGradient(
      [](GraphBuilder* b, Output x) {
        return ops::MaxPool(b, x, {1, 2, 2, 1}, {1, 2, 2, 1}, "VALID");
      },
      Tensor::FromVector<float>({1, 5, 2, 6, 3, 7, 4, 8, 11, 15, 12, 16, 13,
                                 17, 14, 18},
                                TensorShape({1, 4, 4, 1})));
}

TEST(GradientsTest, AvgPoolGrad) {
  CheckGradient(
      [](GraphBuilder* b, Output x) {
        return ops::Square(
            b, ops::AvgPool(b, x, {1, 2, 2, 1}, {1, 2, 2, 1}, "VALID"));
      },
      Tensor::FromVector<float>({1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13,
                                 14, 15, 16},
                                TensorShape({1, 4, 4, 1})));
}

TEST(GradientsTest, ChainAccumulatesMultiplePaths) {
  // y = x*x + x*3: two paths contribute, gradients must sum (paper §4.1:
  // "sums the partial gradients that each path contributes").
  CheckGradient(
      [](GraphBuilder* b, Output x) {
        return ops::Add(b, ops::Mul(b, x, x), ops::Mul(b, x, Const(b, 3.0f)));
      },
      Tensor::Vec<float>({1.0f, -2.0f}));
}

TEST(GradientsTest, StopGradientBlocksFlow) {
  Graph g;
  GraphBuilder b(&g);
  Output x = ops::Placeholder(&b, DataType::kFloat, TensorShape(), "x");
  Output y = ops::Mul(&b, ops::StopGradient(&b, x), x);
  std::vector<Output> grads;
  ASSERT_TRUE(AddGradients(&b, {y}, {x}, {}, &grads).ok());
  // Only the non-stopped path contributes: dy/dx = stop(x) = x (not 2x).
  auto session = DirectSession::Create(g);
  std::vector<Tensor> out;
  ASSERT_TRUE(session.value()
                  ->Run({{"x", Tensor::Scalar(3.0f)}}, {grads[0].name()}, {},
                        &out)
                  .ok());
  EXPECT_FLOAT_EQ(*out[0].data<float>(), 3.0f);
}

TEST(GradientsTest, UnconnectedXGetsInvalidGradient) {
  Graph g;
  GraphBuilder b(&g);
  Output x = ops::Placeholder(&b, DataType::kFloat, TensorShape(), "x");
  Output z = ops::Placeholder(&b, DataType::kFloat, TensorShape(), "z");
  Output y = ops::Square(&b, x);
  std::vector<Output> grads;
  ASSERT_TRUE(AddGradients(&b, {y}, {x, z}, {}, &grads).ok());
  EXPECT_TRUE(grads[0].valid());
  EXPECT_FALSE(grads[1].valid());
}

TEST(GradientsTest, MissingGradientReportsOp) {
  Graph g;
  GraphBuilder b(&g);
  Output x = ops::Placeholder(&b, DataType::kFloat, TensorShape({2}), "x");
  // Sign has no registered gradient; it must be reported by name if on path.
  Output y = b.Op("Floor").Input(x).Attr("T", DataType::kFloat).Finalize();
  std::vector<Output> grads;
  Status s = AddGradients(&b, {y}, {x}, {}, &grads);
  EXPECT_FALSE(s.ok());
  EXPECT_NE(s.message().find("Floor"), std::string::npos);
}

TEST(GradientsTest, ControlFlowRejected) {
  Graph g;
  GraphBuilder b(&g);
  Output x = ops::Placeholder(&b, DataType::kFloat, TensorShape(), "x");
  Output pred = Const(&b, Tensor::Scalar(true));
  Node* sw = ops::Switch(&b, x, pred);
  Node* merge = ops::Merge(&b, {Output(sw, 0), Output(sw, 1)});
  std::vector<Output> grads;
  Status s = AddGradients(&b, {Output(merge, 0)}, {x}, {}, &grads);
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), Code::kUnimplemented);
}

TEST(GradientsTest, ClipByGlobalNorm) {
  Graph g;
  GraphBuilder b(&g);
  Output g1 = Const(&b, Tensor::Vec<float>({3, 0}));
  Output g2 = Const(&b, Tensor::Vec<float>({0, 4}));
  std::vector<Output> clipped;
  Output global_norm;
  ASSERT_TRUE(
      ClipByGlobalNorm(&b, {g1, g2}, 2.5f, &clipped, &global_norm).ok());
  auto session = DirectSession::Create(g);
  std::vector<Tensor> out;
  ASSERT_TRUE(session.value()
                  ->Run({global_norm.name(), clipped[0].name(),
                         clipped[1].name()},
                        &out)
                  .ok());
  EXPECT_FLOAT_EQ(*out[0].data<float>(), 5.0f);  // sqrt(9+16)
  EXPECT_FLOAT_EQ(out[1].flat<float>(0), 1.5f);  // 3 * 2.5/5
  EXPECT_FLOAT_EQ(out[2].flat<float>(1), 2.0f);  // 4 * 2.5/5
}

TEST(GradientsTest, ClipBelowNormIsIdentity) {
  Graph g;
  GraphBuilder b(&g);
  Output g1 = Const(&b, Tensor::Vec<float>({0.3f, 0.4f}));
  std::vector<Output> clipped;
  ASSERT_TRUE(ClipByGlobalNorm(&b, {g1}, 10.0f, &clipped).ok());
  auto session = DirectSession::Create(g);
  std::vector<Tensor> out;
  ASSERT_TRUE(session.value()->Run({clipped[0].name()}, &out).ok());
  EXPECT_FLOAT_EQ(out[0].flat<float>(0), 0.3f);
  EXPECT_FLOAT_EQ(out[0].flat<float>(1), 0.4f);
}

}  // namespace
}  // namespace tfrepro
