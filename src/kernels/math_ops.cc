// Element-wise mathematical kernels: binary ops with broadcasting, unary
// ops, comparisons, logical ops, Select, Cast, AddN, and the fused
// activation gradients the paper calls out in §5.

#include <cmath>

#include "kernels/broadcast.h"
#include "kernels/elementwise_functors.h"
#include "kernels/dispatch.h"
#include "kernels/ewise_loop.h"
#include "runtime/kernel.h"

namespace tfrepro {
namespace {

// Binary op whose output type equals the input type.
template <typename Functor>
class BinaryOp : public OpKernel {
 public:
  using OpKernel::OpKernel;
  void Compute(OpKernelContext* ctx) override {
    Tensor a = ctx->input(0);
    Tensor b = ctx->input(1);
    OP_REQUIRES(ctx, BaseType(a.dtype()) == BaseType(b.dtype()),
                InvalidArgument("binary op input dtypes differ"));
    Result<TensorShape> out_shape = BroadcastShape(a.shape(), b.shape());
    OP_REQUIRES_OK(ctx, out_shape.status());
    Tensor out(BaseType(a.dtype()), out_shape.value());
    OP_REQUIRES_OK(ctx, NumericDispatch(a.dtype(), [&](auto tag) {
      using T = decltype(tag);
      BroadcastBinary<T, T>(a.data<T>(), a.shape(), b.data<T>(), b.shape(),
                            out.data<T>(), out.shape(),
                            [](T x, T y) { return Functor::template Run<T>(x, y); });
    }));
    ctx->set_output(0, std::move(out));
  }
};

REGISTER_KERNEL("Add", kDeviceCpu, BinaryOp<AddFunc>);
REGISTER_KERNEL("Sub", kDeviceCpu, BinaryOp<SubFunc>);
REGISTER_KERNEL("Mul", kDeviceCpu, BinaryOp<MulFunc>);
REGISTER_KERNEL("Div", kDeviceCpu, BinaryOp<DivFunc>);
REGISTER_KERNEL("FloorDiv", kDeviceCpu, BinaryOp<FloorDivFunc>);
REGISTER_KERNEL("Mod", kDeviceCpu, BinaryOp<ModFunc>);
REGISTER_KERNEL("Pow", kDeviceCpu, BinaryOp<PowFunc>);
REGISTER_KERNEL("Maximum", kDeviceCpu, BinaryOp<MaximumFunc>);
REGISTER_KERNEL("Minimum", kDeviceCpu, BinaryOp<MinimumFunc>);
REGISTER_KERNEL("SquaredDifference", kDeviceCpu, BinaryOp<SquaredDifferenceFunc>);

// Comparison ops: T x T -> bool (with broadcasting).
template <typename Functor>
class CompareOp : public OpKernel {
 public:
  using OpKernel::OpKernel;
  void Compute(OpKernelContext* ctx) override {
    Tensor a = ctx->input(0);
    Tensor b = ctx->input(1);
    Result<TensorShape> out_shape = BroadcastShape(a.shape(), b.shape());
    OP_REQUIRES_OK(ctx, out_shape.status());
    Tensor out(DataType::kBool, out_shape.value());
    OP_REQUIRES_OK(ctx, NumericDispatch(a.dtype(), [&](auto tag) {
      using T = decltype(tag);
      BroadcastBinary<T, bool>(a.data<T>(), a.shape(), b.data<T>(), b.shape(),
                               out.data<bool>(), out.shape(),
                               [](T x, T y) { return Functor::template Run<T>(x, y); });
    }));
    ctx->set_output(0, std::move(out));
  }
};

struct LessFunc {
  template <typename T>
  static bool Run(T x, T y) {
    return x < y;
  }
};
struct LessEqualFunc {
  template <typename T>
  static bool Run(T x, T y) {
    return x <= y;
  }
};
struct GreaterFunc {
  template <typename T>
  static bool Run(T x, T y) {
    return x > y;
  }
};
struct GreaterEqualFunc {
  template <typename T>
  static bool Run(T x, T y) {
    return x >= y;
  }
};
struct EqualFunc {
  template <typename T>
  static bool Run(T x, T y) {
    return x == y;
  }
};
struct NotEqualFunc {
  template <typename T>
  static bool Run(T x, T y) {
    return x != y;
  }
};

REGISTER_KERNEL("Less", kDeviceCpu, CompareOp<LessFunc>);
REGISTER_KERNEL("LessEqual", kDeviceCpu, CompareOp<LessEqualFunc>);
REGISTER_KERNEL("Greater", kDeviceCpu, CompareOp<GreaterFunc>);
REGISTER_KERNEL("GreaterEqual", kDeviceCpu, CompareOp<GreaterEqualFunc>);
REGISTER_KERNEL("Equal", kDeviceCpu, CompareOp<EqualFunc>);
REGISTER_KERNEL("NotEqual", kDeviceCpu, CompareOp<NotEqualFunc>);

// Unary ops.
template <typename Functor>
class UnaryOp : public OpKernel {
 public:
  using OpKernel::OpKernel;
  void Compute(OpKernelContext* ctx) override {
    Tensor x = ctx->input(0);
    Tensor out(BaseType(x.dtype()), x.shape());
    OP_REQUIRES_OK(ctx, NumericDispatch(x.dtype(), [&](auto tag) {
      using T = decltype(tag);
      ForEachElement(x.num_elements(),
                     [](T& o, T v) { o = Functor::template Run<T>(v); },
                     out.data<T>(), x.data<T>());
    }));
    ctx->set_output(0, std::move(out));
  }
};

REGISTER_KERNEL("Neg", kDeviceCpu, UnaryOp<NegFunc>);
REGISTER_KERNEL("Exp", kDeviceCpu, UnaryOp<ExpFunc>);
REGISTER_KERNEL("Log", kDeviceCpu, UnaryOp<LogFunc>);
REGISTER_KERNEL("Sqrt", kDeviceCpu, UnaryOp<SqrtFunc>);
REGISTER_KERNEL("Rsqrt", kDeviceCpu, UnaryOp<RsqrtFunc>);
REGISTER_KERNEL("Square", kDeviceCpu, UnaryOp<SquareFunc>);
REGISTER_KERNEL("Abs", kDeviceCpu, UnaryOp<AbsFunc>);
REGISTER_KERNEL("Sign", kDeviceCpu, UnaryOp<SignFunc>);
REGISTER_KERNEL("Tanh", kDeviceCpu, UnaryOp<TanhFunc>);
REGISTER_KERNEL("Sigmoid", kDeviceCpu, UnaryOp<SigmoidFunc>);
REGISTER_KERNEL("Relu", kDeviceCpu, UnaryOp<ReluFunc>);
REGISTER_KERNEL("Floor", kDeviceCpu, UnaryOp<FloorFunc>);
REGISTER_KERNEL("Ceil", kDeviceCpu, UnaryOp<CeilFunc>);
REGISTER_KERNEL("Reciprocal", kDeviceCpu, UnaryOp<ReciprocalFunc>);

// Fused activation gradients (paper §5).
class ReluGradOp : public OpKernel {
 public:
  using OpKernel::OpKernel;
  void Compute(OpKernelContext* ctx) override {
    Tensor g = ctx->input(0);
    Tensor x = ctx->input(1);
    OP_REQUIRES(ctx, g.shape() == x.shape(),
                InvalidArgument("ReluGrad shapes differ"));
    Tensor out(BaseType(g.dtype()), g.shape());
    OP_REQUIRES_OK(ctx, FloatDispatch(g.dtype(), [&](auto tag) {
      using T = decltype(tag);
      // A select, not g * (x > 0): a non-finite g where x <= 0 gives 0.
      ForEachElement(g.num_elements(),
                     [](T& o, T gv, T xv) { o = xv > T{0} ? gv : T{0}; },
                     out.data<T>(), g.data<T>(), x.data<T>());
    }));
    ctx->set_output(0, std::move(out));
  }
};
REGISTER_KERNEL("ReluGrad", kDeviceCpu, ReluGradOp);

// dz = dy * y * (1 - y), with y = sigmoid(x).
class SigmoidGradOp : public OpKernel {
 public:
  using OpKernel::OpKernel;
  void Compute(OpKernelContext* ctx) override {
    Tensor y = ctx->input(0);
    Tensor dy = ctx->input(1);
    OP_REQUIRES(ctx, y.shape() == dy.shape(),
                InvalidArgument("SigmoidGrad shapes differ"));
    Tensor out(BaseType(y.dtype()), y.shape());
    OP_REQUIRES_OK(ctx, FloatDispatch(y.dtype(), [&](auto tag) {
      using T = decltype(tag);
      ForEachElement(y.num_elements(),
                     [](T& o, T yv, T d) { o = d * yv * (T{1} - yv); },
                     out.data<T>(), y.data<T>(), dy.data<T>());
    }));
    ctx->set_output(0, std::move(out));
  }
};
REGISTER_KERNEL("SigmoidGrad", kDeviceCpu, SigmoidGradOp);

// dz = dy * (1 - y^2), with y = tanh(x).
class TanhGradOp : public OpKernel {
 public:
  using OpKernel::OpKernel;
  void Compute(OpKernelContext* ctx) override {
    Tensor y = ctx->input(0);
    Tensor dy = ctx->input(1);
    OP_REQUIRES(ctx, y.shape() == dy.shape(),
                InvalidArgument("TanhGrad shapes differ"));
    Tensor out(BaseType(y.dtype()), y.shape());
    OP_REQUIRES_OK(ctx, FloatDispatch(y.dtype(), [&](auto tag) {
      using T = decltype(tag);
      ForEachElement(y.num_elements(),
                     [](T& o, T yv, T d) { o = d * (T{1} - yv * yv); },
                     out.data<T>(), y.data<T>(), dy.data<T>());
    }));
    ctx->set_output(0, std::move(out));
  }
};
REGISTER_KERNEL("TanhGrad", kDeviceCpu, TanhGradOp);

class LogicalAndOp : public OpKernel {
 public:
  using OpKernel::OpKernel;
  void Compute(OpKernelContext* ctx) override {
    Tensor a = ctx->input(0);
    Tensor b = ctx->input(1);
    Result<TensorShape> out_shape = BroadcastShape(a.shape(), b.shape());
    OP_REQUIRES_OK(ctx, out_shape.status());
    Tensor out(DataType::kBool, out_shape.value());
    BroadcastBinary<bool, bool>(a.data<bool>(), a.shape(), b.data<bool>(),
                                b.shape(), out.data<bool>(), out.shape(),
                                [](bool x, bool y) { return x && y; });
    ctx->set_output(0, std::move(out));
  }
};
REGISTER_KERNEL("LogicalAnd", kDeviceCpu, LogicalAndOp);

class LogicalOrOp : public OpKernel {
 public:
  using OpKernel::OpKernel;
  void Compute(OpKernelContext* ctx) override {
    Tensor a = ctx->input(0);
    Tensor b = ctx->input(1);
    Result<TensorShape> out_shape = BroadcastShape(a.shape(), b.shape());
    OP_REQUIRES_OK(ctx, out_shape.status());
    Tensor out(DataType::kBool, out_shape.value());
    BroadcastBinary<bool, bool>(a.data<bool>(), a.shape(), b.data<bool>(),
                                b.shape(), out.data<bool>(), out.shape(),
                                [](bool x, bool y) { return x || y; });
    ctx->set_output(0, std::move(out));
  }
};
REGISTER_KERNEL("LogicalOr", kDeviceCpu, LogicalOrOp);

class LogicalNotOp : public OpKernel {
 public:
  using OpKernel::OpKernel;
  void Compute(OpKernelContext* ctx) override {
    Tensor x = ctx->input(0);
    Tensor out(DataType::kBool, x.shape());
    const bool* in = x.data<bool>();
    bool* o = out.data<bool>();
    const int64_t n = x.num_elements();
    for (int64_t i = 0; i < n; ++i) o[i] = !in[i];
    ctx->set_output(0, std::move(out));
  }
};
REGISTER_KERNEL("LogicalNot", kDeviceCpu, LogicalNotOp);

// Select(cond, t, e): elementwise cond ? t : e. cond may match t's shape or
// be a vector over dim 0.
class SelectOp : public OpKernel {
 public:
  using OpKernel::OpKernel;
  void Compute(OpKernelContext* ctx) override {
    Tensor c = ctx->input(0);
    Tensor t = ctx->input(1);
    Tensor e = ctx->input(2);
    OP_REQUIRES(ctx, t.shape() == e.shape(),
                InvalidArgument("Select branches must have equal shapes"));
    Tensor out(BaseType(t.dtype()), t.shape());
    const bool* cp = c.data<bool>();
    int64_t n = t.num_elements();
    OP_REQUIRES_OK(ctx, NumericDispatch(t.dtype(), [&](auto tag) {
      using T = decltype(tag);
      const T* tp = t.data<T>();
      const T* ep = e.data<T>();
      T* o = out.data<T>();
      if (c.shape() == t.shape()) {
        for (int64_t i = 0; i < n; ++i) o[i] = cp[i] ? tp[i] : ep[i];
      } else if (c.shape().rank() == 1 && t.shape().rank() >= 1 &&
                 c.dim(0) == t.dim(0)) {
        int64_t row = n / t.dim(0);
        for (int64_t r = 0; r < t.dim(0); ++r) {
          for (int64_t j = 0; j < row; ++j) {
            o[r * row + j] = cp[r] ? tp[r * row + j] : ep[r * row + j];
          }
        }
      } else if (c.IsScalar()) {
        for (int64_t i = 0; i < n; ++i) o[i] = cp[0] ? tp[i] : ep[i];
      } else {
        // Leave output unset and flag the error below.
      }
    }));
    OP_REQUIRES(ctx,
                c.shape() == t.shape() || c.IsScalar() ||
                    (c.shape().rank() == 1 && t.shape().rank() >= 1 &&
                     c.dim(0) == t.dim(0)),
                InvalidArgument("Select condition shape incompatible"));
    ctx->set_output(0, std::move(out));
  }
};
REGISTER_KERNEL("Select", kDeviceCpu, SelectOp);

class CastOp : public OpKernel {
 public:
  explicit CastOp(OpKernelConstruction* ctx) : OpKernel(ctx) {
    ctx->SetStatus(ctx->GetTypeAttr("DstT", &dst_));
  }
  void Compute(OpKernelContext* ctx) override {
    Tensor x = ctx->input(0);
    Tensor out(dst_, x.shape());
    const int64_t n = x.num_elements();
    Status s = NumericDispatch(x.dtype(), [&](auto src_tag) {
      using Src = decltype(src_tag);
      const Src* in = x.data<Src>();
      Status s2 = NumericDispatch(dst_, [&](auto dst_tag) {
        using Dst = decltype(dst_tag);
        Dst* o = out.data<Dst>();
        for (int64_t i = 0; i < n; ++i) {
          o[i] = static_cast<Dst>(in[i]);
        }
      });
      (void)s2;
    });
    // Also allow bool source.
    if (!s.ok() && BaseType(x.dtype()) == DataType::kBool) {
      const bool* in = x.data<bool>();
      s = NumericDispatch(dst_, [&](auto dst_tag) {
        using Dst = decltype(dst_tag);
        Dst* o = out.data<Dst>();
        for (int64_t i = 0; i < n; ++i) {
          o[i] = static_cast<Dst>(in[i] ? 1 : 0);
        }
      });
    }
    OP_REQUIRES_OK(ctx, s);
    ctx->set_output(0, std::move(out));
  }

 private:
  DataType dst_ = DataType::kInvalid;
};
REGISTER_KERNEL("Cast", kDeviceCpu, CastOp);

// Sums grad down to target's shape: the inverse of broadcasting. Used by
// the gradients of broadcasting binary ops.
class SumToShapeOfOp : public OpKernel {
 public:
  using OpKernel::OpKernel;
  void Compute(OpKernelContext* ctx) override {
    Tensor grad = ctx->input(0);
    Tensor target = ctx->input(1);
    if (grad.shape() == target.shape()) {
      ctx->set_output(0, grad);
      return;
    }
    // Check target broadcasts to grad's shape.
    Result<TensorShape> check = BroadcastShape(grad.shape(), target.shape());
    OP_REQUIRES_OK(ctx, check.status());
    OP_REQUIRES(ctx, check.value() == grad.shape(),
                InvalidArgument("SumToShapeOf: target shape " +
                                target.shape().DebugString() +
                                " does not broadcast to grad shape " +
                                grad.shape().DebugString()));
    Tensor out(BaseType(grad.dtype()), target.shape());  // zero-filled
    std::vector<int64_t> strides =
        BroadcastStrides(target.shape(), grad.shape());
    int rank = grad.shape().rank();
    OP_REQUIRES_OK(ctx, NumericDispatch(grad.dtype(), [&](auto tag) {
      using T = decltype(tag);
      const T* g = grad.data<T>();
      T* o = out.data<T>();
      std::vector<int64_t> index(rank, 0);
      int64_t oi = 0;
      int64_t n = grad.num_elements();
      for (int64_t i = 0; i < n; ++i) {
        o[oi] += g[i];
        for (int d = rank - 1; d >= 0; --d) {
          ++index[d];
          oi += strides[d];
          if (index[d] < grad.dim(d)) break;
          index[d] = 0;
          oi -= strides[d] * grad.dim(d);
        }
      }
    }));
    ctx->set_output(0, std::move(out));
  }
};
REGISTER_KERNEL("SumToShapeOf", kDeviceCpu, SumToShapeOfOp);

class AddNOp : public OpKernel {
 public:
  using OpKernel::OpKernel;
  void Compute(OpKernelContext* ctx) override {
    OP_REQUIRES(ctx, ctx->num_inputs() >= 1,
                InvalidArgument("AddN needs at least one input"));
    Tensor first = ctx->input(0);
    for (int i = 1; i < ctx->num_inputs(); ++i) {
      OP_REQUIRES(ctx, ctx->input(i).shape() == first.shape(),
                  InvalidArgument("AddN inputs must have equal shapes"));
    }
    Tensor out(BaseType(first.dtype()), first.shape());
    OP_REQUIRES_OK(ctx, NumericDispatch(first.dtype(), [&](auto tag) {
      using T = decltype(tag);
      const int64_t n = out.num_elements();
      for (int i = 0; i < ctx->num_inputs(); ++i) {
        Tensor x = ctx->input(i);
        ForEachElement(n, [](T& o, T v) { o += v; }, out.data<T>(),
                       x.data<T>());
      }
    }));
    ctx->set_output(0, std::move(out));
  }
};
REGISTER_KERNEL("AddN", kDeviceCpu, AddNOp);

}  // namespace
}  // namespace tfrepro
