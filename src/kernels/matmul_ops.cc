// MatMul and bias kernels. MatMul, the workhorse of every model in the
// paper's evaluation, is the shared packed GEMM (kernels/gemm.h); the bias
// kernels run one row at a time through kernels/ewise_loop.h.

#include "kernels/dispatch.h"
#include "kernels/ewise_loop.h"
#include "kernels/gemm.h"
#include "runtime/kernel.h"

namespace tfrepro {
namespace {

class MatMulOp : public OpKernel {
 public:
  explicit MatMulOp(OpKernelConstruction* ctx) : OpKernel(ctx) {
    ctx->SetStatus(ctx->GetBoolAttr("transpose_a", &ta_));
    ctx->SetStatus(ctx->GetBoolAttr("transpose_b", &tb_));
  }
  void Compute(OpKernelContext* ctx) override {
    Tensor a = ctx->input(0);
    Tensor b = ctx->input(1);
    OP_REQUIRES(ctx, a.shape().rank() == 2 && b.shape().rank() == 2,
                InvalidArgument("MatMul inputs must be rank-2, got " +
                                a.shape().DebugString() + " and " +
                                b.shape().DebugString()));
    int64_t m = ta_ ? a.dim(1) : a.dim(0);
    int64_t k = ta_ ? a.dim(0) : a.dim(1);
    int64_t kb = tb_ ? b.dim(1) : b.dim(0);
    int64_t n = tb_ ? b.dim(0) : b.dim(1);
    OP_REQUIRES(ctx, k == kb,
                InvalidArgument("MatMul inner dimensions differ: " +
                                a.shape().DebugString() + " x " +
                                b.shape().DebugString()));
    Tensor out(BaseType(a.dtype()), TensorShape({m, n}));
    OP_REQUIRES_OK(ctx, NumericDispatch(a.dtype(), [&](auto tag) {
      using T = decltype(tag);
      Gemm(a.data<T>(), b.data<T>(), out.data<T>(), m, k, n, ta_, tb_);
    }));
    ctx->set_output(0, std::move(out));
  }

 private:
  bool ta_ = false;
  bool tb_ = false;
};
REGISTER_KERNEL("MatMul", kDeviceCpu, MatMulOp);

// BiasAdd: value[..., c] + bias[c].
class BiasAddOp : public OpKernel {
 public:
  using OpKernel::OpKernel;
  void Compute(OpKernelContext* ctx) override {
    Tensor value = ctx->input(0);
    Tensor bias = ctx->input(1);
    OP_REQUIRES(ctx, value.shape().rank() >= 1,
                InvalidArgument("BiasAdd value must have rank >= 1"));
    OP_REQUIRES(ctx, bias.shape().rank() == 1,
                InvalidArgument("BiasAdd bias must be a vector"));
    int64_t c = value.dim(value.shape().rank() - 1);
    OP_REQUIRES(ctx, bias.dim(0) == c,
                InvalidArgument("BiasAdd bias length " +
                                std::to_string(bias.dim(0)) +
                                " != channel count " + std::to_string(c)));
    Tensor out(BaseType(value.dtype()), value.shape());
    OP_REQUIRES_OK(ctx, NumericDispatch(value.dtype(), [&](auto tag) {
      using T = decltype(tag);
      const T* v = value.data<T>();
      const T* bp = bias.data<T>();
      T* o = out.data<T>();
      const int64_t rows = c == 0 ? 0 : value.num_elements() / c;
      for (int64_t r = 0; r < rows; ++r, v += c, o += c) {
        ForEachElement(c, [](T& y, T x, T b) { y = x + b; }, o, v, bp);
      }
    }));
    ctx->set_output(0, std::move(out));
  }
};
REGISTER_KERNEL("BiasAdd", kDeviceCpu, BiasAddOp);

// BiasAddGrad: sum out_backprop over all but the last dimension.
class BiasAddGradOp : public OpKernel {
 public:
  using OpKernel::OpKernel;
  void Compute(OpKernelContext* ctx) override {
    Tensor g = ctx->input(0);
    OP_REQUIRES(ctx, g.shape().rank() >= 1,
                InvalidArgument("BiasAddGrad input must have rank >= 1"));
    int64_t c = g.dim(g.shape().rank() - 1);
    Tensor out(BaseType(g.dtype()), TensorShape({c}));
    OP_REQUIRES_OK(ctx, NumericDispatch(g.dtype(), [&](auto tag) {
      using T = decltype(tag);
      const T* gp = g.data<T>();
      T* o = out.data<T>();
      const int64_t rows = c == 0 ? 0 : g.num_elements() / c;
      for (int64_t r = 0; r < rows; ++r, gp += c) {
        ForEachElement(c, [](T& sum, T x) { sum += x; }, o, gp);
      }
    }));
    ctx->set_output(0, std::move(out));
  }
};
REGISTER_KERNEL("BiasAddGrad", kDeviceCpu, BiasAddGradOp);

}  // namespace
}  // namespace tfrepro
