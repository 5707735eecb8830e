// Fused optimizer-update kernels (paper §4.1/§5). Each optimizer is also
// expressible as a composition of primitive ops — src/train builds both —
// but these fused kernels show the "users can register additional kernels
// for performance-critical subcomputations" path.

#include <cmath>
#include <initializer_list>
#include <mutex>

#include "kernels/dispatch.h"
#include "kernels/ewise_loop.h"
#include "runtime/kernel.h"

namespace tfrepro {
namespace {

// Locks a ref input and checks it is an initialized variable.
#define GET_VAR(ctx, index, var, mu)                                     \
  std::mutex* mu = nullptr;                                              \
  Tensor* var = (ctx)->mutable_input_ref(index, &mu);                    \
  OP_REQUIRES(ctx, var != nullptr,                                       \
              InvalidArgument("input " #index " is not a ref"));         \
  OP_REQUIRES(ctx, var->IsInitialized(),                                 \
              FailedPrecondition("variable used before initialization"))

// The dense updates walk every operand over the variable's elements.
Status CheckShapes(const Tensor& var,
                   std::initializer_list<const Tensor*> operands) {
  for (const Tensor* t : operands) {
    if (t->shape() != var.shape()) {
      return InvalidArgument("optimizer operand shape " +
                             t->shape().DebugString() + " != variable shape " +
                             var.shape().DebugString());
    }
  }
  return Status::OK();
}

class ApplyGradientDescentOp : public OpKernel {
 public:
  using OpKernel::OpKernel;
  void Compute(OpKernelContext* ctx) override {
    GET_VAR(ctx, 0, var, mu);
    Tensor alpha = ctx->input(1);
    Tensor delta = ctx->input(2);
    std::lock_guard<std::mutex> lock(*mu);
    OP_REQUIRES_OK(ctx, CheckShapes(*var, {&delta}));
    OP_REQUIRES_OK(ctx, FloatDispatch(var->dtype(), [&](auto tag) {
      using T = decltype(tag);
      const T a = *alpha.data<T>();
      ForEachElement(var->num_elements(), [a](T& v, T d) { v -= a * d; },
                     var->data<T>(), delta.data<T>());
    }));
    ctx->forward_ref_input_to_output(0, 0);
  }
};
REGISTER_KERNEL("ApplyGradientDescent", kDeviceCpu, ApplyGradientDescentOp);

// accum = momentum * accum + grad; var -= lr * accum.
class ApplyMomentumOp : public OpKernel {
 public:
  using OpKernel::OpKernel;
  void Compute(OpKernelContext* ctx) override {
    GET_VAR(ctx, 0, var, mu_var);
    GET_VAR(ctx, 1, accum, mu_accum);
    Tensor lr = ctx->input(2);
    Tensor grad = ctx->input(3);
    Tensor momentum = ctx->input(4);
    std::lock_guard<std::mutex> lock(*mu_var);
    OP_REQUIRES_OK(ctx, CheckShapes(*var, {accum, &grad}));
    OP_REQUIRES_OK(ctx, FloatDispatch(var->dtype(), [&](auto tag) {
      using T = decltype(tag);
      const T l = *lr.data<T>();
      const T m = *momentum.data<T>();
      ForEachElement(
          var->num_elements(),
          [l, m](T& v, T& a, T g) {
            a = m * a + g;
            v -= l * a;
          },
          var->data<T>(), accum->data<T>(), grad.data<T>());
    }));
    ctx->forward_ref_input_to_output(0, 0);
  }
};
REGISTER_KERNEL("ApplyMomentum", kDeviceCpu, ApplyMomentumOp);

// accum += grad^2; var -= lr * grad / sqrt(accum).
class ApplyAdagradOp : public OpKernel {
 public:
  using OpKernel::OpKernel;
  void Compute(OpKernelContext* ctx) override {
    GET_VAR(ctx, 0, var, mu_var);
    GET_VAR(ctx, 1, accum, mu_accum);
    Tensor lr = ctx->input(2);
    Tensor grad = ctx->input(3);
    std::lock_guard<std::mutex> lock(*mu_var);
    OP_REQUIRES_OK(ctx, CheckShapes(*var, {accum, &grad}));
    OP_REQUIRES_OK(ctx, FloatDispatch(var->dtype(), [&](auto tag) {
      using T = decltype(tag);
      const T l = *lr.data<T>();
      ForEachElement(
          var->num_elements(),
          [l](T& v, T& a, T g) {
            a += g * g;
            v -= l * g / static_cast<T>(std::sqrt(static_cast<double>(a)));
          },
          var->data<T>(), accum->data<T>(), grad.data<T>());
    }));
    ctx->forward_ref_input_to_output(0, 0);
  }
};
REGISTER_KERNEL("ApplyAdagrad", kDeviceCpu, ApplyAdagradOp);

// Adadelta (Zeiler 2012).
class ApplyAdadeltaOp : public OpKernel {
 public:
  using OpKernel::OpKernel;
  void Compute(OpKernelContext* ctx) override {
    GET_VAR(ctx, 0, var, mu_var);
    GET_VAR(ctx, 1, accum, mu_accum);
    GET_VAR(ctx, 2, accum_update, mu_update);
    Tensor lr = ctx->input(3);
    Tensor rho = ctx->input(4);
    Tensor epsilon = ctx->input(5);
    Tensor grad = ctx->input(6);
    std::lock_guard<std::mutex> lock(*mu_var);
    OP_REQUIRES_OK(ctx, CheckShapes(*var, {accum, accum_update, &grad}));
    OP_REQUIRES_OK(ctx, FloatDispatch(var->dtype(), [&](auto tag) {
      using T = decltype(tag);
      const T l = *lr.data<T>();
      const T r = *rho.data<T>();
      const T eps = *epsilon.data<T>();
      ForEachElement(
          var->num_elements(),
          [l, r, eps](T& v, T& a, T& u, T g) {
            a = r * a + (T{1} - r) * g * g;
            T update = static_cast<T>(std::sqrt(static_cast<double>(u + eps)) /
                                      std::sqrt(static_cast<double>(a + eps))) *
                       g;
            u = r * u + (T{1} - r) * update * update;
            v -= l * update;
          },
          var->data<T>(), accum->data<T>(), accum_update->data<T>(),
          grad.data<T>());
    }));
    ctx->forward_ref_input_to_output(0, 0);
  }
};
REGISTER_KERNEL("ApplyAdadelta", kDeviceCpu, ApplyAdadeltaOp);

// RMSProp.
class ApplyRMSPropOp : public OpKernel {
 public:
  using OpKernel::OpKernel;
  void Compute(OpKernelContext* ctx) override {
    GET_VAR(ctx, 0, var, mu_var);
    GET_VAR(ctx, 1, ms, mu_ms);
    GET_VAR(ctx, 2, mom, mu_mom);
    Tensor lr = ctx->input(3);
    Tensor rho = ctx->input(4);
    Tensor momentum = ctx->input(5);
    Tensor epsilon = ctx->input(6);
    Tensor grad = ctx->input(7);
    std::lock_guard<std::mutex> lock(*mu_var);
    OP_REQUIRES_OK(ctx, CheckShapes(*var, {ms, mom, &grad}));
    OP_REQUIRES_OK(ctx, FloatDispatch(var->dtype(), [&](auto tag) {
      using T = decltype(tag);
      const T l = *lr.data<T>();
      const T r = *rho.data<T>();
      const T m = *momentum.data<T>();
      const T eps = *epsilon.data<T>();
      ForEachElement(
          var->num_elements(),
          [l, r, m, eps](T& v, T& msv, T& momv, T g) {
            msv = r * msv + (T{1} - r) * g * g;
            momv = m * momv +
                   l * g /
                       static_cast<T>(std::sqrt(static_cast<double>(msv + eps)));
            v -= momv;
          },
          var->data<T>(), ms->data<T>(), mom->data<T>(), grad.data<T>());
    }));
    ctx->forward_ref_input_to_output(0, 0);
  }
};
REGISTER_KERNEL("ApplyRMSProp", kDeviceCpu, ApplyRMSPropOp);

// Adam (Kingma & Ba 2015).
class ApplyAdamOp : public OpKernel {
 public:
  using OpKernel::OpKernel;
  void Compute(OpKernelContext* ctx) override {
    GET_VAR(ctx, 0, var, mu_var);
    GET_VAR(ctx, 1, m, mu_m);
    GET_VAR(ctx, 2, v_acc, mu_v);
    Tensor beta1_power = ctx->input(3);
    Tensor beta2_power = ctx->input(4);
    Tensor lr = ctx->input(5);
    Tensor beta1 = ctx->input(6);
    Tensor beta2 = ctx->input(7);
    Tensor epsilon = ctx->input(8);
    Tensor grad = ctx->input(9);
    std::lock_guard<std::mutex> lock(*mu_var);
    OP_REQUIRES_OK(ctx, CheckShapes(*var, {m, v_acc, &grad}));
    OP_REQUIRES_OK(ctx, FloatDispatch(var->dtype(), [&](auto tag) {
      using T = decltype(tag);
      T b1p = *beta1_power.data<T>();
      T b2p = *beta2_power.data<T>();
      T l = *lr.data<T>();
      T b1 = *beta1.data<T>();
      T b2 = *beta2.data<T>();
      T eps = *epsilon.data<T>();
      T alpha = l *
                static_cast<T>(std::sqrt(1.0 - static_cast<double>(b2p))) /
                (T{1} - b1p);
      ForEachElement(
          var->num_elements(),
          [alpha, b1, b2, eps](T& v, T& mv, T& vv, T g) {
            mv += (T{1} - b1) * (g - mv);
            vv += (T{1} - b2) * (g * g - vv);
            v -= alpha * mv /
                 (static_cast<T>(std::sqrt(static_cast<double>(vv))) + eps);
          },
          var->data<T>(), m->data<T>(), v_acc->data<T>(), grad.data<T>());
    }));
    ctx->forward_ref_input_to_output(0, 0);
  }
};
REGISTER_KERNEL("ApplyAdam", kDeviceCpu, ApplyAdamOp);

// Sparse SGD: var[indices[i], :] -= alpha * grad[i, :] (paper §4.2: updates
// touch only the gathered rows).
class SparseApplyGradientDescentOp : public OpKernel {
 public:
  using OpKernel::OpKernel;
  void Compute(OpKernelContext* ctx) override {
    GET_VAR(ctx, 0, var, mu);
    Tensor alpha = ctx->input(1);
    Tensor grad = ctx->input(2);
    Tensor indices = ctx->input(3);
    std::lock_guard<std::mutex> lock(*mu);
    int64_t rows = var->dim(0);
    int64_t row_elems = rows == 0 ? 0 : var->num_elements() / rows;
    Status index_status;
    Status dispatch_status;
    OP_REQUIRES_OK(ctx, FloatDispatch(var->dtype(), [&](auto tag) {
      using T = decltype(tag);
      T a = *alpha.data<T>();
      T* v = var->data<T>();
      const T* g = grad.data<T>();
      dispatch_status = IndexDispatch(indices.dtype(), [&](auto itag) {
        using I = decltype(itag);
        const I* idx = indices.data<I>();
        const int64_t count = indices.num_elements();
        for (int64_t i = 0; i < count; ++i) {
          if (idx[i] < 0 || idx[i] >= rows) {
            index_status = OutOfRange("sparse update index out of range");
            return;
          }
          T* row = v + idx[i] * row_elems;
          const T* grow = g + i * row_elems;
          for (int64_t j = 0; j < row_elems; ++j) row[j] -= a * grow[j];
        }
      });
    }));
    if (index_status.ok()) index_status = dispatch_status;
    OP_REQUIRES_OK(ctx, index_status);
    ctx->forward_ref_input_to_output(0, 0);
  }
};
REGISTER_KERNEL("SparseApplyGradientDescent", kDeviceCpu,
                SparseApplyGradientDescentOp);

class SparseApplyAdagradOp : public OpKernel {
 public:
  using OpKernel::OpKernel;
  void Compute(OpKernelContext* ctx) override {
    GET_VAR(ctx, 0, var, mu_var);
    GET_VAR(ctx, 1, accum, mu_accum);
    Tensor lr = ctx->input(2);
    Tensor grad = ctx->input(3);
    Tensor indices = ctx->input(4);
    std::lock_guard<std::mutex> lock(*mu_var);
    int64_t rows = var->dim(0);
    int64_t row_elems = rows == 0 ? 0 : var->num_elements() / rows;
    Status index_status;
    Status dispatch_status;
    OP_REQUIRES_OK(ctx, FloatDispatch(var->dtype(), [&](auto tag) {
      using T = decltype(tag);
      T l = *lr.data<T>();
      T* v = var->data<T>();
      T* a = accum->data<T>();
      const T* g = grad.data<T>();
      dispatch_status = IndexDispatch(indices.dtype(), [&](auto itag) {
        using I = decltype(itag);
        const I* idx = indices.data<I>();
        const int64_t count = indices.num_elements();
        for (int64_t i = 0; i < count; ++i) {
          if (idx[i] < 0 || idx[i] >= rows) {
            index_status = OutOfRange("sparse update index out of range");
            return;
          }
          T* vrow = v + idx[i] * row_elems;
          T* arow = a + idx[i] * row_elems;
          const T* grow = g + i * row_elems;
          for (int64_t j = 0; j < row_elems; ++j) {
            arow[j] += grow[j] * grow[j];
            vrow[j] -= l * grow[j] /
                       static_cast<T>(std::sqrt(static_cast<double>(arow[j])));
          }
        }
      });
    }));
    if (index_status.ok()) index_status = dispatch_status;
    OP_REQUIRES_OK(ctx, index_status);
    ctx->forward_ref_input_to_output(0, 0);
  }
};
REGISTER_KERNEL("SparseApplyAdagrad", kDeviceCpu, SparseApplyAdagradOp);

#undef GET_VAR

}  // namespace
}  // namespace tfrepro
