// Stateful kernels (paper §3.1): Variable owns a mutable buffer and emits a
// reference handle; Assign/AssignAdd/AssignSub and the Scatter* family
// mutate the buffer through that handle. The variable's buffer lives in the
// kernel instance, which the device's segment cache shares across all
// executors of a session — exactly the "shared state between steps" the
// dataflow model relies on.

#include <mutex>

#include "kernels/dispatch.h"
#include "runtime/kernel.h"

namespace tfrepro {
namespace {

class VariableOp : public OpKernel {
 public:
  explicit VariableOp(OpKernelConstruction* ctx) : OpKernel(ctx) {
    ctx->SetStatus(ctx->GetTypeAttr("dtype", &dtype_));
    ctx->SetStatus(ctx->GetShapeAttr("shape", &shape_));
  }

  void Compute(OpKernelContext* ctx) override {
    std::lock_guard<std::mutex> lock(mu_);
    // The buffer stays uninitialized (dtype kInvalid) until the first
    // Assign; IsVariableInitialized inspects this.
    ctx->set_output_ref(0, &mu_, &value_);
  }
  bool IsExpensive() const override { return false; }

 private:
  DataType dtype_ = DataType::kInvalid;
  TensorShape shape_;
  std::mutex mu_;
  Tensor value_;
};
REGISTER_KERNEL("Variable", kDeviceCpu, VariableOp);

class IsVariableInitializedOp : public OpKernel {
 public:
  using OpKernel::OpKernel;
  void Compute(OpKernelContext* ctx) override {
    std::mutex* mu = nullptr;
    Tensor* ref = ctx->mutable_input_ref(0, &mu);
    OP_REQUIRES(ctx, ref != nullptr,
                InvalidArgument("IsVariableInitialized on non-ref input"));
    bool initialized;
    {
      std::lock_guard<std::mutex> lock(*mu);
      initialized = ref->IsInitialized();
    }
    ctx->set_output(0, Tensor::Scalar(initialized));
  }
  bool IsExpensive() const override { return false; }
};
REGISTER_KERNEL("IsVariableInitialized", kDeviceCpu, IsVariableInitializedOp);

class AssignOp : public OpKernel {
 public:
  using OpKernel::OpKernel;
  void Compute(OpKernelContext* ctx) override {
    std::mutex* mu = nullptr;
    Tensor* ref = ctx->mutable_input_ref(0, &mu);
    OP_REQUIRES(ctx, ref != nullptr,
                InvalidArgument("Assign requires a ref input"));
    Tensor value = ctx->input(1);
    {
      std::lock_guard<std::mutex> lock(*mu);
      if (ref->IsInitialized() && ref->shape() == value.shape()) {
        // In-place update keeps outstanding readers consistent with the
        // relaxed semantics the paper assumes (§4.3).
        OP_REQUIRES_OK(ctx, ref->CopyDataFrom(value));
      } else {
        *ref = value.Clone();
      }
    }
    ctx->forward_ref_input_to_output(0, 0);
  }
};
REGISTER_KERNEL("Assign", kDeviceCpu, AssignOp);

template <bool IsAdd>
class AssignUpdateOp : public OpKernel {
 public:
  using OpKernel::OpKernel;
  void Compute(OpKernelContext* ctx) override {
    std::mutex* mu = nullptr;
    Tensor* ref = ctx->mutable_input_ref(0, &mu);
    OP_REQUIRES(ctx, ref != nullptr,
                InvalidArgument("AssignAdd/Sub requires a ref input"));
    Tensor value = ctx->input(1);
    std::lock_guard<std::mutex> lock(*mu);
    OP_REQUIRES(ctx, ref->IsInitialized(),
                FailedPrecondition("variable '" + name() +
                                   "' used before initialization"));
    OP_REQUIRES(ctx, ref->shape() == value.shape(),
                InvalidArgument("AssignAdd/Sub shape mismatch: " +
                                ref->shape().DebugString() + " vs " +
                                value.shape().DebugString()));
    OP_REQUIRES_OK(ctx, NumericDispatch(ref->dtype(), [&](auto tag) {
      using T = decltype(tag);
      T* p = ref->data<T>();
      const T* v = value.data<T>();
      const int64_t n = ref->num_elements();
      for (int64_t i = 0; i < n; ++i) {
        if constexpr (IsAdd) {
          p[i] += v[i];
        } else {
          p[i] -= v[i];
        }
      }
    }));
    ctx->forward_ref_input_to_output(0, 0);
  }
};
REGISTER_KERNEL("AssignAdd", kDeviceCpu, AssignUpdateOp<true>);
REGISTER_KERNEL("AssignSub", kDeviceCpu, AssignUpdateOp<false>);

enum class ScatterKind { kAdd, kSub, kUpdate };

template <ScatterKind K>
class ScatterOp : public OpKernel {
 public:
  using OpKernel::OpKernel;
  void Compute(OpKernelContext* ctx) override {
    std::mutex* mu = nullptr;
    Tensor* ref = ctx->mutable_input_ref(0, &mu);
    OP_REQUIRES(ctx, ref != nullptr,
                InvalidArgument("Scatter requires a ref input"));
    Tensor indices = ctx->input(1);
    Tensor updates = ctx->input(2);
    std::lock_guard<std::mutex> lock(*mu);
    OP_REQUIRES(ctx, ref->IsInitialized(),
                FailedPrecondition("variable used before initialization"));
    OP_REQUIRES(ctx, ref->shape().rank() >= 1,
                InvalidArgument("Scatter target must have rank >= 1"));
    int64_t rows = ref->dim(0);
    int64_t row_elems = rows == 0 ? 0 : ref->num_elements() / rows;
    OP_REQUIRES(
        ctx, updates.num_elements() == indices.num_elements() * row_elems,
        InvalidArgument("Scatter updates shape mismatch"));
    Status index_status;
    Status dispatch_status;
    OP_REQUIRES_OK(ctx, NumericDispatch(ref->dtype(), [&](auto tag) {
      using T = decltype(tag);
      T* p = ref->data<T>();
      const T* u = updates.data<T>();
      dispatch_status = IndexDispatch(indices.dtype(), [&](auto itag) {
        using I = decltype(itag);
        const I* idx = indices.data<I>();
        const int64_t count = indices.num_elements();
        for (int64_t i = 0; i < count; ++i) {
          if (idx[i] < 0 || idx[i] >= rows) {
            index_status = OutOfRange("scatter index out of range");
            return;
          }
          T* row = p + idx[i] * row_elems;
          const T* urow = u + i * row_elems;
          for (int64_t j = 0; j < row_elems; ++j) {
            if constexpr (K == ScatterKind::kAdd) {
              row[j] += urow[j];
            } else if constexpr (K == ScatterKind::kSub) {
              row[j] -= urow[j];
            } else {
              row[j] = urow[j];
            }
          }
        }
      });
    }));
    if (index_status.ok()) index_status = dispatch_status;
    OP_REQUIRES_OK(ctx, index_status);
    ctx->forward_ref_input_to_output(0, 0);
  }
};
REGISTER_KERNEL("ScatterAdd", kDeviceCpu, ScatterOp<ScatterKind::kAdd>);
REGISTER_KERNEL("ScatterSub", kDeviceCpu, ScatterOp<ScatterKind::kSub>);
REGISTER_KERNEL("ScatterUpdate", kDeviceCpu, ScatterOp<ScatterKind::kUpdate>);

class CountUpToOp : public OpKernel {
 public:
  explicit CountUpToOp(OpKernelConstruction* ctx) : OpKernel(ctx) {
    ctx->SetStatus(ctx->GetIntAttr("limit", &limit_));
  }
  void Compute(OpKernelContext* ctx) override {
    std::mutex* mu = nullptr;
    Tensor* ref = ctx->mutable_input_ref(0, &mu);
    OP_REQUIRES(ctx, ref != nullptr,
                InvalidArgument("CountUpTo requires a ref input"));
    std::lock_guard<std::mutex> lock(*mu);
    OP_REQUIRES(ctx, ref->IsInitialized() && ref->IsScalar(),
                FailedPrecondition("CountUpTo needs an initialized scalar"));
    int64_t v = *ref->data<int64_t>();
    OP_REQUIRES(ctx, v < limit_,
                OutOfRange("CountUpTo reached limit " +
                           std::to_string(limit_)));
    *ref->data<int64_t>() = v + 1;
    ctx->set_output(0, Tensor::Scalar(v));
  }

 private:
  int64_t limit_ = 0;
};
REGISTER_KERNEL("CountUpTo", kDeviceCpu, CountUpToOp);

}  // namespace
}  // namespace tfrepro
