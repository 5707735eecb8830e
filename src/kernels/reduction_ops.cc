// Reduction kernels: Sum/Mean/Max/Min/Prod over arbitrary axes, ArgMax.

#include <limits>

#include "kernels/dispatch.h"
#include "runtime/kernel.h"

namespace tfrepro {
namespace {

// Normalizes reduction axes from the int32 indices input; empty indices
// tensor means "reduce everything".
Status GetAxes(const Tensor& input, const Tensor& indices,
               std::vector<bool>* reduce_dim) {
  int rank = input.shape().rank();
  reduce_dim->assign(std::max(rank, 1), false);
  if (indices.num_elements() == 0) {
    // TensorFlow semantics: an empty axis list reduces nothing; reduce-all
    // is expressed by passing all axes. The graph-builder helpers pass all
    // axes explicitly for "reduce all".
    return Status::OK();
  }
  const int64_t n = indices.num_elements();
  for (int64_t i = 0; i < n; ++i) {
    int32_t axis = indices.flat<int32_t>(i);
    if (axis < 0) axis += rank;
    if (axis < 0 || axis >= rank) {
      return InvalidArgument("reduction axis " + std::to_string(axis) +
                             " out of range for rank " + std::to_string(rank));
    }
    (*reduce_dim)[axis] = true;
  }
  return Status::OK();
}

TensorShape ReducedShape(const TensorShape& in,
                         const std::vector<bool>& reduce_dim, bool keep_dims) {
  TensorShape out;
  for (int i = 0; i < in.rank(); ++i) {
    if (reduce_dim[i]) {
      if (keep_dims) out.AddDim(1);
    } else {
      out.AddDim(in.dim(i));
    }
  }
  return out;
}

enum class Reduction { kSum, kMean, kMax, kMin, kProd };

template <Reduction R>
class ReduceOp : public OpKernel {
 public:
  explicit ReduceOp(OpKernelConstruction* ctx) : OpKernel(ctx) {
    ctx->SetStatus(ctx->GetBoolAttr("keep_dims", &keep_dims_));
  }

  void Compute(OpKernelContext* ctx) override {
    Tensor input = ctx->input(0);
    Tensor indices = ctx->input(1);
    std::vector<bool> reduce_dim;
    OP_REQUIRES_OK(ctx, GetAxes(input, indices, &reduce_dim));
    TensorShape out_shape =
        ReducedShape(input.shape(), reduce_dim, keep_dims_);
    Tensor out(BaseType(input.dtype()), out_shape);

    int rank = input.shape().rank();
    // Map each input element to its output element by dropping reduced dims.
    OP_REQUIRES_OK(ctx, NumericDispatch(input.dtype(), [&](auto tag) {
      using T = decltype(tag);
      const T* in = input.data<T>();
      T* o = out.data<T>();
      int64_t out_n = out.num_elements();
      T init;
      if constexpr (R == Reduction::kSum || R == Reduction::kMean) {
        init = T{0};
      } else if constexpr (R == Reduction::kProd) {
        init = T{1};
      } else if constexpr (R == Reduction::kMax) {
        init = std::numeric_limits<T>::lowest();
      } else {
        init = std::numeric_limits<T>::max();
      }
      for (int64_t i = 0; i < out_n; ++i) o[i] = init;

      // Precompute strides of input and output-projection.
      std::vector<int64_t> in_dims(rank);
      for (int i = 0; i < rank; ++i) in_dims[i] = input.dim(i);
      std::vector<int64_t> out_stride(rank, 0);
      int64_t stride = 1;
      for (int i = rank - 1; i >= 0; --i) {
        if (!reduce_dim[i]) {
          out_stride[i] = stride;
          stride *= in_dims[i];
        }
      }
      std::vector<int64_t> index(rank, 0);
      int64_t out_idx = 0;
      int64_t n = input.num_elements();
      int64_t reduced_count = out_n == 0 ? 0 : n / std::max<int64_t>(out_n, 1);
      for (int64_t i = 0; i < n; ++i) {
        if constexpr (R == Reduction::kSum || R == Reduction::kMean) {
          o[out_idx] += in[i];
        } else if constexpr (R == Reduction::kProd) {
          o[out_idx] *= in[i];
        } else if constexpr (R == Reduction::kMax) {
          if (in[i] > o[out_idx]) o[out_idx] = in[i];
        } else {
          if (in[i] < o[out_idx]) o[out_idx] = in[i];
        }
        for (int d = rank - 1; d >= 0; --d) {
          ++index[d];
          out_idx += out_stride[d];
          if (index[d] < in_dims[d]) break;
          index[d] = 0;
          out_idx -= out_stride[d] * in_dims[d];
        }
      }
      if constexpr (R == Reduction::kMean) {
        if (reduced_count > 0) {
          for (int64_t i = 0; i < out_n; ++i) {
            o[i] = static_cast<T>(o[i] / static_cast<T>(reduced_count));
          }
        }
      }
    }));
    ctx->set_output(0, std::move(out));
  }

 private:
  bool keep_dims_ = false;
};

REGISTER_KERNEL("Sum", kDeviceCpu, ReduceOp<Reduction::kSum>);
REGISTER_KERNEL("Mean", kDeviceCpu, ReduceOp<Reduction::kMean>);
REGISTER_KERNEL("Max", kDeviceCpu, ReduceOp<Reduction::kMax>);
REGISTER_KERNEL("Min", kDeviceCpu, ReduceOp<Reduction::kMin>);
REGISTER_KERNEL("Prod", kDeviceCpu, ReduceOp<Reduction::kProd>);

class ArgMaxOp : public OpKernel {
 public:
  using OpKernel::OpKernel;
  void Compute(OpKernelContext* ctx) override {
    Tensor input = ctx->input(0);
    int32_t axis = *ctx->input(1).data<int32_t>();
    int rank = input.shape().rank();
    if (axis < 0) axis += rank;
    OP_REQUIRES(ctx, axis >= 0 && axis < rank,
                InvalidArgument("ArgMax axis out of range"));
    TensorShape out_shape = input.shape();
    out_shape.RemoveDim(axis);
    Tensor out(DataType::kInt64, out_shape);

    int64_t outer = 1;
    for (int i = 0; i < axis; ++i) outer *= input.dim(i);
    int64_t axis_n = input.dim(axis);
    int64_t inner = 1;
    for (int i = axis + 1; i < rank; ++i) inner *= input.dim(i);

    OP_REQUIRES_OK(ctx, NumericDispatch(input.dtype(), [&](auto tag) {
      using T = decltype(tag);
      const T* in = input.data<T>();
      int64_t* o = out.data<int64_t>();
      for (int64_t a = 0; a < outer; ++a) {
        for (int64_t c = 0; c < inner; ++c) {
          T best = in[a * axis_n * inner + c];
          int64_t best_i = 0;
          for (int64_t b = 1; b < axis_n; ++b) {
            T v = in[(a * axis_n + b) * inner + c];
            if (v > best) {
              best = v;
              best_i = b;
            }
          }
          o[a * inner + c] = best_i;
        }
      }
    }));
    ctx->set_output(0, std::move(out));
  }
};
REGISTER_KERNEL("ArgMax", kDeviceCpu, ArgMaxOp);

class L2LossOp : public OpKernel {
 public:
  using OpKernel::OpKernel;
  void Compute(OpKernelContext* ctx) override {
    Tensor t = ctx->input(0);
    Tensor out(BaseType(t.dtype()), TensorShape());
    OP_REQUIRES_OK(ctx, FloatDispatch(t.dtype(), [&](auto tag) {
      using T = decltype(tag);
      const T* in = t.data<T>();
      double acc = 0;
      const int64_t n = t.num_elements();
      for (int64_t i = 0; i < n; ++i) {
        acc += static_cast<double>(in[i]) * in[i];
      }
      *out.data<T>() = static_cast<T>(acc / 2);
    }));
    ctx->set_output(0, std::move(out));
  }
};
REGISTER_KERNEL("L2Loss", kDeviceCpu, L2LossOp);

}  // namespace
}  // namespace tfrepro
