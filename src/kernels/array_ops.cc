// Array-manipulation kernels: shape queries, reshapes, concat/split/slice,
// transpose, tile, pack/unpack, pad, one-hot.

#include <cstring>

#include "kernels/dispatch.h"
#include "runtime/kernel.h"

namespace tfrepro {
namespace {

class ShapeOp : public OpKernel {
 public:
  using OpKernel::OpKernel;
  void Compute(OpKernelContext* ctx) override {
    Tensor in = ctx->input(0);
    Tensor out(DataType::kInt32, TensorShape({in.shape().rank()}));
    for (int i = 0; i < in.shape().rank(); ++i) {
      out.flat<int32_t>(i) = static_cast<int32_t>(in.dim(i));
    }
    ctx->set_output(0, std::move(out));
  }
  bool IsExpensive() const override { return false; }
};
REGISTER_KERNEL("Shape", kDeviceCpu, ShapeOp);

class RankOp : public OpKernel {
 public:
  using OpKernel::OpKernel;
  void Compute(OpKernelContext* ctx) override {
    ctx->set_output(0, Tensor::Scalar(int32_t{ctx->input(0).shape().rank()}));
  }
  bool IsExpensive() const override { return false; }
};
REGISTER_KERNEL("Rank", kDeviceCpu, RankOp);

class SizeOp : public OpKernel {
 public:
  using OpKernel::OpKernel;
  void Compute(OpKernelContext* ctx) override {
    ctx->set_output(
        0, Tensor::Scalar(static_cast<int32_t>(ctx->input(0).num_elements())));
  }
  bool IsExpensive() const override { return false; }
};
REGISTER_KERNEL("Size", kDeviceCpu, SizeOp);

class ReshapeOp : public OpKernel {
 public:
  using OpKernel::OpKernel;
  void Compute(OpKernelContext* ctx) override {
    Tensor in = ctx->input(0);
    Tensor shape_t = ctx->input(1);
    std::vector<int64_t> dims;
    int64_t known = 1;
    int infer = -1;
    const int64_t n = shape_t.num_elements();
    for (int64_t i = 0; i < n; ++i) {
      int64_t d = shape_t.flat<int32_t>(i);
      if (d == -1) {
        OP_REQUIRES(ctx, infer == -1,
                    InvalidArgument("Reshape: more than one -1 dimension"));
        infer = static_cast<int>(i);
        dims.push_back(1);
      } else {
        dims.push_back(d);
        known *= d;
      }
    }
    if (infer >= 0) {
      OP_REQUIRES(ctx, known != 0 && in.num_elements() % known == 0,
                  InvalidArgument("Reshape cannot infer -1 dimension"));
      dims[infer] = in.num_elements() / known;
    }
    Result<Tensor> out = in.Reshaped(TensorShape(dims));
    OP_REQUIRES_OK(ctx, out.status());
    ctx->set_output(0, std::move(out).value());
  }
  bool IsExpensive() const override { return false; }
};
REGISTER_KERNEL("Reshape", kDeviceCpu, ReshapeOp);

class ExpandDimsOp : public OpKernel {
 public:
  using OpKernel::OpKernel;
  void Compute(OpKernelContext* ctx) override {
    Tensor in = ctx->input(0);
    int32_t dim = *ctx->input(1).data<int32_t>();
    int rank = in.shape().rank();
    if (dim < 0) dim += rank + 1;
    OP_REQUIRES(ctx, dim >= 0 && dim <= rank,
                InvalidArgument("ExpandDims dim out of range"));
    TensorShape shape = in.shape();
    shape.InsertDim(dim, 1);
    Result<Tensor> out = in.Reshaped(shape);
    OP_REQUIRES_OK(ctx, out.status());
    ctx->set_output(0, std::move(out).value());
  }
  bool IsExpensive() const override { return false; }
};
REGISTER_KERNEL("ExpandDims", kDeviceCpu, ExpandDimsOp);

class SqueezeOp : public OpKernel {
 public:
  explicit SqueezeOp(OpKernelConstruction* ctx) : OpKernel(ctx) {
    ctx->SetStatus(ctx->GetIntListAttr("squeeze_dims", &squeeze_dims_));
  }
  void Compute(OpKernelContext* ctx) override {
    Tensor in = ctx->input(0);
    TensorShape out_shape;
    for (int i = 0; i < in.shape().rank(); ++i) {
      bool listed = squeeze_dims_.empty();
      for (int64_t d : squeeze_dims_) {
        int64_t dd = d < 0 ? d + in.shape().rank() : d;
        if (dd == i) listed = true;
      }
      if (in.dim(i) == 1 && listed) continue;
      if (!squeeze_dims_.empty()) {
        bool explicitly_listed = false;
        for (int64_t d : squeeze_dims_) {
          int64_t dd = d < 0 ? d + in.shape().rank() : d;
          if (dd == i) explicitly_listed = true;
        }
        OP_REQUIRES(ctx, !explicitly_listed || in.dim(i) == 1,
                    InvalidArgument("cannot squeeze dimension of size " +
                                    std::to_string(in.dim(i))));
      }
      out_shape.AddDim(in.dim(i));
    }
    Result<Tensor> out = in.Reshaped(out_shape);
    OP_REQUIRES_OK(ctx, out.status());
    ctx->set_output(0, std::move(out).value());
  }
  bool IsExpensive() const override { return false; }

 private:
  std::vector<int64_t> squeeze_dims_;
};
REGISTER_KERNEL("Squeeze", kDeviceCpu, SqueezeOp);

class ConcatOp : public OpKernel {
 public:
  using OpKernel::OpKernel;
  void Compute(OpKernelContext* ctx) override {
    int32_t axis = *ctx->input(0).data<int32_t>();
    int n = ctx->num_inputs() - 1;
    OP_REQUIRES(ctx, n >= 1, InvalidArgument("Concat needs inputs"));
    Tensor first = ctx->input(1);
    int rank = first.shape().rank();
    if (axis < 0) axis += rank;
    OP_REQUIRES(ctx, axis >= 0 && axis < rank,
                InvalidArgument("Concat axis out of range"));
    TensorShape out_shape = first.shape();
    int64_t concat_total = 0;
    for (int i = 0; i < n; ++i) {
      Tensor t = ctx->input(1 + i);
      OP_REQUIRES(ctx, t.shape().rank() == rank,
                  InvalidArgument("Concat rank mismatch"));
      for (int d = 0; d < rank; ++d) {
        OP_REQUIRES(ctx, d == axis || t.dim(d) == first.dim(d),
                    InvalidArgument("Concat shape mismatch"));
      }
      concat_total += t.dim(axis);
    }
    out_shape.set_dim(axis, concat_total);
    Tensor out(BaseType(first.dtype()), out_shape);

    int64_t outer = 1;
    for (int d = 0; d < axis; ++d) outer *= first.dim(d);
    int64_t inner = 1;
    for (int d = axis + 1; d < rank; ++d) inner *= first.dim(d);

    OP_REQUIRES_OK(ctx, AnyTypeDispatch(first.dtype(), [&](auto tag) {
      using T = decltype(tag);
      T* o = out.data<T>();
      int64_t out_row = concat_total * inner;
      int64_t offset = 0;
      for (int i = 0; i < n; ++i) {
        Tensor t = ctx->input(1 + i);
        const T* in = t.data<T>();
        int64_t in_row = t.dim(axis) * inner;
        for (int64_t r = 0; r < outer; ++r) {
          std::memcpy(o + r * out_row + offset, in + r * in_row,
                      in_row * sizeof(T));
        }
        offset += in_row;
      }
    }));
    ctx->set_output(0, std::move(out));
  }
};
REGISTER_KERNEL("Concat", kDeviceCpu, ConcatOp);

class SplitOp : public OpKernel {
 public:
  using OpKernel::OpKernel;
  void Compute(OpKernelContext* ctx) override {
    int32_t axis = *ctx->input(0).data<int32_t>();
    Tensor value = ctx->input(1);
    int rank = value.shape().rank();
    if (axis < 0) axis += rank;
    OP_REQUIRES(ctx, axis >= 0 && axis < rank,
                InvalidArgument("Split axis out of range"));
    int num_split = num_outputs();
    OP_REQUIRES(ctx, value.dim(axis) % num_split == 0,
                InvalidArgument("Split dimension " + std::to_string(axis) +
                                " of size " + std::to_string(value.dim(axis)) +
                                " not divisible by " +
                                std::to_string(num_split)));
    int64_t piece = value.dim(axis) / num_split;
    TensorShape out_shape = value.shape();
    out_shape.set_dim(axis, piece);

    int64_t outer = 1;
    for (int d = 0; d < axis; ++d) outer *= value.dim(d);
    int64_t inner = 1;
    for (int d = axis + 1; d < rank; ++d) inner *= value.dim(d);

    OP_REQUIRES_OK(ctx, AnyTypeDispatch(value.dtype(), [&](auto tag) {
      using T = decltype(tag);
      const T* in = value.data<T>();
      int64_t in_row = value.dim(axis) * inner;
      int64_t out_row = piece * inner;
      for (int s = 0; s < num_split; ++s) {
        Tensor out(BaseType(value.dtype()), out_shape);
        T* o = out.data<T>();
        for (int64_t r = 0; r < outer; ++r) {
          std::memcpy(o + r * out_row, in + r * in_row + s * out_row,
                      out_row * sizeof(T));
        }
        ctx->set_output(s, std::move(out));
      }
    }));
  }
};
REGISTER_KERNEL("Split", kDeviceCpu, SplitOp);

class SliceOp : public OpKernel {
 public:
  using OpKernel::OpKernel;
  void Compute(OpKernelContext* ctx) override {
    Tensor in = ctx->input(0);
    Tensor begin_t = ctx->input(1);
    Tensor size_t_ = ctx->input(2);
    int rank = in.shape().rank();
    OP_REQUIRES(ctx,
                begin_t.num_elements() == rank &&
                    size_t_.num_elements() == rank,
                InvalidArgument("Slice begin/size must have length rank"));
    std::vector<int64_t> begin(rank);
    std::vector<int64_t> size(rank);
    TensorShape out_shape;
    for (int i = 0; i < rank; ++i) {
      begin[i] = begin_t.flat<int32_t>(i);
      size[i] = size_t_.flat<int32_t>(i);
      if (size[i] == -1) size[i] = in.dim(i) - begin[i];
      OP_REQUIRES(ctx,
                  begin[i] >= 0 && size[i] >= 0 &&
                      begin[i] + size[i] <= in.dim(i),
                  InvalidArgument("Slice out of bounds at dim " +
                                  std::to_string(i)));
      out_shape.AddDim(size[i]);
    }
    Tensor out(BaseType(in.dtype()), out_shape);
    OP_REQUIRES_OK(ctx, AnyTypeDispatch(in.dtype(), [&](auto tag) {
      using T = decltype(tag);
      const T* ip = in.data<T>();
      T* o = out.data<T>();
      std::vector<int64_t> in_stride(rank, 1);
      for (int i = rank - 2; i >= 0; --i) {
        in_stride[i] = in_stride[i + 1] * in.dim(i + 1);
      }
      std::vector<int64_t> idx(rank, 0);
      int64_t n = out.num_elements();
      for (int64_t i = 0; i < n; ++i) {
        int64_t src = 0;
        for (int d = 0; d < rank; ++d) src += (begin[d] + idx[d]) * in_stride[d];
        o[i] = ip[src];
        for (int d = rank - 1; d >= 0; --d) {
          if (++idx[d] < size[d]) break;
          idx[d] = 0;
        }
      }
    }));
    ctx->set_output(0, std::move(out));
  }
};
REGISTER_KERNEL("Slice", kDeviceCpu, SliceOp);

class PadOp : public OpKernel {
 public:
  using OpKernel::OpKernel;
  void Compute(OpKernelContext* ctx) override {
    Tensor in = ctx->input(0);
    Tensor paddings = ctx->input(1);
    int rank = in.shape().rank();
    OP_REQUIRES(ctx,
                paddings.shape().rank() == 2 && paddings.dim(0) == rank &&
                    paddings.dim(1) == 2,
                InvalidArgument("Pad paddings must be [rank, 2]"));
    TensorShape out_shape;
    std::vector<int64_t> before(rank);
    for (int i = 0; i < rank; ++i) {
      before[i] = paddings.matrix<int32_t>(i, 0);
      int64_t after = paddings.matrix<int32_t>(i, 1);
      OP_REQUIRES(ctx, before[i] >= 0 && after >= 0,
                  InvalidArgument("Pad amounts must be non-negative"));
      out_shape.AddDim(in.dim(i) + before[i] + after);
    }
    Tensor out(BaseType(in.dtype()), out_shape);  // zero-filled
    OP_REQUIRES_OK(ctx, NumericDispatch(in.dtype(), [&](auto tag) {
      using T = decltype(tag);
      const T* ip = in.data<T>();
      T* o = out.data<T>();
      std::vector<int64_t> out_stride(rank, 1);
      for (int i = rank - 2; i >= 0; --i) {
        out_stride[i] = out_stride[i + 1] * out_shape.dim(i + 1);
      }
      std::vector<int64_t> idx(rank, 0);
      int64_t n = in.num_elements();
      for (int64_t i = 0; i < n; ++i) {
        int64_t dst = 0;
        for (int d = 0; d < rank; ++d) dst += (before[d] + idx[d]) * out_stride[d];
        o[dst] = ip[i];
        for (int d = rank - 1; d >= 0; --d) {
          if (++idx[d] < in.dim(d)) break;
          idx[d] = 0;
        }
      }
    }));
    ctx->set_output(0, std::move(out));
  }
};
REGISTER_KERNEL("Pad", kDeviceCpu, PadOp);

class TransposeOp : public OpKernel {
 public:
  using OpKernel::OpKernel;
  void Compute(OpKernelContext* ctx) override {
    Tensor in = ctx->input(0);
    Tensor perm_t = ctx->input(1);
    int rank = in.shape().rank();
    OP_REQUIRES(ctx, perm_t.num_elements() == rank,
                InvalidArgument("Transpose perm must have length rank"));
    std::vector<int> perm(rank);
    std::vector<bool> seen(rank, false);
    TensorShape out_shape;
    for (int i = 0; i < rank; ++i) {
      perm[i] = perm_t.flat<int32_t>(i);
      OP_REQUIRES(ctx, perm[i] >= 0 && perm[i] < rank && !seen[perm[i]],
                  InvalidArgument("Transpose perm is not a permutation"));
      seen[perm[i]] = true;
      out_shape.AddDim(in.dim(perm[i]));
    }
    Tensor out(BaseType(in.dtype()), out_shape);
    OP_REQUIRES_OK(ctx, AnyTypeDispatch(in.dtype(), [&](auto tag) {
      using T = decltype(tag);
      const T* ip = in.data<T>();
      T* o = out.data<T>();
      std::vector<int64_t> in_stride(rank, 1);
      for (int i = rank - 2; i >= 0; --i) {
        in_stride[i] = in_stride[i + 1] * in.dim(i + 1);
      }
      std::vector<int64_t> idx(rank, 0);
      int64_t n = out.num_elements();
      for (int64_t i = 0; i < n; ++i) {
        int64_t src = 0;
        for (int d = 0; d < rank; ++d) src += idx[d] * in_stride[perm[d]];
        o[i] = ip[src];
        for (int d = rank - 1; d >= 0; --d) {
          if (++idx[d] < out_shape.dim(d)) break;
          idx[d] = 0;
        }
      }
    }));
    ctx->set_output(0, std::move(out));
  }
};
REGISTER_KERNEL("Transpose", kDeviceCpu, TransposeOp);

class TileOp : public OpKernel {
 public:
  using OpKernel::OpKernel;
  void Compute(OpKernelContext* ctx) override {
    Tensor in = ctx->input(0);
    Tensor mult_t = ctx->input(1);
    int rank = in.shape().rank();
    OP_REQUIRES(ctx, mult_t.num_elements() == rank,
                InvalidArgument("Tile multiples must have length rank"));
    TensorShape out_shape;
    std::vector<int64_t> mult(rank);
    for (int i = 0; i < rank; ++i) {
      mult[i] = mult_t.flat<int32_t>(i);
      OP_REQUIRES(ctx, mult[i] >= 1,
                  InvalidArgument("Tile multiples must be >= 1"));
      out_shape.AddDim(in.dim(i) * mult[i]);
    }
    Tensor out(BaseType(in.dtype()), out_shape);
    OP_REQUIRES_OK(ctx, AnyTypeDispatch(in.dtype(), [&](auto tag) {
      using T = decltype(tag);
      const T* ip = in.data<T>();
      T* o = out.data<T>();
      std::vector<int64_t> in_stride(rank, 1);
      for (int i = rank - 2; i >= 0; --i) {
        in_stride[i] = in_stride[i + 1] * in.dim(i + 1);
      }
      std::vector<int64_t> idx(rank, 0);
      int64_t n = out.num_elements();
      for (int64_t i = 0; i < n; ++i) {
        int64_t src = 0;
        for (int d = 0; d < rank; ++d) src += (idx[d] % in.dim(d)) * in_stride[d];
        o[i] = ip[src];
        for (int d = rank - 1; d >= 0; --d) {
          if (++idx[d] < out_shape.dim(d)) break;
          idx[d] = 0;
        }
      }
    }));
    ctx->set_output(0, std::move(out));
  }
};
REGISTER_KERNEL("Tile", kDeviceCpu, TileOp);

class PackOp : public OpKernel {
 public:
  explicit PackOp(OpKernelConstruction* ctx) : OpKernel(ctx) {
    ctx->SetStatus(ctx->GetIntAttr("axis", &axis_));
  }
  void Compute(OpKernelContext* ctx) override {
    int n = ctx->num_inputs();
    Tensor first = ctx->input(0);
    int rank = first.shape().rank();
    int64_t axis = axis_ < 0 ? axis_ + rank + 1 : axis_;
    OP_REQUIRES(ctx, axis >= 0 && axis <= rank,
                InvalidArgument("Pack axis out of range"));
    for (int i = 1; i < n; ++i) {
      OP_REQUIRES(ctx, ctx->input(i).shape() == first.shape(),
                  InvalidArgument("Pack inputs must have equal shapes"));
    }
    TensorShape out_shape = first.shape();
    out_shape.InsertDim(static_cast<int>(axis), n);
    Tensor out(BaseType(first.dtype()), out_shape);
    int64_t outer = 1;
    for (int d = 0; d < axis; ++d) outer *= first.dim(d);
    int64_t inner = first.num_elements() / std::max<int64_t>(outer, 1);
    OP_REQUIRES_OK(ctx, AnyTypeDispatch(first.dtype(), [&](auto tag) {
      using T = decltype(tag);
      T* o = out.data<T>();
      for (int i = 0; i < n; ++i) {
        Tensor t = ctx->input(i);
        const T* ip = t.data<T>();
        for (int64_t r = 0; r < outer; ++r) {
          std::memcpy(o + (r * n + i) * inner, ip + r * inner,
                      inner * sizeof(T));
        }
      }
    }));
    ctx->set_output(0, std::move(out));
  }

 private:
  int64_t axis_ = 0;
};
REGISTER_KERNEL("Pack", kDeviceCpu, PackOp);

class UnpackOp : public OpKernel {
 public:
  explicit UnpackOp(OpKernelConstruction* ctx) : OpKernel(ctx) {
    ctx->SetStatus(ctx->GetIntAttr("axis", &axis_));
  }
  void Compute(OpKernelContext* ctx) override {
    Tensor in = ctx->input(0);
    int rank = in.shape().rank();
    int64_t axis = axis_ < 0 ? axis_ + rank : axis_;
    OP_REQUIRES(ctx, axis >= 0 && axis < rank,
                InvalidArgument("Unpack axis out of range"));
    int n = num_outputs();
    OP_REQUIRES(ctx, in.dim(axis) == n,
                InvalidArgument("Unpack num mismatch: dim is " +
                                std::to_string(in.dim(axis)) + ", num is " +
                                std::to_string(n)));
    TensorShape out_shape = in.shape();
    out_shape.RemoveDim(static_cast<int>(axis));
    int64_t outer = 1;
    for (int d = 0; d < axis; ++d) outer *= in.dim(d);
    int64_t inner = 1;
    for (int d = static_cast<int>(axis) + 1; d < rank; ++d) inner *= in.dim(d);
    OP_REQUIRES_OK(ctx, AnyTypeDispatch(in.dtype(), [&](auto tag) {
      using T = decltype(tag);
      const T* ip = in.data<T>();
      for (int i = 0; i < n; ++i) {
        Tensor out(BaseType(in.dtype()), out_shape);
        T* o = out.data<T>();
        for (int64_t r = 0; r < outer; ++r) {
          std::memcpy(o + r * inner, ip + (r * n + i) * inner,
                      inner * sizeof(T));
        }
        ctx->set_output(i, std::move(out));
      }
    }));
  }

 private:
  int64_t axis_ = 0;
};
REGISTER_KERNEL("Unpack", kDeviceCpu, UnpackOp);

class OneHotOp : public OpKernel {
 public:
  using OpKernel::OpKernel;
  void Compute(OpKernelContext* ctx) override {
    Tensor indices = ctx->input(0);
    int32_t depth = *ctx->input(1).data<int32_t>();
    Tensor on = ctx->input(2);
    Tensor off = ctx->input(3);
    OP_REQUIRES(ctx, depth >= 0, InvalidArgument("OneHot depth < 0"));
    TensorShape out_shape = indices.shape();
    out_shape.AddDim(depth);
    Tensor out(BaseType(on.dtype()), out_shape);
    OP_REQUIRES_OK(ctx, NumericDispatch(on.dtype(), [&](auto tag) {
      using T = decltype(tag);
      T on_v = *on.data<T>();
      T off_v = *off.data<T>();
      T* o = out.data<T>();
      const int64_t n = out.num_elements();
      for (int64_t i = 0; i < n; ++i) o[i] = off_v;
      Status s = IndexDispatch(indices.dtype(), [&](auto itag) {
        using I = decltype(itag);
        const I* idx = indices.data<I>();
        const int64_t count = indices.num_elements();
        for (int64_t i = 0; i < count; ++i) {
          if (idx[i] >= 0 && idx[i] < depth) {
            o[i * depth + idx[i]] = on_v;
          }
        }
      });
      (void)s;
    }));
    ctx->set_output(0, std::move(out));
  }
};
REGISTER_KERNEL("OneHot", kDeviceCpu, OneHotOp);

}  // namespace
}  // namespace tfrepro
