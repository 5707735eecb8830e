// Sparse-access kernels (paper §4.2): Gather extracts rows from a large
// (possibly sharded) tensor; DynamicPartition/DynamicStitch route per-shard
// index sets and reassemble results; UnsortedSegmentSum builds the sparse
// gradient of Gather.

#include <cstring>

#include "kernels/dispatch.h"
#include "runtime/kernel.h"

namespace tfrepro {
namespace {

class GatherOp : public OpKernel {
 public:
  using OpKernel::OpKernel;
  void Compute(OpKernelContext* ctx) override {
    Tensor params = ctx->input(0);
    Tensor indices = ctx->input(1);
    OP_REQUIRES(ctx, params.shape().rank() >= 1,
                InvalidArgument("Gather params must have rank >= 1"));
    int64_t rows = params.dim(0);
    int64_t row_elems =
        rows == 0 ? 0 : params.num_elements() / rows;
    TensorShape out_shape = indices.shape();
    for (int d = 1; d < params.shape().rank(); ++d) {
      out_shape.AddDim(params.dim(d));
    }
    Tensor out(BaseType(params.dtype()), out_shape);
    Status index_status;
    Status dispatch_status;
    OP_REQUIRES_OK(ctx, AnyTypeDispatch(params.dtype(), [&](auto tag) {
      using T = decltype(tag);
      const T* p = params.data<T>();
      T* o = out.data<T>();
      dispatch_status = IndexDispatch(indices.dtype(), [&](auto itag) {
        using I = decltype(itag);
        const I* idx = indices.data<I>();
        const int64_t count = indices.num_elements();
        for (int64_t i = 0; i < count; ++i) {
          if (idx[i] < 0 || idx[i] >= rows) {
            index_status = OutOfRange(
                "Gather index " + std::to_string(idx[i]) +
                " out of range [0, " + std::to_string(rows) + ")");
            return;
          }
          std::memcpy(o + i * row_elems, p + idx[i] * row_elems,
                      row_elems * sizeof(T));
        }
      });
    }));
    if (index_status.ok()) index_status = dispatch_status;
    OP_REQUIRES_OK(ctx, index_status);
    ctx->set_output(0, std::move(out));
  }
};
REGISTER_KERNEL("Gather", kDeviceCpu, GatherOp);

class DynamicPartitionOp : public OpKernel {
 public:
  using OpKernel::OpKernel;
  void Compute(OpKernelContext* ctx) override {
    Tensor data = ctx->input(0);
    Tensor partitions = ctx->input(1);
    int num_partitions = num_outputs();
    OP_REQUIRES(ctx, partitions.shape().rank() == 1,
                InvalidArgument("DynamicPartition supports vector partitions"));
    OP_REQUIRES(ctx,
                data.shape().rank() >= 1 &&
                    data.dim(0) == partitions.dim(0),
                InvalidArgument("DynamicPartition data/partitions mismatch"));
    int64_t n = partitions.dim(0);
    int64_t row_elems = n == 0 ? 0 : data.num_elements() / std::max<int64_t>(n, 1);

    std::vector<std::vector<int64_t>> buckets(num_partitions);
    for (int64_t i = 0; i < n; ++i) {
      int32_t p = partitions.flat<int32_t>(i);
      OP_REQUIRES(ctx, p >= 0 && p < num_partitions,
                  InvalidArgument("partition id " + std::to_string(p) +
                                  " out of range"));
      buckets[p].push_back(i);
    }
    OP_REQUIRES_OK(ctx, AnyTypeDispatch(data.dtype(), [&](auto tag) {
      using T = decltype(tag);
      const T* dp = data.data<T>();
      for (int p = 0; p < num_partitions; ++p) {
        TensorShape shape = data.shape();
        shape.set_dim(0, static_cast<int64_t>(buckets[p].size()));
        Tensor out(BaseType(data.dtype()), shape);
        T* o = out.data<T>();
        for (size_t j = 0; j < buckets[p].size(); ++j) {
          std::memcpy(o + j * row_elems, dp + buckets[p][j] * row_elems,
                      row_elems * sizeof(T));
        }
        ctx->set_output(p, std::move(out));
      }
    }));
  }
};
REGISTER_KERNEL("DynamicPartition", kDeviceCpu, DynamicPartitionOp);

class DynamicStitchOp : public OpKernel {
 public:
  using OpKernel::OpKernel;
  void Compute(OpKernelContext* ctx) override {
    int n = ctx->num_inputs() / 2;
    // Inputs: indices[0..n), data[n..2n).
    int64_t max_index = -1;
    for (int i = 0; i < n; ++i) {
      Tensor idx = ctx->input(i);
      const int64_t count = idx.num_elements();
      for (int64_t j = 0; j < count; ++j) {
        max_index = std::max<int64_t>(max_index, idx.flat<int32_t>(j));
      }
    }
    int64_t out_rows = max_index + 1;
    Tensor first_data = ctx->input(n);
    OP_REQUIRES(ctx, first_data.shape().rank() >= 1,
                InvalidArgument("DynamicStitch data must have rank >= 1"));
    TensorShape row_shape = first_data.shape();
    row_shape.RemoveDim(0);
    int64_t row_elems = row_shape.num_elements();
    TensorShape out_shape = row_shape;
    out_shape.InsertDim(0, out_rows);
    Tensor out(BaseType(first_data.dtype()), out_shape);
    OP_REQUIRES_OK(ctx, AnyTypeDispatch(first_data.dtype(), [&](auto tag) {
      using T = decltype(tag);
      T* o = out.data<T>();
      for (int i = 0; i < n; ++i) {
        Tensor idx = ctx->input(i);
        Tensor data = ctx->input(n + i);
        const T* dp = data.data<T>();
        const int64_t count = idx.num_elements();
        for (int64_t j = 0; j < count; ++j) {
          int64_t dst = idx.flat<int32_t>(j);
          std::memcpy(o + dst * row_elems, dp + j * row_elems,
                      row_elems * sizeof(T));
        }
      }
    }));
    for (int i = 0; i < n; ++i) {
      Tensor idx = ctx->input(i);
      Tensor data = ctx->input(n + i);
      OP_REQUIRES(ctx, data.shape().rank() >= 1 &&
                           data.dim(0) == idx.num_elements(),
                  InvalidArgument("DynamicStitch data/indices mismatch"));
    }
    ctx->set_output(0, std::move(out));
  }
};
REGISTER_KERNEL("DynamicStitch", kDeviceCpu, DynamicStitchOp);

class UnsortedSegmentSumOp : public OpKernel {
 public:
  using OpKernel::OpKernel;
  void Compute(OpKernelContext* ctx) override {
    Tensor data = ctx->input(0);
    Tensor segment_ids = ctx->input(1);
    int32_t num_segments = *ctx->input(2).data<int32_t>();
    OP_REQUIRES(ctx, num_segments >= 0,
                InvalidArgument("num_segments must be >= 0"));
    OP_REQUIRES(ctx,
                data.shape().rank() >= 1 &&
                    segment_ids.num_elements() == data.dim(0),
                InvalidArgument("UnsortedSegmentSum ids/data mismatch"));
    int64_t rows = data.dim(0);
    int64_t row_elems = rows == 0 ? 0 : data.num_elements() / rows;
    TensorShape out_shape = data.shape();
    out_shape.set_dim(0, num_segments);
    Tensor out(BaseType(data.dtype()), out_shape);  // zero-filled
    Status index_status;
    Status dispatch_status;
    OP_REQUIRES_OK(ctx, NumericDispatch(data.dtype(), [&](auto tag) {
      using T = decltype(tag);
      const T* dp = data.data<T>();
      T* o = out.data<T>();
      dispatch_status = IndexDispatch(segment_ids.dtype(), [&](auto itag) {
        using I = decltype(itag);
        const I* ids = segment_ids.data<I>();
        for (int64_t r = 0; r < rows; ++r) {
          I seg = ids[r];
          if (seg < 0 || seg >= num_segments) {
            index_status = OutOfRange("segment id " + std::to_string(seg) +
                                      " out of range");
            return;
          }
          for (int64_t j = 0; j < row_elems; ++j) {
            o[seg * row_elems + j] += dp[r * row_elems + j];
          }
        }
      });
    }));
    if (index_status.ok()) index_status = dispatch_status;
    OP_REQUIRES_OK(ctx, index_status);
    ctx->set_output(0, std::move(out));
  }
};
REGISTER_KERNEL("UnsortedSegmentSum", kDeviceCpu, UnsortedSegmentSumOp);

}  // namespace
}  // namespace tfrepro
