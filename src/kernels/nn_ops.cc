// Neural-network kernels: 2-D convolution and pooling with their gradients
// (NHWC layout, HWIO filters, SAME/VALID padding), softmax family, and the
// fused softmax-cross-entropy kernels. The convolutions are im2col plus the
// shared GEMM (kernels/gemm.h); MaxPool runs on kernels/ewise_loop.h.

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "kernels/dispatch.h"
#include "kernels/ewise_loop.h"
#include "kernels/gemm.h"
#include "runtime/kernel.h"

namespace tfrepro {
namespace {

struct Conv2DParams {
  int64_t batch, in_h, in_w, in_c;
  int64_t k_h, k_w, out_c;
  int64_t stride_h, stride_w;
  int64_t out_h, out_w;
  int64_t pad_top, pad_left;
};

Status ComputeConv2DParams(const TensorShape& input, const TensorShape& filter,
                           const std::vector<int64_t>& strides,
                           const std::string& padding, Conv2DParams* p) {
  if (input.rank() != 4) {
    return InvalidArgument("Conv2D input must be NHWC rank-4");
  }
  if (filter.rank() != 4) {
    return InvalidArgument("Conv2D filter must be HWIO rank-4");
  }
  if (strides.size() != 4 || strides[0] != 1 || strides[3] != 1) {
    return InvalidArgument("Conv2D strides must be [1, sh, sw, 1]");
  }
  p->batch = input.dim(0);
  p->in_h = input.dim(1);
  p->in_w = input.dim(2);
  p->in_c = input.dim(3);
  p->k_h = filter.dim(0);
  p->k_w = filter.dim(1);
  if (filter.dim(2) != p->in_c) {
    return InvalidArgument("Conv2D filter in-channels mismatch");
  }
  p->out_c = filter.dim(3);
  p->stride_h = strides[1];
  p->stride_w = strides[2];
  if (padding == "SAME") {
    p->out_h = (p->in_h + p->stride_h - 1) / p->stride_h;
    p->out_w = (p->in_w + p->stride_w - 1) / p->stride_w;
    int64_t pad_h =
        std::max<int64_t>(0, (p->out_h - 1) * p->stride_h + p->k_h - p->in_h);
    int64_t pad_w =
        std::max<int64_t>(0, (p->out_w - 1) * p->stride_w + p->k_w - p->in_w);
    p->pad_top = pad_h / 2;
    p->pad_left = pad_w / 2;
  } else if (padding == "VALID") {
    p->out_h = (p->in_h - p->k_h) / p->stride_h + 1;
    p->out_w = (p->in_w - p->k_w) / p->stride_w + 1;
    p->pad_top = 0;
    p->pad_left = 0;
  } else {
    return InvalidArgument("Conv2D padding must be SAME or VALID");
  }
  if (p->out_h <= 0 || p->out_w <= 0) {
    return InvalidArgument("Conv2D output would be empty");
  }
  return Status::OK();
}

// Rows of the im2col matrix are output pixels (b, oh, ow) in NHWC order and
// its k_h*k_w*in_c columns are filter taps in HWIO order, so the matrix
// times the filter viewed as [k_h*k_w*in_c, out_c] is the convolution.
// Calls fn(col, in, len) for each run of columns in rows [row0, row0 +
// rows): the `len` columns from offset `col` of the chunk hold the input
// from offset `in`, or zeros (padding) when in < 0. Consecutive kw taps
// read consecutive input pixels, so each filter row is at most three runs.
template <typename F>
void ForEachRun(const Conv2DParams& p, int64_t row0, int64_t rows, F&& fn) {
  const int64_t span = p.k_w * p.in_c;
  for (int64_t r = 0; r < rows; ++r) {
    const int64_t ow = (row0 + r) % p.out_w;
    const int64_t oh = (row0 + r) / p.out_w % p.out_h;
    const int64_t b = (row0 + r) / (p.out_w * p.out_h);
    const int64_t iw0 = ow * p.stride_w - p.pad_left;
    // Columns [lo, hi) of each filter row fall inside the image.
    const int64_t lo = std::clamp<int64_t>(-iw0, 0, p.k_w) * p.in_c;
    const int64_t hi = std::clamp<int64_t>(p.in_w - iw0, 0, p.k_w) * p.in_c;
    for (int64_t kh = 0; kh < p.k_h; ++kh) {
      const int64_t ih = oh * p.stride_h + kh - p.pad_top;
      const int64_t col = (r * p.k_h + kh) * span;
      if (ih < 0 || ih >= p.in_h) {
        fn(col, -1, span);
        continue;
      }
      if (lo > 0) fn(col, -1, lo);
      fn(col + lo, ((b * p.in_h + ih) * p.in_w + iw0) * p.in_c + lo, hi - lo);
      if (hi < span) fn(col + hi, -1, span - hi);
    }
  }
}

// Scratch bound for one chunk of the im2col matrix (DESIGN.md §15).
constexpr int64_t kIm2colBytes = 64 << 10;

// Calls fn(row0, rows, col) over the im2col matrix in chunks of whole
// output rows; col is scratch for rows x k_h*k_w*in_c elements. The full
// matrix is never materialized. The scratch is on the stack, like the
// GEMM's packing blocks, so it neither allocates nor pins heap memory; a
// filter too large for one row of it falls back to a heap row.
template <typename T, typename F>
void ForEachChunk(const Conv2DParams& p, F&& fn) {
  const int64_t kdim = p.k_h * p.k_w * p.in_c;
  const int64_t total = p.batch * p.out_h * p.out_w;
  T stack[kIm2colBytes / sizeof(T)];
  std::vector<T> heap;
  T* col = stack;
  int64_t chunk = kIm2colBytes / sizeof(T) / std::max<int64_t>(kdim, 1);
  if (chunk == 0) {
    heap.resize(kdim);
    col = heap.data();
    chunk = 1;
  }
  for (int64_t row0 = 0; row0 < total; row0 += chunk) {
    fn(row0, std::min(chunk, total - row0), col);
  }
}

template <typename T>
void Im2Col(const Conv2DParams& p, const T* in, int64_t row0, int64_t rows,
            T* col) {
  ForEachRun(p, row0, rows, [&](int64_t c, int64_t i, int64_t len) {
    if (i < 0) {
      std::fill_n(col + c, len, T{0});
    } else {
      std::copy_n(in + i, len, col + c);
    }
  });
}

// The strides/padding attributes shared by Conv2D and its backprops.
class ConvOpBase : public OpKernel {
 public:
  explicit ConvOpBase(OpKernelConstruction* ctx) : OpKernel(ctx) {
    ctx->SetStatus(ctx->GetIntListAttr("strides", &strides_));
    ctx->SetStatus(ctx->GetStringAttr("padding", &padding_));
  }

 protected:
  Status Params(const TensorShape& input, const TensorShape& filter,
                Conv2DParams* p) const {
    return ComputeConv2DParams(input, filter, strides_, padding_, p);
  }

 private:
  std::vector<int64_t> strides_;
  std::string padding_;
};

// The backprops index `grad` by the forward output's geometry.
Status CheckGradShape(const Tensor& grad, const Conv2DParams& p) {
  const TensorShape want({p.batch, p.out_h, p.out_w, p.out_c});
  if (grad.shape() != want) {
    return InvalidArgument("Conv2D backprop gradient shape " +
                           grad.shape().DebugString() + " != output shape " +
                           want.DebugString());
  }
  return Status::OK();
}

// The shape held by an input_sizes / filter_sizes operand.
Status SizesToShape(const Tensor& sizes, TensorShape* shape) {
  if (sizes.num_elements() != 4) {
    return InvalidArgument("conv sizes operand must have 4 elements");
  }
  *shape = TensorShape({sizes.flat<int32_t>(0), sizes.flat<int32_t>(1),
                        sizes.flat<int32_t>(2), sizes.flat<int32_t>(3)});
  return Status::OK();
}

// output = im2col(input) * filter.
class Conv2DOp : public ConvOpBase {
 public:
  using ConvOpBase::ConvOpBase;
  void Compute(OpKernelContext* ctx) override {
    Tensor input = ctx->input(0);
    Tensor filter = ctx->input(1);
    Conv2DParams p;
    OP_REQUIRES_OK(ctx, Params(input.shape(), filter.shape(), &p));
    Tensor out(BaseType(input.dtype()),
               TensorShape({p.batch, p.out_h, p.out_w, p.out_c}));
    OP_REQUIRES_OK(ctx, FloatDispatch(input.dtype(), [&](auto tag) {
      using T = decltype(tag);
      const int64_t kdim = p.k_h * p.k_w * p.in_c;
      ForEachChunk<T>(p, [&](int64_t row0, int64_t rows, T* col) {
        Im2Col(p, input.data<T>(), row0, rows, col);
        Gemm(col, filter.data<T>(), out.data<T>() + row0 * p.out_c, rows,
             kdim, p.out_c, false, false);
      });
    }));
    ctx->set_output(0, std::move(out));
  }
};
REGISTER_KERNEL("Conv2D", kDeviceCpu, Conv2DOp);

// d_input = col2im(grad * filter^T).
class Conv2DBackpropInputOp : public ConvOpBase {
 public:
  using ConvOpBase::ConvOpBase;
  void Compute(OpKernelContext* ctx) override {
    Tensor filter = ctx->input(1);
    Tensor grad = ctx->input(2);
    TensorShape in_shape;
    OP_REQUIRES_OK(ctx, SizesToShape(ctx->input(0), &in_shape));
    Conv2DParams p;
    OP_REQUIRES_OK(ctx, Params(in_shape, filter.shape(), &p));
    OP_REQUIRES_OK(ctx, CheckGradShape(grad, p));
    Tensor out(BaseType(grad.dtype()), in_shape);
    OP_REQUIRES_OK(ctx, FloatDispatch(grad.dtype(), [&](auto tag) {
      using T = decltype(tag);
      const int64_t kdim = p.k_h * p.k_w * p.in_c;
      T* o = out.data<T>();
      ForEachChunk<T>(p, [&](int64_t row0, int64_t rows, T* col) {
        std::fill_n(col, rows * kdim, T{0});
        Gemm(grad.data<T>() + row0 * p.out_c, filter.data<T>(), col, rows,
             p.out_c, kdim, false, true);
        ForEachRun(p, row0, rows, [&](int64_t c, int64_t i, int64_t len) {
          if (i < 0) return;
          for (int64_t j = 0; j < len; ++j) o[i + j] += col[c + j];
        });
      });
    }));
    ctx->set_output(0, std::move(out));
  }
};
REGISTER_KERNEL("Conv2DBackpropInput", kDeviceCpu, Conv2DBackpropInputOp);

// d_filter = im2col(input)^T * grad.
class Conv2DBackpropFilterOp : public ConvOpBase {
 public:
  using ConvOpBase::ConvOpBase;
  void Compute(OpKernelContext* ctx) override {
    Tensor input = ctx->input(0);
    Tensor grad = ctx->input(2);
    TensorShape f_shape;
    OP_REQUIRES_OK(ctx, SizesToShape(ctx->input(1), &f_shape));
    Conv2DParams p;
    OP_REQUIRES_OK(ctx, Params(input.shape(), f_shape, &p));
    OP_REQUIRES_OK(ctx, CheckGradShape(grad, p));
    Tensor out(BaseType(grad.dtype()), f_shape);
    OP_REQUIRES_OK(ctx, FloatDispatch(grad.dtype(), [&](auto tag) {
      using T = decltype(tag);
      const int64_t kdim = p.k_h * p.k_w * p.in_c;
      ForEachChunk<T>(p, [&](int64_t row0, int64_t rows, T* col) {
        Im2Col(p, input.data<T>(), row0, rows, col);
        Gemm(col, grad.data<T>() + row0 * p.out_c, out.data<T>(), kdim, rows,
             p.out_c, true, false);
      });
    }));
    ctx->set_output(0, std::move(out));
  }
};
REGISTER_KERNEL("Conv2DBackpropFilter", kDeviceCpu, Conv2DBackpropFilterOp);

struct PoolParams {
  Conv2DParams conv;  // reuse geometry (k = ksize)
};

Status ComputePoolParams(const TensorShape& input,
                         const std::vector<int64_t>& ksize,
                         const std::vector<int64_t>& strides,
                         const std::string& padding, Conv2DParams* p) {
  if (ksize.size() != 4 || ksize[0] != 1 || ksize[3] != 1) {
    return InvalidArgument("pool ksize must be [1, kh, kw, 1]");
  }
  // Fabricate a filter shape with matching channels so the conv geometry
  // helper applies.
  if (input.rank() != 4) {
    return InvalidArgument("pool input must be NHWC rank-4");
  }
  TensorShape filter({ksize[1], ksize[2], input.dim(3), input.dim(3)});
  return ComputeConv2DParams(input, filter, strides, padding, p);
}

class MaxPoolOp : public OpKernel {
 public:
  explicit MaxPoolOp(OpKernelConstruction* ctx) : OpKernel(ctx) {
    ctx->SetStatus(ctx->GetIntListAttr("ksize", &ksize_));
    ctx->SetStatus(ctx->GetIntListAttr("strides", &strides_));
    ctx->SetStatus(ctx->GetStringAttr("padding", &padding_));
  }
  void Compute(OpKernelContext* ctx) override {
    Tensor input = ctx->input(0);
    Conv2DParams p;
    OP_REQUIRES_OK(
        ctx, ComputePoolParams(input.shape(), ksize_, strides_, padding_, &p));
    Tensor out(BaseType(input.dtype()),
               TensorShape({p.batch, p.out_h, p.out_w, p.in_c}));
    OP_REQUIRES_OK(ctx, FloatDispatch(input.dtype(), [&](auto tag) {
      using T = decltype(tag);
      const T* in = input.data<T>();
      T* o = out.data<T>();
      // Channels innermost: each window tap folds one in_c run into the
      // output pixel's in_c run, taps in (kh, kw) order as a select, so NaN
      // and ties resolve as a scalar max loop would.
      for (int64_t b = 0; b < p.batch; ++b) {
        for (int64_t oh = 0; oh < p.out_h; ++oh) {
          for (int64_t ow = 0; ow < p.out_w; ++ow, o += p.in_c) {
            std::fill_n(o, p.in_c, std::numeric_limits<T>::lowest());
            for (int64_t kh = 0; kh < p.k_h; ++kh) {
              int64_t ih = oh * p.stride_h + kh - p.pad_top;
              if (ih < 0 || ih >= p.in_h) continue;
              for (int64_t kw = 0; kw < p.k_w; ++kw) {
                int64_t iw = ow * p.stride_w + kw - p.pad_left;
                if (iw < 0 || iw >= p.in_w) continue;
                ForEachElement(
                    p.in_c, [](T& best, T v) { best = v > best ? v : best; },
                    o, in + ((b * p.in_h + ih) * p.in_w + iw) * p.in_c);
              }
            }
          }
        }
      }
    }));
    ctx->set_output(0, std::move(out));
  }

 private:
  std::vector<int64_t> ksize_;
  std::vector<int64_t> strides_;
  std::string padding_;
};
REGISTER_KERNEL("MaxPool", kDeviceCpu, MaxPoolOp);

class MaxPoolGradOp : public OpKernel {
 public:
  explicit MaxPoolGradOp(OpKernelConstruction* ctx) : OpKernel(ctx) {
    ctx->SetStatus(ctx->GetIntListAttr("ksize", &ksize_));
    ctx->SetStatus(ctx->GetIntListAttr("strides", &strides_));
    ctx->SetStatus(ctx->GetStringAttr("padding", &padding_));
  }
  void Compute(OpKernelContext* ctx) override {
    Tensor input = ctx->input(0);
    Tensor output = ctx->input(1);
    Tensor grad = ctx->input(2);
    Conv2DParams p;
    OP_REQUIRES_OK(
        ctx, ComputePoolParams(input.shape(), ksize_, strides_, padding_, &p));
    Tensor out(BaseType(input.dtype()), input.shape());
    OP_REQUIRES_OK(ctx, FloatDispatch(input.dtype(), [&](auto tag) {
      using T = decltype(tag);
      const T* in = input.data<T>();
      const T* op = output.data<T>();
      const T* g = grad.data<T>();
      T* o = out.data<T>();
      for (int64_t b = 0; b < p.batch; ++b) {
        for (int64_t oh = 0; oh < p.out_h; ++oh) {
          for (int64_t ow = 0; ow < p.out_w; ++ow) {
            for (int64_t c = 0; c < p.in_c; ++c) {
              int64_t oidx = ((b * p.out_h + oh) * p.out_w + ow) * p.in_c + c;
              T best = op[oidx];
              // Route the gradient to the first element matching the max.
              bool routed = false;
              for (int64_t kh = 0; kh < p.k_h && !routed; ++kh) {
                int64_t ih = oh * p.stride_h + kh - p.pad_top;
                if (ih < 0 || ih >= p.in_h) continue;
                for (int64_t kw = 0; kw < p.k_w && !routed; ++kw) {
                  int64_t iw = ow * p.stride_w + kw - p.pad_left;
                  if (iw < 0 || iw >= p.in_w) continue;
                  int64_t iidx =
                      ((b * p.in_h + ih) * p.in_w + iw) * p.in_c + c;
                  if (in[iidx] == best) {
                    o[iidx] += g[oidx];
                    routed = true;
                  }
                }
              }
            }
          }
        }
      }
    }));
    ctx->set_output(0, std::move(out));
  }

 private:
  std::vector<int64_t> ksize_;
  std::vector<int64_t> strides_;
  std::string padding_;
};
REGISTER_KERNEL("MaxPoolGrad", kDeviceCpu, MaxPoolGradOp);

class AvgPoolOp : public OpKernel {
 public:
  explicit AvgPoolOp(OpKernelConstruction* ctx) : OpKernel(ctx) {
    ctx->SetStatus(ctx->GetIntListAttr("ksize", &ksize_));
    ctx->SetStatus(ctx->GetIntListAttr("strides", &strides_));
    ctx->SetStatus(ctx->GetStringAttr("padding", &padding_));
  }
  void Compute(OpKernelContext* ctx) override {
    Tensor input = ctx->input(0);
    Conv2DParams p;
    OP_REQUIRES_OK(
        ctx, ComputePoolParams(input.shape(), ksize_, strides_, padding_, &p));
    Tensor out(BaseType(input.dtype()),
               TensorShape({p.batch, p.out_h, p.out_w, p.in_c}));
    OP_REQUIRES_OK(ctx, FloatDispatch(input.dtype(), [&](auto tag) {
      using T = decltype(tag);
      const T* in = input.data<T>();
      T* o = out.data<T>();
      for (int64_t b = 0; b < p.batch; ++b) {
        for (int64_t oh = 0; oh < p.out_h; ++oh) {
          for (int64_t ow = 0; ow < p.out_w; ++ow) {
            for (int64_t c = 0; c < p.in_c; ++c) {
              double acc = 0;
              int64_t count = 0;
              for (int64_t kh = 0; kh < p.k_h; ++kh) {
                int64_t ih = oh * p.stride_h + kh - p.pad_top;
                if (ih < 0 || ih >= p.in_h) continue;
                for (int64_t kw = 0; kw < p.k_w; ++kw) {
                  int64_t iw = ow * p.stride_w + kw - p.pad_left;
                  if (iw < 0 || iw >= p.in_w) continue;
                  acc += in[((b * p.in_h + ih) * p.in_w + iw) * p.in_c + c];
                  ++count;
                }
              }
              o[((b * p.out_h + oh) * p.out_w + ow) * p.in_c + c] =
                  static_cast<T>(count > 0 ? acc / count : 0);
            }
          }
        }
      }
    }));
    ctx->set_output(0, std::move(out));
  }

 private:
  std::vector<int64_t> ksize_;
  std::vector<int64_t> strides_;
  std::string padding_;
};
REGISTER_KERNEL("AvgPool", kDeviceCpu, AvgPoolOp);

class AvgPoolGradOp : public OpKernel {
 public:
  explicit AvgPoolGradOp(OpKernelConstruction* ctx) : OpKernel(ctx) {
    ctx->SetStatus(ctx->GetIntListAttr("ksize", &ksize_));
    ctx->SetStatus(ctx->GetIntListAttr("strides", &strides_));
    ctx->SetStatus(ctx->GetStringAttr("padding", &padding_));
  }
  void Compute(OpKernelContext* ctx) override {
    Tensor shape_t = ctx->input(0);
    Tensor grad = ctx->input(1);
    TensorShape in_shape({shape_t.flat<int32_t>(0), shape_t.flat<int32_t>(1),
                          shape_t.flat<int32_t>(2), shape_t.flat<int32_t>(3)});
    Conv2DParams p;
    OP_REQUIRES_OK(ctx,
                   ComputePoolParams(in_shape, ksize_, strides_, padding_, &p));
    Tensor out(BaseType(grad.dtype()), in_shape);
    OP_REQUIRES_OK(ctx, FloatDispatch(grad.dtype(), [&](auto tag) {
      using T = decltype(tag);
      const T* g = grad.data<T>();
      T* o = out.data<T>();
      for (int64_t b = 0; b < p.batch; ++b) {
        for (int64_t oh = 0; oh < p.out_h; ++oh) {
          for (int64_t ow = 0; ow < p.out_w; ++ow) {
            // Count contributing elements (same loop as forward).
            int64_t count = 0;
            for (int64_t kh = 0; kh < p.k_h; ++kh) {
              int64_t ih = oh * p.stride_h + kh - p.pad_top;
              if (ih < 0 || ih >= p.in_h) continue;
              for (int64_t kw = 0; kw < p.k_w; ++kw) {
                int64_t iw = ow * p.stride_w + kw - p.pad_left;
                if (iw >= 0 && iw < p.in_w) ++count;
              }
            }
            if (count == 0) continue;
            for (int64_t c = 0; c < p.in_c; ++c) {
              T share =
                  g[((b * p.out_h + oh) * p.out_w + ow) * p.in_c + c] /
                  static_cast<T>(count);
              for (int64_t kh = 0; kh < p.k_h; ++kh) {
                int64_t ih = oh * p.stride_h + kh - p.pad_top;
                if (ih < 0 || ih >= p.in_h) continue;
                for (int64_t kw = 0; kw < p.k_w; ++kw) {
                  int64_t iw = ow * p.stride_w + kw - p.pad_left;
                  if (iw < 0 || iw >= p.in_w) continue;
                  o[((b * p.in_h + ih) * p.in_w + iw) * p.in_c + c] += share;
                }
              }
            }
          }
        }
      }
    }));
    ctx->set_output(0, std::move(out));
  }

 private:
  std::vector<int64_t> ksize_;
  std::vector<int64_t> strides_;
  std::string padding_;
};
REGISTER_KERNEL("AvgPoolGrad", kDeviceCpu, AvgPoolGradOp);

// Numerically-stable row softmax on [batch, classes].
template <typename T>
void SoftmaxRow(const T* in, T* out, int64_t n, bool log_form) {
  T mx = in[0];
  for (int64_t i = 1; i < n; ++i) mx = std::max(mx, in[i]);
  double sum = 0;
  for (int64_t i = 0; i < n; ++i) {
    sum += std::exp(static_cast<double>(in[i] - mx));
  }
  double log_sum = std::log(sum);
  for (int64_t i = 0; i < n; ++i) {
    double centered = static_cast<double>(in[i] - mx);
    out[i] = log_form ? static_cast<T>(centered - log_sum)
                      : static_cast<T>(std::exp(centered - log_sum));
  }
}

template <bool LogForm>
class SoftmaxOp : public OpKernel {
 public:
  using OpKernel::OpKernel;
  void Compute(OpKernelContext* ctx) override {
    Tensor logits = ctx->input(0);
    OP_REQUIRES(ctx, logits.shape().rank() == 2,
                InvalidArgument("Softmax logits must be rank-2"));
    Tensor out(BaseType(logits.dtype()), logits.shape());
    int64_t batch = logits.dim(0);
    int64_t classes = logits.dim(1);
    OP_REQUIRES_OK(ctx, FloatDispatch(logits.dtype(), [&](auto tag) {
      using T = decltype(tag);
      for (int64_t b = 0; b < batch; ++b) {
        SoftmaxRow<T>(logits.data<T>() + b * classes,
                      out.data<T>() + b * classes, classes, LogForm);
      }
    }));
    ctx->set_output(0, std::move(out));
  }
};
REGISTER_KERNEL("Softmax", kDeviceCpu, SoftmaxOp<false>);
REGISTER_KERNEL("LogSoftmax", kDeviceCpu, SoftmaxOp<true>);

// Fused loss+gradient: loss_b = -sum_c labels[b,c] * logsoftmax[b,c];
// backprop = softmax - labels.
class SoftmaxCrossEntropyOp : public OpKernel {
 public:
  using OpKernel::OpKernel;
  void Compute(OpKernelContext* ctx) override {
    Tensor logits = ctx->input(0);
    Tensor labels = ctx->input(1);
    OP_REQUIRES(ctx,
                logits.shape().rank() == 2 && labels.shape() == logits.shape(),
                InvalidArgument("SoftmaxCrossEntropy shapes must match"));
    int64_t batch = logits.dim(0);
    int64_t classes = logits.dim(1);
    Tensor loss(BaseType(logits.dtype()), TensorShape({batch}));
    Tensor backprop(BaseType(logits.dtype()), logits.shape());
    OP_REQUIRES_OK(ctx, FloatDispatch(logits.dtype(), [&](auto tag) {
      using T = decltype(tag);
      std::vector<T> logsm(classes);
      for (int64_t b = 0; b < batch; ++b) {
        const T* row = logits.data<T>() + b * classes;
        const T* lab = labels.data<T>() + b * classes;
        T* bp = backprop.data<T>() + b * classes;
        SoftmaxRow<T>(row, logsm.data(), classes, /*log_form=*/true);
        double l = 0;
        for (int64_t c = 0; c < classes; ++c) {
          l -= static_cast<double>(lab[c]) * logsm[c];
          bp[c] = static_cast<T>(std::exp(static_cast<double>(logsm[c]))) -
                  lab[c];
        }
        loss.flat<T>(b) = static_cast<T>(l);
      }
    }));
    ctx->set_output(0, std::move(loss));
    ctx->set_output(1, std::move(backprop));
  }
};
REGISTER_KERNEL("SoftmaxCrossEntropyWithLogits", kDeviceCpu,
                SoftmaxCrossEntropyOp);

class SparseSoftmaxCrossEntropyOp : public OpKernel {
 public:
  using OpKernel::OpKernel;
  void Compute(OpKernelContext* ctx) override {
    Tensor logits = ctx->input(0);
    Tensor labels = ctx->input(1);
    OP_REQUIRES(ctx, logits.shape().rank() == 2,
                InvalidArgument("logits must be rank-2"));
    int64_t batch = logits.dim(0);
    int64_t classes = logits.dim(1);
    OP_REQUIRES(ctx, labels.num_elements() == batch,
                InvalidArgument("labels must have one entry per row"));
    Tensor loss(BaseType(logits.dtype()), TensorShape({batch}));
    Tensor backprop(BaseType(logits.dtype()), logits.shape());
    Status index_status;
    Status dispatch_status;
    OP_REQUIRES_OK(ctx, FloatDispatch(logits.dtype(), [&](auto tag) {
      using T = decltype(tag);
      std::vector<T> logsm(classes);
      dispatch_status = IndexDispatch(labels.dtype(), [&](auto itag) {
        using I = decltype(itag);
        const I* lab = labels.data<I>();
        for (int64_t b = 0; b < batch; ++b) {
          if (lab[b] < 0 || lab[b] >= classes) {
            index_status = OutOfRange("label out of range");
            return;
          }
          const T* row = logits.data<T>() + b * classes;
          T* bp = backprop.data<T>() + b * classes;
          SoftmaxRow<T>(row, logsm.data(), classes, /*log_form=*/true);
          loss.flat<T>(b) = -logsm[lab[b]];
          for (int64_t c = 0; c < classes; ++c) {
            bp[c] =
                static_cast<T>(std::exp(static_cast<double>(logsm[c]))) -
                (c == static_cast<int64_t>(lab[b]) ? T{1} : T{0});
          }
        }
      });
    }));
    if (index_status.ok()) index_status = dispatch_status;
    OP_REQUIRES_OK(ctx, index_status);
    ctx->set_output(0, std::move(loss));
    ctx->set_output(1, std::move(backprop));
  }
};
REGISTER_KERNEL("SparseSoftmaxCrossEntropyWithLogits", kDeviceCpu,
                SparseSoftmaxCrossEntropyOp);

}  // namespace
}  // namespace tfrepro
