#include "data/synthetic.h"

#include <algorithm>
#include <cmath>

namespace tfrepro {
namespace data {

ClusteredDataset::ClusteredDataset(int num_classes, int dim, uint64_t seed,
                                   float cluster_spread)
    : num_classes_(num_classes < 1 ? 1 : num_classes),
      dim_(dim < 1 ? 1 : dim),
      spread_(cluster_spread),
      rng_(seed, kClusteredBatchStream) {
  // Centers come from their own stream: Batch's sample sequence for a seed
  // does not shift when the center count (init draw count) changes.
  PhiloxRandom init_rng(seed, kClusteredInitStream);
  centers_.resize(static_cast<size_t>(num_classes_) * dim_);
  for (float& c : centers_) {
    c = 2.0f * init_rng.Uniform() - 1.0f;
  }
}

void ClusteredDataset::Batch(int batch_size, Tensor* features,
                             Tensor* labels) {
  if (batch_size < 0) batch_size = 0;
  *features = Tensor(DataType::kFloat, TensorShape({batch_size, dim_}));
  *labels = Tensor(DataType::kInt64, TensorShape({batch_size}));
  for (int i = 0; i < batch_size; ++i) {
    int64_t cls = static_cast<int64_t>(rng_.UniformInt(num_classes_));
    labels->flat<int64_t>(i) = cls;
    for (int d = 0; d < dim_; ++d) {
      features->matrix<float>(i, d) =
          centers_[cls * dim_ + d] + spread_ * rng_.Normal();
    }
  }
}

Tensor SyntheticImageBatch(int batch, int height, int width, int channels,
                           PhiloxRandom* rng) {
  Tensor t(DataType::kFloat, TensorShape({batch, height, width, channels}));
  float* p = t.data<float>();
  const int64_t n = t.num_elements();
  for (int64_t i = 0; i < n; ++i) {
    p[i] = rng->Uniform();
  }
  return t;
}

ZipfTokenStream::ZipfTokenStream(int64_t vocab_size, double exponent,
                                 uint64_t seed)
    : vocab_size_(vocab_size < 1 ? 1 : vocab_size), rng_(seed, kZipfStream) {
  cdf_.resize(vocab_size_);
  double total = 0;
  for (int64_t r = 0; r < vocab_size_; ++r) {
    total += 1.0 / std::pow(static_cast<double>(r + 1), exponent);
    cdf_[r] = total;
  }
  // Pin the last entry to exactly 1.0 so a draw of u == 1 - ulp still lands
  // inside the table even after the division rounds cdf_.back() down; with
  // vocab_size == 1 this makes the single-bucket binary search total.
  for (double& v : cdf_) {
    v /= total;
  }
  cdf_.back() = 1.0;
}

int64_t ZipfTokenStream::Next() {
  double u = rng_.UniformDouble();
  auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
  return std::min<int64_t>(vocab_size_ - 1, it - cdf_.begin());
}

void ZipfTokenStream::Batch(int batch, int length, Tensor* tokens,
                            Tensor* labels) {
  if (batch < 0) batch = 0;
  if (length < 0) length = 0;
  *tokens = Tensor(DataType::kInt64, TensorShape({batch, length}));
  *labels = Tensor(DataType::kInt64, TensorShape({batch, length}));
  for (int b = 0; b < batch; ++b) {
    int64_t prev = Next();
    for (int t = 0; t < length; ++t) {
      int64_t cur = Next();
      tokens->matrix<int64_t>(b, t) = prev;
      labels->matrix<int64_t>(b, t) = cur;
      prev = cur;
    }
  }
}

}  // namespace data
}  // namespace tfrepro
