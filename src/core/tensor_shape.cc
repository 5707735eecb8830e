#include "core/tensor_shape.h"

#include <cassert>
#include <limits>
#include <sstream>
#include <utility>

namespace tfrepro {

TensorShape::TensorShape(std::initializer_list<int64_t> dims) : dims_(dims) {}

TensorShape::TensorShape(std::vector<int64_t> dims)
    : dims_(std::move(dims)) {}

int64_t TensorShape::dim(int i) const {
  assert(i >= 0 && i < rank());
  return dims_[i];
}

int64_t TensorShape::num_elements() const {
  int64_t n = 1;
  for (int64_t d : dims_) {
    n *= d;
  }
  return n;
}

void TensorShape::AddDim(int64_t size) { dims_.push_back(size); }

void TensorShape::InsertDim(int d, int64_t size) {
  assert(d >= 0 && d <= rank());
  dims_.insert(dims_.begin() + d, size);
}

void TensorShape::RemoveDim(int d) {
  assert(d >= 0 && d < rank());
  dims_.erase(dims_.begin() + d);
}

void TensorShape::set_dim(int d, int64_t size) {
  assert(d >= 0 && d < rank());
  dims_[d] = size;
}

std::string TensorShape::DebugString() const {
  std::ostringstream os;
  os << "[";
  for (int i = 0; i < rank(); ++i) {
    if (i > 0) os << ",";
    os << dims_[i];
  }
  os << "]";
  return os.str();
}

Status ValidateShape(const std::vector<int64_t>& dims) {
  int64_t n = 1;
  for (int64_t d : dims) {
    if (d < 0) {
      return InvalidArgument("shape has negative dimension " +
                             std::to_string(d));
    }
    if (d > 0 && n > std::numeric_limits<int64_t>::max() / d) {
      return InvalidArgument("shape element count overflows int64");
    }
    n *= d;
  }
  return Status::OK();
}

}  // namespace tfrepro
