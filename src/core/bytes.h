// The one byte codec behind every serialized form in tfrepro (DESIGN.md
// §11): tensors and graphs on the socket wire, checkpoints on disk and the
// StepStats a traced worker ships back. Values are appended to a growing
// std::string and read back with a moving offset:
//
//   int64   8 bytes, little-endian two's complement
//   float   4 bytes, little-endian IEEE 754 binary32
//   string  int64 length, then the bytes
//   shape   int64 rank (at most 16), then one int64 per dim
//
// The format is defined as little-endian. Every supported host is, so the
// helpers copy native bytes and the static_assert below turns a big-endian
// build into a compile error instead of a silently different format.
//
// Every Read* fails on input that is too short (false; ReadShape returns
// DataLoss) and leaves the value unspecified. A count that sizes an
// allocation goes through ReadCount, which rejects any count the remaining
// bytes cannot hold, so a corrupt length prefix fails the parse instead of
// allocating gigabytes.

#ifndef TFREPRO_CORE_BYTES_H_
#define TFREPRO_CORE_BYTES_H_

#include <bit>
#include <cstdint>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "core/status.h"
#include "core/tensor_shape.h"

namespace tfrepro {

static_assert(std::endian::native == std::endian::little,
              "the tfrepro byte format is little-endian");

inline void AppendInt64(std::string* out, int64_t v) {
  out->append(reinterpret_cast<const char*>(&v), sizeof(v));
}

inline bool ReadInt64(const std::string& in, size_t* offset, int64_t* v) {
  if (*offset > in.size() || in.size() - *offset < sizeof(*v)) return false;
  std::memcpy(v, in.data() + *offset, sizeof(*v));
  *offset += sizeof(*v);
  return true;
}

inline void AppendFloat(std::string* out, float v) {
  out->append(reinterpret_cast<const char*>(&v), sizeof(v));
}

inline bool ReadFloat(const std::string& in, size_t* offset, float* v) {
  if (*offset > in.size() || in.size() - *offset < sizeof(*v)) return false;
  std::memcpy(v, in.data() + *offset, sizeof(*v));
  *offset += sizeof(*v);
  return true;
}

inline void AppendString(std::string* out, const std::string& s) {
  AppendInt64(out, static_cast<int64_t>(s.size()));
  out->append(s);
}

inline bool ReadString(const std::string& in, size_t* offset,
                       std::string* s) {
  int64_t len = 0;
  if (!ReadInt64(in, offset, &len) || len < 0 ||
      static_cast<uint64_t>(len) > in.size() - *offset) {
    return false;
  }
  s->assign(in.data() + *offset, static_cast<size_t>(len));
  *offset += static_cast<size_t>(len);
  return true;
}

// Reads an item count for items that take at least `min_item_bytes` (> 0)
// each. Fails when the count is negative or more than the rest of `in`
// could hold, so `n` is safe to size a container with.
inline bool ReadCount(const std::string& in, size_t* offset,
                      size_t min_item_bytes, int64_t* n) {
  return ReadInt64(in, offset, n) && *n >= 0 &&
         static_cast<uint64_t>(*n) <= (in.size() - *offset) / min_item_bytes;
}

inline void AppendShape(std::string* out, const TensorShape& shape) {
  AppendInt64(out, shape.rank());
  for (int i = 0; i < shape.rank(); ++i) AppendInt64(out, shape.dim(i));
}

// Reads a rank (at most 16) and its dims; the dims must pass
// ValidateShape.
inline Status ReadShape(const std::string& in, size_t* offset,
                        TensorShape* shape) {
  int64_t rank = 0;
  if (!ReadInt64(in, offset, &rank)) return DataLoss("truncated shape rank");
  if (rank < 0 || rank > 16) {
    return DataLoss("corrupt shape rank " + std::to_string(rank));
  }
  std::vector<int64_t> dims(static_cast<size_t>(rank));
  for (int64_t& d : dims) {
    if (!ReadInt64(in, offset, &d)) return DataLoss("truncated shape dims");
  }
  TF_RETURN_IF_ERROR(ValidateShape(dims));
  *shape = TensorShape(std::move(dims));
  return Status::OK();
}

}  // namespace tfrepro

#endif  // TFREPRO_CORE_BYTES_H_
