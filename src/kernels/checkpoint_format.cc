#include "kernels/checkpoint_format.h"

#include <cstdio>
#include <cstring>
#include <fstream>
#include <set>
#include <sstream>

#include "core/bytes.h"

namespace tfrepro {

namespace {

constexpr char kMagic[8] = {'T', 'F', 'R', 'C', 'K', 'P', 'T', '1'};

Result<std::string> ReadWholeFile(const std::string& filename) {
  std::ifstream in(filename, std::ios::binary);
  if (!in) {
    return NotFound("cannot open checkpoint file '" + filename + "'");
  }
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

}  // namespace

Status WriteCheckpoint(
    const std::string& filename,
    const std::vector<std::pair<std::string, Tensor>>& entries) {
  std::string bytes;
  bytes.append(kMagic, sizeof(kMagic));
  AppendInt64(&bytes, static_cast<int64_t>(entries.size()));
  for (const auto& [name, tensor] : entries) {
    AppendString(&bytes, name);
    tensor.AppendToBytes(&bytes);
  }
  // Write via a temp file + rename for crash atomicity: a checkpoint that
  // is only partially written must never shadow the previous good one.
  std::string tmp = filename + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) {
      return Internal("cannot open '" + tmp + "' for writing");
    }
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    if (!out) {
      return Internal("short write to '" + tmp + "'");
    }
  }
  if (std::rename(tmp.c_str(), filename.c_str()) != 0) {
    return Internal("cannot rename '" + tmp + "' to '" + filename + "'");
  }
  return Status::OK();
}

namespace {

using Entries = std::vector<std::pair<std::string, Tensor>>;

// Parses every entry of a checkpoint file. Any corrupt entry, a repeated
// name or bytes after the last entry fail the whole read with DataLoss
// naming the file and the entry: a damaged checkpoint never reads as a
// shorter one.
Result<Entries> ReadCheckpoint(const std::string& filename) {
  Result<std::string> bytes = ReadWholeFile(filename);
  TF_RETURN_IF_ERROR(bytes.status());
  const std::string& data = bytes.value();
  if (data.size() < sizeof(kMagic) ||
      std::memcmp(data.data(), kMagic, sizeof(kMagic)) != 0) {
    return DataLoss("'" + filename + "' is not a tfrepro checkpoint");
  }
  size_t offset = sizeof(kMagic);
  int64_t count = 0;
  // Each entry takes at least a name length and a tensor dtype.
  if (!ReadCount(data, &offset, 2 * sizeof(int64_t), &count)) {
    return DataLoss("corrupt checkpoint header in '" + filename + "'");
  }
  Entries entries;
  entries.reserve(count);
  std::set<std::string> names;
  for (int64_t i = 0; i < count; ++i) {
    auto where = [&]() {
      return "entry " + std::to_string(i) + " of '" + filename + "'";
    };
    std::string name;
    if (!ReadString(data, &offset, &name)) {
      return DataLoss("corrupt name in " + where());
    }
    if (!names.insert(name).second) {
      return DataLoss("repeated name '" + name + "' in " + where());
    }
    Result<Tensor> t = Tensor::ParseFromBytes(data, &offset);
    if (!t.ok()) {
      return DataLoss("corrupt tensor '" + name + "' in " + where() + ": " +
                      t.status().message());
    }
    entries.emplace_back(std::move(name), std::move(t).value());
  }
  if (offset != data.size()) {
    return DataLoss("trailing bytes after the last entry of '" + filename +
                    "'");
  }
  return entries;
}

}  // namespace

Result<Tensor> ReadCheckpointTensor(const std::string& filename,
                                    const std::string& tensor_name) {
  Result<Entries> entries = ReadCheckpoint(filename);
  TF_RETURN_IF_ERROR(entries.status());
  for (auto& [name, tensor] : entries.value()) {
    if (name == tensor_name) return std::move(tensor);
  }
  return NotFound("tensor '" + tensor_name + "' not found in checkpoint '" +
                  filename + "'");
}

Result<std::vector<std::string>> ListCheckpointTensors(
    const std::string& filename) {
  Result<Entries> entries = ReadCheckpoint(filename);
  TF_RETURN_IF_ERROR(entries.status());
  std::vector<std::string> names;
  for (const auto& [name, tensor] : entries.value()) names.push_back(name);
  return names;
}

}  // namespace tfrepro
