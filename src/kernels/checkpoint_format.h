// On-disk checkpoint format used by the Save/Restore kernels (paper §4.3).
// Layout: magic, entry count, then (name, serialized tensor) pairs, in the
// core/bytes.h encoding.

#ifndef TFREPRO_KERNELS_CHECKPOINT_FORMAT_H_
#define TFREPRO_KERNELS_CHECKPOINT_FORMAT_H_

#include <string>
#include <utility>
#include <vector>

#include "core/status.h"
#include "core/tensor.h"

namespace tfrepro {

Status WriteCheckpoint(const std::string& filename,
                       const std::vector<std::pair<std::string, Tensor>>& entries);

// Both readers parse the whole file: a corrupt or truncated entry, a
// repeated name or trailing bytes return DataLoss naming the file and the
// entry, never a partial answer.

// Reads one named tensor from a checkpoint file; NotFound when no entry
// has that name.
Result<Tensor> ReadCheckpointTensor(const std::string& filename,
                                    const std::string& tensor_name);

// Lists the tensor names stored in a checkpoint file.
Result<std::vector<std::string>> ListCheckpointTensors(
    const std::string& filename);

}  // namespace tfrepro

#endif  // TFREPRO_KERNELS_CHECKPOINT_FORMAT_H_
