// Binary (de)serialization of graphs and attribute values, used by the
// socket transport to ship per-device partitions to worker processes
// (RegisterSubgraph over the wire, paper §3.3). Built on the core/bytes.h
// codec, like Tensor::AppendToBytes; every count is checked against the
// bytes left before anything is sized from it, so corrupt input returns
// DataLoss (or the graph's own validation error) and never crashes.
//
// Round-trip contract: nodes keep their name, op, requested and assigned
// devices, and every attr kind (including Tensor attrs, so constant-folded
// partitions survive); data and control edges are reconnected exactly.
// Node ids are NOT preserved (the receiving graph assigns fresh ids) —
// nothing downstream of partitioning depends on them.

#ifndef TFREPRO_GRAPH_GRAPH_IO_H_
#define TFREPRO_GRAPH_GRAPH_IO_H_

#include <memory>
#include <string>

#include "graph/graph.h"

namespace tfrepro {

void AppendAttrValueToBytes(const AttrValue& attr, std::string* out);
Result<AttrValue> ParseAttrValueFromBytes(const std::string& bytes,
                                          size_t* offset);

void AppendGraphToBytes(const Graph& graph, std::string* out);
// Rebuilds the graph against `registry` (ops must be registered in the
// receiving process — both ends run the same binary).
Result<std::unique_ptr<Graph>> ParseGraphFromBytes(
    const std::string& bytes, size_t* offset,
    const OpRegistry* registry = OpRegistry::Global());

}  // namespace tfrepro

#endif  // TFREPRO_GRAPH_GRAPH_IO_H_
