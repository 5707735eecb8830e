#include "graph/graph_io.h"

#include <map>
#include <vector>

#include "core/bytes.h"

namespace tfrepro {

namespace {

// Minimum encoded sizes, for bounding counts read off the wire.
constexpr size_t kMinNodeBytes = 5 * 8;  // four empty strings, attr count
constexpr size_t kMinAttrBytes = 2 * 8;  // empty name, kind
constexpr size_t kEdgeBytes = 4 * 8;

// A DataType value or a ref to one, as Node attrs may carry either.
bool ReadDataType(const std::string& in, size_t* offset, DataType* dt) {
  int64_t v = 0;
  if (!ReadInt64(in, offset, &v)) return false;
  const int64_t base = v >= kRefBit ? v - kRefBit : v;
  if (base < 0 || base > static_cast<int64_t>(DataType::kUint8)) return false;
  *dt = static_cast<DataType>(v);
  return true;
}

}  // namespace

void AppendAttrValueToBytes(const AttrValue& attr, std::string* out) {
  AppendInt64(out, static_cast<int64_t>(attr.kind()));
  switch (attr.kind()) {
    case AttrValue::Kind::kNone:
      break;
    case AttrValue::Kind::kInt:
      AppendInt64(out, attr.i());
      break;
    case AttrValue::Kind::kFloat:
      AppendFloat(out, attr.f());
      break;
    case AttrValue::Kind::kBool:
      AppendInt64(out, attr.b() ? 1 : 0);
      break;
    case AttrValue::Kind::kString:
      AppendString(out, attr.s());
      break;
    case AttrValue::Kind::kType:
      AppendInt64(out, static_cast<int64_t>(attr.type()));
      break;
    case AttrValue::Kind::kShape:
      AppendShape(out, attr.shape());
      break;
    case AttrValue::Kind::kTensor:
      attr.tensor().AppendToBytes(out);
      break;
    case AttrValue::Kind::kIntList:
      AppendInt64(out, static_cast<int64_t>(attr.int_list().size()));
      for (int64_t v : attr.int_list()) AppendInt64(out, v);
      break;
    case AttrValue::Kind::kFloatList:
      AppendInt64(out, static_cast<int64_t>(attr.float_list().size()));
      for (float v : attr.float_list()) AppendFloat(out, v);
      break;
    case AttrValue::Kind::kStringList:
      AppendInt64(out, static_cast<int64_t>(attr.string_list().size()));
      for (const std::string& v : attr.string_list()) AppendString(out, v);
      break;
    case AttrValue::Kind::kTypeList:
      AppendInt64(out, static_cast<int64_t>(attr.type_list().size()));
      for (DataType v : attr.type_list()) {
        AppendInt64(out, static_cast<int64_t>(v));
      }
      break;
    case AttrValue::Kind::kShapeList:
      AppendInt64(out, static_cast<int64_t>(attr.shape_list().size()));
      for (const TensorShape& v : attr.shape_list()) AppendShape(out, v);
      break;
  }
}

Result<AttrValue> ParseAttrValueFromBytes(const std::string& bytes,
                                          size_t* offset) {
  int64_t kind_val = 0;
  if (!ReadInt64(bytes, offset, &kind_val)) {
    return DataLoss("truncated attr kind");
  }
  if (kind_val < 0 ||
      kind_val > static_cast<int64_t>(AttrValue::Kind::kShapeList)) {
    return DataLoss("corrupt attr kind " + std::to_string(kind_val));
  }
  const AttrValue::Kind kind = static_cast<AttrValue::Kind>(kind_val);
  const Status bad = DataLoss("truncated or corrupt attr value");
  int64_t n = 0;  // list length
  switch (kind) {
    case AttrValue::Kind::kNone:
      return AttrValue();
    case AttrValue::Kind::kInt: {
      int64_t v = 0;
      if (!ReadInt64(bytes, offset, &v)) return bad;
      return AttrValue(v);
    }
    case AttrValue::Kind::kFloat: {
      float v = 0;
      if (!ReadFloat(bytes, offset, &v)) return bad;
      return AttrValue(v);
    }
    case AttrValue::Kind::kBool: {
      int64_t v = 0;
      if (!ReadInt64(bytes, offset, &v) || (v != 0 && v != 1)) {
        return bad;
      }
      return AttrValue(v != 0);
    }
    case AttrValue::Kind::kString: {
      std::string v;
      if (!ReadString(bytes, offset, &v)) return bad;
      return AttrValue(std::move(v));
    }
    case AttrValue::Kind::kType: {
      DataType v = DataType::kInvalid;
      if (!ReadDataType(bytes, offset, &v)) return bad;
      return AttrValue(v);
    }
    case AttrValue::Kind::kShape: {
      TensorShape shape;
      TF_RETURN_IF_ERROR(ReadShape(bytes, offset, &shape));
      return AttrValue(std::move(shape));
    }
    case AttrValue::Kind::kTensor: {
      Result<Tensor> tensor = Tensor::ParseFromBytes(bytes, offset);
      TF_RETURN_IF_ERROR(tensor.status());
      return AttrValue(std::move(tensor).value());
    }
    case AttrValue::Kind::kIntList: {
      if (!ReadCount(bytes, offset, sizeof(int64_t), &n)) return bad;
      std::vector<int64_t> v(n);
      for (int64_t& x : v) {
        if (!ReadInt64(bytes, offset, &x)) return bad;
      }
      return AttrValue(std::move(v));
    }
    case AttrValue::Kind::kFloatList: {
      if (!ReadCount(bytes, offset, sizeof(float), &n)) return bad;
      std::vector<float> v(n);
      for (float& x : v) {
        if (!ReadFloat(bytes, offset, &x)) return bad;
      }
      return AttrValue(std::move(v));
    }
    case AttrValue::Kind::kStringList: {
      if (!ReadCount(bytes, offset, sizeof(int64_t), &n)) return bad;
      std::vector<std::string> v(n);
      for (std::string& x : v) {
        if (!ReadString(bytes, offset, &x)) return bad;
      }
      return AttrValue(std::move(v));
    }
    case AttrValue::Kind::kTypeList: {
      if (!ReadCount(bytes, offset, sizeof(int64_t), &n)) return bad;
      DataTypeVector v(n);
      for (DataType& x : v) {
        if (!ReadDataType(bytes, offset, &x)) return bad;
      }
      return AttrValue(std::move(v));
    }
    case AttrValue::Kind::kShapeList: {
      if (!ReadCount(bytes, offset, sizeof(int64_t), &n)) return bad;
      std::vector<TensorShape> v(n);
      for (TensorShape& x : v) {
        TF_RETURN_IF_ERROR(ReadShape(bytes, offset, &x));
      }
      return AttrValue(std::move(v));
    }
  }
  return DataLoss("unhandled attr kind");
}

void AppendGraphToBytes(const Graph& graph, std::string* out) {
  const std::vector<Node*> nodes = graph.nodes();
  // Nodes first (indexed by position in this list, not by graph id — ids
  // may have gaps from removed nodes and are reassigned on parse).
  std::map<const Node*, int64_t> index;
  AppendInt64(out, static_cast<int64_t>(nodes.size()));
  for (size_t i = 0; i < nodes.size(); ++i) {
    const Node* node = nodes[i];
    index[node] = static_cast<int64_t>(i);
    AppendString(out, node->name());
    AppendString(out, node->op());
    AppendString(out, node->requested_device());
    AppendString(out, node->assigned_device());
    AppendInt64(out, static_cast<int64_t>(node->attrs().size()));
    for (const auto& [attr_name, attr] : node->attrs()) {
      AppendString(out, attr_name);
      AppendAttrValueToBytes(attr, out);
    }
  }
  // Edges as (src_index, src_output, dst_index, dst_input); control edges
  // carry kControlSlot ports.
  std::vector<const Edge*> edges;
  for (const Node* node : nodes) {
    for (const Edge* e : node->out_edges()) edges.push_back(e);
  }
  AppendInt64(out, static_cast<int64_t>(edges.size()));
  for (const Edge* e : edges) {
    AppendInt64(out, index[e->src]);
    AppendInt64(out, e->src_output);
    AppendInt64(out, index[e->dst]);
    AppendInt64(out, e->dst_input);
  }
}

Result<std::unique_ptr<Graph>> ParseGraphFromBytes(const std::string& bytes,
                                                   size_t* offset,
                                                   const OpRegistry* registry) {
  auto graph = std::make_unique<Graph>(registry);
  int64_t num_nodes = 0;
  if (!ReadCount(bytes, offset, kMinNodeBytes, &num_nodes)) {
    return DataLoss("truncated graph node count");
  }
  std::vector<Node*> nodes;
  nodes.reserve(num_nodes);
  for (int64_t i = 0; i < num_nodes; ++i) {
    NodeDef def;
    std::string assigned_device;
    int64_t num_attrs = 0;
    if (!ReadString(bytes, offset, &def.name) ||
        !ReadString(bytes, offset, &def.op) ||
        !ReadString(bytes, offset, &def.device) ||
        !ReadString(bytes, offset, &assigned_device) ||
        !ReadCount(bytes, offset, kMinAttrBytes, &num_attrs)) {
      return DataLoss("truncated graph node");
    }
    for (int64_t a = 0; a < num_attrs; ++a) {
      std::string attr_name;
      if (!ReadString(bytes, offset, &attr_name)) {
        return DataLoss("truncated attr name");
      }
      // AppendGraphToBytes writes attrs in AttrMap (sorted) order.
      if (!def.attrs.empty() && attr_name <= def.attrs.rbegin()->first) {
        return DataLoss("attr '" + attr_name + "' out of order");
      }
      Result<AttrValue> attr = ParseAttrValueFromBytes(bytes, offset);
      TF_RETURN_IF_ERROR(attr.status());
      def.attrs.emplace_hint(def.attrs.end(), std::move(attr_name),
                             std::move(attr).value());
    }
    Result<Node*> node = graph->AddNode(std::move(def));
    TF_RETURN_IF_ERROR(node.status());
    node.value()->set_assigned_device(assigned_device);
    nodes.push_back(node.value());
  }
  int64_t num_edges = 0;
  if (!ReadCount(bytes, offset, kEdgeBytes, &num_edges)) {
    return DataLoss("truncated graph edge count");
  }
  // Edges arrive grouped by source node, as AppendGraphToBytes walks them;
  // anything the graph would store differently from how it reads is
  // rejected, so a parsed graph re-encodes to the same bytes.
  int64_t prev_src = 0;
  for (int64_t i = 0; i < num_edges; ++i) {
    int64_t src = 0, src_output = 0, dst = 0, dst_input = 0;
    if (!ReadInt64(bytes, offset, &src) ||
        !ReadInt64(bytes, offset, &src_output) ||
        !ReadInt64(bytes, offset, &dst) ||
        !ReadInt64(bytes, offset, &dst_input)) {
      return DataLoss("truncated graph edge");
    }
    if (src < prev_src || src >= static_cast<int64_t>(nodes.size()) ||
        dst < 0 || dst >= static_cast<int64_t>(nodes.size())) {
      return DataLoss("graph edge references out-of-order or out-of-range "
                      "node");
    }
    prev_src = src;
    if (src_output != static_cast<int>(src_output) ||
        dst_input != static_cast<int>(dst_input) ||
        (src_output == kControlSlot) != (dst_input == kControlSlot)) {
      return DataLoss("corrupt graph edge ports");
    }
    if (src_output == kControlSlot) {
      const size_t before = nodes[src]->out_edges().size();
      graph->AddControlEdge(nodes[src], nodes[dst]);
      if (nodes[src]->out_edges().size() == before) {
        return DataLoss("repeated control edge");
      }
    } else {
      Result<const Edge*> edge =
          graph->AddEdge(nodes[src], static_cast<int>(src_output), nodes[dst],
                         static_cast<int>(dst_input));
      TF_RETURN_IF_ERROR(edge.status());
    }
  }
  return graph;
}

}  // namespace tfrepro
