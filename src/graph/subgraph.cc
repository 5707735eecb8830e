#include "graph/subgraph.h"

#include <algorithm>
#include <deque>
#include <limits>
#include <map>
#include <set>

#include "graph/graph_builder.h"

namespace tfrepro {

void PruneForReverseReachability(Graph* graph, std::vector<Node*> roots) {
  std::set<Node*> reachable;
  std::deque<Node*> queue;
  for (Node* root : roots) {
    if (root != nullptr && reachable.insert(root).second) {
      queue.push_back(root);
    }
  }
  while (!queue.empty()) {
    Node* node = queue.front();
    queue.pop_front();
    for (const Edge* e : node->in_edges()) {
      if (reachable.insert(e->src).second) {
        queue.push_back(e->src);
      }
    }
  }
  for (Node* node : graph->nodes()) {
    if (reachable.count(node) == 0) {
      graph->RemoveNode(node);
    }
  }
}

namespace {

Result<Output> ResolveTensorName(Graph* graph, const std::string& name) {
  std::string node_name;
  int port = 0;
  ParseInputName(name, &node_name, &port);
  if (port == kControlSlot) {
    return InvalidArgument("'" + name + "' names a control input");
  }
  Node* node = graph->FindNode(node_name);
  if (node == nullptr) {
    return NotFound("node '" + node_name + "' not found in graph");
  }
  if (port < 0 || port >= node->num_outputs()) {
    return InvalidArgument("output " + std::to_string(port) + " of node '" +
                           node_name + "' out of range (" +
                           std::to_string(node->num_outputs()) + " outputs)");
  }
  return Output(node, port);
}

}  // namespace

Status RewriteGraphForExecution(Graph* graph,
                                const std::vector<std::string>& feeds,
                                const std::vector<std::string>& fetches,
                                const std::vector<std::string>& targets) {
  // Insert _Feed nodes and redirect consumers. Remember which output each
  // feed replaced: fetching a fed tensor must round-trip the fed value
  // through the _Feed node, not re-execute the producer (which for a
  // Placeholder is an error).
  std::map<std::pair<const Node*, int>, Node*> fed_outputs;
  for (size_t i = 0; i < feeds.size(); ++i) {
    Result<Output> fed = ResolveTensorName(graph, feeds[i]);
    if (!fed.ok()) {
      return Status(fed.status()).Prepend("feed '" + feeds[i] + "'");
    }
    DataType dtype = fed.value().node->output_type(fed.value().index);
    if (IsRefType(dtype)) {
      return InvalidArgument("cannot feed ref tensor '" + feeds[i] + "'");
    }
    NodeDef def;
    def.name = graph->NewName("_feed_" + std::to_string(i));
    def.op = "_Feed";
    def.device = fed.value().node->assigned_device().empty()
                     ? fed.value().node->requested_device()
                     : fed.value().node->assigned_device();
    def.attrs["dtype"] = AttrValue(dtype);
    def.attrs["index"] = AttrValue(static_cast<int64_t>(i));
    Result<Node*> feed_node = graph->AddNode(std::move(def));
    TF_RETURN_IF_ERROR(feed_node.status());
    fed_outputs[{fed.value().node, fed.value().index}] = feed_node.value();
    // Move consumers of the fed output onto the feed node.
    std::vector<const Edge*> out_edges(fed.value().node->out_edges().begin(),
                                       fed.value().node->out_edges().end());
    for (const Edge* e : out_edges) {
      if (e->IsControlEdge() || e->src_output != fed.value().index) continue;
      Node* dst = e->dst;
      int dst_input = e->dst_input;
      graph->RemoveEdge(e);
      TF_RETURN_IF_ERROR(
          graph->AddEdge(feed_node.value(), 0, dst, dst_input).status());
    }
  }

  // Insert _Fetch nodes. A fetch of a fed tensor reads the _Feed node.
  std::vector<Node*> roots;
  for (size_t i = 0; i < fetches.size(); ++i) {
    Result<Output> fetched = ResolveTensorName(graph, fetches[i]);
    if (!fetched.ok()) {
      return Status(fetched.status()).Prepend("fetch '" + fetches[i] + "'");
    }
    Node* src = fetched.value().node;
    int src_output = fetched.value().index;
    auto fed_it = fed_outputs.find({src, src_output});
    if (fed_it != fed_outputs.end()) {
      src = fed_it->second;
      src_output = 0;
    }
    NodeDef def;
    def.name = graph->NewName("_fetch_" + std::to_string(i));
    def.op = "_Fetch";
    def.device = src->assigned_device().empty() ? src->requested_device()
                                                : src->assigned_device();
    def.attrs["T"] = AttrValue(BaseType(src->output_type(src_output)));
    def.attrs["index"] = AttrValue(static_cast<int64_t>(i));
    Result<Node*> fetch_node = graph->AddNode(std::move(def));
    TF_RETURN_IF_ERROR(fetch_node.status());
    TF_RETURN_IF_ERROR(
        graph->AddEdge(src, src_output, fetch_node.value(), 0).status());
    roots.push_back(fetch_node.value());
  }

  for (const std::string& target : targets) {
    Node* node = graph->FindNode(target);
    if (node == nullptr) {
      return NotFound("target node '" + target + "' not found in graph");
    }
    roots.push_back(node);
  }

  PruneForReverseReachability(graph, std::move(roots));
  return Status::OK();
}

int64_t NumFetchSlots(const Graph& graph) {
  int64_t slots = 0;
  for (const Node* node : graph.nodes()) {
    if (!node->IsOp("_Fetch")) continue;
    const AttrValue* index = node->FindAttr("index");
    // CallFrame counts slots in an int; an index beyond that is no slot.
    if (index != nullptr && index->kind() == AttrValue::Kind::kInt &&
        index->i() >= 0 && index->i() < std::numeric_limits<int>::max()) {
      slots = std::max(slots, index->i() + 1);
    }
  }
  return slots;
}

}  // namespace tfrepro
