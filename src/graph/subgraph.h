// Graph rewriting for partial execution (paper §3.2): the client names
// edges to feed and edges to fetch; the runtime rewrites the graph with
// _Feed/_Fetch nodes and prunes it to the necessary set of operations
// (a form of dead-code elimination, §5).

#ifndef TFREPRO_GRAPH_SUBGRAPH_H_
#define TFREPRO_GRAPH_SUBGRAPH_H_

#include <memory>
#include <string>
#include <vector>

#include "core/status.h"
#include "graph/graph.h"

namespace tfrepro {

// Rewrites `graph` in place:
//  * each feeds[i] ("node" or "node:port") is replaced by a _Feed node with
//    attr index=i, and consumers are redirected to it;
//  * each fetches[i] gets a _Fetch node with attr index=i;
//  * `targets` names nodes that must execute even though nothing is fetched
//    from them (e.g. optimizer update ops);
//  * finally the graph is pruned to nodes reachable (backwards) from
//    fetches and targets.
Status RewriteGraphForExecution(Graph* graph,
                                const std::vector<std::string>& feeds,
                                const std::vector<std::string>& fetches,
                                const std::vector<std::string>& targets);

// The call-frame fetch slots `graph` writes: one past the largest _Fetch
// index (indices outside [0, INT_MAX) name no slot), 0 when it has no
// _Fetch node.
int64_t NumFetchSlots(const Graph& graph);

// Removes every node not reachable backwards from `roots` (following data
// and control edges; NextIteration back edges are followed too, so whole
// loops stay intact).
void PruneForReverseReachability(Graph* graph, std::vector<Node*> roots);

}  // namespace tfrepro

#endif  // TFREPRO_GRAPH_SUBGRAPH_H_
