// Master-side stub for one worker process (DESIGN.md §11): implements
// WorkerInterface over an RpcChannel, so the master's compile/dispatch/
// probe/recovery machinery is byte-for-byte the same code as in-process.
//
// Fault-injection decisions are applied client-side, before the RPC is
// written: a scripted kill refuses the dispatch with Unavailable, a
// scripted hang parks the callback, a delay defers the send. Real process
// death needs no injector at all — the connection resets and the channel
// fails the call with a retryable error.

#ifndef TFREPRO_DISTRIBUTED_RPC_REMOTE_WORKER_H_
#define TFREPRO_DISTRIBUTED_RPC_REMOTE_WORKER_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>

#include "core/status.h"
#include "core/threadpool.h"
#include "distributed/cluster.h"
#include "distributed/rpc/rpc_channel.h"

namespace tfrepro {
namespace distributed {
namespace rpc {

class RemoteWorker : public WorkerInterface {
 public:
  // `injector` (optional) applies scripted faults client-side; `delay_pool`
  // (required when injector delays are used) carries deferred dispatches.
  // Both must outlive this stub.
  RemoteWorker(const std::string& job, int task_index, int port,
               double rpc_deadline_seconds, FaultInjector* injector,
               ThreadPool* delay_pool);

  const std::string& job() const override { return job_; }
  int task_index() const override { return task_index_; }

  Status RegisterSubgraph(const std::string& handle, const std::string& segment,
                          std::unique_ptr<Graph> partition,
                          const std::string& device_name) override;

  void RunSubgraphsAsync(const std::string& handle, const Executor::Args& args,
                         std::function<void(Status)> done) override;

  void PingAsync(std::function<void(Status)> done) override;

  bool HasSubgraphs(const std::string& handle) const override;

  int64_t incarnation() const override { return incarnation_.load(); }

  // --- used by ProcessCluster on restart ---
  // Points the channel at the respawned process and bumps incarnation, so
  // the master re-registers subgraphs instead of trusting stale ones.
  void TargetRestartedProcess(int port);

  RpcChannel* channel() { return &channel_; }

 private:
  // The RPCs themselves, after fault-injection decisions are resolved.
  void DispatchNow(const std::string& handle, const Executor::Args& args,
                   std::function<void(Status)> done);
  void PingNow(std::function<void(Status)> done);
  void NoteFetchSlots(const std::string& handle, int64_t slots) const;

  const std::string job_;
  const int task_index_;
  const double rpc_deadline_seconds_;
  FaultInjector* injector_;
  ThreadPool* delay_pool_;
  mutable RpcChannel channel_;
  std::atomic<int64_t> incarnation_{1};
  // Per handle, the call-frame fetch slots this task's partitions write
  // (NumFetchSlots): the count RunGraph asks the worker to allocate.
  // Learned from RegisterSubgraph, or from HasSubgraphs when a restarted
  // master re-adopts a registration.
  mutable std::mutex fetch_slots_mu_;
  mutable std::map<std::string, int64_t> fetch_slots_;
};

}  // namespace rpc
}  // namespace distributed
}  // namespace tfrepro

#endif  // TFREPRO_DISTRIBUTED_RPC_REMOTE_WORKER_H_
