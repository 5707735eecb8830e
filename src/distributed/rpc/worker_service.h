// The server side of one worker process (DESIGN.md §11). worker_main
// instantiates a WorkerService, which owns:
//
//   * a TaskWorker — the same devices/executors/subgraph registry the
//     in-process transport uses, so kernels behave identically under both
//     transports;
//   * an RpcServer answering the master's control RPCs (RegisterSubgraph,
//     RunGraph, Ping, HasSubgraphs, CancelStep, Shutdown);
//   * an RpcChannel to the master's rendezvous hub, through which every
//     cross-task tensor flows.
//
// Each RunGraph builds a per-step context: the call frame rebuilt from the
// shipped feeds, a cancellation manager, and a WorkerRendezvous that routes
// same-task transfers through a process-local rendezvous and cross-task
// transfers to the hub. When the step's executors finish, the initialized
// fetch slots are shipped back in the response and the context is dropped.
//
// CancelStep lets the master abort a step whose failure it noticed first
// (another worker died): local waiters park in the process-local
// rendezvous, which the hub's abort cannot reach, so the master must tell
// each surviving worker explicitly.

#ifndef TFREPRO_DISTRIBUTED_RPC_WORKER_SERVICE_H_
#define TFREPRO_DISTRIBUTED_RPC_WORKER_SERVICE_H_

#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>

#include "core/status.h"
#include "distributed/cluster.h"
#include "distributed/rpc/rpc_channel.h"
#include "distributed/rpc/rpc_server.h"
#include "runtime/kernel.h"
#include "runtime/rendezvous.h"
#include "runtime/tracing.h"

namespace tfrepro {
namespace distributed {

class DataServiceHandler;

namespace rpc {

// Per-step rendezvous inside a worker process. Same-task keys (both
// endpoint devices on this process's task) use a process-local
// LocalRendezvous; cross-task keys go to the master's hub — Send pushes the
// tensor with one bounded RPC, Recv long-polls (no deadline: a legitimate
// Recv may wait arbitrarily long, and a dead master resets the connection,
// which fails the poll with a retryable error).
class WorkerRendezvous : public Rendezvous {
 public:
  // `hub` and `done_pool` must outlive this rendezvous.
  // `send_deadline_seconds` bounds the SendTensor RPC (the hub answers it
  // immediately; only a wedged master can stall it). Recv completions are
  // dispatched onto `done_pool`, NEVER run inline on the hub channel's
  // reader thread: the executor continues downstream nodes inside `done`,
  // and a downstream cross-task Send blocks on a hub response that only
  // that reader thread could deliver — inline completion would deadlock
  // every recv→compute→send chain until the step deadline.
  WorkerRendezvous(RpcChannel* hub, ThreadPool* done_pool, int64_t step_id,
                   double send_deadline_seconds);

  Status Send(const std::string& key, const Tensor& value,
              bool is_dead) override;
  void RecvAsync(const std::string& key, DoneCallback done) override;
  void StartAbort(const Status& status) override;

  // A key is cross-task when its send and recv devices name different
  // tasks ("/job:worker/task:0/..." vs "/job:ps/task:1/...").
  static bool IsCrossTaskKey(const std::string& key);

 private:
  RpcChannel* hub_;
  ThreadPool* done_pool_;
  const int64_t step_id_;
  const double send_deadline_seconds_;
  LocalRendezvous local_;
};

class WorkerService {
 public:
  struct Options {
    std::string job;
    int task_index = 0;
    int num_threads = 2;
    int num_devices = 1;
    // Port of the master's rendezvous hub.
    int hub_port = 0;
    // Deadline for this worker's own outbound RPCs (SendTensor).
    double rpc_deadline_seconds = 5.0;
  };

  explicit WorkerService(const Options& options);
  ~WorkerService();

  // Hosts a shared data service on this worker's RPC port: GetElement
  // frames are answered by `handler` (distributed/data_service.h). Must be
  // called before Start; without it GetElement answers FailedPrecondition.
  // This is how a pipeline task is just another worker process — spawn
  // worker_main with --data_files=... and point DataServiceClients at its
  // port.
  void AttachDataService(std::shared_ptr<DataServiceHandler> handler);

  // Binds the service socket (port 0 = ephemeral, see port()) and starts
  // answering RPCs.
  Status Start(int port);
  int port() const { return server_.port(); }

  // Blocks until a Shutdown RPC arrives (or RequestShutdown is called).
  void WaitForShutdown();
  void RequestShutdown();

 private:
  struct StepCtx {
    std::unique_ptr<CallFrame> frame;
    CancellationManager cancellation;
    std::shared_ptr<WorkerRendezvous> rendezvous;
    Executor::Args args;  // outlives the async executor run
    // Set when the master requested a traced step (DESIGN.md §12): the
    // collected StepStats ride back on the RunGraph response together with
    // the request-receive / response-build timestamps the master needs for
    // clock-skew normalization.
    std::unique_ptr<TraceCollector> trace;
    int64_t recv_micros = 0;  // w0: when the RunGraph request arrived
  };

  void HandleRegisterSubgraph(const std::string& body,
                              std::shared_ptr<RpcServer::Responder> responder);
  void HandleRunGraph(const std::string& body,
                      std::shared_ptr<RpcServer::Responder> responder);
  // Fetch slots registered under `handle`; -1 when nothing is registered.
  int64_t FetchSlots(const std::string& handle);
  void HandleCancelStep(const std::string& body,
                        std::shared_ptr<RpcServer::Responder> responder);

  Options options_;
  // Answers GetElement when this worker doubles as the pipeline task.
  std::shared_ptr<DataServiceHandler> data_service_;
  // Runs hub-recv completions (and through them, downstream executor
  // nodes). Declared before worker_/hub_ so it is destroyed after them: by
  // then the steps_ drain below guarantees it is idle.
  ThreadPool recv_done_pool_;
  TaskWorker worker_;
  RpcChannel hub_;
  RpcServer server_;

  // Per registered handle, the call-frame fetch slots its partitions write
  // (NumFetchSlots): the bound on RunGraph's fetch count.
  std::mutex fetch_slots_mu_;
  std::map<std::string, int64_t> fetch_slots_;

  std::mutex steps_mu_;
  // Signalled whenever a step finishes; the destructor waits on it so no
  // executor callback can outlive the members it touches.
  std::condition_variable steps_done_cv_;
  std::map<int64_t, std::shared_ptr<StepCtx>> steps_;

  std::mutex shutdown_mu_;
  std::condition_variable shutdown_cv_;
  bool shutdown_requested_ = false;
};

}  // namespace rpc
}  // namespace distributed
}  // namespace tfrepro

#endif  // TFREPRO_DISTRIBUTED_RPC_WORKER_SERVICE_H_
