// Shared data service (tf.data-service shape; related repo:
// core/data/service): ONE pipeline task runs the input pipeline and serves
// its elements to N training workers over the rpc transport, so adding
// workers does not re-read and re-preprocess the same files N times.
//
// Element assignment is round-robin by global production index: consumer c
// holding cursor k receives the element with global index k*N + c — the
// i-th element the (deterministic) pipeline iterator produces. Because the
// mapping is a pure function of (consumer, cursor) and production order, a
// restarted pipeline task re-derives any element from a fresh iterator, and
// a consumer that retries an unanswered cursor always gets the same
// elements.
//
// Batched delivery: one GetElement call carries a run of consecutive
// elements for the caller's cursor — cursors k, k+1, ..., k+count-1 — so a
// consumer pays one round trip per run, not per element. The server fills
// a run until it holds max_elements, the epoch ends, or the response passes
// a fixed byte budget; it always sends at least one element unless the
// epoch has ended or the request fails. When the max_ahead buffer fills
// after some elements it returns the partial run; with none ready it
// answers retryable Unavailable.
//
// Exactly-once delivery: a consumer advances its cursor past a run only
// after the run arrives; the server caches the last response per
// consumer, so a retry of the last cursor is answered by retransmitting
// the whole run byte for byte, never by re-serving fresh elements to other
// slots. Exactly-once preprocessing holds on the failure-free path — each
// element is produced (and its map fns run) once, no matter how many
// consumers pull. A request cut short by the server's own shutdown answers
// retryable Unavailable, so consumers ride over a pipeline-task restart.
//
// Wire format (Method::kGetElement):
//   request  body: [int64 consumer][int64 cursor][int64 max_elements]
//   response body: [app Status][int64 count][int64 end_of_epoch]
//                  count x ([int64 ncomponents][tensor bytes...])

#ifndef TFREPRO_DISTRIBUTED_DATA_SERVICE_H_
#define TFREPRO_DISTRIBUTED_DATA_SERVICE_H_

#include <atomic>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/status.h"
#include "data/dataset.h"
#include "distributed/rpc/rpc_channel.h"
#include "distributed/rpc/rpc_server.h"

namespace tfrepro {
namespace distributed {

// The transport-independent request state machine. WorkerService and the
// standalone DataServiceServer both delegate their kGetElement frames here.
class DataServiceHandler {
 public:
  // Must yield iterators producing the SAME element sequence every call —
  // restart recovery re-derives served elements from a fresh iterator.
  using IteratorFactory =
      std::function<Result<std::unique_ptr<data::IteratorBase>>()>;

  struct Options {
    int num_consumers = 1;
    // Bound on elements buffered for lagging consumers: a far-ahead
    // consumer's run stops there, and with nothing ready it is pushed
    // back with retryable Unavailable.
    int64_t max_ahead = 1 << 14;
  };

  DataServiceHandler(IteratorFactory factory, Options options);
  ~DataServiceHandler();

  // Serves one GetElement request body (a run of elements, see the wire
  // format above); `respond` is called exactly once (possibly inline) with
  // the application status and response body.
  void HandleGetElement(
      const std::string& body,
      const std::function<void(const Status&, const std::string&)>& respond);

  // Stops the service: unblocks a production pull in flight, and that
  // request and every later one answer retryable Unavailable (the clients'
  // cue to wait for a restarted task). Idempotent.
  void Cancel();

 private:
  const Options options_;
  std::atomic<bool> cancelled_{false};

  std::mutex mu_;
  Status init_status_;
  std::unique_ptr<data::IteratorBase> iterator_;
  int64_t next_index_ = 0;   // global index of the next element produced
  bool exhausted_ = false;
  int64_t end_index_ = -1;   // first index past the end, once exhausted
  Status iter_status_;
  std::map<int64_t, data::Element> buffer_;  // produced, not yet served

  struct ConsumerState {
    int64_t next_cursor = 0;
    int64_t last_cursor = -1;
    std::string last_response;  // serialized run, for retransmission
  };
  std::vector<ConsumerState> consumers_;
};

// The standalone pipeline task: a DataServiceHandler behind its own
// RpcServer. Destroying it mid-epoch and starting a fresh one on the same
// port is the supported crash-recovery path (chaos-tested).
class DataServiceServer {
 public:
  DataServiceServer(DataServiceHandler::IteratorFactory factory,
                    DataServiceHandler::Options options);
  ~DataServiceServer();

  Status Start(int port);  // 0 = ephemeral, see port()
  int port() const { return server_.port(); }
  void Shutdown();

 private:
  std::shared_ptr<DataServiceHandler> handler_;
  rpc::RpcServer server_;
};

// Parses a GetElement response body after its app Status, starting at
// *offset: appends the run's elements to *elements and sets *end_of_epoch,
// both only on success. DataLoss on anything but exactly one well-formed
// response — truncation, counts the bytes cannot hold, end_of_epoch other
// than 0/1, an empty run without end of epoch, or trailing bytes.
Status ParseGetElementResponse(const std::string& body, size_t* offset,
                               std::deque<data::Element>* elements,
                               bool* end_of_epoch);

// One training worker's view of the service: a blocking GetNext with
// deadline/retry semantics over an RpcChannel (errno-mapped retryable
// statuses, jittered reconnect backoff — the channel's own machinery).
// Each GetElement call fetches a run of elements into a local buffer that
// GetNext drains before it asks again.
class DataServiceClient {
 public:
  struct Options {
    int consumer = 0;
    int num_consumers = 1;
    double call_deadline_seconds = 5.0;
    // Budget for one GetNext across retries; exceeding it surfaces the
    // last transient error.
    double total_deadline_seconds = 60.0;
  };

  DataServiceClient(int port, Options options);

  // Hands out the next buffered element; with the buffer empty, blocks
  // until the run at the current cursor arrives (retrying transient
  // failures). End of epoch comes only after every buffered element, and
  // stays: asking again answers end of epoch.
  Status GetNext(data::Element* out, bool* end_of_epoch);

  // Fails a blocked GetNext and all future ones with Cancelled, even with
  // elements still buffered.
  void Cancel();

  // Elements handed to the consumer so far (not elements received): the
  // input position a checkpoint would record.
  int64_t cursor() const { return cursor_.load(); }

 private:
  // One GetElement call for the run at cursor_, retried until it answers,
  // the total deadline passes or Cancel is called.
  Status FetchRun();

  const Options options_;
  rpc::RpcChannel channel_;
  std::atomic<int64_t> cursor_{0};
  std::atomic<bool> cancelled_{false};
  std::mutex call_mu_;  // serializes GetNext (single-consumer contract)
  std::deque<data::Element> buffer_;  // received, not yet handed out
  bool end_of_epoch_ = false;         // the server said the epoch ended
};

// Builds the record-file pipeline worker_main hosts when spawned as a
// data-service task: RecordFile(files) [-> Repeat(repeat)] ->
// ParallelMap(map_fn, parallelism) [-> Shuffle(shuffle_buffer, seed)].
Result<DataServiceHandler::IteratorFactory> RecordPipelineFactory(
    std::vector<std::string> files, const std::string& map_fn,
    int parallelism, DataTypeVector output_types, int64_t repeat,
    int64_t shuffle_buffer, uint64_t seed);

}  // namespace distributed
}  // namespace tfrepro

#endif  // TFREPRO_DISTRIBUTED_DATA_SERVICE_H_
