// Wire format and socket plumbing for the multi-process transport
// (DESIGN.md §11). Every RPC is one length-prefixed frame over a TCP
// connection on localhost:
//
//   [u32 frame_len][u64 request_id][u8 is_response][u8 method][body...]
//
// frame_len counts everything after itself. Connections are multiplexed:
// many requests may be in flight, responses are matched by request_id, and
// long-poll calls (RecvTensor) may be answered far out of order. All
// integers are little-endian, the byte order core/bytes.h defines and
// checks at compile time.
//
// Bodies are built with the core/bytes.h codec (fixed-width ints,
// length-prefixed strings), like Tensor::AppendToBytes. A tensor with
// a POD payload is sent minimal-copy: AppendTensorMeta puts only the
// dtype/rank/dims header in the body and hands back a pointer to the
// tensor's own buffer, which WriteFrame gathers with writev — the payload
// crosses the user/kernel boundary once and is never copied into a staging
// string. The receiver sees one contiguous body and parses it with
// Tensor::ParseFromBytes (one memcpy into the new buffer).

#ifndef TFREPRO_DISTRIBUTED_RPC_WIRE_H_
#define TFREPRO_DISTRIBUTED_RPC_WIRE_H_

#include <cstdint>
#include <string>

#include "core/bytes.h"
#include "core/status.h"
#include "core/tensor.h"

namespace tfrepro {
namespace distributed {
namespace rpc {

enum class Method : uint8_t {
  // Worker service (master -> worker process).
  kRegisterSubgraph = 1,
  kRunGraph = 2,
  kPing = 3,
  kHasSubgraphs = 4,
  kCancelStep = 5,
  kShutdown = 6,
  // Rendezvous hub (worker process -> master).
  kSendTensor = 7,
  kRecvTensor = 8,
  // Data service (training worker -> shared pipeline task): pull the
  // element at the caller's cursor (distributed/data_service.h).
  kGetElement = 9,
};

// The highest method number: per-method tables are sized from it.
constexpr Method kLastMethod = Method::kGetElement;

const char* MethodName(Method m);

// One parsed frame.
struct Frame {
  uint64_t request_id = 0;
  bool is_response = false;
  uint8_t method = 0;
  std::string body;
};

// Frames larger than this are treated as stream corruption (well above any
// legitimate tensor in the test workloads, low enough to fail fast on
// garbage lengths).
constexpr uint32_t kMaxFrameBytes = 1u << 30;

// --- body builders/parsers (on top of core/bytes.h) ---

// Status as (code, message); OK is (0, ""). ReadStatus rejects an unknown
// code and an OK code with a message.
void AppendStatus(std::string* out, const Status& s);
bool ReadStatus(const std::string& in, size_t* offset, Status* s);

// Tensor header into `body`; for POD tensors the raw buffer is returned as
// (payload_data, payload_len) to be written separately (writev), and `t`
// must stay alive until the frame is written. For string/uninitialized
// tensors everything lands in `body` and payload is (nullptr, 0). The
// concatenation body-suffix + payload is exactly Tensor::AppendToBytes
// output, so the receiving side parses it with Tensor::ParseFromBytes.
void AppendTensorMeta(const Tensor& t, std::string* body,
                      const char** payload_data, size_t* payload_len);

// --- sockets (localhost only) ---

// Every socket below is created close-on-exec, so a spawned worker process
// never inherits this process's listening or connected sockets.

// Listening socket bound to 127.0.0.1:`port` (0 = ephemeral); the bound
// port is returned in *bound_port.
Result<int> ListenLocalhost(int port, int* bound_port);

// Blocking accept; maps failure through StatusFromErrno.
Result<int> AcceptConnection(int listen_fd);

// Connects to 127.0.0.1:`port` with a bounded handshake (non-blocking
// connect + poll). TCP_NODELAY is set: frames are latency-bound control
// messages.
Result<int> ConnectLocalhost(int port, double timeout_seconds);

// --- frame I/O ---
// Both directions update the process-wide rpc.bytes_sent / rpc.bytes_recv
// counters. WriteFrame gathers header + body + payload with writev and
// loops on partial writes/EINTR; errors are errno-mapped (EPIPE on a dead
// peer becomes retryable Unavailable). Not synchronized — callers serialize
// writers per fd.
Status WriteFrame(int fd, uint64_t request_id, bool is_response,
                  uint8_t method, const std::string& body,
                  const char* payload, size_t payload_len);

// Reads one frame; a clean EOF at a frame boundary returns Unavailable
// ("connection closed"), mid-frame EOF returns DataLoss.
Result<Frame> ReadFrame(int fd);

}  // namespace rpc
}  // namespace distributed
}  // namespace tfrepro

#endif  // TFREPRO_DISTRIBUTED_RPC_WIRE_H_
