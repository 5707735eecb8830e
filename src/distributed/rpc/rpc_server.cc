#include "distributed/rpc/rpc_server.h"

#include <sys/socket.h>
#include <unistd.h>

#include <array>
#include <utility>
#include <vector>

#include "core/metrics.h"

namespace tfrepro {
namespace distributed {
namespace rpc {

namespace {

// Server-side handling latency (request parsed → response written),
// tagged by method. Mirrors the client's rpc.call_latency_us; the gap
// between the two is wire + queueing time.
metrics::Histogram* ServerHandleHistogram(uint8_t method) {
  static const auto* hists = []() {
    auto* a = new std::array<metrics::Histogram*,
                             static_cast<size_t>(kLastMethod) + 1>{};
    std::vector<double> buckets = {10,     40,     160,     640,
                                   2560,   10240,  40960,   163840,
                                   655360, 2621440, 10485760};
    // Slot 0 is tagged "?" and collects method bytes no Method names.
    for (size_t m = 0; m < a->size(); ++m) {
      (*a)[m] = metrics::Registry::Global()->GetHistogram(
          "rpc.server_handle_us", buckets,
          {{"method", MethodName(static_cast<Method>(m))}});
    }
    return a;
  }();
  const size_t m = method;
  return (*hists)[m < hists->size() ? m : 0];
}

}  // namespace

struct RpcServer::Conn {
  int fd = -1;
  std::mutex write_mu;
  std::atomic<bool> closed{false};

  void Sever() {
    bool was_closed = closed.exchange(true);
    if (!was_closed && fd >= 0) ::shutdown(fd, SHUT_RDWR);
  }

  ~Conn() {
    if (fd >= 0) ::close(fd);
  }
};

RpcServer::Responder::Responder(std::shared_ptr<void> conn,
                                uint64_t request_id, uint8_t method)
    : conn_(std::move(conn)),
      request_id_(request_id),
      method_(method),
      start_micros_(metrics::NowMicros()) {}

void RpcServer::Responder::Respond(const Status& status,
                                   const std::string& body,
                                   const char* payload, size_t payload_len) {
  if (responded_.exchange(true)) return;  // exactly-once
  ServerHandleHistogram(method_)->Record(
      static_cast<double>(metrics::NowMicros() - start_micros_));
  auto conn = std::static_pointer_cast<Conn>(conn_);
  if (conn->closed.load()) return;  // peer is gone; drop the response
  std::string framed;
  framed.reserve(body.size() + 32);
  AppendStatus(&framed, status);
  framed.append(body);
  std::lock_guard<std::mutex> lock(conn->write_mu);
  if (conn->closed.load()) return;
  Status ws = WriteFrame(conn->fd, request_id_, /*is_response=*/true, method_,
                         framed, payload, payload_len);
  if (!ws.ok()) conn->Sever();  // client reader sees the same death
}

RpcServer::~RpcServer() { Shutdown(); }

void RpcServer::RegisterHandler(Method method, Handler handler) {
  handlers_[static_cast<uint8_t>(method)] = std::move(handler);
}

Status RpcServer::Start(int port) {
  Result<int> listen_fd = ListenLocalhost(port, &port_);
  TF_RETURN_IF_ERROR(listen_fd.status());
  listen_fd_ = listen_fd.value();
  accept_thread_ = std::thread([this]() { AcceptLoop(); });
  return Status::OK();
}

void RpcServer::AcceptLoop() {
  while (!shutdown_.load()) {
    Result<int> fd = AcceptConnection(listen_fd_);
    if (!fd.ok()) {
      if (shutdown_.load()) return;
      continue;  // transient accept failure; keep serving
    }
    auto conn = std::make_shared<Conn>();
    conn->fd = fd.value();
    std::lock_guard<std::mutex> lock(conns_mu_);
    if (shutdown_.load()) {
      conn->Sever();
      return;
    }
    conns_.push_back(conn);
    conn_threads_.emplace_back([this, conn]() { ConnLoop(conn); });
  }
}

void RpcServer::ConnLoop(std::shared_ptr<Conn> conn) {
  for (;;) {
    Result<Frame> frame = ReadFrame(conn->fd);
    if (!frame.ok()) {
      conn->Sever();
      return;
    }
    if (frame.value().is_response) continue;  // protocol error; ignore
    auto responder = std::make_shared<Responder>(conn, frame.value().request_id,
                                                 frame.value().method);
    auto it = handlers_.find(frame.value().method);
    if (it == handlers_.end()) {
      responder->Respond(
          Unimplemented("no handler for method " +
                        std::to_string(frame.value().method)),
          std::string());
      continue;
    }
    // Handlers run inline: every registered handler either answers fast or
    // hands the responder off to asynchronous work (executors, rendezvous
    // callbacks), so the reader is never blocked for long.
    it->second(frame.value().body, std::move(responder));
  }
}

void RpcServer::Shutdown() {
  if (shutdown_.exchange(true)) return;
  if (listen_fd_ >= 0) {
    ::shutdown(listen_fd_, SHUT_RDWR);
  }
  if (accept_thread_.joinable()) accept_thread_.join();
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  std::vector<std::shared_ptr<Conn>> conns;
  std::vector<std::thread> threads;
  {
    std::lock_guard<std::mutex> lock(conns_mu_);
    conns = conns_;
    threads.swap(conn_threads_);
  }
  for (auto& conn : conns) conn->Sever();
  for (auto& t : threads) {
    if (t.joinable()) t.join();
  }
}

}  // namespace rpc
}  // namespace distributed
}  // namespace tfrepro
