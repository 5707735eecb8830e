#include "distributed/rpc/rpc_channel.h"

#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <memory>
#include <utility>

#include "core/metrics.h"

namespace tfrepro {
namespace distributed {
namespace rpc {

namespace {

metrics::Counter* ReconnectsCounter() {
  static metrics::Counter* c =
      metrics::Registry::Global()->GetCounter("rpc.reconnects");
  return c;
}

metrics::Counter* SendRetriesCounter() {
  static metrics::Counter* c =
      metrics::Registry::Global()->GetCounter("rpc.send_retries");
  return c;
}

// Microsecond latency buckets, ~4x apart from 10us to 10s.
std::vector<double> LatencyUsBuckets() {
  return {10,     40,     160,     640,     2560,     10240,
          40960,  163840, 655360,  2621440, 10485760};
}

// One client-side latency histogram per method, resolved once: Call sits
// on the send path of every tensor transfer, so it must not pay a registry
// map lookup per invocation.
metrics::Histogram* CallLatencyHistogram(Method method) {
  static const auto* hists = []() {
    auto* a = new std::array<metrics::Histogram*,
                             static_cast<size_t>(kLastMethod) + 1>{};
    // Slot 0 is tagged "?" and collects method bytes no Method names.
    for (size_t m = 0; m < a->size(); ++m) {
      (*a)[m] = metrics::Registry::Global()->GetHistogram(
          "rpc.call_latency_us", LatencyUsBuckets(),
          {{"method", MethodName(static_cast<Method>(m))}});
    }
    return a;
  }();
  const size_t m = static_cast<size_t>(method);
  return (*hists)[m < hists->size() ? m : 0];
}

}  // namespace

RpcChannel::RpcChannel(std::string peer, int port, const Options& options)
    : peer_(std::move(peer)),
      options_(options),
      port_(port),
      backoff_seconds_(options.backoff_initial_seconds),
      jitter_state_(reinterpret_cast<uintptr_t>(this) | 1) {}

RpcChannel::~RpcChannel() { Shutdown(); }

bool RpcChannel::connected() const {
  std::lock_guard<std::mutex> lock(mu_);
  return fd_ >= 0;
}

int RpcChannel::port() const {
  std::lock_guard<std::mutex> lock(mu_);
  return port_;
}

double RpcChannel::NextJitterFactor() {
  jitter_state_ ^= jitter_state_ >> 12;
  jitter_state_ ^= jitter_state_ << 25;
  jitter_state_ ^= jitter_state_ >> 27;
  const uint64_t r = jitter_state_ * 0x2545F4914F6CDD1DULL;
  const double unit =
      static_cast<double>(r >> 11) / 4503599627370496.0 * 2.0 - 1.0;
  return 1.0 + unit * options_.backoff_jitter_fraction;
}

void RpcChannel::CloseConnLocked() {
  if (fd_ >= 0) {
    // shutdown() unblocks the connection's reader, which closes the fd on
    // its way out. Closing it here instead could hand the number to the
    // next dial while the old reader is between two reads of it.
    ::shutdown(fd_, SHUT_RDWR);
    fd_ = -1;
  }
}

void RpcChannel::TakePendingLocked(std::vector<Pending>* out) {
  out->reserve(out->size() + pending_.size());
  for (auto& [id, pending] : pending_) {
    out->push_back(std::move(pending));
  }
  pending_.clear();
}

Status RpcChannel::EnsureConnectedLocked() {
  if (fd_ >= 0) return Status::OK();
  if (shutdown_) return Cancelled("channel to " + peer_ + " is shut down");
  const int64_t now = metrics::NowMicros();
  if (now < next_attempt_micros_) {
    return Unavailable("peer " + peer_ + " unavailable (reconnect backoff, " +
                       std::to_string((next_attempt_micros_ - now) / 1000) +
                       "ms left)");
  }
  Result<int> fd =
      ConnectLocalhost(port_, options_.connect_timeout_seconds);
  if (!fd.ok()) {
    // Dial failed: stamp the next allowed attempt with jittered exponential
    // backoff so a dead peer is not hammered and a fleet of clients does
    // not redial in lockstep.
    next_attempt_micros_ =
        now +
        static_cast<int64_t>(backoff_seconds_ * NextJitterFactor() * 1e6);
    backoff_seconds_ =
        std::min(backoff_seconds_ * 2.0, options_.backoff_max_seconds);
    return fd.status().ok()
               ? Unavailable("connect failed")
               : Status(fd.status().code(),
                        "peer " + peer_ + ": " + fd.status().message());
  }
  fd_ = fd.value();
  backoff_seconds_ = options_.backoff_initial_seconds;
  next_attempt_micros_ = 0;
  if (ever_connected_) ReconnectsCounter()->Increment();
  ever_connected_ = true;
  const int conn_fd = fd_;
  reader_ = std::thread([this, conn_fd]() { ReaderLoop(conn_fd); });
  return Status::OK();
}

void RpcChannel::Call(Method method, std::string body, const char* payload,
                      size_t payload_len, double deadline_seconds,
                      Callback done) {
  // Time the full call — send through completion (response, deadline expiry
  // or fail-fast alike), tagged by method.
  done = [done = std::move(done), start = metrics::NowMicros(),
          hist = CallLatencyHistogram(method)](const Status& status,
                                               std::string response) {
    hist->Record(static_cast<double>(metrics::NowMicros() - start));
    done(status, std::move(response));
  };
  const int64_t deadline_micros =
      deadline_seconds > 0
          ? metrics::NowMicros() + static_cast<int64_t>(deadline_seconds * 1e6)
          : 0;

  std::unique_lock<std::mutex> lock(mu_);
  for (int attempt = 0;; ++attempt) {
    // Reap the previous connection's reader before redialing. Joining must
    // happen unlocked: the dying reader takes mu_ on its way out.
    if (fd_ < 0 && reader_.joinable()) {
      std::thread old_reader = std::move(reader_);
      lock.unlock();
      old_reader.join();
      lock.lock();
      continue;  // re-evaluate state after the gap
    }
    Status conn = EnsureConnectedLocked();
    if (!conn.ok()) {
      lock.unlock();
      done(conn, std::string());
      return;
    }
    if (deadline_micros > 0 && !sweeper_.joinable()) {
      sweeper_ = std::thread([this]() { SweepLoop(); });
    }

    const uint64_t id = next_request_id_++;
    // Register before writing: the response may race back before this
    // thread regains the lock.
    pending_[id] = Pending{done, deadline_micros};
    Status ws = WriteFrame(fd_, id, /*is_response=*/false,
                           static_cast<uint8_t>(method), body, payload,
                           payload_len);
    if (ws.ok()) {
      if (deadline_micros > 0) sweep_cv_.notify_all();
      return;
    }
    // The frame was not fully flushed, so the peer cannot have parsed it —
    // retrying on a fresh connection cannot double-execute the request.
    pending_.erase(id);
    CloseConnLocked();
    if (ws.IsRetryable() && attempt < options_.max_send_retries) {
      SendRetriesCounter()->Increment();
      next_attempt_micros_ = 0;  // stale-connection retry dials immediately
      continue;
    }
    lock.unlock();
    done(Status(ws.code(), "peer " + peer_ + ": " + ws.message()),
         std::string());
    return;
  }
}

Result<std::string> RpcChannel::CallSync(Method method,
                                         const std::string& body,
                                         const char* payload,
                                         size_t payload_len,
                                         double deadline_seconds) {
  struct SyncState {
    std::mutex mu;
    std::condition_variable cv;
    bool finished = false;
    Status status;
    std::string body;
  };
  auto state = std::make_shared<SyncState>();
  Call(method, body, payload, payload_len, deadline_seconds,
       [state](const Status& s, std::string response) {
         std::lock_guard<std::mutex> lock(state->mu);
         state->status = s;
         state->body = std::move(response);
         state->finished = true;
         state->cv.notify_all();
       });
  std::unique_lock<std::mutex> lock(state->mu);
  state->cv.wait(lock, [&state]() { return state->finished; });
  TF_RETURN_IF_ERROR(state->status);
  return std::move(state->body);
}

void RpcChannel::ReaderLoop(int fd) {
  for (;;) {
    Result<Frame> frame = ReadFrame(fd);
    if (!frame.ok()) {
      std::vector<Pending> orphaned;
      {
        std::lock_guard<std::mutex> lock(mu_);
        if (fd_ == fd) {
          // This connection is still current: it just died under us. Every
          // request written on it can never be answered.
          CloseConnLocked();
          const int64_t now = metrics::NowMicros();
          next_attempt_micros_ =
              now + static_cast<int64_t>(backoff_seconds_ *
                                         NextJitterFactor() * 1e6);
          backoff_seconds_ =
              std::min(backoff_seconds_ * 2.0, options_.backoff_max_seconds);
          TakePendingLocked(&orphaned);
        }
        // Otherwise a reset/shutdown already closed us and failed pending.
      }
      ::close(fd);
      const Status err = Unavailable("connection to " + peer_ + " lost: " +
                                     frame.status().message());
      for (Pending& p : orphaned) p.done(err, std::string());
      return;
    }
    Pending pending;
    bool found = false;
    {
      std::lock_guard<std::mutex> lock(mu_);
      auto it = pending_.find(frame.value().request_id);
      if (it != pending_.end()) {
        pending = std::move(it->second);
        pending_.erase(it);
        found = true;
      }
      // Unmatched responses (deadline already fired, or a pre-reset
      // straggler) are dropped.
    }
    if (found) {
      pending.done(Status::OK(), std::move(frame.value().body));
    }
  }
}

void RpcChannel::SweepLoop() {
  std::unique_lock<std::mutex> lock(mu_);
  while (!shutdown_) {
    // Sleep until the nearest deadline (or idle poll when none pending).
    int64_t nearest = 0;
    for (const auto& [id, p] : pending_) {
      if (p.deadline_micros > 0 &&
          (nearest == 0 || p.deadline_micros < nearest)) {
        nearest = p.deadline_micros;
      }
    }
    const int64_t now = metrics::NowMicros();
    int64_t wait_micros = nearest == 0 ? 250000 : nearest - now;
    if (wait_micros > 0) {
      sweep_cv_.wait_for(lock, std::chrono::microseconds(wait_micros));
      if (shutdown_) return;
    }
    const int64_t sweep_now = metrics::NowMicros();
    std::vector<Pending> expired;
    for (auto it = pending_.begin(); it != pending_.end();) {
      if (it->second.deadline_micros > 0 &&
          it->second.deadline_micros <= sweep_now) {
        expired.push_back(std::move(it->second));
        it = pending_.erase(it);
      } else {
        ++it;
      }
    }
    if (!expired.empty()) {
      lock.unlock();
      const Status err =
          DeadlineExceeded("rpc to " + peer_ + " timed out");
      for (Pending& p : expired) p.done(err, std::string());
      lock.lock();
    }
  }
}

void RpcChannel::ResetTarget(int port) {
  std::vector<Pending> orphaned;
  std::thread old_reader;
  {
    std::lock_guard<std::mutex> lock(mu_);
    CloseConnLocked();
    port_ = port;
    backoff_seconds_ = options_.backoff_initial_seconds;
    next_attempt_micros_ = 0;
    TakePendingLocked(&orphaned);
    if (reader_.joinable()) old_reader = std::move(reader_);
  }
  if (old_reader.joinable()) old_reader.join();
  const Status err =
      Unavailable("peer " + peer_ + " restarted; request abandoned");
  for (Pending& p : orphaned) p.done(err, std::string());
}

void RpcChannel::Shutdown() {
  std::vector<Pending> orphaned;
  std::thread old_reader;
  std::thread old_sweeper;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (shutdown_) return;
    shutdown_ = true;
    CloseConnLocked();
    TakePendingLocked(&orphaned);
    if (reader_.joinable()) old_reader = std::move(reader_);
    if (sweeper_.joinable()) old_sweeper = std::move(sweeper_);
  }
  sweep_cv_.notify_all();
  if (old_reader.joinable()) old_reader.join();
  if (old_sweeper.joinable()) old_sweeper.join();
  const Status err = Cancelled("channel to " + peer_ + " shut down");
  for (Pending& p : orphaned) p.done(err, std::string());
}

}  // namespace rpc
}  // namespace distributed
}  // namespace tfrepro
