#include "distributed/rpc/remote_worker.h"

#include <algorithm>
#include <chrono>
#include <thread>
#include <utility>
#include <vector>

#include "core/metrics.h"
#include "distributed/fault_injector.h"
#include "graph/graph_io.h"
#include "graph/subgraph.h"
#include "runtime/kernel.h"
#include "runtime/tracing.h"

namespace tfrepro {
namespace distributed {
namespace rpc {

namespace {

// Splits a response body into (application status, remaining offset).
Status ParseAppStatus(const std::string& body, size_t* offset) {
  Status app;
  if (!ReadStatus(body, offset, &app)) {
    return DataLoss("malformed rpc response (no status)");
  }
  return app;
}

}  // namespace

RemoteWorker::RemoteWorker(const std::string& job, int task_index, int port,
                           double rpc_deadline_seconds,
                           FaultInjector* injector, ThreadPool* delay_pool)
    : job_(job),
      task_index_(task_index),
      rpc_deadline_seconds_(rpc_deadline_seconds),
      injector_(injector),
      delay_pool_(delay_pool),
      channel_(/*peer=*/"/job:" + job + "/task:" + std::to_string(task_index),
               port) {}

Status RemoteWorker::RegisterSubgraph(const std::string& handle,
                                      const std::string& segment,
                                      std::unique_ptr<Graph> partition,
                                      const std::string& device_name) {
  std::string body;
  AppendString(&body, handle);
  AppendString(&body, segment);
  AppendString(&body, device_name);
  AppendGraphToBytes(*partition, &body);
  Result<std::string> response =
      channel_.CallSync(Method::kRegisterSubgraph, body, rpc_deadline_seconds_);
  TF_RETURN_IF_ERROR(response.status());
  size_t offset = 0;
  TF_RETURN_IF_ERROR(ParseAppStatus(response.value(), &offset));
  NoteFetchSlots(handle, NumFetchSlots(*partition));
  return Status::OK();
}

void RemoteWorker::NoteFetchSlots(const std::string& handle,
                                  int64_t slots) const {
  std::lock_guard<std::mutex> lock(fetch_slots_mu_);
  int64_t& noted = fetch_slots_[handle];
  noted = std::max(noted, slots);
}

void RemoteWorker::RunSubgraphsAsync(const std::string& handle,
                                     const Executor::Args& args,
                                     std::function<void(Status)> done) {
  // Scripted faults are decided here, master-side, so one injector script
  // drives both transports identically. (Real crashes need none of this:
  // the dead process resets the connection and the channel fails the call.)
  double delay_seconds = 0.0;
  if (injector_ != nullptr) {
    FaultInjector::Decision decision = injector_->OnDispatch(task_name());
    switch (decision.action) {
      case FaultInjector::Action::kKill:
        done(Unavailable("task " + task_name() + " is down"));
        return;
      case FaultInjector::Action::kHang:
        injector_->ParkHung(task_name(), std::move(done));
        return;
      case FaultInjector::Action::kProceed:
        delay_seconds = decision.delay_seconds;
        break;
    }
  }
  if (delay_seconds > 0.0) {
    delay_pool_->Schedule([this, handle, args, done = std::move(done),
                           delay_seconds]() mutable {
      std::this_thread::sleep_for(std::chrono::duration<double>(delay_seconds));
      DispatchNow(handle, args, std::move(done));
    });
    return;
  }
  DispatchNow(handle, args, std::move(done));
}

void RemoteWorker::DispatchNow(const std::string& handle,
                               const Executor::Args& args,
                               std::function<void(Status)> done) {
  std::string body;
  AppendString(&body, handle);
  AppendInt64(&body, args.step_id);
  CallFrame* frame = args.call_frame;
  // The worker allocates only the fetch slots its own partitions write;
  // the reply names each slot, so they merge into the full frame here.
  int64_t num_fetches = 0;
  if (frame != nullptr) {
    std::lock_guard<std::mutex> lock(fetch_slots_mu_);
    auto it = fetch_slots_.find(handle);
    if (it != fetch_slots_.end()) num_fetches = it->second;
  }
  const std::vector<Tensor> empty_feeds;
  const std::vector<Tensor>& feeds =
      frame != nullptr ? frame->feeds() : empty_feeds;
  AppendInt64(&body, num_fetches);
  AppendInt64(&body, static_cast<int64_t>(feeds.size()));
  for (const Tensor& feed : feeds) feed.AppendToBytes(&body);
  // Traced steps ask the worker to run under a TraceCollector and ship its
  // StepStats back on this response (DESIGN.md §12).
  TraceCollector* trace = args.trace;
  AppendInt64(&body, trace != nullptr ? 1 : 0);

  // The RPC deadline stretches to the step deadline (never below the
  // control floor) so a wedged worker cannot hang a deadline-bearing step;
  // with no step deadline the dispatch waits indefinitely, exactly like the
  // in-process transport — connection loss is then the only failure path.
  const double deadline =
      args.deadline_seconds > 0.0
          ? std::max(args.deadline_seconds, rpc_deadline_seconds_)
          : 0.0;

  const int64_t t0 = metrics::NowMicros();
  channel_.Call(
      Method::kRunGraph, std::move(body), nullptr, 0, deadline,
      [frame, trace, t0, done = std::move(done)](const Status& transport,
                                                 std::string response) {
        if (!transport.ok()) {
          done(transport);
          return;
        }
        size_t offset = 0;
        Status app = ParseAppStatus(response, &offset);
        if (!app.ok()) {
          done(app);
          return;
        }
        // Merge the fetch slots this task produced into the master's frame.
        int64_t produced = 0;
        if (!ReadInt64(response, &offset, &produced)) {
          done(DataLoss("malformed RunGraph response"));
          return;
        }
        for (int64_t i = 0; i < produced; ++i) {
          int64_t index = 0;
          if (!ReadInt64(response, &offset, &index)) {
            done(DataLoss("malformed RunGraph response"));
            return;
          }
          Result<Tensor> fetch = Tensor::ParseFromBytes(response, &offset);
          if (!fetch.ok()) {
            done(fetch.status());
            return;
          }
          if (frame != nullptr) {
            Status set = frame->SetFetch(static_cast<int>(index),
                                         std::move(fetch.value()));
            if (!set.ok()) {
              done(set);
              return;
            }
          }
        }
        // Stitch the worker's trace into the master's collector with its
        // timestamps normalized onto the master clock: assuming the
        // network legs of the RPC are symmetric, the request arrived at
        // the worker at master-time t0 + (rtt - worker_handling) / 2, and
        // the worker stamped that moment w0 on its own clock.
        int64_t traced = 0;
        if (!ReadInt64(response, &offset, &traced)) {
          done(DataLoss("malformed RunGraph response"));
          return;
        }
        if (traced != 0) {
          int64_t w0 = 0, w1 = 0;
          StepStats stats;
          if (!ReadInt64(response, &offset, &w0) ||
              !ReadInt64(response, &offset, &w1) ||
              !StepStats::ParseFromBytes(response, &offset, &stats)) {
            done(DataLoss("malformed RunGraph trace payload"));
            return;
          }
          if (trace != nullptr) {
            const int64_t t1 = metrics::NowMicros();
            const int64_t wire_us = std::max<int64_t>(
                (t1 - t0) - (w1 - w0), 0);
            stats.ShiftTimes((t0 + wire_us / 2) - w0);
            trace->MergeStepStats(stats);
          }
        }
        done(Status::OK());
      });
}

void RemoteWorker::PingAsync(std::function<void(Status)> done) {
  if (injector_ != nullptr) {
    FaultInjector::Decision decision = injector_->OnProbe(task_name());
    switch (decision.action) {
      case FaultInjector::Action::kKill:
        done(Unavailable("task " + task_name() + " refused probe"));
        return;
      case FaultInjector::Action::kHang:
        injector_->ParkHung(task_name(), std::move(done));
        return;
      case FaultInjector::Action::kProceed:
        if (decision.delay_seconds > 0.0) {
          delay_pool_->Schedule(
              [this, done = std::move(done), delay = decision.delay_seconds]() {
                std::this_thread::sleep_for(
                    std::chrono::duration<double>(delay));
                PingNow(std::move(done));
              });
          return;
        }
        break;
    }
  }
  PingNow(std::move(done));
}

void RemoteWorker::PingNow(std::function<void(Status)> done) {
  // The channel fails fast while the peer's reconnect backoff is pending,
  // so a dead process never wedges the prober's probe round.
  channel_.Call(Method::kPing, std::string(), nullptr, 0,
                rpc_deadline_seconds_,
                [done = std::move(done)](const Status& transport,
                                         std::string response) {
                  if (!transport.ok()) {
                    done(transport);
                    return;
                  }
                  size_t offset = 0;
                  done(ParseAppStatus(response, &offset));
                });
}

bool RemoteWorker::HasSubgraphs(const std::string& handle) const {
  std::string body;
  AppendString(&body, handle);
  Result<std::string> response =
      channel_.CallSync(Method::kHasSubgraphs, body, rpc_deadline_seconds_);
  // Any failure reads as "not registered": the master then re-registers,
  // which is exactly right for a freshly restarted (empty) process.
  if (!response.ok()) return false;
  size_t offset = 0;
  if (!ParseAppStatus(response.value(), &offset).ok()) return false;
  int64_t has = 0;
  int64_t slots = 0;
  if (!ReadInt64(response.value(), &offset, &has) ||
      !ReadInt64(response.value(), &offset, &slots)) {
    return false;
  }
  if (has != 0) NoteFetchSlots(handle, slots);
  return has != 0;
}

void RemoteWorker::TargetRestartedProcess(int port) {
  channel_.ResetTarget(port);
  incarnation_.fetch_add(1);
}

}  // namespace rpc
}  // namespace distributed
}  // namespace tfrepro
