// Per-step tracing (observability layer, DESIGN.md §8; the paper's §6 /
// EEG-style timeline tooling). A TraceCollector records, for one step,
//
//   * per-node execution events — op, node name, device, scheduled /
//     start / end timestamps (the scheduled→start gap is ready-queue wait);
//   * cross-device transfer events — rendezvous key split into
//     sender/receiver, bytes, Send time and Recv wait interval;
//   * instant events — out-of-band markers (injected faults, retries).
//
// Collection is enabled per step via RunOptions on DirectSession::Run /
// MasterSession::Run; when no collector is attached the hot paths do no
// clock reads and no allocation. The resulting StepStats exports Chrome
// trace_event JSON (chrome://tracing / https://ui.perfetto.dev): one
// process row per task, one thread row per device plus a "transfers" row,
// so where a step's time goes — compute, Send/Recv, queueing — is directly
// visible.

#ifndef TFREPRO_RUNTIME_TRACING_H_
#define TFREPRO_RUNTIME_TRACING_H_

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "core/status.h"

namespace tfrepro {

// One executed node. Timestamps are metrics::NowMicros() (monotonic).
struct NodeExecStats {
  std::string node_name;
  std::string op;
  std::string device;
  int64_t scheduled_micros = 0;  // pushed onto the ready queue
  int64_t start_micros = 0;      // kernel dispatch began
  int64_t end_micros = 0;        // kernel completed (async: callback fired)
};

// One Send/Recv rendezvous meeting. Send events have send_micros set and a
// zero wait interval; Recv events carry the interval from RecvAsync to the
// value's arrival (recv_start == recv_end means the value was waiting).
struct TransferStats {
  enum class Kind { kSend, kRecv };
  Kind kind = Kind::kSend;
  std::string tensor_name;
  std::string send_device;
  std::string recv_device;
  int64_t bytes = 0;
  int64_t send_micros = 0;
  int64_t recv_start_micros = 0;
  int64_t recv_end_micros = 0;
};

// An out-of-band marker (e.g. an injected fault or a master retry).
struct InstantEvent {
  std::string name;
  std::string scope;  // task name when attributable, else ""
  int64_t micros = 0;
  std::map<std::string, std::string> args;
};

// A blocked interval with duration: time a request sat in a batching queue,
// time a queue enqueue/dequeue waiter was parked, etc. Rendered on a
// dedicated "waits" row per scope so blocked time is visible next to the
// compute lanes (previously these intervals were metrics-only histograms).
struct SpanEvent {
  std::string name;
  std::string scope;  // task name when attributable, else ""
  int64_t start_micros = 0;
  int64_t end_micros = 0;
  std::map<std::string, std::string> args;
};

// Everything recorded for one step.
struct StepStats {
  int64_t step_id = 0;
  std::vector<NodeExecStats> nodes;
  std::vector<TransferStats> transfers;
  std::vector<InstantEvent> instants;
  std::vector<SpanEvent> spans;

  // Chrome trace_event JSON ({"traceEvents": [...]}): process per task,
  // thread per device + per-task "transfers" row, X events for node
  // executions and Recv waits, instant events for Sends and markers.
  // Timestamps are rebased so the earliest event is t=0.
  std::string ToChromeTraceJson() const;
  Status WriteChromeTrace(const std::string& path) const;

  // Byte (de)serialization for the RPC wire (DESIGN.md §12): a traced
  // RunGraph response carries the worker's StepStats back to the master.
  // Encoded with the core/bytes.h codec, like the rpc wire bodies.
  void AppendToBytes(std::string* out) const;
  // Parses one StepStats starting at *pos, advancing *pos past it. Returns
  // false (leaving *out unspecified) on truncated or malformed input,
  // including event counts the remaining bytes cannot hold.
  static bool ParseFromBytes(const std::string& data, size_t* pos,
                             StepStats* out);

  // Shifts every timestamp by delta_micros (clock-skew normalization when
  // stitching a worker's stats into the master's timeline). Zero timestamps
  // stay zero: they mean "not recorded", not t=0.
  void ShiftTimes(int64_t delta_micros);

  // Appends other's events (not its step_id) onto this.
  void MergeFrom(const StepStats& other);
};

// Thread-safe sink for one step's events. Constructing with
// `capture_global_events` additionally subscribes the collector to
// RecordGlobalInstant markers (fault injection, retries) for its lifetime.
class TraceCollector {
 public:
  explicit TraceCollector(bool capture_global_events = false);
  ~TraceCollector();

  TraceCollector(const TraceCollector&) = delete;
  TraceCollector& operator=(const TraceCollector&) = delete;

  void RecordNode(NodeExecStats stats);
  void RecordTransfer(TransferStats stats);
  void RecordInstant(InstantEvent event);
  void RecordSpan(SpanEvent event);

  // Bulk-records every event in `stats` under one lock acquisition (used
  // when stitching a remote worker's already-collected StepStats in).
  void MergeStepStats(const StepStats& stats);

  // Moves the accumulated stats out (the collector resets to empty).
  StepStats Consume(int64_t step_id);

 private:
  const bool capture_global_events_;
  std::mutex mu_;
  StepStats stats_;
};

// Delivers an instant event (stamped now) to every live TraceCollector
// constructed with capture_global_events. Cheap no-op when none is live.
void RecordGlobalInstant(const std::string& name, const std::string& scope,
                         std::map<std::string, std::string> args = {});

// Delivers a completed blocked interval [start_micros, end_micros] to every
// live TraceCollector constructed with capture_global_events. Call sites sit
// on slow paths only (a waiter that actually blocked); cheap no-op when no
// collector is live.
void RecordGlobalSpan(const std::string& name, const std::string& scope,
                      int64_t start_micros, int64_t end_micros,
                      std::map<std::string, std::string> args = {});

// Per-step options consumed by DirectSession::Run and MasterSession::Run.
struct RunOptions {
  // Collect per-node and transfer events for this step.
  bool trace = false;

  // Sampling-profiler override for this Run (DESIGN.md §12): > 0 overrides
  // the session's sampling period for the cadence decision made on this
  // call, < 0 disables sampling for this call, 0 inherits the session
  // default (SessionOptions / MasterSession::Options profile_sample_every,
  // falling back to the TFREPRO_PROFILE_EVERY environment variable).
  int64_t sample_every = 0;
};

// Per-step results returned alongside outputs when requested.
struct RunMetadata {
  StepStats step_stats;
};

}  // namespace tfrepro

#endif  // TFREPRO_RUNTIME_TRACING_H_
