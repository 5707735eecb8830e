// Shared plumbing for the repo benchmark: arguments, seeded generators,
// order statistics, the result line, registry deltas, benchmark-side spans,
// and process memory.

#ifndef PERFBENCH_UTIL_H_
#define PERFBENCH_UTIL_H_

#include <cstdint>
#include <map>
#include <mutex>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/metrics.h"
#include "core/status.h"
#include "core/tensor.h"
#include "runtime/tracing.h"

namespace perfbench {

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  // Deliberately corrupts the reference outputs the correctness checks
  // compare against, to show that a wrong answer is counted as a failure.
  bool wrong_reference = false;
};

// A setup failure: the run cannot produce a result. Thrown (not exit()ed)
// so destructors stop worker processes and join threads on the way out.
struct BenchError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

// Throws BenchError("<what>: <status>") unless ok.
void Check(const tfrepro::Status& status, const std::string& what);
template <typename T>
T Take(tfrepro::Result<T> result, const std::string& what) {
  Check(result.status(), what);
  return std::move(result.value());
}

// Deterministic generator (splitmix64), identical on every platform so a
// seed names the same inputs everywhere.
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed * 0x9E3779B97F4A7C15ull + 1) {}
  uint64_t Next();
  double Uniform();  // [0, 1)
  double Normal();   // Box-Muller
  double Exponential(double rate);
  int UniformInt(int n);  // [0, n)

 private:
  uint64_t state_;
};

// A float tensor of N(0, scale^2) draws.
tfrepro::Tensor RandomTensor(Rng* rng, const tfrepro::TensorShape& shape,
                             double scale);

// steady_clock seconds. Benchmark spans use tfrepro::metrics::NowMicros()
// so they share a time base with StepStats.
double NowSeconds();

// Nearest-rank percentile of `values` (q in [0, 1]); 0 when empty.
double Percentile(std::vector<double> values, double q);
double Median(std::vector<double> values);
double Mean(const std::vector<double>& values);

// One result metric; the unit string matches BENCHMARK.json.
struct Metric {
  double value = 0;
  std::string unit;
};

struct Report {
  bool correct = true;
  int64_t attempted = 0;
  int64_t failed = 0;
  std::map<std::string, Metric> metrics;

  void Set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = Metric{value, unit};
  }
  // Records a failed correctness check: counts it and logs why.
  void Fail(const std::string& why);
  std::string ToJson() const;
};

// Sums of every instrument of a name across its tag sets, for deltas over a
// timed window. Histograms contribute only count and sum: the x4 buckets
// are too coarse for percentiles on microsecond paths.
class RegistryDelta {
 public:
  RegistryDelta() { Restart(); }
  void Restart();
  // Counter/gauge value change since Restart().
  int64_t Value(const std::string& name) const;
  // Histogram sample count change since Restart().
  int64_t Count(const std::string& name) const;
  // Sum / Count of the change, 0 when there were no samples.
  double Mean(const std::string& name) const;

 private:
  struct Totals {
    int64_t value = 0;
    int64_t count = 0;
    double sum = 0;
  };
  static std::map<std::string, Totals> Take();
  Totals Diff(const std::string& name) const;

  std::map<std::string, Totals> start_;
};

// In-memory spans recorded by the benchmark around calls into the layers'
// public APIs, plus the step_stats of the traced steps, kept as one
// StepStats and written out as a Chrome trace at the end of a traced run.
// A span's name is also its scope, so each name gets its own trace row.
class SpanRecorder {
 public:
  // `id` tags the step or request, `parent` the id of the causing span
  // (-1 for roots).
  void Record(const std::string& name, int64_t start_us, int64_t end_us,
              int64_t id = -1, int64_t parent = -1);
  void Merge(const tfrepro::StepStats& stats);
  tfrepro::Status WriteChromeTrace(const std::string& path);

 private:
  std::mutex mu_;
  tfrepro::StepStats stats_;
};

// The run's span sink: non-null only in a traced run (--trace 1), so the
// end-to-end run records nothing.
SpanRecorder* TraceSpans();
void EnableTraceSpans();

// Records [construction, destruction) into TraceSpans() when tracing.
class ScopedSpan {
 public:
  explicit ScopedSpan(std::string name, int64_t id = -1, int64_t parent = -1);
  ~ScopedSpan();
  double ElapsedMs() const {
    return (tfrepro::metrics::NowMicros() - start_us_) / 1e3;
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  std::string name_;
  int64_t id_, parent_, start_us_;
};

// Length of the union of [start, end) intervals.
double UnionMicros(std::vector<std::pair<int64_t, int64_t>> intervals);

// Per-op-class split of one or more traced steps, from RunMetadata.
struct StepSplit {
  double matmul_us = 0;
  double conv_us = 0;
  double elementwise_us = 0;
  double other_us = 0;       // kernels in no other class
  double getnext_us = 0;     // IteratorGetNext (input wait)
  double queue_us = 0;       // Queue* ops (synchronous-replica waits)
  double apply_us = 0;       // Apply* optimizer updates
  int64_t nodes = 0;
  int64_t transfers = 0;     // Recv events (one per cross-device tensor)
  int64_t transfer_bytes = 0;
  double recv_wait_us = 0;
  double self_us = 0;        // step span minus the union of its node spans
  // Adds one traced step that ran from step_start_us to step_end_us.
  void Add(const tfrepro::StepStats& stats, int64_t step_start_us,
           int64_t step_end_us);
};

// User + system CPU seconds of this process; with `children`, of its
// reaped children instead. CPU time excludes time the host stole from the
// virtual CPUs, which wall time does not.
double CpuSeconds(bool children);
// User + system CPU seconds of this process and of every child process,
// live (read from /proc) or reaped.
double TreeCpuSeconds();
// CPU seconds of the calling thread.
double ThreadCpuSeconds();

// Peak resident set of this process, plus (when include_children) the
// largest reaped child, in MB.
double PeakRssMb(bool include_children);

// A private scratch directory under the checkout's .bench_build, removed by
// the destructor.
class WorkDir {
 public:
  WorkDir();
  ~WorkDir();
  WorkDir(const WorkDir&) = delete;
  WorkDir& operator=(const WorkDir&) = delete;
  std::string File(const std::string& name) const { return path_ + "/" + name; }

 private:
  std::string path_;
};

// Directory holding this executable (worker_main is built next to it).
std::string ExecutableDir();

// Logs to stderr (stdout carries only the result line).
void Log(const char* fmt, ...) __attribute__((format(printf, 1, 2)));

}  // namespace perfbench

#endif  // PERFBENCH_UTIL_H_
