#include "util.h"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <ctime>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>

namespace perfbench {

void Check(const tfrepro::Status& status, const std::string& what) {
  if (!status.ok()) throw BenchError(what + ": " + status.ToString());
}

uint64_t Rng::Next() {
  uint64_t z = (state_ += 0x9E3779B97F4A7C15ull);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

double Rng::Uniform() { return (Next() >> 11) * 0x1.0p-53; }

double Rng::Normal() {
  const double u1 = 1.0 - Uniform();  // (0, 1]
  const double u2 = Uniform();
  return std::sqrt(-2.0 * std::log(u1)) * std::cos(2.0 * M_PI * u2);
}

double Rng::Exponential(double rate) {
  return -std::log(1.0 - Uniform()) / rate;
}

int Rng::UniformInt(int n) { return static_cast<int>(Next() % n); }

tfrepro::Tensor RandomTensor(Rng* rng, const tfrepro::TensorShape& shape,
                             double scale) {
  std::vector<float> values(shape.num_elements());
  for (float& v : values) v = static_cast<float>(rng->Normal() * scale);
  return tfrepro::Tensor::FromVector<float>(values, shape);
}

double NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double Percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(q * static_cast<double>(values.size()));
  const size_t index = rank < 1 ? 0 : static_cast<size_t>(rank) - 1;
  return values[std::min(index, values.size() - 1)];
}

double Median(std::vector<double> values) {
  return Percentile(std::move(values), 0.5);
}

double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0;
  double sum = 0;
  for (double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

void Report::Fail(const std::string& why) {
  ++failed;
  correct = false;
  Log("correctness check failed: %s", why.c_str());
}

std::string Report::ToJson() const {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, metric] : metrics) {
    char value[64];
    // %.17g keeps every digit; JSON has no NaN/inf, so those become null
    // and fail validation downstream.
    if (std::isfinite(metric.value)) {
      std::snprintf(value, sizeof(value), "%.17g", metric.value);
    } else {
      std::snprintf(value, sizeof(value), "null");
    }
    out += first ? "" : ", ";
    first = false;
    out += "\"" + name + "\": {\"value\": " + value + ", \"unit\": \"" +
           metric.unit + "\"}";
  }
  out += "}}";
  return out;
}

std::map<std::string, RegistryDelta::Totals> RegistryDelta::Take() {
  std::map<std::string, Totals> totals;
  for (const auto& m :
       tfrepro::metrics::Registry::Global()->Snapshot().entries) {
    Totals& t = totals[m.name];
    t.value += m.value;
    t.count += m.count;
    t.sum += m.sum;
  }
  return totals;
}

void RegistryDelta::Restart() { start_ = Take(); }

RegistryDelta::Totals RegistryDelta::Diff(const std::string& name) const {
  const std::map<std::string, Totals> now = Take();
  Totals d;
  auto n = now.find(name);
  if (n != now.end()) d = n->second;
  auto s = start_.find(name);
  if (s != start_.end()) {
    d.value -= s->second.value;
    d.count -= s->second.count;
    d.sum -= s->second.sum;
  }
  return d;
}

int64_t RegistryDelta::Value(const std::string& name) const {
  return Diff(name).value;
}
int64_t RegistryDelta::Count(const std::string& name) const {
  return Diff(name).count;
}
double RegistryDelta::Mean(const std::string& name) const {
  const Totals d = Diff(name);
  return d.count > 0 ? d.sum / static_cast<double>(d.count) : 0;
}

void SpanRecorder::Record(const std::string& name, int64_t start_us,
                          int64_t end_us, int64_t id, int64_t parent) {
  tfrepro::SpanEvent span{name, name, start_us, end_us,
                          {{"id", std::to_string(id)},
                           {"parent", std::to_string(parent)}}};
  std::lock_guard<std::mutex> lock(mu_);
  stats_.spans.push_back(std::move(span));
}

void SpanRecorder::Merge(const tfrepro::StepStats& stats) {
  std::lock_guard<std::mutex> lock(mu_);
  stats_.MergeFrom(stats);
}

tfrepro::Status SpanRecorder::WriteChromeTrace(const std::string& path) {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_.WriteChromeTrace(path);
}

namespace {
SpanRecorder* g_trace_spans = nullptr;
}  // namespace

SpanRecorder* TraceSpans() { return g_trace_spans; }

void EnableTraceSpans() {
  static SpanRecorder recorder;
  g_trace_spans = &recorder;
}

ScopedSpan::ScopedSpan(std::string name, int64_t id, int64_t parent)
    : name_(std::move(name)),
      id_(id),
      parent_(parent),
      start_us_(tfrepro::metrics::NowMicros()) {}

ScopedSpan::~ScopedSpan() {
  if (SpanRecorder* spans = TraceSpans()) {
    spans->Record(name_, start_us_, tfrepro::metrics::NowMicros(), id_,
                  parent_);
  }
}

double UnionMicros(std::vector<std::pair<int64_t, int64_t>> intervals) {
  std::sort(intervals.begin(), intervals.end());
  double total = 0;
  int64_t cur_start = 0, cur_end = 0;
  bool open = false;
  for (const auto& [start, end] : intervals) {
    if (!open || start > cur_end) {
      if (open) total += static_cast<double>(cur_end - cur_start);
      cur_start = start;
      cur_end = end;
      open = true;
    } else {
      cur_end = std::max(cur_end, end);
    }
  }
  if (open) total += static_cast<double>(cur_end - cur_start);
  return total;
}

namespace {

bool IsElementwise(const std::string& op) {
  static const std::set<std::string> kOps = {
      "_FusedElementwise", "Add", "Sub", "Mul", "Div", "FloorDiv", "Mod",
      "Pow", "Maximum", "Minimum", "SquaredDifference", "Less", "LessEqual",
      "Greater", "GreaterEqual", "Equal", "NotEqual", "Neg", "Exp", "Log",
      "Sqrt", "Rsqrt", "Square", "Abs", "Sign", "Tanh", "Sigmoid", "Relu",
      "Floor", "Ceil", "Reciprocal", "ReluGrad", "SigmoidGrad", "TanhGrad",
      "LogicalAnd", "LogicalOr", "LogicalNot", "Select", "Cast", "AddN",
      "BiasAdd", "BiasAddGrad"};
  return kOps.count(op) > 0;
}

}  // namespace

void StepSplit::Add(const tfrepro::StepStats& stats, int64_t step_start_us,
                    int64_t step_end_us) {
  std::vector<std::pair<int64_t, int64_t>> spans;
  for (const tfrepro::NodeExecStats& n : stats.nodes) {
    ++nodes;
    if (n.end_micros < n.start_micros) continue;
    const double us = static_cast<double>(n.end_micros - n.start_micros);
    spans.emplace_back(n.start_micros, n.end_micros);
    const std::string& op = n.op;
    if (op == "MatMul") {
      matmul_us += us;
    } else if (op.rfind("Conv2D", 0) == 0) {
      conv_us += us;
    } else if (IsElementwise(op)) {
      elementwise_us += us;
    } else if (op == "IteratorGetNext") {
      getnext_us += us;
    } else if (op.rfind("Queue", 0) == 0) {
      queue_us += us;
    } else if (op.rfind("Apply", 0) == 0) {
      apply_us += us;
    } else if (op != "_Recv" && op != "_Send") {
      other_us += us;
    }
  }
  for (const tfrepro::TransferStats& t : stats.transfers) {
    if (t.kind != tfrepro::TransferStats::Kind::kRecv) continue;
    ++transfers;
    transfer_bytes += t.bytes;
    recv_wait_us +=
        static_cast<double>(t.recv_end_micros - t.recv_start_micros);
  }
  const double covered = UnionMicros(std::move(spans));
  self_us += std::max(0.0, static_cast<double>(step_end_us - step_start_us) -
                               covered);
}

double CpuSeconds(bool children) {
  struct rusage u {};
  ::getrusage(children ? RUSAGE_CHILDREN : RUSAGE_SELF, &u);
  return static_cast<double>(u.ru_utime.tv_sec + u.ru_stime.tv_sec) +
         static_cast<double>(u.ru_utime.tv_usec + u.ru_stime.tv_usec) / 1e6;
}

double TreeCpuSeconds() {
  const std::string self = std::to_string(::getpid());
  double live_ns = 0;
  std::error_code ec;
  for (const auto& proc : std::filesystem::directory_iterator("/proc", ec)) {
    const std::string pid = proc.path().filename().string();
    if (pid.find_first_not_of("0123456789") != std::string::npos) continue;
    std::ifstream stat(proc.path() / "stat");
    std::string line;
    if (!std::getline(stat, line)) continue;
    // After the parenthesised command come the state and the parent pid.
    const size_t close = line.rfind(')');
    if (close == std::string::npos) continue;
    std::istringstream fields(line.substr(close + 1));
    std::string state, ppid;
    fields >> state >> ppid;
    if (ppid != self) continue;
    // A child's CPU time, per thread and in ns: the first schedstat field.
    for (const auto& task :
         std::filesystem::directory_iterator(proc.path() / "task", ec)) {
      std::ifstream schedstat(task.path() / "schedstat");
      double ns = 0;
      if (schedstat >> ns) live_ns += ns;
    }
  }
  return CpuSeconds(false) + CpuSeconds(true) + live_ns / 1e9;
}

double ThreadCpuSeconds() {
  timespec ts {};
  ::clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) / 1e9;
}

double PeakRssMb(bool include_children) {
  struct rusage self {};
  ::getrusage(RUSAGE_SELF, &self);
  double kb = static_cast<double>(self.ru_maxrss);
  if (include_children) {
    struct rusage children {};
    ::getrusage(RUSAGE_CHILDREN, &children);
    kb += static_cast<double>(children.ru_maxrss);
  }
  return kb / 1024.0;
}

WorkDir::WorkDir() {
  path_ = ".bench_build/run-" + std::to_string(::getpid());
  std::filesystem::create_directories(path_);
}

WorkDir::~WorkDir() {
  std::error_code ignored;
  std::filesystem::remove_all(path_, ignored);
}

std::string ExecutableDir() {
  std::error_code ec;
  const auto exe = std::filesystem::read_symlink("/proc/self/exe", ec);
  return ec ? std::string(".") : exe.parent_path().string();
}

void Log(const char* fmt, ...) {
  va_list args;
  va_start(args, fmt);
  std::vfprintf(stderr, fmt, args);
  va_end(args);
  std::fputc('\n', stderr);
}

}  // namespace perfbench
