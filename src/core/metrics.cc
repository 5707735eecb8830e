#include "core/metrics.h"

#include <unistd.h>

#include <algorithm>
#include <bit>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>

namespace tfrepro {
namespace metrics {

int64_t NowMicros() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

Histogram::Histogram(std::vector<double> bounds)
    : bounds_([&bounds]() {
        std::sort(bounds.begin(), bounds.end());
        return std::move(bounds);
      }()),
      buckets_(bounds_.size() + 1) {}

void Histogram::Record(double value) {
  size_t i = std::upper_bound(bounds_.begin(), bounds_.end(), value) -
             bounds_.begin();
  // upper_bound gives the first bound > value; a sample exactly on a bound
  // belongs to that bound's bucket (v <= bound), so step back on equality.
  if (i > 0 && value == bounds_[i - 1]) --i;
  buckets_[i].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  uint64_t old = sum_bits_.load(std::memory_order_relaxed);
  while (!sum_bits_.compare_exchange_weak(
      old, std::bit_cast<uint64_t>(std::bit_cast<double>(old) + value),
      std::memory_order_relaxed)) {
  }
}

std::vector<int64_t> Histogram::bucket_counts() const {
  std::vector<int64_t> out(buckets_.size());
  for (size_t i = 0; i < buckets_.size(); ++i) {
    out[i] = buckets_[i].load(std::memory_order_relaxed);
  }
  return out;
}

double Histogram::sum() const {
  return std::bit_cast<double>(sum_bits_.load(std::memory_order_relaxed));
}

std::vector<double> Histogram::DefaultLatencyBucketsMs() {
  std::vector<double> bounds;
  for (double b = 0.001; b < 200000.0; b *= 4.0) bounds.push_back(b);
  return bounds;
}

double MetricSnapshot::Percentile(double q) const {
  if (kind != Kind::kHistogram || count <= 0) return 0.0;
  if (q < 0.0) q = 0.0;
  if (q > 1.0) q = 1.0;
  // Rank of the target sample (0-based) among `count` sorted samples.
  double rank = q * static_cast<double>(count - 1);
  int64_t seen = 0;
  for (size_t i = 0; i < bucket_counts.size(); ++i) {
    if (bucket_counts[i] == 0) continue;
    if (rank >= static_cast<double>(seen + bucket_counts[i])) {
      seen += bucket_counts[i];
      continue;
    }
    // The target rank falls in bucket i, spanning (lo, hi].
    if (i >= bounds.size()) {
      // +inf bucket: the best available estimate is the last finite bound.
      return bounds.empty() ? 0.0 : bounds.back();
    }
    double lo = i == 0 ? 0.0 : bounds[i - 1];
    double hi = bounds[i];
    double frac = (rank - static_cast<double>(seen)) /
                  static_cast<double>(bucket_counts[i]);
    return lo + (hi - lo) * frac;
  }
  return bounds.empty() ? 0.0 : bounds.back();
}

const MetricSnapshot* RegistrySnapshot::Find(const std::string& name,
                                             const TagMap& tags) const {
  for (const MetricSnapshot& e : entries) {
    if (e.name == name && e.tags == tags) return &e;
  }
  return nullptr;
}

int64_t RegistrySnapshot::TotalValue(const std::string& name) const {
  int64_t total = 0;
  for (const MetricSnapshot& e : entries) {
    if (e.name == name && e.kind != MetricSnapshot::Kind::kHistogram) {
      total += e.value;
    }
  }
  return total;
}

void AppendJsonString(std::ostringstream* os, const std::string& s) {
  *os << '"';
  for (char c : s) {
    switch (c) {
      case '"':
        *os << "\\\"";
        break;
      case '\\':
        *os << "\\\\";
        break;
      case '\n':
        *os << "\\n";
        break;
      case '\t':
        *os << "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          *os << buf;
        } else {
          *os << c;
        }
    }
  }
  *os << '"';
}

namespace {

void AppendTags(std::ostringstream* os, const TagMap& tags) {
  *os << "{";
  bool first = true;
  for (const auto& [k, v] : tags) {
    if (!first) *os << ",";
    first = false;
    AppendJsonString(os, k);
    *os << ":";
    AppendJsonString(os, v);
  }
  *os << "}";
}

}  // namespace

std::string RegistrySnapshot::ToJson() const {
  std::ostringstream os;
  os << "{\"metrics\":[";
  bool first = true;
  for (const MetricSnapshot& e : entries) {
    if (!first) os << ",";
    first = false;
    os << "{\"name\":";
    AppendJsonString(&os, e.name);
    os << ",\"tags\":";
    AppendTags(&os, e.tags);
    switch (e.kind) {
      case MetricSnapshot::Kind::kCounter:
        os << ",\"kind\":\"counter\",\"value\":" << e.value;
        break;
      case MetricSnapshot::Kind::kGauge:
        os << ",\"kind\":\"gauge\",\"value\":" << e.value;
        break;
      case MetricSnapshot::Kind::kHistogram: {
        os << ",\"kind\":\"histogram\",\"count\":" << e.count
           << ",\"sum\":" << e.sum << ",\"buckets\":[";
        for (size_t i = 0; i < e.bucket_counts.size(); ++i) {
          if (i > 0) os << ",";
          os << "{\"le\":";
          if (i < e.bounds.size()) {
            os << e.bounds[i];
          } else {
            os << "\"+inf\"";
          }
          os << ",\"count\":" << e.bucket_counts[i] << "}";
        }
        os << "]";
        break;
      }
    }
    os << "}";
  }
  os << "]}";
  return os.str();
}

Registry* Registry::Global() {
  static Registry* global = new Registry();
  return global;
}

Counter* Registry::GetCounter(const std::string& name, const TagMap& tags) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = counters_[{name, tags}];
  if (slot == nullptr) slot = std::make_unique<Counter>();
  return slot.get();
}

Gauge* Registry::GetGauge(const std::string& name, const TagMap& tags) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = gauges_[{name, tags}];
  if (slot == nullptr) slot = std::make_unique<Gauge>();
  return slot.get();
}

Histogram* Registry::GetHistogram(const std::string& name,
                                  std::vector<double> bounds,
                                  const TagMap& tags) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = histograms_[{name, tags}];
  if (slot == nullptr) {
    if (bounds.empty()) bounds = Histogram::DefaultLatencyBucketsMs();
    slot = std::make_unique<Histogram>(std::move(bounds));
  }
  return slot.get();
}

RegistrySnapshot Registry::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  RegistrySnapshot snap;
  for (const auto& [key, counter] : counters_) {
    MetricSnapshot e;
    e.name = key.first;
    e.tags = key.second;
    e.kind = MetricSnapshot::Kind::kCounter;
    e.value = counter->value();
    snap.entries.push_back(std::move(e));
  }
  for (const auto& [key, gauge] : gauges_) {
    MetricSnapshot e;
    e.name = key.first;
    e.tags = key.second;
    e.kind = MetricSnapshot::Kind::kGauge;
    e.value = gauge->value();
    snap.entries.push_back(std::move(e));
  }
  for (const auto& [key, hist] : histograms_) {
    MetricSnapshot e;
    e.name = key.first;
    e.tags = key.second;
    e.kind = MetricSnapshot::Kind::kHistogram;
    e.bounds = hist->bounds();
    e.bucket_counts = hist->bucket_counts();
    e.count = hist->count();
    e.sum = hist->sum();
    snap.entries.push_back(std::move(e));
  }
  return snap;
}

MetricsExporter::MetricsExporter(std::string path, double interval_seconds)
    : path_(std::move(path)), interval_seconds_(interval_seconds) {
  thread_ = std::thread([this]() {
    std::unique_lock<std::mutex> lock(mu_);
    for (;;) {
      cv_.wait_for(lock,
                   std::chrono::duration<double>(interval_seconds_),
                   [this]() { return stop_; });
      if (stop_) return;  // Stop writes the final snapshot itself
      lock.unlock();
      WriteOnce();  // best effort: a full disk must not kill the worker
      lock.lock();
    }
  });
}

MetricsExporter::~MetricsExporter() { Stop(); }

Status MetricsExporter::WriteOnce() const {
  const std::string json = Registry::Global()->Snapshot().ToJson();
  const std::string tmp = path_ + ".tmp";
  {
    std::ofstream out(tmp);
    if (!out.is_open()) {
      return InvalidArgument("cannot open metrics dump file '" + tmp + "'");
    }
    out << json;
    out.close();
    if (!out) {
      return DataLoss("failed writing metrics to '" + tmp + "'");
    }
  }
  if (std::rename(tmp.c_str(), path_.c_str()) != 0) {
    return DataLoss("failed renaming '" + tmp + "' to '" + path_ + "'");
  }
  return Status::OK();
}

void MetricsExporter::Stop() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stop_) return;
    stop_ = true;
  }
  cv_.notify_all();
  if (thread_.joinable()) thread_.join();
  WriteOnce();  // final dump so short-lived processes still leave a file
}

std::unique_ptr<MetricsExporter> MetricsExporter::StartFromEnv() {
  const char* secs = std::getenv("TFREPRO_METRICS_DUMP_SECS");
  if (secs == nullptr || *secs == '\0') return nullptr;
  char* end = nullptr;
  const double interval = std::strtod(secs, &end);
  if (end == secs || interval <= 0.0) return nullptr;
  const char* path = std::getenv("TFREPRO_METRICS_DUMP_PATH");
  std::string out;
  if (path != nullptr && *path != '\0') {
    out = path;
  } else {
    out = "/tmp/tfrepro_metrics_" + std::to_string(::getpid()) + ".json";
  }
  return std::make_unique<MetricsExporter>(std::move(out), interval);
}

}  // namespace metrics
}  // namespace tfrepro
