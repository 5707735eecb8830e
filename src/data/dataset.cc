#include "data/dataset.h"

#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstring>
#include <deque>
#include <thread>

#include "core/metrics.h"
#include "core/random.h"
#include "core/threadpool.h"
#include "data/record_file.h"
#include "data/synthetic.h"
#include "kernels/queue.h"
#include "runtime/device.h"

namespace tfrepro {
namespace data {

namespace {

// data.* pipeline instruments. Occupancy is the total buffered-element
// count across every live Prefetch iterator, maintained by +/- deltas.
struct DataMetrics {
  metrics::Counter* records_read;
  metrics::Counter* map_calls;
  metrics::Counter* elements;
  metrics::Gauge* prefetch_occupancy;
  metrics::Histogram* getnext_wait_ms;
};

const DataMetrics& GetDataMetrics() {
  static DataMetrics m = []() {
    metrics::Registry* r = metrics::Registry::Global();
    return DataMetrics{
        r->GetCounter("data.records_read"),
        r->GetCounter("data.map_calls"),
        r->GetCounter("data.elements"),
        r->GetGauge("data.prefetch_occupancy"),
        r->GetHistogram("data.getnext_wait_ms"),
    };
  }();
  return m;
}

}  // namespace

// -----------------------------------------------------------------------------
// MapFnRegistry + built-in map fns.
// -----------------------------------------------------------------------------

MapFnRegistry* MapFnRegistry::Global() {
  static MapFnRegistry* registry = new MapFnRegistry;
  return registry;
}

Status MapFnRegistry::Register(const std::string& name, MapFn fn) {
  std::lock_guard<std::mutex> lock(mu_);
  if (!fns_.emplace(name, std::move(fn)).second) {
    return AlreadyExists("map fn '" + name + "' already registered");
  }
  return Status::OK();
}

Result<MapFn> MapFnRegistry::Lookup(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = fns_.find(name);
  if (it == fns_.end()) {
    return NotFound("map fn '" + name + "' not registered");
  }
  return it->second;
}

std::string EncodeExample(const float* features, int dim, int64_t label) {
  std::string payload;
  payload.reserve(sizeof(int32_t) + sizeof(float) * dim + sizeof(int64_t));
  int32_t d = dim;
  payload.append(reinterpret_cast<const char*>(&d), sizeof(d));
  payload.append(reinterpret_cast<const char*>(features), sizeof(float) * dim);
  payload.append(reinterpret_cast<const char*>(&label), sizeof(label));
  return payload;
}

Status DecodeExample(const std::string& payload, Tensor* features,
                     Tensor* label) {
  if (payload.size() < sizeof(int32_t)) {
    return DataLoss("example payload shorter than its dim header");
  }
  int32_t dim = 0;
  std::memcpy(&dim, payload.data(), sizeof(dim));
  size_t want = sizeof(int32_t) + sizeof(float) * static_cast<size_t>(dim) +
                sizeof(int64_t);
  if (dim < 0 || payload.size() != want) {
    return DataLoss("example payload size " + std::to_string(payload.size()) +
                    " does not match dim " + std::to_string(dim));
  }
  *features = Tensor(DataType::kFloat, TensorShape({dim}));
  std::memcpy(features->data<float>(), payload.data() + sizeof(int32_t),
              sizeof(float) * dim);
  int64_t lbl = 0;
  std::memcpy(&lbl, payload.data() + sizeof(int32_t) + sizeof(float) * dim,
              sizeof(lbl));
  *label = Tensor::Scalar(lbl);
  return Status::OK();
}

Status WriteClusteredRecordFile(const std::string& path, int count,
                                int num_classes, int dim, uint64_t seed) {
  ClusteredDataset ds(num_classes, dim, seed);
  Tensor features, labels;
  ds.Batch(count, &features, &labels);
  RecordWriter writer(path);
  for (int i = 0; i < count; ++i) {
    Status s = writer.Append(EncodeExample(
        features.data<float>() + static_cast<int64_t>(i) * dim, dim,
        labels.flat<int64_t>(i)));
    if (!s.ok()) return s;
  }
  return writer.Close();
}

namespace {

Status ParseExample(const Element& in, Element* out) {
  if (in.size() != 1 || BaseType(in[0].dtype()) != DataType::kString ||
      in[0].num_elements() != 1) {
    return InvalidArgument("parse_example expects one string scalar");
  }
  Tensor features, label;
  Status s = DecodeExample(in[0].str(0), &features, &label);
  if (!s.ok()) return s;
  *out = {std::move(features), std::move(label)};
  return Status::OK();
}

// parse_example plus a deliberately expensive deterministic "augmentation"
// (transcendental mixing per feature) — makes the input path, not the
// model, the bottleneck, which is the regime the pipeline exists for.
Status ParseExampleHeavy(const Element& in, Element* out) {
  Status s = ParseExample(in, out);
  if (!s.ok()) return s;
  Tensor& features = (*out)[0];
  float* p = features.data<float>();
  const int64_t n = features.num_elements();
  for (int64_t i = 0; i < n; ++i) {
    float v = p[i];
    for (int k = 0; k < 250; ++k) {
      v = std::sin(v) * 0.5f + std::cos(v * 1.7f) * 0.5f;
    }
    p[i] = p[i] + 1e-6f * v;  // keep the task learnable: tiny perturbation
  }
  return Status::OK();
}

// parse_example behind an emulated remote-storage fetch: each record pays
// a fixed read latency (a clock wait, not CPU work) before parsing — the
// regime of the paper's workers pulling training records off a distributed
// file system. Reader parallelism hides this latency even on one core,
// which is exactly what ParallelMap and Prefetch exist for and what
// bench_input's pipeline-vs-feed-dict gate measures.
Status ParseExampleRemote(const Element& in, Element* out) {
  std::this_thread::sleep_for(std::chrono::microseconds(250));
  return ParseExample(in, out);
}

const bool kBuiltinMapFns = []() {
  MapFnRegistry* r = MapFnRegistry::Global();
  r->Register("identity", [](const Element& in, Element* out) {
    *out = in;
    return Status::OK();
  });
  r->Register("parse_example", ParseExample);
  r->Register("parse_example_heavy", ParseExampleHeavy);
  r->Register("parse_example_remote", ParseExampleRemote);
  return true;
}();

// -----------------------------------------------------------------------------
// RecordFileDataset.
// -----------------------------------------------------------------------------

class RecordFileIterator : public IteratorBase {
 public:
  explicit RecordFileIterator(std::vector<std::string> filenames)
      : filenames_(std::move(filenames)) {}

  Status GetNext(IteratorContext* ctx, Element* out,
                 bool* end_of_sequence) override {
    while (true) {
      if (cancelled_.load(std::memory_order_acquire)) {
        return Cancelled("record file iterator cancelled");
      }
      if (reader_ == nullptr) {
        if (file_index_ >= filenames_.size()) {
          *end_of_sequence = true;
          return Status::OK();
        }
        reader_ = std::make_unique<RecordReader>(filenames_[file_index_]);
      }
      std::string payload;
      Status s = reader_->ReadNext(&payload);
      if (s.ok()) {
        GetDataMetrics().records_read->Increment();
        *out = {Tensor::Scalar(payload)};
        return Status::OK();
      }
      if (s.code() == Code::kOutOfRange) {
        reader_.reset();
        ++file_index_;
        continue;
      }
      return s;  // DataLoss / NotFound: corruption is not end-of-input
    }
  }

  void Cancel() override {
    cancelled_.store(true, std::memory_order_release);
  }

 private:
  const std::vector<std::string> filenames_;
  size_t file_index_ = 0;
  std::unique_ptr<RecordReader> reader_;
  std::atomic<bool> cancelled_{false};
};

class RecordFileDataset : public DatasetBase {
 public:
  explicit RecordFileDataset(std::vector<std::string> filenames)
      : filenames_(std::move(filenames)), dtypes_({DataType::kString}) {}

  Result<std::unique_ptr<IteratorBase>> MakeIterator() const override {
    return std::unique_ptr<IteratorBase>(new RecordFileIterator(filenames_));
  }
  const DataTypeVector& output_dtypes() const override { return dtypes_; }
  std::string DebugString() const override {
    return "RecordFileDataset(" + std::to_string(filenames_.size()) +
           " files)";
  }

 private:
  const std::vector<std::string> filenames_;
  const DataTypeVector dtypes_;
};

// -----------------------------------------------------------------------------
// ParallelMapDataset: a sliding window of `parallelism` in-flight map calls
// on a private work-stealing pool; completions are surfaced in issue order,
// so output order equals input order no matter which worker finishes first.
// -----------------------------------------------------------------------------

class ParallelMapIterator : public IteratorBase {
 public:
  ParallelMapIterator(std::unique_ptr<IteratorBase> input, MapFn fn,
                      int parallelism)
      : input_(std::move(input)),
        fn_(std::move(fn)),
        parallelism_(parallelism),
        pool_("data_map", parallelism) {}

  ~ParallelMapIterator() override {
    Cancel();
    // pool_ is declared last: destroyed first, joining in-flight map tasks
    // before the window they write into goes away.
  }

  Status GetNext(IteratorContext* ctx, Element* out,
                 bool* end_of_sequence) override {
    // Refill the window from the caller thread (iterators are
    // single-consumer; the input pull stays serialized here).
    while (true) {
      {
        std::lock_guard<std::mutex> lock(mu_);
        if (cancelled_) return Cancelled("parallel map iterator cancelled");
        if (input_done_ ||
            static_cast<int>(window_.size()) >= parallelism_) {
          break;
        }
      }
      Element in;
      bool in_eos = false;
      Status s = input_->GetNext(ctx, &in, &in_eos);
      std::lock_guard<std::mutex> lock(mu_);
      if (!s.ok()) {
        input_done_ = true;
        input_status_ = s;
        break;
      }
      if (in_eos) {
        input_done_ = true;
        break;
      }
      auto slot = std::make_shared<Slot>();
      slot->input = std::move(in);
      window_.push_back(slot);
      pool_.Schedule([this, slot]() {
        Element mapped;
        Status ms = fn_(slot->input, &mapped);
        GetDataMetrics().map_calls->Increment();
        std::lock_guard<std::mutex> inner(mu_);
        slot->status = ms;
        slot->output = std::move(mapped);
        slot->done = true;
        cv_.notify_all();
      });
    }

    std::unique_lock<std::mutex> lock(mu_);
    if (window_.empty()) {
      if (!input_status_.ok()) return input_status_;
      *end_of_sequence = true;
      return Status::OK();
    }
    std::shared_ptr<Slot> slot = window_.front();
    cv_.wait(lock, [&]() { return slot->done || cancelled_; });
    if (cancelled_) return Cancelled("parallel map iterator cancelled");
    window_.pop_front();
    if (!slot->status.ok()) return slot->status;
    *out = std::move(slot->output);
    return Status::OK();
  }

  void Cancel() override {
    {
      std::lock_guard<std::mutex> lock(mu_);
      cancelled_ = true;
      cv_.notify_all();
    }
    input_->Cancel();
  }

 private:
  struct Slot {
    Element input;
    Element output;
    Status status;
    bool done = false;
  };

  std::unique_ptr<IteratorBase> input_;
  const MapFn fn_;
  const int parallelism_;

  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<std::shared_ptr<Slot>> window_;
  bool input_done_ = false;
  Status input_status_;
  bool cancelled_ = false;

  ThreadPool pool_;  // last member: first destroyed, joins map tasks
};

class ParallelMapDataset : public DatasetBase {
 public:
  ParallelMapDataset(std::shared_ptr<DatasetBase> input, std::string fn_name,
                     MapFn fn, int parallelism, DataTypeVector dtypes)
      : input_(std::move(input)),
        fn_name_(std::move(fn_name)),
        fn_(std::move(fn)),
        parallelism_(parallelism),
        dtypes_(std::move(dtypes)) {}

  Result<std::unique_ptr<IteratorBase>> MakeIterator() const override {
    auto it = input_->MakeIterator();
    if (!it.ok()) return it.status();
    return std::unique_ptr<IteratorBase>(new ParallelMapIterator(
        std::move(it.value()), fn_, parallelism_));
  }
  const DataTypeVector& output_dtypes() const override { return dtypes_; }
  std::string DebugString() const override {
    return "ParallelMapDataset(" + fn_name_ + ", parallelism=" +
           std::to_string(parallelism_) + ", " + input_->DebugString() + ")";
  }

 private:
  const std::shared_ptr<DatasetBase> input_;
  const std::string fn_name_;
  const MapFn fn_;
  const int parallelism_;
  const DataTypeVector dtypes_;
};

// -----------------------------------------------------------------------------
// ShuffleDataset: seeded reservoir over a bounded buffer.
// -----------------------------------------------------------------------------

constexpr uint64_t kShuffleStream = 0x73687566;  // "shuf"

class ShuffleIterator : public IteratorBase {
 public:
  ShuffleIterator(std::unique_ptr<IteratorBase> input, int64_t buffer_size,
                  uint64_t seed)
      : input_(std::move(input)),
        buffer_size_(buffer_size),
        rng_(seed, kShuffleStream) {}

  Status GetNext(IteratorContext* ctx, Element* out,
                 bool* end_of_sequence) override {
    while (!exhausted_ &&
           static_cast<int64_t>(buffer_.size()) < buffer_size_) {
      if (cancelled_.load(std::memory_order_acquire)) {
        return Cancelled("shuffle iterator cancelled");
      }
      Element e;
      bool in_eos = false;
      Status s = input_->GetNext(ctx, &e, &in_eos);
      if (!s.ok()) return s;
      if (in_eos) {
        exhausted_ = true;
        break;
      }
      buffer_.push_back(std::move(e));
    }
    if (buffer_.empty()) {
      *end_of_sequence = true;
      return Status::OK();
    }
    size_t index = static_cast<size_t>(rng_.UniformInt(buffer_.size()));
    *out = std::move(buffer_[index]);
    buffer_[index] = std::move(buffer_.back());
    buffer_.pop_back();
    return Status::OK();
  }

  void Cancel() override {
    cancelled_.store(true, std::memory_order_release);
    input_->Cancel();
  }

 private:
  std::unique_ptr<IteratorBase> input_;
  const int64_t buffer_size_;
  PhiloxRandom rng_;
  std::vector<Element> buffer_;
  bool exhausted_ = false;
  std::atomic<bool> cancelled_{false};
};

class ShuffleDataset : public DatasetBase {
 public:
  ShuffleDataset(std::shared_ptr<DatasetBase> input, int64_t buffer_size,
                 uint64_t seed)
      : input_(std::move(input)), buffer_size_(buffer_size), seed_(seed) {}

  Result<std::unique_ptr<IteratorBase>> MakeIterator() const override {
    auto it = input_->MakeIterator();
    if (!it.ok()) return it.status();
    return std::unique_ptr<IteratorBase>(
        new ShuffleIterator(std::move(it.value()), buffer_size_, seed_));
  }
  const DataTypeVector& output_dtypes() const override {
    return input_->output_dtypes();
  }
  std::string DebugString() const override {
    return "ShuffleDataset(buffer=" + std::to_string(buffer_size_) + ", " +
           input_->DebugString() + ")";
  }

 private:
  const std::shared_ptr<DatasetBase> input_;
  const int64_t buffer_size_;
  const uint64_t seed_;
};

// -----------------------------------------------------------------------------
// RepeatDataset.
// -----------------------------------------------------------------------------

class RepeatIterator : public IteratorBase {
 public:
  RepeatIterator(std::shared_ptr<const DatasetBase> input, int64_t count)
      : input_(std::move(input)), remaining_(count) {}

  Status GetNext(IteratorContext* ctx, Element* out,
                 bool* end_of_sequence) override {
    while (true) {
      IteratorBase* cur;
      {
        std::lock_guard<std::mutex> lock(mu_);
        if (cancelled_) return Cancelled("repeat iterator cancelled");
        if (remaining_ == 0) {
          *end_of_sequence = true;
          return Status::OK();
        }
        if (cur_ == nullptr) {
          auto it = input_->MakeIterator();
          if (!it.ok()) return it.status();
          cur_ = std::move(it.value());
        }
        cur = cur_.get();
      }
      bool in_eos = false;
      Status s = cur->GetNext(ctx, out, &in_eos);
      if (!s.ok()) return s;
      if (!in_eos) return Status::OK();
      std::lock_guard<std::mutex> lock(mu_);
      cur_.reset();
      if (remaining_ > 0) --remaining_;
    }
  }

  void Cancel() override {
    std::lock_guard<std::mutex> lock(mu_);
    cancelled_ = true;
    if (cur_ != nullptr) cur_->Cancel();
  }

 private:
  const std::shared_ptr<const DatasetBase> input_;
  std::mutex mu_;
  std::unique_ptr<IteratorBase> cur_;
  int64_t remaining_;  // -1 == forever
  bool cancelled_ = false;
};

class RepeatDataset : public DatasetBase {
 public:
  RepeatDataset(std::shared_ptr<DatasetBase> input, int64_t count)
      : input_(std::move(input)), count_(count) {}

  Result<std::unique_ptr<IteratorBase>> MakeIterator() const override {
    return std::unique_ptr<IteratorBase>(new RepeatIterator(input_, count_));
  }
  const DataTypeVector& output_dtypes() const override {
    return input_->output_dtypes();
  }
  std::string DebugString() const override {
    return "RepeatDataset(count=" + std::to_string(count_) + ", " +
           input_->DebugString() + ")";
  }

 private:
  const std::shared_ptr<DatasetBase> input_;
  const int64_t count_;
};

// -----------------------------------------------------------------------------
// BatchDataset: stacks consecutive elements via QueueResource::StackRows.
// -----------------------------------------------------------------------------

class BatchIterator : public IteratorBase {
 public:
  BatchIterator(std::unique_ptr<IteratorBase> input, int64_t batch_size,
                bool drop_remainder)
      : input_(std::move(input)),
        batch_size_(batch_size),
        drop_remainder_(drop_remainder) {}

  Status GetNext(IteratorContext* ctx, Element* out,
                 bool* end_of_sequence) override {
    std::vector<Element> rows;
    rows.reserve(batch_size_);
    while (static_cast<int64_t>(rows.size()) < batch_size_) {
      Element e;
      bool in_eos = false;
      Status s = input_->GetNext(ctx, &e, &in_eos);
      if (!s.ok()) return s;
      if (in_eos) break;
      if (!rows.empty()) {
        if (e.size() != rows[0].size()) {
          return InvalidArgument("batch saw elements of different arity");
        }
        for (size_t c = 0; c < e.size(); ++c) {
          if (!(e[c].shape() == rows[0][c].shape()) ||
              e[c].dtype() != rows[0][c].dtype()) {
            return InvalidArgument(
                "batch component " + std::to_string(c) +
                " changed shape/type: " + e[c].shape().DebugString() +
                " vs " + rows[0][c].shape().DebugString());
          }
        }
      }
      rows.push_back(std::move(e));
    }
    if (rows.empty() ||
        (drop_remainder_ &&
         static_cast<int64_t>(rows.size()) < batch_size_)) {
      *end_of_sequence = true;
      return Status::OK();
    }
    *out = QueueResource::StackRows(rows);
    GetDataMetrics().elements->Increment();
    return Status::OK();
  }

  void Cancel() override { input_->Cancel(); }

 private:
  std::unique_ptr<IteratorBase> input_;
  const int64_t batch_size_;
  const bool drop_remainder_;
};

class BatchDataset : public DatasetBase {
 public:
  BatchDataset(std::shared_ptr<DatasetBase> input, int64_t batch_size,
               bool drop_remainder)
      : input_(std::move(input)),
        batch_size_(batch_size),
        drop_remainder_(drop_remainder) {}

  Result<std::unique_ptr<IteratorBase>> MakeIterator() const override {
    auto it = input_->MakeIterator();
    if (!it.ok()) return it.status();
    return std::unique_ptr<IteratorBase>(new BatchIterator(
        std::move(it.value()), batch_size_, drop_remainder_));
  }
  const DataTypeVector& output_dtypes() const override {
    return input_->output_dtypes();
  }
  std::string DebugString() const override {
    return "BatchDataset(batch=" + std::to_string(batch_size_) + ", " +
           input_->DebugString() + ")";
  }

 private:
  const std::shared_ptr<DatasetBase> input_;
  const int64_t batch_size_;
  const bool drop_remainder_;
};

// -----------------------------------------------------------------------------
// PrefetchDataset: a dedicated producer thread fills a bounded QueueResource
// ahead of the consumer — the queue's waiter lists give blocking,
// backpressure and prompt cancellation (Close(cancel_pending) aborts a
// producer parked on a full buffer; CancelAll unblocks a parked consumer).
// -----------------------------------------------------------------------------

class PrefetchIterator : public IteratorBase {
 public:
  PrefetchIterator(std::unique_ptr<IteratorBase> input,
                   DataTypeVector dtypes, int64_t buffer_size)
      : input_(std::move(input)),
        queue_(std::make_shared<QueueResource>(
            std::move(dtypes), buffer_size, /*min_after_dequeue=*/0,
            /*seed=*/0, /*shuffle=*/false)) {
    producer_ = std::thread([this]() { ProducerLoop(); });
  }

  ~PrefetchIterator() override {
    Cancel();
    producer_.join();
    GetDataMetrics().prefetch_occupancy->Add(-queue_->Size());
  }

  Status GetNext(IteratorContext* ctx, Element* out,
                 bool* end_of_sequence) override {
    const int64_t start = metrics::NowMicros();
    std::mutex m;
    std::condition_variable cv;
    bool done = false;
    Status status;
    Element element;
    queue_->TryDequeue(
        1, /*batched=*/false, ctx != nullptr ? ctx->cancellation : nullptr,
        [&](const Status& s, const QueueResource::Tuple& tuple) {
          std::lock_guard<std::mutex> lock(m);
          status = s;
          element = tuple;
          done = true;
          cv.notify_all();
        });
    {
      std::unique_lock<std::mutex> lock(m);
      cv.wait(lock, [&]() { return done; });
    }
    GetDataMetrics().getnext_wait_ms->Record(
        static_cast<double>(metrics::NowMicros() - start) / 1000.0);
    if (status.ok()) {
      GetDataMetrics().prefetch_occupancy->Add(-1);
      *out = std::move(element);
      return Status::OK();
    }
    if (status.code() == Code::kOutOfRange) {
      // Queue closed: either the producer hit end-of-input / an error, or
      // the iterator was cancelled.
      std::lock_guard<std::mutex> lock(state_mu_);
      if (!producer_status_.ok()) return producer_status_;
      if (cancelled_) return Cancelled("prefetch iterator cancelled");
      *end_of_sequence = true;
      return Status::OK();
    }
    return status;
  }

  void Cancel() override {
    {
      std::lock_guard<std::mutex> lock(state_mu_);
      if (cancelled_) return;
      cancelled_ = true;
    }
    // Aborts the producer if it is parked on a full buffer, and fails any
    // consumer parked on an empty one (Close satisfies it with OutOfRange,
    // which GetNext maps to Cancelled).
    queue_->Close(/*cancel_pending_enqueues=*/true);
    queue_->CancelAll(Cancelled("prefetch iterator cancelled"));
    input_->Cancel();
  }

 private:
  void ProducerLoop() {
    IteratorContext ctx;  // producer cancellation flows via queue close
    while (true) {
      Element element;
      bool eos = false;
      Status s = input_->GetNext(&ctx, &element, &eos);
      if (!s.ok() || eos) {
        if (!s.ok()) {
          std::lock_guard<std::mutex> lock(state_mu_);
          producer_status_ = s;
        }
        queue_->Close(/*cancel_pending_enqueues=*/false);
        return;
      }
      std::mutex m;
      std::condition_variable cv;
      bool done = false;
      Status enq;
      queue_->TryEnqueue(std::move(element), nullptr, [&](const Status& st) {
        std::lock_guard<std::mutex> lock(m);
        enq = st;
        done = true;
        cv.notify_all();
      });
      {
        std::unique_lock<std::mutex> lock(m);
        cv.wait(lock, [&]() { return done; });
      }
      if (!enq.ok()) return;  // closed/cancelled under us: clean exit
      GetDataMetrics().prefetch_occupancy->Add(1);
    }
  }

  std::unique_ptr<IteratorBase> input_;
  std::shared_ptr<QueueResource> queue_;
  std::mutex state_mu_;
  Status producer_status_;
  bool cancelled_ = false;
  std::thread producer_;  // last member: started after everything it uses
};

class PrefetchDataset : public DatasetBase {
 public:
  PrefetchDataset(std::shared_ptr<DatasetBase> input, int64_t buffer_size)
      : input_(std::move(input)), buffer_size_(buffer_size) {}

  Result<std::unique_ptr<IteratorBase>> MakeIterator() const override {
    auto it = input_->MakeIterator();
    if (!it.ok()) return it.status();
    return std::unique_ptr<IteratorBase>(new PrefetchIterator(
        std::move(it.value()), input_->output_dtypes(), buffer_size_));
  }
  const DataTypeVector& output_dtypes() const override {
    return input_->output_dtypes();
  }
  std::string DebugString() const override {
    return "PrefetchDataset(buffer=" + std::to_string(buffer_size_) + ", " +
           input_->DebugString() + ")";
  }

 private:
  const std::shared_ptr<DatasetBase> input_;
  const int64_t buffer_size_;
};

}  // namespace

// -----------------------------------------------------------------------------
// Factories.
// -----------------------------------------------------------------------------

Result<std::shared_ptr<DatasetBase>> NewRecordFileDataset(
    std::vector<std::string> filenames) {
  if (filenames.empty()) {
    return InvalidArgument("RecordFileDataset needs at least one file");
  }
  return std::shared_ptr<DatasetBase>(
      new RecordFileDataset(std::move(filenames)));
}

Result<std::shared_ptr<DatasetBase>> NewParallelMapDataset(
    std::shared_ptr<DatasetBase> input, const std::string& map_fn,
    int parallelism, DataTypeVector output_dtypes) {
  if (input == nullptr) return InvalidArgument("ParallelMap needs an input");
  if (parallelism < 1) {
    return InvalidArgument("ParallelMap parallelism must be >= 1, got " +
                           std::to_string(parallelism));
  }
  auto fn = MapFnRegistry::Global()->Lookup(map_fn);
  if (!fn.ok()) return fn.status();
  return std::shared_ptr<DatasetBase>(
      new ParallelMapDataset(std::move(input), map_fn, std::move(fn.value()),
                             parallelism, std::move(output_dtypes)));
}

Result<std::shared_ptr<DatasetBase>> NewShuffleDataset(
    std::shared_ptr<DatasetBase> input, int64_t buffer_size, uint64_t seed) {
  if (input == nullptr) return InvalidArgument("Shuffle needs an input");
  if (buffer_size < 1) {
    return InvalidArgument("Shuffle buffer_size must be >= 1, got " +
                           std::to_string(buffer_size));
  }
  return std::shared_ptr<DatasetBase>(
      new ShuffleDataset(std::move(input), buffer_size, seed));
}

Result<std::shared_ptr<DatasetBase>> NewRepeatDataset(
    std::shared_ptr<DatasetBase> input, int64_t count) {
  if (input == nullptr) return InvalidArgument("Repeat needs an input");
  if (count < -1) {
    return InvalidArgument("Repeat count must be >= -1, got " +
                           std::to_string(count));
  }
  return std::shared_ptr<DatasetBase>(
      new RepeatDataset(std::move(input), count));
}

Result<std::shared_ptr<DatasetBase>> NewBatchDataset(
    std::shared_ptr<DatasetBase> input, int64_t batch_size,
    bool drop_remainder) {
  if (input == nullptr) return InvalidArgument("Batch needs an input");
  if (batch_size < 1) {
    return InvalidArgument("Batch batch_size must be >= 1, got " +
                           std::to_string(batch_size));
  }
  return std::shared_ptr<DatasetBase>(
      new BatchDataset(std::move(input), batch_size, drop_remainder));
}

Result<std::shared_ptr<DatasetBase>> NewPrefetchDataset(
    std::shared_ptr<DatasetBase> input, int64_t buffer_size) {
  if (input == nullptr) return InvalidArgument("Prefetch needs an input");
  if (buffer_size < 1) {
    return InvalidArgument("Prefetch buffer_size must be >= 1, got " +
                           std::to_string(buffer_size));
  }
  return std::shared_ptr<DatasetBase>(
      new PrefetchDataset(std::move(input), buffer_size));
}

Result<std::shared_ptr<DatasetBase>> LookupDataset(OpKernelContext* ctx,
                                                   int handle_input) {
  Tensor handle = ctx->input(handle_input);
  if (BaseType(handle.dtype()) != DataType::kString ||
      handle.num_elements() < 1) {
    return InvalidArgument("dataset handle must be a string tensor");
  }
  auto res =
      ctx->device()->resource_mgr()->Lookup<DatasetResource>(handle.str(0));
  if (!res.ok()) return res.status();
  return res.value()->dataset;
}

}  // namespace data
}  // namespace tfrepro
