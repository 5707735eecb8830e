// serve_open_loop: the deploy path Variables -> checkpoint -> FreezeGraph ->
// Servable -> ModelManager -> DynamicBatcher (max batch 32, 1 ms timeout,
// 2 batch threads) serving an 11-layer, 16-wide MLP. One generator thread
// sends Poisson arrivals open loop, sleeping between them, at a low and a
// high fixed rate, then searches for the highest rate whose p99 stays
// within kSloMs. Every request is timed from when it was due.

#include <sys/prctl.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cmath>
#include <memory>
#include <thread>

#include "autodiff/gradients.h"
#include "graph/ops.h"
#include "runtime/session.h"
#include "serving/batcher.h"
#include "serving/freeze.h"
#include "serving/model_manager.h"
#include "serving/servable.h"
#include "train/saver.h"
#include "workloads.h"

namespace perfbench {
namespace {

using namespace tfrepro;
using Clock = std::chrono::steady_clock;

constexpr int kInputDim = 16;
constexpr int kHiddenDim = 16;
constexpr int kHiddenLayers = 10;
constexpr int kClasses = 10;
constexpr int kMaxBatch = 32;
constexpr int kPool = 2048;  // distinct request payloads
constexpr int64_t kVersion = 7;
constexpr double kLowRate = 20000;
// On a quiet host the knee is about 230k req/s; 50k keeps the high phase
// below it even when the host steals CPU (at 100k a slowed host shed load).
constexpr double kHighRate = 50000;
constexpr double kSloMs = 2.0;
constexpr double kTolerance = 1e-5;

// The end-to-end run spends all of --seconds at kLowRate. The traced run
// spends these shares of it on the low phase, the high phase and the rate
// search.
constexpr double kLowShare = 0.2, kHighShare = 0.2, kLadderShare = 0.35;
// The rate search: rungs kLadderStart * kLadderGrowth^i until one fails,
// then kBisections halvings of the bracket.
constexpr double kLadderStart = 60000, kLadderGrowth = 1.25;
constexpr double kLadderMax = 400000;
constexpr int kBisections = 3;
constexpr int kLadderRungs = 12;  // rung duration = ladder share / this

struct Model {
  Graph graph;
  Output probs;
  std::vector<Output> vars;
  Node* init = nullptr;
};

// The narrow-deep MLP with weights from the seed.
void BuildModel(uint64_t seed, Model* m) {
  GraphBuilder b(&m->graph);
  Rng rng(seed ^ 0x5e4e);
  Output h = ops::Placeholder(&b, DataType::kFloat,
                              TensorShape({1, kInputDim}), "x");
  std::vector<Output> assigns;
  int in_dim = kInputDim;
  for (int layer = 0; layer <= kHiddenLayers; ++layer) {
    const bool last = layer == kHiddenLayers;
    const int out_dim = last ? kClasses : kHiddenDim;
    const TensorShape w_shape({in_dim, out_dim});
    Tensor w = RandomTensor(&rng, w_shape, 0.5);
    Tensor bias = RandomTensor(&rng, TensorShape({out_dim}), 0.1);
    Output wv = ops::Variable(&b, DataType::kFloat, w_shape,
                              "w" + std::to_string(layer));
    Output bv = ops::Variable(&b, DataType::kFloat, TensorShape({out_dim}),
                              "b" + std::to_string(layer));
    assigns.push_back(ops::Assign(&b, wv, ops::Const(&b, w)));
    assigns.push_back(ops::Assign(&b, bv, ops::Const(&b, bias)));
    m->vars.push_back(wv);
    m->vars.push_back(bv);
    Output z = ops::BiasAdd(&b, ops::MatMul(&b, h, wv), bv);
    h = last ? ops::Softmax(&b, z) : ops::Relu(&b, z);
    in_dim = out_dim;
  }
  m->probs = h;
  m->init = ops::Group(&b, assigns, "init");
  Check(b.status(), "build serving model");
}

struct Deployment {
  serving::ModelManager manager;
  std::unique_ptr<serving::DynamicBatcher> batcher;
  std::shared_ptr<const serving::Servable> servable;
  std::unique_ptr<Graph> frozen;
  std::string output_name;
  std::vector<Tensor> requests;               // kPool examples [16]
  std::vector<std::vector<float>> reference;  // batch-1 answers
  double compile_ms = 0;
};

// Set by the batcher's provider on its batch thread at dispatch; read by
// the done callbacks of the same batch, which run on that thread after.
thread_local int64_t t_dispatch_ns = 0;

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

std::unique_ptr<Deployment> Deploy(const Args& args, const WorkDir& dir) {
  auto d = std::make_unique<Deployment>();
  Model model;
  BuildModel(args.seed, &model);
  GraphBuilder b(&model.graph);
  train::Saver saver(&b, model.vars);
  Check(b.status(), "build saver");
  auto session = Take(DirectSession::Create(model.graph), "training session");
  Check(session->Run({}, {}, {model.init->name()}, nullptr), "init");
  const std::string ckpt = Take(
      saver.Save(session.get(), dir.File("serve_ckpt"), 1), "checkpoint");
  {
    ScopedSpan span("FreezeGraph");
    d->frozen = Take(serving::FreezeGraph(model.graph, {ckpt},
                                          {model.probs.name()}),
                     "freeze");
  }
  d->output_name = model.probs.name();
  {
    ScopedSpan span("Servable::Create");
    d->servable = Take(
        serving::Servable::Create(*d->frozen,
                                  serving::SignatureDef{"x", {d->output_name}},
                                  kVersion),
        "servable");
    d->compile_ms = span.ElapsedMs();
  }
  Check(d->manager.Publish("mlp", d->servable), "publish");

  Rng rng(args.seed);
  for (int i = 0; i < kPool; ++i) {
    std::vector<float> x(kInputDim);
    for (float& v : x) v = static_cast<float>(rng.Normal());
    d->requests.push_back(Tensor::Vec(x));
    std::vector<Tensor> out;
    Check(d->servable->Run(Tensor::FromVector(x, TensorShape({1, kInputDim})),
                           &out),
          "reference run");
    d->reference.emplace_back(out[0].data<float>(),
                              out[0].data<float>() + kClasses);
    if (args.wrong_reference && i % 97 == 0) d->reference.back()[0] += 0.5f;
  }

  serving::DynamicBatcher::Options options;
  options.max_batch_size = kMaxBatch;
  options.batch_timeout_us = 1000;
  // Deep enough (0.65 s at 100k req/s) that a stalled host does not shed
  // load at the fixed rates: overload shows as latency from due time, and
  // only sustained overload fills the queue.
  options.max_enqueued = 65536;
  options.num_batch_threads = 2;
  Deployment* raw = d.get();
  d->batcher = std::make_unique<serving::DynamicBatcher>(
      [raw] {
        t_dispatch_ns = NowNs();
        return raw->manager.Current("mlp");
      },
      options);
  return d;
}

// One open-loop phase. Per-request results live in flat arrays indexed by
// request number (each slot written by exactly one thread); the first
// kTracedRequests requests also keep their timestamps for the trace file.
struct Phase {
  double rate = 0;
  std::vector<float> latency_us;  // done - due
  std::vector<float> lag_us;      // sent - due
  std::vector<float> wait_us;     // batch dispatch - sent
  std::vector<uint8_t> state;     // 0 pending, 1 ok, 2 wrong/failed, 3 rejected
  std::vector<std::array<int64_t, 3>> traced_ns;  // sent, dispatch, done
  std::atomic<int64_t> finished{0};
  std::atomic<int64_t> mismatches{0};
  std::atomic<int64_t> last_done_ns{0};

  double gen_lag_p99_ms = 0;
  double p50_ms = 0, p99_ms = 0, last_window_p50_ms = 0;
  int64_t rejected = 0, errors = 0;
  double goodput = 0;  // correct responses per second
  double queue_wait_ms = 0;
};

constexpr size_t kTracedRequests = 2000;

// Sends Poisson arrivals at `rate` for `seconds` and waits for every
// response. The arrival schedule comes from (seed, phase_id).
void RunPhase(Deployment* d, uint64_t seed, int phase_id, double rate,
              double seconds, Phase* p) {
  const uint64_t schedule_seed = seed * 7919 + phase_id;
  size_t n = 0;
  {
    Rng rng(schedule_seed);
    for (double t = rng.Exponential(rate); t < seconds;
         t += rng.Exponential(rate)) {
      ++n;
    }
  }
  p->rate = rate;
  p->latency_us.assign(n, 0);
  p->lag_us.assign(n, 0);
  p->wait_us.assign(n, 0);
  p->state.assign(n, 0);
  p->traced_ns.assign(std::min(n, kTracedRequests), {0, 0, 0});

  Rng rng(schedule_seed);
  const int64_t origin = NowNs() + 1000000;  // 1 ms from now
  double t = 0;
  for (size_t i = 0; i < n; ++i) {
    t += rng.Exponential(rate);
    const int64_t due = origin + static_cast<int64_t>(t * 1e9);
    int64_t now = NowNs();
    if (now < due) {
      std::this_thread::sleep_for(std::chrono::nanoseconds(due - now));
      now = NowNs();
    }
    p->lag_us[i] = (now - due) / 1e3f;
    if (i < kTracedRequests) p->traced_ns[i][0] = now;
    const size_t pool_index = (i + phase_id * 131) % kPool;
    Status s = d->batcher->Enqueue(
        d->requests[pool_index],
        [d, p, i, pool_index, due, now](serving::DynamicBatcher::Response r) {
          const int64_t done = NowNs();
          bool ok = r.status.ok() && r.version == kVersion &&
                    r.outputs.size() == 1 &&
                    r.outputs[0].num_elements() == kClasses;
          if (ok) {
            const float* got = r.outputs[0].data<float>();
            const std::vector<float>& want = d->reference[pool_index];
            for (int c = 0; c < kClasses; ++c) {
              if (!(std::fabs(got[c] - want[c]) <= kTolerance)) ok = false;
            }
            if (!ok) p->mismatches.fetch_add(1);
          }
          p->latency_us[i] = (done - due) / 1e3f;
          p->wait_us[i] = (t_dispatch_ns - now) / 1e3f;
          if (i < kTracedRequests) {
            p->traced_ns[i][1] = t_dispatch_ns;
            p->traced_ns[i][2] = done;
          }
          int64_t last = p->last_done_ns.load();
          while (last < done &&
                 !p->last_done_ns.compare_exchange_weak(last, done)) {
          }
          p->state[i] = ok ? 1 : 2;
          p->finished.fetch_add(1, std::memory_order_release);
        });
    if (!s.ok()) {
      p->state[i] = 3;
      p->finished.fetch_add(1, std::memory_order_release);
    }
  }
  const double wait_start = NowSeconds();
  while (p->finished.load(std::memory_order_acquire) <
         static_cast<int64_t>(n)) {
    if (NowSeconds() - wait_start > 30) {
      // Answer what is still queued while *p is alive, then give up.
      d->batcher->Shutdown();
      throw BenchError("responses still missing 30 s after the last request");
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  // Split the phase into kWindows runs of consecutive requests. A stall of
  // the host (a descheduled vCPU) delays every request due during it, so
  // one stall can own a phase's whole 1% tail; the median of the windows'
  // p99s is the typical p99 and moves only when most windows move.
  std::vector<std::vector<double>> windows(kWindows);
  std::vector<double> latency, queue_wait;
  for (size_t i = 0; i < n; ++i) {
    if (p->state[i] == 3) {
      ++p->rejected;
      continue;
    }
    if (p->state[i] != 1) ++p->errors;
    const double ms = p->latency_us[i] / 1e3;
    latency.push_back(ms);
    windows[i * kWindows / n].push_back(ms);
    queue_wait.push_back(p->wait_us[i] / 1e3);
  }
  const int64_t end = std::max(p->last_done_ns.load(),
                               origin + static_cast<int64_t>(seconds * 1e9));
  p->goodput =
      static_cast<double>(n - p->rejected - p->errors) / ((end - origin) / 1e9);
  std::vector<double> window_p99;
  for (const auto& w : windows) {
    if (!w.empty()) window_p99.push_back(Percentile(w, 0.99));
  }
  p->gen_lag_p99_ms =
      Percentile({p->lag_us.begin(), p->lag_us.end()}, 0.99) / 1e3;
  p->p50_ms = Median(latency);
  p->p99_ms = Median(window_p99);
  p->last_window_p50_ms = Median(windows.back());
  p->queue_wait_ms = Mean(queue_wait);
}

// A rung passes when its (window-median) p99 meets the limit, nothing was
// rejected or wrong, and the backlog is not growing: requests in the last
// window still have a median within the limit.
bool RungPasses(const Phase& p) {
  return p.rejected == 0 && p.errors == 0 && p.p99_ms <= kSloMs &&
         p.last_window_p50_ms <= kSloMs;
}

// The highest Poisson rate whose rung passes: rungs from kLadderStart
// growing by kLadderGrowth until one fails, kBisections halvings of the
// bracket, then linear interpolation of where p99 crosses kSloMs inside it.
// Rungs above the knee are expected to shed load, so their rejections
// decide the rung instead of counting as failures; wrong answers count.
double SloMaxRps(Deployment* d, const Args& args, Report* report) {
  const double rung_s = kLadderShare * args.seconds / kLadderRungs;
  double pass = 0, fail = 0, pass_p99 = 0, fail_p99 = 0;
  int phase_id = 10;
  auto rung = [&](double rate) {
    Phase p;
    RunPhase(d, args.seed, phase_id++, rate, rung_s, &p);
    const bool ok = RungPasses(p);
    (ok ? pass_p99 : fail_p99) = p.p99_ms;
    report->attempted += static_cast<int64_t>(p.state.size()) - p.rejected;
    report->failed += p.errors;
    if (p.errors > 0) report->correct = false;
    Log("serve: rung %.0f req/s p99 %.3f ms rejected %lld -> %s", rate,
        p.p99_ms, static_cast<long long>(p.rejected), ok ? "pass" : "fail");
    return ok;
  };
  for (double rate = kLadderStart; rate <= kLadderMax; rate *= kLadderGrowth) {
    if (!rung(rate)) {
      fail = rate;
      break;
    }
    pass = rate;
  }
  if (fail == 0) return pass;  // never failed: the top of the ladder
  for (int i = 0; i < kBisections; ++i) {
    const double mid = (pass + fail) / 2;
    (rung(mid) ? pass : fail) = mid;
  }
  const double crossing =
      fail_p99 > pass_p99
          ? std::clamp((kSloMs - pass_p99) / (fail_p99 - pass_p99), 0.0, 1.0)
          : 0.5;
  return pass + (fail - pass) * crossing;
}

// Median per-call time of Servable::Run at batch `batch`, in us.
double ServableRunUs(const Deployment& d, int batch) {
  std::vector<float> x;
  for (int i = 0; i < batch; ++i) {
    const float* row = d.requests[i].data<float>();
    x.insert(x.end(), row, row + kInputDim);
  }
  Tensor input = Tensor::FromVector(x, TensorShape({batch, kInputDim}));
  std::vector<double> per_call;
  for (int rep = 0; rep < 5; ++rep) {
    const double start = NowSeconds();
    for (int c = 0; c < 500; ++c) {
      std::vector<Tensor> out;
      ScopedSpan span("Servable::Run");
      Check(d.servable->Run(input, &out), "Servable::Run");
    }
    per_call.push_back((NowSeconds() - start) / 500 * 1e6);
  }
  return Median(per_call);
}

}  // namespace

Report RunServeOpenLoop(const Args& args) {
  Report report;
  WorkDir dir;
  // Sleep with ~1 us precision instead of the default 50 us timer slack.
  ::prctl(PR_SET_TIMERSLACK, 1UL, 0, 0, 0);
  const double process_start = NowSeconds();

  std::vector<double> setup_cpu_s, setup_wall_s, compile_ms;
  std::unique_ptr<Deployment> d;
  for (int i = 0; i < kSetups; ++i) {
    d.reset();
    const double start = i == 0 ? process_start : NowSeconds();
    const double cpu = i == 0 ? 0 : CpuSeconds(false);
    d = Deploy(args, dir);
    Phase warm;  // fills caches and the batch threads' working set
    RunPhase(d.get(), args.seed, 100 + i, kLowRate, 0.1, &warm);
    setup_wall_s.push_back(NowSeconds() - start);
    setup_cpu_s.push_back(CpuSeconds(false) - cpu);
    compile_ms.push_back(d->compile_ms);
  }
  AddSetupMetrics("serve", setup_cpu_s, setup_wall_s, args.trace, &report);

  // Fixed-rate phases count every request: a rejection or a wrong answer
  // is a failure.
  auto account = [&](const Phase& p) {
    report.attempted += static_cast<int64_t>(p.state.size());
    report.failed += p.rejected + p.errors;
    if (p.rejected + p.errors > 0) {
      report.correct = false;
      Log("serve: %.0f req/s phase: %lld rejected, %lld failed (%lld differ "
          "from the batch-1 reference)",
          p.rate, static_cast<long long>(p.rejected),
          static_cast<long long>(p.errors),
          static_cast<long long>(p.mismatches.load()));
    }
  };

  if (!args.trace) {
    // The low rate: batches form on the timeout, so their size (and the
    // CPU each request costs) depends on the arrival rate, not on how fast
    // the host happens to run the batches. One phase per window.
    std::vector<double> window_cpu_us;
    for (int w = 0; w < kWindows; ++w) {
      Phase low;
      // The serving side's CPU: the process minus this (generator) thread.
      const double cpu = CpuSeconds(false) - ThreadCpuSeconds();
      RunPhase(d.get(), args.seed, 200 + w, kLowRate, args.seconds / kWindows,
               &low);
      const double served_cpu = CpuSeconds(false) - ThreadCpuSeconds() - cpu;
      account(low);
      const int64_t answered = std::max<int64_t>(
          static_cast<int64_t>(low.state.size()) - low.rejected - low.errors,
          1);
      window_cpu_us.push_back(served_cpu * 1e6 /
                              static_cast<double>(answered));
      Log("serve: low p50 %.3f p99 %.3f ms, gen lag p99 %.3f ms", low.p50_ms,
          low.p99_ms, low.gen_lag_p99_ms);
    }
    AddCpuMetric("serve", window_cpu_us, &report);
    d.reset();
    report.Set("peak_rss_mb", PeakRssMb(false), "MB");
    return report;
  }

  // Traced run: the low phase, the high phase (registry deltas, request
  // spans), the rate search, then traced batch-32 runs of the frozen graph.
  RegistryDelta delta;
  Phase low;
  RunPhase(d.get(), args.seed, 1, kLowRate, kLowShare * args.seconds, &low);
  account(low);
  report.Set("req_p50_ms.low", low.p50_ms, "ms");
  report.Set("req_p99_ms.low", low.p99_ms, "ms");
  report.Set("serving.batch_size_mean.low", delta.Mean("serving.batch_size"),
             "count");

  delta.Restart();
  Phase high;
  RunPhase(d.get(), args.seed, 2, kHighRate, kHighShare * args.seconds, &high);
  account(high);
  const double batches = delta.Value("serving.batches");
  report.Set("serving.batch_size_mean.high", delta.Mean("serving.batch_size"),
             "count");
  report.Set("serving.batch_run_ms_mean", delta.Mean("serving.batch_run_ms"),
             "ms");
  report.Set("core.threadpool_tasks_per_step",
             delta.Value("threadpool.tasks") / batches, "count");
  report.Set("core.threadpool_task_wait_ms_mean",
             delta.Mean("threadpool.task_wait_ms"), "ms");
  report.Set("serving.gen_lag_p99_ms", high.gen_lag_p99_ms, "ms");
  report.Set("samples_per_s", high.goodput, "1/s");
  report.Set("req_p50_ms.high", high.p50_ms, "ms");
  report.Set("req_p99_ms.high", high.p99_ms, "ms");
  report.Set("serving.queue_wait_ms_mean", high.queue_wait_ms, "ms");
  report.Set("slo_max_rps", SloMaxRps(d.get(), args, &report), "1/s");
  if (SpanRecorder* spans = TraceSpans()) {
    for (size_t i = 0; i < high.traced_ns.size(); ++i) {
      if (high.state[i] == 3) continue;
      const auto& [sent, dispatch, done] = high.traced_ns[i];
      const int64_t id = static_cast<int64_t>(i);
      spans->Record("DynamicBatcher::Enqueue->done", sent / 1000, done / 1000,
                    id);
      spans->Record("queue_wait", sent / 1000, dispatch / 1000, id, id);
      spans->Record("batch_run", dispatch / 1000, done / 1000, id, id);
    }
  }

  // One batch-32 Session::Run on the frozen graph is this workload's "step"
  // for the kernel and runtime split and the tracing overhead.
  {
    auto session = Take(DirectSession::Create(*d->frozen), "traced session");
    std::vector<float> x;
    for (int i = 0; i < kMaxBatch; ++i) {
      const float* row = d->requests[i].data<float>();
      x.insert(x.end(), row, row + kInputDim);
    }
    Tensor input = Tensor::FromVector(x, TensorShape({kMaxBatch, kInputDim}));
    std::vector<Tensor> out;
    Check(session->Run({{"x", input}}, {d->output_name}, {}, &out), "warm");
    constexpr int kSteps = 200;
    StepSplit split;
    std::vector<double> untraced_us, traced_us;
    for (bool trace : {false, true}) {
      RunOptions options;
      options.trace = trace;
      for (int s = 0; s < kSteps; ++s) {
        RunMetadata meta;
        const int64_t start = metrics::NowMicros();
        Check(session->Run(options, {{"x", input}}, {d->output_name}, {},
                           &out, &meta),
              "batch-32 run");
        const int64_t end = metrics::NowMicros();
        (trace ? traced_us : untraced_us).push_back(end - start);
        if (trace) {
          split.Add(meta.step_stats, start, end);
          TraceSpans()->Record("DirectSession::Run batch-32", start, end, s);
          TraceSpans()->Merge(meta.step_stats);
        }
      }
    }
    report.Set("trace_overhead_ratio", Median(traced_us) / Median(untraced_us),
               "ratio");
    report.Set("step_p50_ms", Median(untraced_us) / 1e3, "ms");
    report.Set("step_p99_ms", Percentile(untraced_us, 0.99) / 1e3, "ms");
    report.Set("kernels.matmul_ms_per_step", split.matmul_us / kSteps / 1e3,
               "ms");
    report.Set("kernels.elementwise_ms_per_step",
               split.elementwise_us / kSteps / 1e3, "ms");
    report.Set("kernels.other_ms_per_step", split.other_us / kSteps / 1e3,
               "ms");
    report.Set("runtime.self_ms_per_step", split.self_us / kSteps / 1e3, "ms");
    report.Set("runtime.nodes_per_step",
               static_cast<double>(split.nodes) / kSteps, "count");
  }
  // MatMul FLOPs and bytes of one full batch through the 11 layers.
  const double b = kMaxBatch;
  const double flops =
      2.0 * b * (kInputDim * kHiddenDim +
                 (kHiddenLayers - 1) * kHiddenDim * kHiddenDim +
                 kHiddenDim * kClasses);
  const double bytes =
      4.0 * ((b * kInputDim + kInputDim * kHiddenDim + b * kHiddenDim) +
             (kHiddenLayers - 1) *
                 (b * kHiddenDim + kHiddenDim * kHiddenDim + b * kHiddenDim) +
             (b * kHiddenDim + kHiddenDim * kClasses + b * kClasses));
  report.Set("kernels.flops_per_step", flops, "count");
  report.Set("kernels.bytes_per_step", bytes, "bytes");
  report.Set("serving.servable_run_us.b1", ServableRunUs(*d, 1), "us");
  report.Set("serving.servable_run_us.b32", ServableRunUs(*d, kMaxBatch),
             "us");
  report.Set("runtime.compile_ms", Median(compile_ms), "ms");
  report.Set("runtime.optimize_ms", OptimizeGraphMs(*d->frozen), "ms");
  {
    Model model;
    BuildModel(args.seed, &model);
    GraphBuilder b(&model.graph);
    std::vector<Output> grads;
    const int64_t start = metrics::NowMicros();
    Check(AddGradients(&b, {model.probs}, model.vars, {}, &grads),
          "serving-model gradients");
    report.Set("autodiff.gradients_ms",
               (metrics::NowMicros() - start) / 1e3, "ms");
  }
  d.reset();
  AddLayerProbes(args, dir, &report);
  return report;
}

}  // namespace perfbench
