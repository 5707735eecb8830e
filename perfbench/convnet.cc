// train_convnet_local: a DirectSession trains a small convnet with SGD,
// fed by the in-graph input pipeline from a record file generated from the
// seed. One closed-loop client thread. Kernels do nearly all the work.
//
//   NHWC [64,16,16,3] -> conv3x3/16 -> relu -> maxpool2 -> conv3x3/32 ->
//   relu -> maxpool2 -> [64,512] -> FC 512 -> relu -> FC 10 -> softmax xent

#include <cmath>
#include <cstdio>
#include <cstring>
#include <memory>

#include "data/dataset.h"
#include "data/record_file.h"
#include "graph/ops.h"
#include "runtime/session.h"
#include "train/optimizer.h"
#include "workloads.h"

namespace perfbench {
namespace {

using namespace tfrepro;

constexpr int kBatch = 64;
constexpr int kSide = 16;
constexpr int kChannels = 3;
constexpr int kPixels = kSide * kSide * kChannels;
constexpr int kClasses = 10;
constexpr int kRecords = 8 * kBatch;  // 8 steps per epoch
constexpr float kLearningRate = 0.05f;
// Steps after each setup whose losses must be bit-identical across setups.
constexpr int kDeterminismSteps = 3;
// The loss at this step (counted from the first step) must be finite and
// below kLossThreshold.
constexpr int kLossCheckStep = 32;
constexpr double kLossThreshold = 0.5;  // chance is ln(10) = 2.30
// Steps in each window of the traced run.
constexpr int kTraceSteps = 8;

// Exact FLOPs of one training step, counting 2 per multiply-add in MatMul
// and Conv2D (forward, input and filter gradients as the graph runs them).
constexpr double kConv1Flops = 2.0 * kBatch * 16 * 16 * 16 * (3 * 3 * 3);
constexpr double kConv2Flops = 2.0 * kBatch * 8 * 8 * 32 * (3 * 3 * 16);
constexpr double kFc1Flops = 2.0 * kBatch * 512 * 512;
constexpr double kFc2Flops = 2.0 * kBatch * 512 * 10;

// Each class is a fixed random image; an example is its class image plus
// noise, so the model learns within a few dozen steps for any seed.
void WriteRecords(uint64_t seed, const std::string& path) {
  Rng rng(seed);
  std::vector<std::vector<float>> templates(kClasses,
                                            std::vector<float>(kPixels));
  for (auto& t : templates) {
    for (float& v : t) v = static_cast<float>(rng.Normal());
  }
  data::RecordWriter writer(path);
  std::vector<float> pixels(kPixels);
  for (int i = 0; i < kRecords; ++i) {
    const int label = rng.UniformInt(kClasses);
    for (int p = 0; p < kPixels; ++p) {
      pixels[p] = templates[label][p] + static_cast<float>(0.5 * rng.Normal());
    }
    Check(writer.Append(data::EncodeExample(pixels.data(), kPixels, label)),
          "write record");
  }
  Check(writer.Close(), "close record file");
}

struct Convnet {
  Graph graph;
  std::unique_ptr<DirectSession> session;
  std::string loss;
  std::string train;
  double gradients_ms = 0;
  double compile_ms = 0;
  int steps = 0;  // steps run so far
};

Output ConvLayer(GraphBuilder* b, Rng* rng, Output x, int in, int out,
                 const std::string& name, std::vector<Output>* vars,
                 std::vector<Output>* inits) {
  Output w = ops::Variable(b, DataType::kFloat, TensorShape({3, 3, in, out}),
                           name + "_w");
  Output bias =
      ops::Variable(b, DataType::kFloat, TensorShape({out}), name + "_b");
  inits->push_back(ops::Assign(
      b, w,
      ops::Const(b, RandomTensor(rng, TensorShape({3, 3, in, out}),
                                 std::sqrt(2.0 / (9.0 * in))))));
  inits->push_back(ops::Assign(
      b, bias, ops::Const(b, Tensor::Vec<float>(std::vector<float>(out)))));
  vars->push_back(w);
  vars->push_back(bias);
  Output y = ops::Relu(
      b, ops::BiasAdd(b, ops::Conv2D(b, x, w, {1, 1, 1, 1}, "SAME"), bias));
  return ops::MaxPool(b, y, {1, 2, 2, 1}, {1, 2, 2, 1}, "VALID");
}

Output DenseLayer(GraphBuilder* b, Rng* rng, Output x, int in, int out,
                  double gain, const std::string& name,
                  std::vector<Output>* vars, std::vector<Output>* inits) {
  Output w =
      ops::Variable(b, DataType::kFloat, TensorShape({in, out}), name + "_w");
  Output bias =
      ops::Variable(b, DataType::kFloat, TensorShape({out}), name + "_b");
  inits->push_back(ops::Assign(
      b, w,
      ops::Const(b, RandomTensor(rng, TensorShape({in, out}),
                                 gain * std::sqrt(2.0 / in)))));
  inits->push_back(ops::Assign(
      b, bias, ops::Const(b, Tensor::Vec<float>(std::vector<float>(out)))));
  vars->push_back(w);
  vars->push_back(bias);
  return ops::BiasAdd(b, ops::MatMul(b, x, w), bias);
}

// Writes the records, builds model + gradients, compiles and runs one step.
std::unique_ptr<Convnet> SetUp(uint64_t seed, const WorkDir& dir) {
  const std::string records = dir.File("convnet.records");
  WriteRecords(seed, records);

  auto net = std::make_unique<Convnet>();
  GraphBuilder b(&net->graph);
  Output pipeline = ops::RecordFileDataset(&b, {records});
  pipeline = ops::RepeatDataset(&b, pipeline, -1);
  pipeline = ops::ParallelMapDataset(&b, pipeline, "parse_example", 2,
                                     {DataType::kFloat, DataType::kInt64});
  pipeline = ops::BatchDataset(&b, pipeline, kBatch, /*drop_remainder=*/true);
  pipeline = ops::PrefetchDataset(&b, pipeline, 2);
  std::vector<Output> next = ops::IteratorGetNext(
      &b, pipeline, {DataType::kFloat, DataType::kInt64}, "input");
  Output x = ops::Reshape(&b, next[0], {kBatch, kSide, kSide, kChannels});

  Rng rng(seed ^ 0x5eed);
  std::vector<Output> vars, inits;
  Output h = ConvLayer(&b, &rng, x, kChannels, 16, "conv1", &vars, &inits);
  h = ConvLayer(&b, &rng, h, 16, 32, "conv2", &vars, &inits);
  h = ops::Reshape(&b, h, {kBatch, 512});
  h = ops::Relu(&b,
                DenseLayer(&b, &rng, h, 512, 512, 1.0, "fc1", &vars, &inits));
  // A small output layer starts the loss near chance (ln 10).
  Output logits =
      DenseLayer(&b, &rng, h, 512, kClasses, 0.1, "fc2", &vars, &inits);
  Node* xent = ops::SparseSoftmaxCrossEntropyWithLogits(&b, logits, next[1]);
  Output loss = ops::MeanAll(&b, Output(xent, 0));
  Node* init = ops::Group(&b, inits, "init");

  train::GradientDescentOptimizer sgd(kLearningRate);
  std::vector<train::GradAndVar> grads;
  {
    ScopedSpan span("ComputeGradients");
    grads = Take(sgd.ComputeGradients(&b, loss, vars), "gradients");
    net->gradients_ms = span.ElapsedMs();
  }
  // Every gradient finishes before any variable changes (the backward pass
  // re-reads weights), so the loss trajectory is deterministic.
  std::vector<Output> grad_outs;
  for (const auto& gv : grads) grad_outs.push_back(gv.grad);
  Node* barrier = ops::Group(&b, grad_outs, "grad_barrier");
  std::vector<Output> updates;
  for (const auto& gv : grads) {
    updates.push_back(b.Op("ApplyGradientDescent")
                          .Input(gv.var)
                          .Input(ops::Const(&b, kLearningRate))
                          .Input(gv.grad)
                          .ControlInput(barrier)
                          .Attr("T", BaseType(gv.var.dtype()))
                          .Finalize());
  }
  Node* train = ops::Group(&b, updates, "train");
  Check(b.status(), "build convnet graph");
  net->loss = loss.name();
  net->train = train->name();

  net->session = Take(DirectSession::Create(net->graph), "create session");
  Check(net->session->Run({}, {}, {init->name()}, nullptr), "init variables");
  {
    ScopedSpan span("DirectSession::Warmup");
    Check(net->session->Warmup({}, {net->loss}, {net->train}), "warmup");
    net->compile_ms = span.ElapsedMs();
  }
  std::vector<Tensor> out;
  Check(net->session->Run({}, {net->loss}, {net->train}, &out), "first step");
  net->steps = 1;
  return net;
}

// One training step; returns the loss, or NaN when the step failed.
double Step(Convnet* net, Report* report, const RunOptions& options = {},
            RunMetadata* metadata = nullptr) {
  std::vector<Tensor> out;
  ++report->attempted;
  Status s =
      net->session->Run(options, {}, {net->loss}, {net->train}, &out, metadata);
  ++net->steps;
  if (!s.ok()) {
    report->Fail("step: " + s.ToString());
    return NAN;
  }
  const double loss = out[0].data<float>()[0];
  if (!std::isfinite(loss)) report->Fail("non-finite loss");
  if (net->steps == kLossCheckStep && !(loss < kLossThreshold)) {
    char why[96];
    std::snprintf(why, sizeof(why), "loss %.4f at step %d is not below %.2f",
                  loss, kLossCheckStep, kLossThreshold);
    report->Fail(why);
  }
  return loss;
}

}  // namespace

Report RunConvnetLocal(const Args& args) {
  Report report;
  WorkDir dir;
  const double process_start = NowSeconds();

  // Set up several times: setup_s is their median, and the first steps of
  // every setup must give bit-identical losses.
  std::vector<double> setup_cpu_s, setup_wall_s, compile_ms, gradients_ms;
  std::vector<std::vector<float>> losses(kSetups);
  std::unique_ptr<Convnet> net;
  for (int i = 0; i < kSetups; ++i) {
    net.reset();
    const double start = i == 0 ? process_start : NowSeconds();
    const double cpu = i == 0 ? 0 : CpuSeconds(false);
    net = SetUp(args.seed, dir);
    setup_wall_s.push_back(NowSeconds() - start);
    setup_cpu_s.push_back(CpuSeconds(false) - cpu);
    compile_ms.push_back(net->compile_ms);
    gradients_ms.push_back(net->gradients_ms);
    for (int s = 0; s < kDeterminismSteps; ++s) {
      losses[i].push_back(static_cast<float>(Step(net.get(), &report)));
    }
    if (args.wrong_reference && i > 0) losses[i][0] += 1.0f;
    if (std::memcmp(losses[i].data(), losses[0].data(),
                    sizeof(float) * kDeterminismSteps) != 0) {
      report.Fail("loss trajectory differs between two setups of one build");
    }
  }
  Log("convnet: loss %.4f after %d steps", losses[0].back(), net->steps);
  AddSetupMetrics("convnet", setup_cpu_s, setup_wall_s, args.trace, &report);

  // Closed-loop steps for `seconds` (and at least up to the loss check);
  // returns each step's wall time and sets *cpu_us_per_sample.
  auto timed_steps = [&](double seconds, double* cpu_us_per_sample) {
    std::vector<double> step_ms;
    const double start = NowSeconds();
    const double cpu_start = CpuSeconds(false);
    while (NowSeconds() - start < seconds || net->steps < kLossCheckStep) {
      const double t0 = NowSeconds();
      Step(net.get(), &report);
      step_ms.push_back((NowSeconds() - t0) * 1e3);
    }
    *cpu_us_per_sample = (CpuSeconds(false) - cpu_start) * 1e6 /
                         (static_cast<double>(step_ms.size()) * kBatch);
    return step_ms;
  };

  if (!args.trace) {
    std::vector<double> window_cpu_us(kWindows);
    for (double& cpu_us : window_cpu_us) {
      timed_steps(args.seconds / kWindows, &cpu_us);
    }
    AddCpuMetric("convnet", window_cpu_us, &report);
    report.Set("peak_rss_mb", PeakRssMb(false), "MB");
    return report;
  }

  // Traced run. Window A (untraced) gives registry counts per step and the
  // untraced step time; window B traces every step. Both have fixed
  // lengths, so their counts repeat exactly; the wall-clock window follows.
  std::vector<double> untraced_ms, traced_ms;
  RegistryDelta delta;
  for (int s = 0; s < kTraceSteps; ++s) {
    const int64_t t0 = metrics::NowMicros();
    Step(net.get(), &report);
    untraced_ms.push_back((metrics::NowMicros() - t0) / 1e3);
  }
  const double tasks = delta.Value("threadpool.tasks");
  const double task_wait = delta.Mean("threadpool.task_wait_ms");

  StepSplit split;
  RunOptions traced;
  traced.trace = true;
  for (int s = 0; s < kTraceSteps; ++s) {
    RunMetadata meta;
    const int64_t t0 = metrics::NowMicros();
    Step(net.get(), &report, traced, &meta);
    const int64_t t1 = metrics::NowMicros();
    TraceSpans()->Record("DirectSession::Run", t0, t1, net->steps);
    TraceSpans()->Merge(meta.step_stats);
    split.Add(meta.step_stats, t0, t1);
    traced_ms.push_back((t1 - t0) / 1e3);
  }
  double cpu_us = 0;
  AddClosedLoopMetrics(timed_steps(kWallShare * args.seconds, &cpu_us), kBatch,
                       &report);

  const double n = kTraceSteps;
  report.Set("kernels.matmul_ms_per_step", split.matmul_us / n / 1e3, "ms");
  report.Set("kernels.conv2d_ms_per_step", split.conv_us / n / 1e3, "ms");
  report.Set("kernels.elementwise_ms_per_step", split.elementwise_us / n / 1e3,
             "ms");
  report.Set("kernels.other_ms_per_step", split.other_us / n / 1e3, "ms");
  // Forward once, input + filter gradients for conv2 and the FC layers,
  // filter gradient only for conv1 (its input needs no gradient).
  report.Set("kernels.flops_per_step",
             kConv1Flops * 2 + kConv2Flops * 3 + kFc1Flops * 3 + kFc2Flops * 3,
             "count");
  // Bytes each MatMul/Conv2D reads and writes (float32 operands + result).
  const double conv1_bytes = 4.0 * (kBatch * 16 * 16 * 3 + 27 * 16 +
                                    kBatch * 16 * 16 * 16);
  const double conv2_bytes = 4.0 * (kBatch * 8 * 8 * 16 + 144 * 32 +
                                    kBatch * 8 * 8 * 32);
  const double fc1_bytes = 4.0 * (kBatch * 512 + 512 * 512 + kBatch * 512);
  const double fc2_bytes = 4.0 * (kBatch * 512 + 512 * 10 + kBatch * 10);
  report.Set("kernels.bytes_per_step",
             conv1_bytes * 2 + conv2_bytes * 3 + fc1_bytes * 3 + fc2_bytes * 3,
             "bytes");
  report.Set("runtime.self_ms_per_step", split.self_us / n / 1e3, "ms");
  report.Set("runtime.nodes_per_step", split.nodes / n, "count");
  report.Set("runtime.compile_ms", Median(compile_ms), "ms");
  report.Set("runtime.optimize_ms", OptimizeGraphMs(net->graph), "ms");
  report.Set("core.threadpool_tasks_per_step", tasks / n, "count");
  report.Set("core.threadpool_task_wait_ms_mean", task_wait, "ms");
  report.Set("autodiff.gradients_ms", Median(gradients_ms), "ms");
  report.Set("data.getnext_wait_ms_per_step", split.getnext_us / n / 1e3, "ms");
  report.Set("train.apply_ms_per_step", split.apply_us / n / 1e3, "ms");
  report.Set("trace_overhead_ratio", Median(traced_ms) / Median(untraced_ms),
             "ratio");
  AddLayerProbes(args, dir, &report);
  return report;
}

}  // namespace perfbench
