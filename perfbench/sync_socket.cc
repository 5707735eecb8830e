// train_sync_socket: paper §4.4 synchronous replication over the socket
// transport. One PS task and two worker tasks run as worker_main processes;
// each worker trains a 64->512->10 MLP (batch 32) fed by the shared data
// service in this process, and train::SyncReplicas queues aggregate the
// gradients. Three closed-loop client threads drive it: two worker steps
// and the chief update.
//
// Each record carries its own index as a 65th feature, which the graph
// slices off, so the benchmark can check that the data service delivers
// every element exactly once per epoch.

#include <unistd.h>

#include <atomic>
#include <cmath>
#include <memory>
#include <thread>

#include "data/dataset.h"
#include "data/record_file.h"
#include "distributed/cluster.h"
#include "distributed/data_service.h"
#include "distributed/master.h"
#include "distributed/rpc/process_cluster.h"
#include "graph/ops.h"
#include "runtime/session.h"
#include "train/optimizer.h"
#include "train/sync_replicas.h"
#include "workloads.h"

namespace perfbench {
namespace {

using namespace tfrepro;
using distributed::Cluster;
using distributed::MasterSession;

constexpr int kWorkers = 2;
constexpr int kBatch = 32;
constexpr int kInput = 64;
constexpr int kHidden = 512;
constexpr int kClasses = 10;
constexpr int kRecords = 16 * kWorkers * kBatch;  // 16 rounds per epoch
constexpr float kLearningRate = 0.05f;
constexpr int kTraceRounds = 200;
// Per-step deadline: a stuck round fails instead of hanging the run.
constexpr double kStepDeadlineSeconds = 20;

// MatMul FLOPs of one round: per worker, forward through both layers plus
// the two weight gradients and the hidden-layer input gradient.
constexpr double kWorkerFlops =
    2.0 * kBatch * (kInput * kHidden + kHidden * kClasses) +
    2.0 * kBatch * (kInput * kHidden + kHidden * kClasses) +
    2.0 * kBatch * kHidden * kClasses;
// Float32 bytes those MatMuls read and write.
constexpr double kWorkerBytes =
    4.0 * ((kBatch * kInput + kInput * kHidden + kBatch * kHidden) +
           (kBatch * kHidden + kHidden * kClasses + kBatch * kClasses) +
           (kBatch * kInput + kBatch * kHidden + kInput * kHidden) +
           (kBatch * kHidden + kBatch * kClasses + kHidden * kClasses) +
           (kBatch * kClasses + kHidden * kClasses + kBatch * kHidden));

struct Dataset {
  std::vector<std::vector<float>> features;  // kRecords x kInput
  std::vector<int64_t> labels;
};

// Gaussian clusters, one per class, from the seed.
Dataset MakeDataset(uint64_t seed) {
  Rng rng(seed);
  std::vector<std::vector<float>> centers(kClasses, std::vector<float>(kInput));
  for (auto& c : centers) {
    for (float& v : c) v = static_cast<float>(rng.Normal());
  }
  Dataset d;
  for (int i = 0; i < kRecords; ++i) {
    const int label = rng.UniformInt(kClasses);
    std::vector<float> x(kInput);
    for (int j = 0; j < kInput; ++j) {
      x[j] = centers[label][j] + static_cast<float>(0.7 * rng.Normal());
    }
    d.features.push_back(std::move(x));
    d.labels.push_back(label);
  }
  return d;
}

void WriteRecords(const Dataset& d, const std::string& path) {
  data::RecordWriter writer(path);
  std::vector<float> packed(kInput + 1);
  for (int i = 0; i < kRecords; ++i) {
    std::copy(d.features[i].begin(), d.features[i].end(), packed.begin());
    packed[kInput] = static_cast<float>(i);
    Check(writer.Append(data::EncodeExample(packed.data(), kInput + 1,
                                            d.labels[i])),
          "write record");
  }
  Check(writer.Close(), "close record file");
}

// The MLP on `x`, from vars = {w1, b1, w2, b2}.
Output Mlp(GraphBuilder* b, Output x, std::vector<Output>* vars) {
  Output h = ops::Relu(b, ops::BiasAdd(b, ops::MatMul(b, x, (*vars)[0]),
                                       (*vars)[1]));
  return ops::BiasAdd(b, ops::MatMul(b, h, (*vars)[2]), (*vars)[3]);
}

std::vector<Output> MlpVariables(GraphBuilder* b, uint64_t seed,
                                 std::vector<Output>* inits) {
  Rng rng(seed ^ 0x5eed);
  const std::vector<TensorShape> shapes = {
      TensorShape({kInput, kHidden}), TensorShape({kHidden}),
      TensorShape({kHidden, kClasses}), TensorShape({kClasses})};
  std::vector<Output> vars;
  for (size_t i = 0; i < shapes.size(); ++i) {
    Output v = ops::Variable(b, DataType::kFloat, shapes[i],
                             "mlp_v" + std::to_string(i));
    const double scale = i % 2 == 1 ? 0.0 : std::sqrt(2.0 / shapes[i].dim(0));
    inits->push_back(
        ops::Assign(b, v, ops::Const(b, RandomTensor(&rng, shapes[i], scale))));
    vars.push_back(v);
  }
  return vars;
}

struct Cluster3 {
  std::unique_ptr<distributed::DataServiceServer> data_service;
  std::unique_ptr<Cluster> cluster;
  Graph graph;
  std::unique_ptr<MasterSession> session;
  std::string worker_step[kWorkers];
  std::string worker_loss[kWorkers];
  std::string worker_ids[kWorkers];
  std::string chief;
  double cluster_create_ms = 0;
  double gradients_ms = 0;
  double compile_ms = 0;
  // Everything each worker step fetched, in order, for the checks.
  std::vector<float> losses[kWorkers];
  std::vector<int64_t> ids[kWorkers];

  ~Cluster3() {
    session.reset();
    cluster.reset();  // stops and reaps the worker processes
    if (data_service != nullptr) data_service->Shutdown();
  }
};

struct RoundTimes {
  std::vector<double> chief_ms;
  int rounds = 0;
  StepSplit split;
  // (TreeCpuSeconds(), rounds completed) at each window boundary.
  std::vector<std::pair<double, int>> cpu_marks;
};

// Drives worker steps and chief rounds from three threads. With
// `fixed_rounds` > 0 every thread runs exactly that many Runs; otherwise
// the chief runs until `seconds` pass and the workers follow it (see the
// stop rule below); only the last RunRounds of a cluster may be timed.
// With `cpu_windows` > 0 a timed run also marks the CPU time of the
// process tree at the start and at the end of each of that many windows.
// Failed Runs are counted in the report.
RoundTimes RunRounds(Cluster3* c, Report* report, int fixed_rounds,
                     double seconds, bool trace, int cpu_windows = 0) {
  RoundTimes times;
  std::mutex mu;  // guards report, times.split and the fetched values
  // Stop rule for timed runs: after its time is up the chief announces a
  // final round F and runs it. Worker step k waits for round k-1's tokens,
  // so workers may start steps up to F+1 and every one of them completes.
  std::atomic<int> final_round{fixed_rounds > 0 ? fixed_rounds : 0};
  const int worker_extra = fixed_rounds > 0 ? 0 : 1;
  RunOptions options;
  options.trace = trace;

  auto run = [&](const std::string& role, int round,
                 const std::vector<std::string>& fetches,
                 const std::string& target, std::vector<Tensor>* out) {
    RunMetadata meta;
    const int64_t start = metrics::NowMicros();
    Status s = c->session->Run(options, {}, fetches, {target}, out, &meta);
    const int64_t end = metrics::NowMicros();
    std::lock_guard<std::mutex> lock(mu);
    ++report->attempted;
    if (!s.ok()) {
      report->Fail(role + " run: " + s.ToString());
      return false;
    }
    if (trace) {
      if (SpanRecorder* spans = TraceSpans()) {
        spans->Record("MasterSession::Run " + role, start, end, round);
        spans->Merge(meta.step_stats);
      }
      times.split.Add(meta.step_stats, start, end);
    }
    return true;
  };

  auto worker = [&](int wk) {
    for (int k = 1;; ++k) {
      const int f = final_round.load();
      if (f > 0 && k > f + worker_extra) break;
      std::vector<Tensor> out;
      if (!run("worker" + std::to_string(wk), k,
               {c->worker_loss[wk], c->worker_ids[wk]}, c->worker_step[wk],
               &out)) {
        break;
      }
      std::lock_guard<std::mutex> lock(mu);
      c->losses[wk].push_back(out[0].data<float>()[0]);
      for (int i = 0; i < kBatch; ++i) {
        c->ids[wk].push_back(static_cast<int64_t>(out[1].data<float>()[i]));
      }
    }
  };

  const double start = NowSeconds();
  if (cpu_windows > 0) times.cpu_marks.emplace_back(TreeCpuSeconds(), 0);
  std::thread w0(worker, 0), w1(worker, 1);
  for (int k = 1;; ++k) {
    const double t0 = NowSeconds();
    const bool ok = run("chief", k, {}, c->chief, nullptr);
    const double t1 = NowSeconds();
    times.chief_ms.push_back((t1 - t0) * 1e3);
    times.rounds = k;
    const int marks = static_cast<int>(times.cpu_marks.size());
    if (marks > 0 && marks <= cpu_windows &&
        t1 - start >= seconds * marks / cpu_windows) {
      times.cpu_marks.emplace_back(TreeCpuSeconds(), k);
    }
    if (!ok) {
      final_round.store(k);
      break;
    }
    if (fixed_rounds > 0) {
      if (k == fixed_rounds) break;
    } else if (final_round.load() == k) {
      break;
    } else if (t1 - start >= seconds) {
      final_round.store(k + 1);
    }
  }
  w0.join();
  w1.join();
  return times;
}

std::unique_ptr<Cluster3> SetUp(uint64_t seed, const WorkDir& dir,
                                Report* report) {
  auto c = std::make_unique<Cluster3>();
  const std::string records = dir.File("sync.records");
  WriteRecords(MakeDataset(seed), records);

  auto factory = Take(distributed::RecordPipelineFactory(
                          {records}, "parse_example", /*parallelism=*/2,
                          {DataType::kFloat, DataType::kInt64}, /*repeat=*/-1,
                          /*shuffle_buffer=*/0, /*seed=*/0),
                      "data service pipeline");
  distributed::DataServiceHandler::Options data_options;
  data_options.num_consumers = kWorkers;
  c->data_service =
      std::make_unique<distributed::DataServiceServer>(factory, data_options);
  Check(c->data_service->Start(0), "start data service");

  // The socket transport, never the in-process fallback: a missing
  // worker_main is a setup failure.
  Cluster::Options options;
  options.worker_binary = ExecutableDir() + "/bin/worker_main";
  if (::access(options.worker_binary.c_str(), X_OK) != 0) {
    throw BenchError("worker_main not found at " + options.worker_binary);
  }
  distributed::ClusterSpec spec;
  spec.jobs = {{"ps", 1}, {"worker", kWorkers}};
  spec.transport = "socket";
  {
    ScopedSpan span("Cluster::Create");
    c->cluster = Take(Cluster::Create(spec, options), "create cluster");
    c->cluster_create_ms = span.ElapsedMs();
  }
  if (dynamic_cast<distributed::rpc::ProcessCluster*>(c->cluster.get()) ==
      nullptr) {
    throw BenchError("cluster is not on the socket transport");
  }

  GraphBuilder b(&c->graph);
  std::vector<Output> inits, vars;
  train::GradientDescentOptimizer sgd(kLearningRate);
  std::unique_ptr<train::SyncReplicas> sync;
  {
    GraphBuilder::DeviceScope scope(&b, "/job:ps/task:0");
    vars = MlpVariables(&b, seed, &inits);
    sync = std::make_unique<train::SyncReplicas>(&b, &sgd, kWorkers, kWorkers);
  }
  for (int wk = 0; wk < kWorkers; ++wk) {
    GraphBuilder::DeviceScope scope(&b,
                                    "/job:worker/task:" + std::to_string(wk));
    Output ds = ops::DataServiceDataset(&b, c->data_service->port(), wk,
                                        kWorkers,
                                        {DataType::kFloat, DataType::kInt64});
    ds = ops::BatchDataset(&b, ds, kBatch, /*drop_remainder=*/true);
    std::vector<Output> next = ops::IteratorGetNext(
        &b, ds, {DataType::kFloat, DataType::kInt64},
        "input" + std::to_string(wk));
    Output x = ops::Slice(&b, next[0], {0, 0}, {kBatch, kInput});
    Output ids = ops::Slice(&b, next[0], {0, kInput}, {kBatch, 1});
    Output logits = Mlp(&b, x, &vars);
    Node* xent = ops::SparseSoftmaxCrossEntropyWithLogits(&b, logits, next[1]);
    Output loss = ops::MeanAll(&b, Output(xent, 0));
    std::vector<train::GradAndVar> grads;
    {
      ScopedSpan span("ComputeGradients", wk);
      grads = Take(sgd.ComputeGradients(&b, loss, vars), "gradients");
      c->gradients_ms += span.ElapsedMs();
    }
    c->worker_step[wk] =
        Take(sync->AddWorkerStep(grads), "worker step")->name();
    c->worker_loss[wk] = loss.name();
    c->worker_ids[wk] = ids.name();
  }
  {
    GraphBuilder::DeviceScope scope(&b, "/job:ps/task:0");
    c->chief = Take(sync->BuildChiefUpdate(), "chief update")->name();
  }
  Node* init = ops::Group(&b, inits, "init");
  Check(b.status(), "build graph");

  MasterSession::Options session_options;
  session_options.step_deadline_seconds = kStepDeadlineSeconds;
  c->session = Take(MasterSession::Create(c->graph, c->cluster.get(),
                                          session_options),
                    "master session");
  Check(c->session->Run({}, {}, {init->name()}, nullptr), "init");
  Check(c->session->Run({}, {}, {sync->token_seed_op()->name()}, nullptr),
        "seed tokens");
  // The first round compiles all three step signatures on every task.
  ScopedSpan span("first round");
  RunRounds(c.get(), report, /*fixed_rounds=*/1, 0, /*trace=*/false);
  c->compile_ms = span.ElapsedMs();
  return c;
}

// Exactly-once: consumer w's j-th element is the pipeline's element j*N+w,
// i.e. record (j*N+w) mod kRecords, so every epoch holds each record once.
void CheckDelivery(const Cluster3& c, bool wrong_reference, Report* report) {
  for (int wk = 0; wk < kWorkers; ++wk) {
    const std::vector<int64_t>& ids = c.ids[wk];
    for (size_t j = 0; j < ids.size(); ++j) {
      int64_t expected = (static_cast<int64_t>(j) * kWorkers + wk) % kRecords;
      if (wrong_reference) expected = (expected + 1) % kRecords;
      if (ids[j] != expected) {
        report->Fail("data service delivered record " +
                     std::to_string(ids[j]) + " where " +
                     std::to_string(expected) + " was due");
        return;
      }
    }
  }
}

// The loss must fall: mean over the last 8 worker steps below the mean
// over the first 8, and finite throughout.
void CheckLoss(const Cluster3& c, Report* report) {
  for (int wk = 0; wk < kWorkers; ++wk) {
    const std::vector<float>& l = c.losses[wk];
    for (float v : l) {
      if (!std::isfinite(v)) return report->Fail("non-finite loss");
    }
    if (l.size() < 16) return report->Fail("too few steps to check the loss");
    const double first = Mean(std::vector<double>(l.begin(), l.begin() + 8));
    const double last = Mean(std::vector<double>(l.end() - 8, l.end()));
    if (!(last < first)) {
      return report->Fail("loss did not decrease: " + std::to_string(first) +
                          " -> " + std::to_string(last));
    }
  }
}

// Samples/s of one DirectSession training the same MLP on the same data
// (fed batches), the base of distributed.scaling_efficiency.
double SingleWorkerSamplesPerS(uint64_t seed, double seconds) {
  const Dataset d = MakeDataset(seed);
  Graph graph;
  GraphBuilder b(&graph);
  std::vector<Output> inits;
  std::vector<Output> vars = MlpVariables(&b, seed, &inits);
  Output x = ops::Placeholder(&b, DataType::kFloat,
                              TensorShape({kBatch, kInput}), "x");
  Output y = ops::Placeholder(&b, DataType::kInt64, TensorShape({kBatch}), "y");
  Node* xent =
      ops::SparseSoftmaxCrossEntropyWithLogits(&b, Mlp(&b, x, &vars), y);
  Output loss = ops::MeanAll(&b, Output(xent, 0));
  train::GradientDescentOptimizer sgd(kLearningRate);
  Node* step = Take(sgd.Minimize(&b, loss, vars, "train"), "minimize");
  Node* init = ops::Group(&b, inits, "init");
  Check(b.status(), "build single-worker graph");
  auto session = Take(DirectSession::Create(graph), "single-worker session");
  Check(session->Run({}, {}, {init->name()}, nullptr), "init");

  std::vector<std::pair<Tensor, Tensor>> batches;
  for (int start = 0; start + kBatch <= kRecords; start += kBatch) {
    std::vector<float> xs;
    std::vector<int64_t> ys;
    for (int i = start; i < start + kBatch; ++i) {
      xs.insert(xs.end(), d.features[i].begin(), d.features[i].end());
      ys.push_back(d.labels[i]);
    }
    batches.emplace_back(
        Tensor::FromVector<float>(xs, TensorShape({kBatch, kInput})),
        Tensor::FromVector<int64_t>(ys, TensorShape({kBatch})));
  }
  int steps = 0;
  const double start = NowSeconds();
  while (NowSeconds() - start < seconds) {
    const auto& [bx, by] = batches[steps % batches.size()];
    Check(session->Run({{"x", bx}, {"y", by}}, {}, {step->name()}, nullptr),
          "single-worker step");
    ++steps;
  }
  return steps * kBatch / (NowSeconds() - start);
}

}  // namespace

Report RunSyncSocket(const Args& args) {
  Report report;
  WorkDir dir;
  const double process_start = NowSeconds();

  std::vector<double> setup_cpu_s, setup_wall_s, cluster_ms, compile_ms,
      gradients_ms;
  std::unique_ptr<Cluster3> c;
  for (int i = 0; i < kSetups; ++i) {
    c.reset();  // the previous cluster's processes exit before the next
    const double start = i == 0 ? process_start : NowSeconds();
    const double cpu = i == 0 ? 0 : TreeCpuSeconds();
    c = SetUp(args.seed, dir, &report);
    setup_wall_s.push_back(NowSeconds() - start);
    setup_cpu_s.push_back(TreeCpuSeconds() - cpu);
    cluster_ms.push_back(c->cluster_create_ms);
    compile_ms.push_back(c->compile_ms);
    gradients_ms.push_back(c->gradients_ms);
  }
  AddSetupMetrics("sync_socket", setup_cpu_s, setup_wall_s, args.trace,
                  &report);

  if (!args.trace) {
    RoundTimes t =
        RunRounds(c.get(), &report, 0, args.seconds, false, kWindows);
    CheckDelivery(*c, args.wrong_reference, &report);
    CheckLoss(*c, &report);
    std::vector<double> window_cpu_us;
    for (size_t w = 1; w < t.cpu_marks.size(); ++w) {
      const double cpu = t.cpu_marks[w].first - t.cpu_marks[w - 1].first;
      const int rounds = t.cpu_marks[w].second - t.cpu_marks[w - 1].second;
      window_cpu_us.push_back(cpu * 1e6 /
                              (std::max(rounds, 1) * kWorkers * kBatch));
    }
    AddCpuMetric("sync_socket", window_cpu_us, &report);
    c.reset();
    report.Set("peak_rss_mb", PeakRssMb(true), "MB");
    return report;
  }

  // Window A, untraced: registry counts per round and the untraced round
  // time. Window B traces every Run of every round.
  RegistryDelta delta;
  RoundTimes a = RunRounds(c.get(), &report, kTraceRounds, 0, false);
  const double n = kTraceRounds;
  const double samples = n * kWorkers * kBatch;
  report.Set("rpc.bytes_per_sample",
             (delta.Value("rpc.bytes_sent") + delta.Value("rpc.bytes_recv")) /
                 samples,
             "bytes");
  report.Set("rpc.calls_per_step",
             (delta.Count("rpc.call_latency_us") +
              delta.Count("rpc.server_handle_us")) / n,
             "count");
  report.Set("rpc.call_mean_us", delta.Mean("rpc.call_latency_us"), "us");
  report.Set("core.threadpool_tasks_per_step",
             delta.Value("threadpool.tasks") / n, "count");
  report.Set("core.threadpool_task_wait_ms_mean",
             delta.Mean("threadpool.task_wait_ms"), "ms");

  RoundTimes b = RunRounds(c.get(), &report, kTraceRounds, 0, true);
  // The wall-clock window runs after the fixed-length ones, so their step
  // ids, and with them the exact byte counts, repeat from run to run.
  RoundTimes wall =
      RunRounds(c.get(), &report, 0, kWallShare * args.seconds, false);
  AddClosedLoopMetrics(wall.chief_ms, kWorkers * kBatch, &report);
  CheckDelivery(*c, args.wrong_reference, &report);
  CheckLoss(*c, &report);
  const StepSplit& s = b.split;
  report.Set("kernels.matmul_ms_per_step", s.matmul_us / n / 1e3, "ms");
  report.Set("kernels.elementwise_ms_per_step", s.elementwise_us / n / 1e3,
             "ms");
  report.Set("kernels.other_ms_per_step", s.other_us / n / 1e3, "ms");
  report.Set("kernels.flops_per_step", kWorkers * kWorkerFlops, "count");
  report.Set("kernels.bytes_per_step", kWorkers * kWorkerBytes, "bytes");
  report.Set("runtime.self_ms_per_step", s.self_us / n / 1e3, "ms");
  report.Set("runtime.nodes_per_step", s.nodes / n, "count");
  report.Set("runtime.compile_ms", Median(compile_ms), "ms");
  report.Set("runtime.optimize_ms", OptimizeGraphMs(c->graph), "ms");
  report.Set("autodiff.gradients_ms", Median(gradients_ms), "ms");
  report.Set("data.service_wait_ms_per_step", s.getnext_us / n / 1e3, "ms");
  report.Set("distributed.transfers_per_step", s.transfers / n, "count");
  report.Set("distributed.transfer_bytes_per_step", s.transfer_bytes / n,
             "bytes");
  report.Set("distributed.recv_wait_ms_per_step", s.recv_wait_us / n / 1e3,
             "ms");
  report.Set("distributed.cluster_create_ms", Median(cluster_ms), "ms");
  report.Set("train.queue_block_ms_per_round", s.queue_us / n / 1e3, "ms");
  report.Set("train.apply_ms_per_step", s.apply_us / n / 1e3, "ms");
  report.Set("trace_overhead_ratio",
             Median(b.chief_ms) / Median(a.chief_ms), "ratio");
  c.reset();
  report.Set("distributed.scaling_efficiency",
             report.metrics["samples_per_s"].value /
                 (kWorkers * SingleWorkerSamplesPerS(args.seed, 1.0)),
             "ratio");
  AddLayerProbes(args, dir, &report);
  return report;
}

}  // namespace perfbench
