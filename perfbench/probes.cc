// Layer probes shared by every traced run, plus small helpers the
// workloads share. Each kernel probe is a one-op graph whose inputs are
// Variables, so constant folding cannot remove the op.

#include <algorithm>
#include <functional>
#include <memory>

#include "data/dataset.h"
#include "data/record_file.h"
#include "graph/ops.h"
#include "runtime/graph_optimizer.h"
#include "runtime/session.h"
#include "workloads.h"

namespace perfbench {
namespace {

using namespace tfrepro;

Output InitVariable(GraphBuilder* b, Rng* rng, const TensorShape& shape,
                    std::vector<Output>* inits) {
  Output var = ops::Variable(b, DataType::kFloat, shape,
                             b->graph()->NewName("probe_var"));
  inits->push_back(
      ops::Assign(b, var, ops::Const(b, RandomTensor(rng, shape, 1.0))));
  return var;
}

// Builds a graph with `build` (which returns the op to time), initializes
// its variables, and returns the median seconds per Run over `batches`
// batches of `calls` Runs each.
double TimeOp(uint64_t seed,
              const std::function<Output(GraphBuilder*, Rng*,
                                         std::vector<Output>*)>& build,
              int batches, int calls) {
  Graph graph;
  GraphBuilder b(&graph);
  Rng rng(seed);
  std::vector<Output> inits;
  Output op = build(&b, &rng, &inits);
  Node* init = ops::Group(&b, inits, "init");
  Check(b.status(), "build probe graph");
  auto session = Take(DirectSession::Create(graph), "probe session");
  Check(session->Run({}, {}, {init->name()}, nullptr), "probe init");
  const std::vector<std::string> targets = {op.node->name()};
  Check(session->Run({}, {}, targets, nullptr), "probe warmup");
  std::vector<double> per_call;
  for (int i = 0; i < batches; ++i) {
    const double start = NowSeconds();
    for (int c = 0; c < calls; ++c) {
      Check(session->Run({}, {}, targets, nullptr), "probe run");
    }
    per_call.push_back((NowSeconds() - start) / calls);
  }
  return Median(per_call);
}

double MatMulSeconds(uint64_t seed, int m, int k, int n, bool ta, bool tb,
                     int batches, int calls) {
  return TimeOp(
      seed,
      [=](GraphBuilder* b, Rng* rng, std::vector<Output>* inits) {
        Output x = InitVariable(b, rng, ta ? TensorShape({k, m})
                                           : TensorShape({m, k}), inits);
        Output y = InitVariable(b, rng, tb ? TensorShape({n, k})
                                           : TensorShape({k, n}), inits);
        return ops::MatMul(b, x, y, ta, tb);
      },
      batches, calls);
}

enum class ConvPass { kForward, kInput, kFilter };

// One conv layer of train_convnet_local: SAME 3x3, stride 1, batch 64.
double ConvSeconds(uint64_t seed, ConvPass pass, int side, int in, int out) {
  const TensorShape input({64, side, side, in});
  const TensorShape filter({3, 3, in, out});
  const TensorShape output({64, side, side, out});
  return TimeOp(
      seed,
      [&](GraphBuilder* b, Rng* rng, std::vector<Output>* inits) {
        const std::vector<int64_t> strides = {1, 1, 1, 1};
        switch (pass) {
          case ConvPass::kForward:
            return ops::Conv2D(b, InitVariable(b, rng, input, inits),
                               InitVariable(b, rng, filter, inits), strides,
                               "SAME");
          case ConvPass::kInput:
            return b->Op("Conv2DBackpropInput")
                .Input(ops::ConstVecI32(b, {64, side, side, in}))
                .Input(InitVariable(b, rng, filter, inits))
                .Input(InitVariable(b, rng, output, inits))
                .Attr("T", DataType::kFloat)
                .Attr("strides", strides)
                .Attr("padding", "SAME")
                .Finalize();
          case ConvPass::kFilter:
            return b->Op("Conv2DBackpropFilter")
                .Input(InitVariable(b, rng, input, inits))
                .Input(ops::ConstVecI32(b, {3, 3, in, out}))
                .Input(InitVariable(b, rng, output, inits))
                .Attr("T", DataType::kFloat)
                .Attr("strides", strides)
                .Attr("padding", "SAME")
                .Finalize();
        }
        return Output();
      },
      /*batches=*/3, /*calls=*/1);
}

// Both conv layers of the convnet for one pass, as GFLOP/s.
double ConvGflops(uint64_t seed, ConvPass pass) {
  const double flops = 2.0 * 64 * 16 * 16 * 16 * (3 * 3 * 3) +
                       2.0 * 64 * 8 * 8 * 32 * (3 * 3 * 16);
  const double seconds =
      ConvSeconds(seed, pass, 16, 3, 16) + ConvSeconds(seed, pass, 8, 16, 32);
  return flops / seconds / 1e9;
}

double NullStepUs(uint64_t seed) {
  return 1e6 * TimeOp(
                   seed,
                   [](GraphBuilder* b, Rng*, std::vector<Output>*) {
                     return Output(ops::Group(b, {}, "null_step"), 0);
                   },
                   /*batches=*/5, /*calls=*/2000);
}

// Round trip of train_sync_socket's parameters through the byte codec.
double CodecMbPerS(uint64_t seed) {
  Rng rng(seed);
  std::vector<Tensor> params;
  for (const TensorShape& shape :
       {TensorShape({64, 512}), TensorShape({512}), TensorShape({512, 10}),
        TensorShape({10})}) {
    params.push_back(RandomTensor(&rng, shape, 1.0));
  }
  std::vector<double> mb_per_s;
  std::string bytes;
  for (int batch = 0; batch < 5; ++batch) {
    const double start = NowSeconds();
    double moved = 0;
    for (int rep = 0; rep < 50; ++rep) {
      bytes.clear();
      for (const Tensor& t : params) t.AppendToBytes(&bytes);
      size_t offset = 0;
      for (size_t i = 0; i < params.size(); ++i) {
        Tensor back = Take(Tensor::ParseFromBytes(bytes, &offset), "decode");
        if (back.num_elements() != params[i].num_elements()) {
          throw BenchError("codec round trip changed a tensor's shape");
        }
      }
      moved += static_cast<double>(bytes.size());
    }
    mb_per_s.push_back(moved / 1e6 / (NowSeconds() - start));
  }
  return Median(mb_per_s);
}

// Drains RecordFile -> ParallelMap(parse) -> Batch -> Prefetch through the
// data:: API, outside any graph.
double PipelineRecordsPerS(uint64_t seed, const WorkDir& dir) {
  constexpr int kRecords = 1024, kDim = 768, kEpochs = 4, kBatch = 64;
  const std::string path = dir.File("probe.records");
  {
    Rng rng(seed);
    data::RecordWriter writer(path);
    std::vector<float> features(kDim);
    for (int i = 0; i < kRecords; ++i) {
      for (float& v : features) v = static_cast<float>(rng.Normal());
      Check(writer.Append(data::EncodeExample(features.data(), kDim, i % 10)),
            "write probe record");
    }
    Check(writer.Close(), "close probe records");
  }
  std::vector<double> rates;
  for (int rep = 0; rep < 3; ++rep) {
    const double start = NowSeconds();
    auto ds = Take(data::NewRecordFileDataset({path}), "record dataset");
    ds = Take(data::NewRepeatDataset(ds, kEpochs), "repeat");
    ds = Take(data::NewParallelMapDataset(ds, "parse_example", 2,
                                          {DataType::kFloat, DataType::kInt64}),
              "map");
    ds = Take(data::NewBatchDataset(ds, kBatch, true), "batch");
    ds = Take(data::NewPrefetchDataset(ds, 2), "prefetch");
    auto it = Take(ds->MakeIterator(), "iterator");
    data::IteratorContext ctx;
    int64_t records = 0;
    for (;;) {
      data::Element element;
      bool end = false;
      {
        ScopedSpan span("IteratorBase::GetNext", records);
        Check(it->GetNext(&ctx, &element, &end), "pipeline GetNext");
      }
      if (end) break;
      records += element[0].dim(0);
    }
    if (records != int64_t{kRecords} * kEpochs) {
      throw BenchError("pipeline drain lost or duplicated records");
    }
    rates.push_back(static_cast<double>(records) / (NowSeconds() - start));
  }
  return Median(rates);
}

}  // namespace

void AddLayerProbes(const Args& args, const WorkDir& dir, Report* report) {
  ScopedSpan span("probes");
  const uint64_t seed = args.seed;
  const double mm_flops = 2.0 * 64 * 512 * 512;
  report->Set("kernels.matmul_nn_gflops",
              mm_flops / MatMulSeconds(seed, 64, 512, 512, false, false, 5, 2) /
                  1e9,
              "GFLOP/s");
  report->Set("kernels.matmul_tn_gflops",
              mm_flops / MatMulSeconds(seed, 512, 64, 512, true, false, 5, 2) /
                  1e9,
              "GFLOP/s");
  report->Set("kernels.matmul_nt_gflops",
              mm_flops / MatMulSeconds(seed, 64, 512, 512, false, true, 5, 2) /
                  1e9,
              "GFLOP/s");
  report->Set("kernels.conv2d_fwd_gflops", ConvGflops(seed, ConvPass::kForward),
              "GFLOP/s");
  report->Set("kernels.conv2d_bwd_input_gflops",
              ConvGflops(seed, ConvPass::kInput), "GFLOP/s");
  report->Set("kernels.conv2d_bwd_filter_gflops",
              ConvGflops(seed, ConvPass::kFilter), "GFLOP/s");
  report->Set("kernels.matmul_small_us",
              1e6 * MatMulSeconds(seed, 32, 16, 16, false, false, 5, 2000),
              "us");
  report->Set("runtime.null_step_us", NullStepUs(seed), "us");
  report->Set("core.tensor_codec_mb_per_s", CodecMbPerS(seed), "MB/s");
  report->Set("data.pipeline_records_per_s", PipelineRecordsPerS(seed, dir),
              "1/s");
}

double OptimizeGraphMs(const Graph& graph) {
  ThreadPool pool("perfbench_optimize", 1);
  std::unique_ptr<Device> device = NewCpuDevice("localhost", 0, 0, &pool);
  std::vector<double> ms;
  for (int rep = 0; rep < 3; ++rep) {
    std::unique_ptr<Graph> clone = graph.Clone();
    const int64_t start = metrics::NowMicros();
    Check(OptimizeGraph(clone.get(), device.get()), "OptimizeGraph");
    ms.push_back((metrics::NowMicros() - start) / 1e3);
  }
  return Median(ms);
}

void AddSetupMetrics(const char* workload, const std::vector<double>& cpu_s,
                     const std::vector<double>& wall_s, bool trace,
                     Report* report) {
  std::string cpu, wall;
  for (double s : cpu_s) cpu += " " + std::to_string(s);
  for (double s : wall_s) wall += " " + std::to_string(s);
  Log("%s: setup CPU s:%s; wall s:%s", workload, cpu.c_str(), wall.c_str());
  if (trace) {
    report->Set("setup_wall_s", Median(wall_s), "s");
  } else {
    report->Set("setup_s", Median(cpu_s), "s");
  }
}

void AddCpuMetric(const char* workload, const std::vector<double>& window_us,
                  Report* report) {
  std::string all;
  for (double us : window_us) all += " " + std::to_string(us);
  Log("%s: CPU us per sample by window:%s", workload, all.c_str());
  report->Set("cpu_us_per_sample", Median(window_us), "us");
}

void AddClosedLoopMetrics(const std::vector<double>& step_ms,
                          double samples_per_step, Report* report) {
  // Consecutive runs of steps; each window's mean step time gives its
  // throughput, and the medians across windows ignore a stall of the host
  // that lands in one of them.
  std::vector<double> window_mean, window_p99;
  const size_t n = step_ms.size();
  for (int w = 0; w < kWindows; ++w) {
    std::vector<double> window(step_ms.begin() + n * w / kWindows,
                               step_ms.begin() + n * (w + 1) / kWindows);
    if (window.empty()) continue;
    window_mean.push_back(Mean(window));
    window_p99.push_back(Percentile(window, 0.99));
  }
  report->Set("samples_per_s", samples_per_step * 1e3 / Median(window_mean),
              "1/s");
  report->Set("step_p50_ms", Median(step_ms), "ms");
  report->Set("step_p99_ms", Median(window_p99), "ms");
}

}  // namespace perfbench
