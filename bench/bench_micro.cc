// Micro benchmarks of the real runtime: kernels (MatMul in each transpose
// case and Conv2D with its backprops, as GFLOP/s; the memory-bound kernels
// as bytes/s next to a copy of the same bytes), rendezvous, queues,
// variable updates, and the DESIGN.md ablations (sparse gather vs full
// fetch; fused vs composed optimizer update).

#include <benchmark/benchmark.h>

#include "bench_json_gbench.h"
#include "core/random.h"
#include "graph/ops.h"
#include "kernels/queue.h"
#include "runtime/rendezvous.h"
#include "runtime/session.h"
#include "train/optimizer.h"

namespace tfrepro {
namespace {

Tensor RandomUniform(const TensorShape& shape, uint64_t seed) {
  Tensor t(DataType::kFloat, shape);
  PhiloxRandom rng(seed);
  for (int64_t i = 0; i < t.num_elements(); ++i) {
    t.flat<float>(i) = rng.Uniform();
  }
  return t;
}

// Times one session Run of `out` per iteration (its inputs are Consts;
// constant folding is off so the op stays live).
void RunOp(benchmark::State& state, const Graph& g, const Output& out) {
  SessionOptions options;
  options.optimizer.do_constant_folding = false;
  auto session = DirectSession::Create(g, options);
  TF_CHECK_OK(session.status());
  std::vector<Tensor> results;
  for (auto _ : state) {
    TF_CHECK_OK(session.value()->Run({out.name()}, &results));
    benchmark::DoNotOptimize(results[0].data<float>());
  }
}

// RunOp, reporting `flops` per Run as GFLOP/s.
void RunKernel(benchmark::State& state, const Graph& g, const Output& out,
               double flops) {
  RunOp(state, g, out);
  state.counters["gflops"] = benchmark::Counter(
      static_cast<double>(state.iterations()) * flops * 1e-9,
      benchmark::Counter::kIsRate);
}

// Args: m, k, n of the product. The 512-wide shapes are the convnet's FC
// layer (nn forward, tn weight gradient, nt input gradient); 32x16x16 is
// one serving batch through the 16-wide MLP.
void BM_MatMul(benchmark::State& state, bool ta, bool tb) {
  const int64_t m = state.range(0), k = state.range(1), n = state.range(2);
  Graph g;
  GraphBuilder b(&g);
  Output a = ops::Const(&b, RandomUniform(ta ? TensorShape({k, m})
                                             : TensorShape({m, k}), 1));
  Output c = ops::Const(&b, RandomUniform(tb ? TensorShape({n, k})
                                             : TensorShape({k, n}), 2));
  Output p = ops::MatMul(&b, a, c, ta, tb);
  TF_CHECK_OK(b.status());
  RunKernel(state, g, p, 2.0 * m * k * n);
}
BENCHMARK_CAPTURE(BM_MatMul, nn, false, false)
    ->Args({64, 512, 512})
    ->Args({32, 16, 16});
BENCHMARK_CAPTURE(BM_MatMul, tn, true, false)
    ->Args({512, 64, 512})
    ->Args({32, 16, 16});
BENCHMARK_CAPTURE(BM_MatMul, nt, false, true)
    ->Args({64, 512, 512})
    ->Args({32, 16, 16});

// One 3x3 SAME stride-1 conv layer of the convnet at batch 64. Args: image
// side, in channels, out channels ({16, 3, 16} is conv1, {8, 16, 32} conv2).
Output ConvPass(GraphBuilder* b, const std::string& op, int64_t side,
                int64_t in, int64_t out) {
  const TensorShape input({64, side, side, in});
  const TensorShape filter({3, 3, in, out});
  const TensorShape output({64, side, side, out});
  const std::vector<int64_t> strides = {1, 1, 1, 1};
  if (op == "Conv2D") {
    return ops::Conv2D(b, ops::Const(b, RandomUniform(input, 1)),
                       ops::Const(b, RandomUniform(filter, 2)), strides,
                       "SAME");
  }
  const bool input_grad = op == "Conv2DBackpropInput";
  auto dims = [&](const TensorShape& s) {
    std::vector<int32_t> d;
    for (int i = 0; i < s.rank(); ++i) {
      d.push_back(static_cast<int32_t>(s.dim(i)));
    }
    return ops::ConstVecI32(b, d);
  };
  Output x = ops::Const(b, RandomUniform(input, 1));
  Output w = ops::Const(b, RandomUniform(filter, 2));
  return b->Op(op)
      .Input(input_grad ? dims(input) : x)
      .Input(input_grad ? w : dims(filter))
      .Input(ops::Const(b, RandomUniform(output, 3)))
      .Attr("T", DataType::kFloat)
      .Attr("strides", strides)
      .Attr("padding", "SAME")
      .Finalize();
}

void BM_Conv(benchmark::State& state, const std::string& op) {
  const int64_t side = state.range(0), in = state.range(1),
                out = state.range(2);
  Graph g;
  GraphBuilder b(&g);
  Output p = ConvPass(&b, op, side, in, out);
  TF_CHECK_OK(b.status());
  RunKernel(state, g, p, 2.0 * 64 * side * side * out * 9 * in);
}
void BM_Conv2DFwd(benchmark::State& state) { BM_Conv(state, "Conv2D"); }
void BM_Conv2DBackpropInput(benchmark::State& state) {
  BM_Conv(state, "Conv2DBackpropInput");
}
void BM_Conv2DBackpropFilter(benchmark::State& state) {
  BM_Conv(state, "Conv2DBackpropFilter");
}
BENCHMARK(BM_Conv2DFwd)->Args({16, 3, 16})->Args({8, 16, 32});
BENCHMARK(BM_Conv2DBackpropInput)->Args({16, 3, 16})->Args({8, 16, 32});
BENCHMARK(BM_Conv2DBackpropFilter)->Args({16, 3, 16})->Args({8, 16, 32});

// Memory-bound kernels (DESIGN.md §15) at the convnet's activation shapes:
// conv1 [64,16,16,16] and conv2 [64,8,8,32] outputs, fc1 [64,512]. Each row
// reports the bytes its kernel reads and writes. Inputs are drawn from
// [-1, 1): on all-positive data a branchy Relu predicts every branch and
// hides what it costs on real activations. BM_Copy runs an Identity over a
// Relu's bytes: its time is the session Run plus the fetch's deep copy, the
// floor under every row here. scripts/check.sh gates BM_Relu/conv1 against
// BM_Copy/conv1.
Tensor RandomSigned(const TensorShape& shape, uint64_t seed) {
  Tensor t = RandomUniform(shape, seed);
  const int64_t n = t.num_elements();
  for (int64_t i = 0; i < n; ++i) t.flat<float>(i) = 2 * t.flat<float>(i) - 1;
  return t;
}

// RunOp, reporting `bytes` read and written per Run.
void RunMemoryBound(benchmark::State& state, const Graph& g, const Output& out,
                    int64_t bytes) {
  RunOp(state, g, out);
  state.SetBytesProcessed(state.iterations() * bytes);
}

const std::vector<int64_t> kPool = {1, 2, 2, 1};

// Identity forwards its input, so the only work is the fetch's copy, which
// every row here also pays.
void BM_Copy(benchmark::State& state, const TensorShape& shape) {
  Graph g;
  GraphBuilder b(&g);
  Output y = ops::Identity(&b, ops::Const(&b, RandomSigned(shape, 1)));
  TF_CHECK_OK(b.status());
  RunMemoryBound(state, g, y, 2 * shape.num_elements() * 4);
}

void BM_Relu(benchmark::State& state, const TensorShape& shape) {
  Graph g;
  GraphBuilder b(&g);
  Output y = ops::Relu(&b, ops::Const(&b, RandomSigned(shape, 1)));
  TF_CHECK_OK(b.status());
  RunMemoryBound(state, g, y, 2 * shape.num_elements() * 4);
}

void BM_ReluGrad(benchmark::State& state, const TensorShape& shape) {
  Graph g;
  GraphBuilder b(&g);
  Output dx = b.Op("ReluGrad")
                  .Input(ops::Const(&b, RandomSigned(shape, 2)))
                  .Input(ops::Const(&b, RandomSigned(shape, 1)))
                  .Attr("T", DataType::kFloat)
                  .Finalize();
  TF_CHECK_OK(b.status());
  RunMemoryBound(state, g, dx, 3 * shape.num_elements() * 4);
}

void BM_MaxPool(benchmark::State& state, const TensorShape& shape) {
  Graph g;
  GraphBuilder b(&g);
  Output y = ops::MaxPool(&b, ops::Const(&b, RandomSigned(shape, 1)), kPool,
                          kPool, "VALID");
  TF_CHECK_OK(b.status());
  RunMemoryBound(state, g, y, (shape.num_elements() * 5 / 4) * 4);
}

// The forward output is computed once and fed as a Const, so only the
// gradient is timed.
void BM_MaxPoolGrad(benchmark::State& state, const TensorShape& shape) {
  const Tensor x = RandomSigned(shape, 1);
  Tensor pooled;
  {
    Graph g;
    GraphBuilder b(&g);
    Output y = ops::MaxPool(&b, ops::Const(&b, x), kPool, kPool, "VALID");
    TF_CHECK_OK(b.status());
    auto session = DirectSession::Create(g);
    TF_CHECK_OK(session.status());
    std::vector<Tensor> results;
    TF_CHECK_OK(session.value()->Run({y.name()}, &results));
    pooled = results[0];
  }
  Graph g;
  GraphBuilder b(&g);
  Output dx = b.Op("MaxPoolGrad")
                  .Input(ops::Const(&b, x))
                  .Input(ops::Const(&b, pooled))
                  .Input(ops::Const(&b, RandomSigned(pooled.shape(), 2)))
                  .Attr("T", DataType::kFloat)
                  .Attr("ksize", kPool)
                  .Attr("strides", kPool)
                  .Attr("padding", "VALID")
                  .Finalize();
  TF_CHECK_OK(b.status());
  RunMemoryBound(state, g, dx, (shape.num_elements() * 5 / 2) * 4);
}

void BM_BiasAdd(benchmark::State& state, const TensorShape& shape) {
  const int64_t c = shape.dim(shape.rank() - 1);
  Graph g;
  GraphBuilder b(&g);
  Output y = ops::BiasAdd(&b, ops::Const(&b, RandomSigned(shape, 1)),
                          ops::Const(&b, RandomSigned(TensorShape({c}), 2)));
  TF_CHECK_OK(b.status());
  RunMemoryBound(state, g, y, (2 * shape.num_elements() + c) * 4);
}

void BM_BiasAddGrad(benchmark::State& state, const TensorShape& shape) {
  const int64_t c = shape.dim(shape.rank() - 1);
  Graph g;
  GraphBuilder b(&g);
  Output db = b.Op("BiasAddGrad")
                  .Input(ops::Const(&b, RandomSigned(shape, 1)))
                  .Attr("T", DataType::kFloat)
                  .Finalize();
  TF_CHECK_OK(b.status());
  RunMemoryBound(state, g, db, (shape.num_elements() + c) * 4);
}

// Args are the convnet's variable shapes: fc1's [512,512] weights and
// conv2's [3,3,16,32] filter.
void BM_ApplyGradientDescent(benchmark::State& state,
                             const TensorShape& shape) {
  Graph g;
  GraphBuilder b(&g);
  Output var = ops::Variable(&b, DataType::kFloat, shape, "var");
  Output init = ops::Assign(&b, var, ops::Const(&b, RandomSigned(shape, 1)));
  Output apply = b.Op("ApplyGradientDescent")
                     .Input(var)
                     .Input(ops::Const(&b, 1e-6f))
                     .Input(ops::Const(&b, RandomSigned(shape, 2)))
                     .Attr("T", DataType::kFloat)
                     .Finalize();
  TF_CHECK_OK(b.status());
  auto session = DirectSession::Create(g);
  TF_CHECK_OK(session.status());
  TF_CHECK_OK(session.value()->Run({}, {}, {init.node->name()}, nullptr));
  for (auto _ : state) {
    TF_CHECK_OK(
        session.value()->Run({}, {}, {apply.node->name()}, nullptr));
  }
  state.SetBytesProcessed(state.iterations() * 3 * shape.num_elements() * 4);
}

#define CONV_ACTIVATIONS(fn)                                    \
  BENCHMARK_CAPTURE(fn, conv1, TensorShape({64, 16, 16, 16})); \
  BENCHMARK_CAPTURE(fn, conv2, TensorShape({64, 8, 8, 32}))
#define ALL_ACTIVATIONS(fn) \
  CONV_ACTIVATIONS(fn);     \
  BENCHMARK_CAPTURE(fn, fc1, TensorShape({64, 512}))
ALL_ACTIVATIONS(BM_Copy);
ALL_ACTIVATIONS(BM_Relu);
ALL_ACTIVATIONS(BM_ReluGrad);
CONV_ACTIVATIONS(BM_MaxPool);
CONV_ACTIVATIONS(BM_MaxPoolGrad);
ALL_ACTIVATIONS(BM_BiasAdd);
ALL_ACTIVATIONS(BM_BiasAddGrad);
BENCHMARK_CAPTURE(BM_ApplyGradientDescent, fc1_w, TensorShape({512, 512}));
BENCHMARK_CAPTURE(BM_ApplyGradientDescent, conv2_w,
                  TensorShape({3, 3, 16, 32}));
#undef ALL_ACTIVATIONS
#undef CONV_ACTIVATIONS

void BM_RendezvousSendRecv(benchmark::State& state) {
  LocalRendezvous rendezvous;
  Tensor value = Tensor::Scalar(1.0f);
  int64_t i = 0;
  for (auto _ : state) {
    std::string key = "k" + std::to_string(i++);
    TF_CHECK_OK(rendezvous.Send(key, value, false));
    Tensor received;
    bool is_dead;
    TF_CHECK_OK(rendezvous.Recv(key, &received, &is_dead));
  }
}
BENCHMARK(BM_RendezvousSendRecv);

// Contended variant: N threads share one rendezvous, each ping-ponging on
// its own key stream. Keys hash across the 16 shard buckets (DESIGN.md §9),
// so threads rarely collide on a shard mutex; before sharding every
// operation serialized on a single table lock.
void BM_RendezvousSendRecvContended(benchmark::State& state) {
  static LocalRendezvous* rendezvous = nullptr;
  if (state.thread_index() == 0) {
    rendezvous = new LocalRendezvous();
  }
  Tensor value = Tensor::Scalar(1.0f);
  const std::string prefix = "t" + std::to_string(state.thread_index()) + ";k";
  int64_t i = 0;
  for (auto _ : state) {
    std::string key = prefix + std::to_string(i++);
    const uint64_t hash = Rendezvous::KeyHash(key);
    TF_CHECK_OK(rendezvous->Send(key, hash, value, false));
    rendezvous->RecvAsync(key, hash,
                          [](const Status& s, const Tensor&, bool) {
                            TF_CHECK_OK(s);
                          });
  }
  state.SetItemsProcessed(state.iterations());
  if (state.thread_index() == 0) {
    delete rendezvous;
    rendezvous = nullptr;
  }
}
BENCHMARK(BM_RendezvousSendRecvContended)->Threads(2)->Threads(4);

void BM_QueueEnqueueDequeue(benchmark::State& state) {
  QueueResource queue({DataType::kFloat}, /*capacity=*/-1,
                      /*min_after_dequeue=*/0, /*seed=*/1, /*shuffle=*/false);
  QueueResource::Tuple tuple = {Tensor::Scalar(1.0f)};
  for (auto _ : state) {
    queue.TryEnqueue(tuple, nullptr, [](const Status&) {});
    queue.TryDequeue(1, false, nullptr,
                     [](const Status&, const QueueResource::Tuple&) {});
  }
}
BENCHMARK(BM_QueueEnqueueDequeue);

void BM_VariableAssignAdd(benchmark::State& state) {
  const int64_t n = state.range(0);
  Graph g;
  GraphBuilder b(&g);
  Output v = ops::Variable(&b, DataType::kFloat, TensorShape({n}), "v");
  Output init = ops::Assign(&b, v, ops::Fill(&b, ops::ConstVecI32(&b, {(int32_t)n}),
                                             ops::Const(&b, 0.0f)));
  Output bump = ops::AssignAdd(
      &b, v,
      ops::Fill(&b, ops::ConstVecI32(&b, {(int32_t)n}), ops::Const(&b, 1.0f)));
  TF_CHECK_OK(b.status());
  auto session = DirectSession::Create(g);
  TF_CHECK_OK(session.value()->Run({}, {}, {init.node->name()}, nullptr));
  for (auto _ : state) {
    TF_CHECK_OK(session.value()->Run({}, {}, {bump.node->name()}, nullptr));
  }
  state.SetBytesProcessed(state.iterations() * n * 4);
}
BENCHMARK(BM_VariableAssignAdd)->Arg(1024)->Arg(262144);

// Ablation (DESIGN.md §5.2 / Figure 6's dense-vs-sparse distinction):
// reading 32 rows via Gather vs fetching the whole table.
void BM_SparseGatherVsDenseFetch(benchmark::State& state) {
  const bool sparse = state.range(0) != 0;
  const int64_t rows = 16384;
  const int64_t dim = 256;
  Graph g;
  GraphBuilder b(&g);
  Output table = ops::Variable(&b, DataType::kFloat, TensorShape({rows, dim}),
                               "table");
  Output init = ops::Assign(
      &b, table,
      ops::Fill(&b,
                ops::ConstVecI32(&b, {(int32_t)rows, (int32_t)dim}),
                ops::Const(&b, 0.5f)));
  std::vector<int32_t> idx;
  for (int i = 0; i < 32; ++i) idx.push_back((i * 509) % rows);
  Output fetched =
      sparse ? ops::Gather(&b, table, ops::ConstVecI32(&b, idx))
             : ops::Identity(&b, table);
  Output sum = ops::SumAll(&b, fetched);
  TF_CHECK_OK(b.status());
  auto session = DirectSession::Create(g);
  TF_CHECK_OK(session.value()->Run({}, {}, {init.node->name()}, nullptr));
  std::vector<Tensor> out;
  for (auto _ : state) {
    TF_CHECK_OK(session.value()->Run({sum.name()}, &out));
  }
  state.SetLabel(sparse ? "sparse_32_rows" : "dense_full_table");
}
BENCHMARK(BM_SparseGatherVsDenseFetch)->Arg(1)->Arg(0);

// Ablation (DESIGN.md / paper §4.1): fused ApplyGradientDescent kernel vs
// the same update composed from primitive operations.
void BM_OptimizerFusedVsComposed(benchmark::State& state) {
  const bool fused = state.range(0) != 0;
  const int64_t n = 65536;
  Graph g;
  GraphBuilder b(&g);
  Output w = ops::Variable(&b, DataType::kFloat, TensorShape({n}), "w");
  Output init = ops::Assign(
      &b, w,
      ops::Fill(&b, ops::ConstVecI32(&b, {(int32_t)n}), ops::Const(&b, 1.0f)));
  Output target =
      ops::Fill(&b, ops::ConstVecI32(&b, {(int32_t)n}), ops::Const(&b, 0.0f));
  Output loss = ops::SumAll(&b, ops::Square(&b, ops::Sub(&b, w, target)));
  std::unique_ptr<train::Optimizer> opt;
  if (fused) {
    opt = std::make_unique<train::GradientDescentOptimizer>(1e-6f);
  } else {
    opt = std::make_unique<train::ComposedGradientDescentOptimizer>(1e-6f);
  }
  Result<Node*> train_op = opt->Minimize(&b, loss, {w}, "train");
  TF_CHECK_OK(train_op.status());
  TF_CHECK_OK(b.status());
  auto session = DirectSession::Create(g);
  TF_CHECK_OK(session.value()->Run({}, {}, {init.node->name()}, nullptr));
  for (auto _ : state) {
    TF_CHECK_OK(
        session.value()->Run({}, {}, {train_op.value()->name()}, nullptr));
  }
  state.SetLabel(fused ? "fused_kernel" : "composed_primitives");
}
BENCHMARK(BM_OptimizerFusedVsComposed)->Arg(1)->Arg(0);


// Ablation (paper §5: the master applies CSE and constant folding): step
// time on a redundancy-heavy graph with the optimizer passes on vs off.
void BM_GraphOptimizationAblation(benchmark::State& state) {
  const bool optimize = state.range(0) != 0;
  Graph g;
  GraphBuilder b(&g);
  Output x = ops::Placeholder(&b, DataType::kFloat, TensorShape({256}), "x");
  // 32 identical branches plus a constant subexpression per branch.
  std::vector<Output> branches;
  for (int i = 0; i < 32; ++i) {
    Output scale = ops::Mul(&b, ops::Const(&b, 2.0f), ops::Const(&b, 3.0f));
    branches.push_back(ops::Mul(&b, ops::Square(&b, x), scale));
  }
  Output sum = ops::AddN(&b, branches);
  TF_CHECK_OK(b.status());
  SessionOptions options;
  options.optimizer.do_cse = optimize;
  options.optimizer.do_constant_folding = optimize;
  auto session = DirectSession::Create(g, options);
  Tensor input(DataType::kFloat, TensorShape({256}));
  std::vector<Tensor> out;
  TF_CHECK_OK(session.value()->Run({{"x", input}}, {sum.name()}, {}, &out));
  for (auto _ : state) {
    TF_CHECK_OK(session.value()->Run({{"x", input}}, {sum.name()}, {}, &out));
  }
  state.SetLabel(optimize ? "cse_and_folding_on" : "optimizations_off");
}
BENCHMARK(BM_GraphOptimizationAblation)->Arg(1)->Arg(0);

void BM_TensorClone(benchmark::State& state) {
  const int64_t n = state.range(0);
  Tensor t(DataType::kFloat, TensorShape({n}));
  for (auto _ : state) {
    Tensor copy = t.Clone();
    benchmark::DoNotOptimize(copy);
  }
  state.SetBytesProcessed(state.iterations() * n * 4);
}
BENCHMARK(BM_TensorClone)->Arg(1024)->Arg(1048576);

void BM_PhiloxGeneration(benchmark::State& state) {
  PhiloxRandom rng(7);
  for (auto _ : state) {
    benchmark::DoNotOptimize(rng.Uniform());
  }
}
BENCHMARK(BM_PhiloxGeneration);

}  // namespace
}  // namespace tfrepro

int main(int argc, char** argv) {
  return tfrepro::bench::RunGBenchWithJson("bench_micro", argc, argv);
}
