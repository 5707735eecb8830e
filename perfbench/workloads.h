// The benchmark's workloads and the layer probes their traced runs share.
// Each workload returns only the metrics that apply to it; run.py fills in
// the rest of BENCHMARK.json's per-layer list with 0 (the layer is not on
// that workload's path).

#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include "graph/graph.h"
#include "util.h"

namespace perfbench {

Report RunConvnetLocal(const Args& args);
Report RunSyncSocket(const Args& args);
Report RunServeOpenLoop(const Args& args);

// Workload-independent probes of single layers, run in every traced run:
// kernel GFLOP/s at train_convnet_local's shapes, the serving-shaped small
// MatMul, the null step, the Tensor byte codec at train_sync_socket's
// parameter sizes, and a standalone input-pipeline drain.
void AddLayerProbes(const Args& args, const WorkDir& dir, Report* report);

// Median wall time of OptimizeGraph on fresh clones of `graph`, in ms.
double OptimizeGraphMs(const tfrepro::Graph& graph);

// Setups per run; setup metrics are medians over them.
constexpr int kSetups = 9;

// Timed windows per run. Throughput and p99 are medians over the windows,
// so one stall of the host moves only the window it lands in.
constexpr int kWindows = 8;

// Sets cpu_us_per_sample from the CPU cost per sample of each of the
// end-to-end run's kWindows windows, and logs them.
void AddCpuMetric(const char* workload, const std::vector<double>& window_us,
                  Report* report);

// Share of --seconds a traced run spends on its wall-clock window.
constexpr double kWallShare = 0.5;

// Logs the CPU and wall seconds of each setup (the first counted from
// process start) and sets their medians: setup_s (CPU) in the end-to-end
// run, setup_wall_s in the traced run. CPU time leaves out the time the
// host steals from the virtual CPUs and the fixed polling sleeps of
// process startup, which made wall time vary by a third between runs.
void AddSetupMetrics(const char* workload, const std::vector<double>& cpu_s,
                     const std::vector<double>& wall_s, bool trace,
                     Report* report);

// samples_per_s and step_p50/p99_ms of a closed loop whose sequential
// steps took `step_ms` and processed `samples_per_step` examples each.
void AddClosedLoopMetrics(const std::vector<double>& step_ms,
                          double samples_per_step, Report* report);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
