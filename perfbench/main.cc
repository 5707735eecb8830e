// perfbench: the repo benchmark's binary (run it through run.py,
// which builds it and checks its output against BENCHMARK.json).
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--wrong-reference]
//
// Logs go to stderr; the last stdout line is the result object.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "workloads.h"

int main(int argc, char** argv) {
  using namespace perfbench;
  Args args;
  for (int i = 1; i < argc; ++i) {
    auto value = [&](const char* flag) -> const char* {
      if (std::strcmp(argv[i], flag) != 0 || i + 1 >= argc) return nullptr;
      return argv[++i];
    };
    if (const char* v = value("--workload")) {
      args.workload = v;
    } else if (const char* v = value("--seed")) {
      args.seed = std::strtoull(v, nullptr, 10);
    } else if (const char* v = value("--seconds")) {
      args.seconds = std::atof(v);
    } else if (const char* v = value("--trace")) {
      args.trace = std::strcmp(v, "0") != 0;
    } else if (std::strcmp(argv[i], "--wrong-reference") == 0) {
      args.wrong_reference = true;
    } else {
      std::fprintf(stderr, "perfbench: unknown argument %s\n", argv[i]);
      return 2;
    }
  }
  if (args.seconds <= 0) {
    std::fprintf(stderr, "perfbench: --seconds must be positive\n");
    return 2;
  }
  if (args.trace) EnableTraceSpans();
  Log("perfbench: workload=%s seed=%llu seconds=%g trace=%d",
      args.workload.c_str(), static_cast<unsigned long long>(args.seed),
      args.seconds, args.trace ? 1 : 0);
  try {
    Report report;
    if (args.workload == "train_convnet_local") {
      report = RunConvnetLocal(args);
    } else if (args.workload == "train_sync_socket") {
      report = RunSyncSocket(args);
    } else if (args.workload == "serve_open_loop") {
      report = RunServeOpenLoop(args);
    } else {
      std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                   args.workload.c_str());
      return 2;
    }
    if (SpanRecorder* spans = TraceSpans()) {
      const tfrepro::Status s = spans->WriteChromeTrace(
          ".bench_build/" + args.workload + ".trace.json");
      if (!s.ok()) {
        Log("perfbench: trace not written: %s", s.ToString().c_str());
      }
    }
    std::printf("seed %llu\n%s\n", static_cast<unsigned long long>(args.seed),
                report.ToJson().c_str());
    std::fflush(stdout);
  } catch (const BenchError& e) {
    std::fprintf(stderr, "perfbench: setup failed: %s\n", e.what());
    return 1;
  }
  return 0;
}
