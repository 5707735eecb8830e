// Calibrated device + framework cost model (DESIGN.md substitution for GPUs
// and cuDNN). A convolution's effective throughput follows a saturating
// arithmetic-intensity curve:
//
//   eff(I) = emax * I / (I + I_half),   I = k_h * k_w * in_channels
//
// (low-intensity layers are memory-bound; deep-channel convolutions hit the
// kernel's best rate). The per-framework parameters are calibrated against
// the published convnet-benchmarks numbers reproduced in the paper's
// Table 1, and encode exactly the causes §6.1 names: Caffe's open-source
// convolutions are far less efficient than cuDNN; Torch and TensorFlow
// share cuDNN R4 and so match; Neon's assembly kernels beat cuDNN.
// "Efficiency" is measured against the naive-FLOP peak, so values above 1
// reflect Winograd/FFT-style algorithmic gains.

#ifndef TFREPRO_SIM_COST_MODEL_H_
#define TFREPRO_SIM_COST_MODEL_H_

#include <string>

#include "nn/model_zoo.h"

namespace tfrepro {
namespace sim {

struct DeviceProfile {
  std::string name;
  double peak_flops = 0;  // naive fp32 peak, per second
};

DeviceProfile TitanX();    // Table 1 hardware ("6 TFLOPS peak", §2.1)
DeviceProfile TeslaK40();  // §6.3 worker GPUs
DeviceProfile ServerCpu(); // PS-task CPU (per-task softmax offload, §6.4)

struct FrameworkProfile {
  std::string name;
  double conv_emax;            // saturating conv efficiency
  double conv_intensity_half;  // I at half efficiency
  double gemm_efficiency;      // fully-connected / LSTM / softmax matmuls
  double dispatch_overhead_seconds;  // per operation per pass
};

FrameworkProfile CaffeProfile();
FrameworkProfile NeonProfile();
FrameworkProfile TorchProfile();
FrameworkProfile TensorFlowProfile();

// Seconds for one layer's forward pass over a whole batch.
double LayerForwardSeconds(const nn::LayerSpec& layer, int64_t batch,
                           const DeviceProfile& device,
                           const FrameworkProfile& framework);

// One full training step (forward + backward ~= 3x forward) in seconds for
// `model` at its configured batch size, including dispatch overheads.
double TrainingStepSeconds(const nn::ModelSpec& model,
                           const DeviceProfile& device,
                           const FrameworkProfile& framework);

// Forward-only inference step.
double ForwardStepSeconds(const nn::ModelSpec& model,
                          const DeviceProfile& device,
                          const FrameworkProfile& framework);

}  // namespace sim
}  // namespace tfrepro

#endif  // TFREPRO_SIM_COST_MODEL_H_
