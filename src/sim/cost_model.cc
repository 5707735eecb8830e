#include "sim/cost_model.h"

namespace tfrepro {
namespace sim {

DeviceProfile TitanX() { return DeviceProfile{"TitanX", 6.6e12}; }
DeviceProfile TeslaK40() { return DeviceProfile{"K40", 4.3e12}; }
DeviceProfile ServerCpu() { return DeviceProfile{"ServerCPU", 0.25e12}; }

// Parameters fit by least squares (log step time) against the Table 1
// training-step milliseconds for AlexNet/Overfeat/OxfordNet/GoogleNet.
FrameworkProfile TensorFlowProfile() {
  return FrameworkProfile{"TensorFlow", 3.4, 3200, 1.0, 5e-5};
}
FrameworkProfile TorchProfile() {
  return FrameworkProfile{"Torch", 3.4, 3200, 1.0, 1e-4};
}
FrameworkProfile CaffeProfile() {
  return FrameworkProfile{"Caffe", 1.2, 3200, 0.30, 1e-3};
}
FrameworkProfile NeonProfile() {
  return FrameworkProfile{"Neon", 4.4, 1600, 0.30, 5e-4};
}

double LayerForwardSeconds(const nn::LayerSpec& layer, int64_t batch,
                           const DeviceProfile& device,
                           const FrameworkProfile& framework) {
  double flops = layer.ForwardFlops() * batch;
  double efficiency;
  switch (layer.kind) {
    case nn::LayerSpec::Kind::kConv: {
      double kw = layer.k2 != 0 ? layer.k2 : layer.k;
      double intensity = layer.k * kw * layer.in_c;
      efficiency = framework.conv_emax * intensity /
                   (intensity + framework.conv_intensity_half);
      break;
    }
    case nn::LayerSpec::Kind::kFullyConnected:
    case nn::LayerSpec::Kind::kLstm:
    case nn::LayerSpec::Kind::kSoftmax:
      efficiency = framework.gemm_efficiency;
      break;
    case nn::LayerSpec::Kind::kPool:
    default:
      efficiency = 0.1;  // memory-bound elementwise work
      break;
  }
  return flops / (device.peak_flops * efficiency);
}

namespace {
double StepSeconds(const nn::ModelSpec& model, const DeviceProfile& device,
                   const FrameworkProfile& framework, double pass_factor) {
  double total = 0;
  for (const nn::LayerSpec& layer : model.layers) {
    total += pass_factor * LayerForwardSeconds(layer, model.batch, device,
                                               framework);
    total += pass_factor * framework.dispatch_overhead_seconds;
  }
  return total;
}
}  // namespace

double TrainingStepSeconds(const nn::ModelSpec& model,
                           const DeviceProfile& device,
                           const FrameworkProfile& framework) {
  // Backward pass costs ~2x the forward pass.
  return StepSeconds(model, device, framework, 3.0);
}

double ForwardStepSeconds(const nn::ModelSpec& model,
                          const DeviceProfile& device,
                          const FrameworkProfile& framework) {
  return StepSeconds(model, device, framework, 1.0);
}

}  // namespace sim
}  // namespace tfrepro
