// Replay probes for the traced run: each one repeats a module's hot calls
// at the exact shapes the workload just ran (read from the live model, mask
// and config) and reports per-call medians as per-layer metrics.
#pragma once

#include <cstdint>
#include <vector>

#include "bench.h"
#include "data/client_source.h"
#include "fl/config.h"
#include "harness/scale.h"
#include "nn/model.h"
#include "nn/models.h"
#include "prune/mask.h"
#include "tensor/tensor.h"

namespace e2ebench {

namespace nn = fedtiny::nn;

/// Executor budget for the duration of a probe (restored on exit), so a
/// replay grants kernels the lanes they had in the workload: 0 extra when
/// client lanes held the budget, the serving budget otherwise.
class ScopedBudget {
 public:
  explicit ScopedBudget(int budget);
  ~ScopedBudget();
  ScopedBudget(const ScopedBudget&) = delete;
  ScopedBudget& operator=(const ScopedBudget&) = delete;

 private:
  int previous_;
};

/// One masked local-SGD step at batch `x`, replayed as a whole (nn.step_ms,
/// nn.fwd_ms, nn.bwd_ms, nn.sgd_ms, prune.refresh_ms), leaf by leaf
/// (nn.conv.*, nn.bn.*, nn.other.*, nn.unattributed_ms, nn.coverage) and
/// kernel by kernel at every conv's geometry (tensor.*). `model` must hold
/// the workload's state with its sparse execution installed.
void probe_train_step(nn::Model& model, const fedtiny::prune::MaskSet& mask,
                      const fedtiny::data::Batch& batch, const fedtiny::fl::FLConfig& config,
                      Report& report);

/// Eval-mode counterpart for serving replicas: forward only, so the
/// backward/SGD metrics read 0.
void probe_eval_forward(nn::Model& model, const fedtiny::prune::MaskSet& mask,
                        const fedtiny::Tensor& x, Report& report);

/// Wire codec at the workload's payload shapes: fl.codec.{encode,decode}_
/// {state,update}_ms and fl.codec.ratio (encoded over v1 bytes). Codec
/// "none" times the v1 serializer, whose ratio is 1.
void probe_codec(const std::vector<fedtiny::Tensor>& state, const fedtiny::prune::MaskSet& mask,
                 const std::vector<int>& prunable, const fedtiny::fl::CodecConfig& codec,
                 int64_t samples, uint64_t seed, Report& report);

/// Server fold of one decoded sparse uplink (fl.accumulator.fold_ms).
void probe_fold(const std::vector<fedtiny::Tensor>& state, const fedtiny::prune::MaskSet& mask,
                const std::vector<int>& prunable, int cohort, Report& report);

/// install_sparse_execution on `model` (prune.install_ms).
void probe_install(nn::Model& model, const fedtiny::prune::MaskSet& mask, float max_density,
                   bool train, Report& report);

/// One client minibatch from the workload's data source (data.batch_ms).
void probe_batch(const fedtiny::data::ClientDataSource& source, int64_t batch_size,
                 Report& report);

/// resnet18 at the tiny preset's width and image size, with the fixed
/// initial weights (kTaskSeed); every workload trains or serves it.
nn::ModelConfig tiny_model_config(const fedtiny::harness::ScaleConfig& scale);

/// A short serve_swap session (its set-up and traffic: 1 s at 2000 req/s,
/// one rate ladder, hot swaps every 100 ms, the same output checks) that
/// reports the serve.* and io.* per-layer metrics.
void probe_serving(const Options& opt, Report& report);

}  // namespace e2ebench
