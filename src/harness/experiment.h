// Experiment runner shared by every bench binary and example: builds the
// synthetic dataset, non-iid partition, public server dataset, pretrained
// model, and dispatches to one of the evaluated methods by name.
//
// Method names:
//   fedavg          dense FedAvg upper bound
//   snip            SNIP pruning-at-initialization (server, public batch)
//   synflow         SynFlow pruning-at-initialization (server, data-free)
//   flpqsu          FL-PQSU one-shot L1 pruning (server)
//   prunefl         PruneFL adaptive pruning (dense device scores)
//   feddst          FedDST dynamic sparse training
//   lotteryfl       LotteryFL iterative magnitude pruning + rewind
//   fedtiny         full FedTiny (adaptive BN selection + progressive)
//   fedtiny_vanilla vanilla selection + progressive pruning (ablation)
//   adaptive_bn     adaptive BN selection only, no progressive (ablation)
//   vanilla         vanilla selection only (ablation)
//   small_model     dense SmallCNN sized to match the sparse model params
#pragma once

#include <string>
#include <vector>

#include "core/fedtiny.h"
#include "fl/trainer.h"
#include "harness/scale.h"

namespace fedtiny::harness {

/// One run's settings. The knob table (harness/knobs.h) declares each
/// knob's CLI flag, env var, accepted values and help; `fedtiny_cli --help`
/// prints it. Values outside a knob's accepted set make Experiment::run throw.
struct RunSpec {
  std::string method = "fedtiny";
  std::string dataset = "cifar10s";
  std::string model = "resnet18";
  double density = 0.01;
  double dirichlet_alpha = 0.5;
  uint64_t seed = 1;
  /// Candidate pool size; -1 selects C* = 0.1 / density (paper §IV-D),
  /// clamped to [4, 4 * scale.pool_size].
  int pool_size = -1;
  /// Progressive pruning schedule override (granularity / order / cadence).
  bool schedule_overridden = false;
  core::PruningSchedule schedule;
  /// For small_model: explicit parameter target (0 => match density * model).
  int64_t small_model_params = 0;
  /// Evaluate every N rounds and keep history (0 = final only).
  int eval_every = 0;
  /// Capture the final global state and mask in the result (for
  /// checkpointing via io::save_state / io::save_mask).
  bool capture_final = false;
  // ---- Sparse execution & exchange engine (see fl/config.h). ----
  bool sparse_exchange = false;
  float sparse_exec_max_density = 0.0f;
  bool sparse_training = false;
  int parallel_clients = 1;
  /// Payload codec for sparse-exchange rounds (fl/codec.h): "" or "none"
  /// keeps the v1 fp32 wire (bitwise-historical). Ignored (with the v1
  /// wire) unless sparse_exchange is on — there is no wire to encode
  /// otherwise.
  std::string codec;
  /// Override CodecConfig::quant_bits for the top-k codec (0 = keep).
  int quant_bits = 0;
  /// Override CodecConfig::topk_frac (0 = keep).
  double topk_frac = 0.0;
  /// Kernel engine implementation ("" = inherit the process mode). The mode
  /// is process-wide, so run_all rejects batches whose specs pin
  /// conflicting modes.
  std::string kernels;
  // ---- Robust aggregation & adversaries (see fl/aggregation.h, fl/adversary.h). ----
  /// Server aggregation policy: "" or "fedavg" keeps the historical
  /// weighted-mean fold (bitwise-identical).
  std::string aggregation;
  double trim_frac = 0.0;
  double clip_tau = 0.0;
  double adversary_frac = 0.0;
  std::string adversary_mode;
  double adversary_scale = 0.0;
  // ---- Round scheduler (see fl/config.h). ----
  int num_clients = 10;
  int clients_per_round = 0;
  /// Out-of-core fleet: when > 0, client training data is generated on
  /// demand (data::SyntheticFleetSource, this many samples per client)
  /// instead of materializing and partitioning a train split — the path
  /// that scales K to a million. Supported for the plain-trainer methods
  /// (fedavg, snip, synflow, flpqsu); methods needing server-side raw data
  /// (fedtiny's BN selection) throw.
  int64_t on_demand_samples_per_client = 0;
  // ---- Simulated deployment (see fl::SimConfig). ----
  /// Device/link timing, cohort realism (availability/dropout/deadline),
  /// and async-round knobs. Defaults to the ideal fleet, which reproduces
  /// the historical engine bitwise.
  fl::SimConfig sim;
};

struct RunResult {
  std::string method;
  double accuracy = 0.0;
  double final_density = 0.0;
  // Cost accounting.
  double max_round_flops = 0.0;
  double dense_round_flops = 0.0;  // dense FedAvg reference for this model
  double memory_bytes = 0.0;
  double dense_memory_bytes = 0.0;
  double total_comm_bytes = 0.0;
  /// Simulated wall-clock of the whole run (0 under the ideal fleet model).
  double sim_time_s = 0.0;
  // Adaptive BN selection module (Table II / Fig. 5).
  double selection_comm_bytes = 0.0;
  double selection_flops = 0.0;
  double sparse_round_flops = 0.0;  // one device-round of sparse training
  int selected_candidate = -1;
  std::vector<fl::RoundStats> history;
  /// Populated when RunSpec::capture_final is set.
  std::vector<Tensor> final_state;
  prune::MaskSet final_mask;

  [[nodiscard]] double flops_ratio() const {
    return dense_round_flops > 0 ? max_round_flops / dense_round_flops : 0.0;
  }
  [[nodiscard]] double memory_mb() const { return memory_bytes / (1024.0 * 1024.0); }
  [[nodiscard]] double dense_memory_mb() const { return dense_memory_bytes / (1024.0 * 1024.0); }
};

class Experiment {
 public:
  explicit Experiment(ScaleConfig scale) : scale_(std::move(scale)) {}

  /// Run one method end-to-end (dataset + partition + pretrain + train).
  RunResult run(const RunSpec& spec) const;

  [[nodiscard]] const ScaleConfig& scale() const { return scale_; }

 private:
  ScaleConfig scale_;
};

/// Effective pool size for a density (C* = 0.1/d, clamped).
int default_pool_size(double density, const ScaleConfig& scale);

}  // namespace fedtiny::harness
