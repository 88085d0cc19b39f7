// AdversaryModel: deterministic Byzantine fault injection for the federated
// round loop.
//
// Membership mirrors CommModel::profile: each client's adversarial flag is a
// per-client draw from the (seed, client) counter stream, so the hostile set
// is a pure function of (seed, config) — independent of rounds, cohort
// sampling, and worker counts — and any lane count reproduces the same
// attacked run bitwise. Per-(round, client) draws (wire corruption sites)
// use the same derive_seed(derive_seed(seed, round, client), tag, 0) scheme
// as availability/dropout.
//
// The model only *perturbs* client behavior; every defense lives server-side
// (fl/sharded_accumulator.* policies + decode rejection). A perturbation
// must never crash the round: corrupted wires either fail decode (counted
// rejection, weights renormalize over survivors like a dropout) or decode
// into garbage the accumulator's non-finite guard drops.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "fl/config.h"
#include "tensor/tensor.h"

namespace fedtiny::fl {

class AdversaryModel {
 public:
  AdversaryModel() = default;
  AdversaryModel(const AdversaryConfig& config, uint64_t seed)
      : config_(config), seed_(seed) {}

  [[nodiscard]] bool enabled() const { return config_.enabled(); }
  [[nodiscard]] const AdversaryConfig& config() const { return config_; }

  /// Per-client membership draw from the (seed, client) stream (fraction 0
  /// or mode kNone never marks anyone).
  [[nodiscard]] bool is_adversary(int client) const;

  /// The perturbation client applies this run: its configured mode when
  /// marked adversarial, kNone otherwise.
  [[nodiscard]] AdversaryMode mode_for(int client) const {
    return is_adversary(client) ? config_.mode : AdversaryMode::kNone;
  }

  /// kScale / kSignFlip: rewrite `state` to round_start + factor * delta,
  /// tensor for tensor (factor = config.scale, or -1 for kSignFlip).
  void perturb_update(std::vector<Tensor>& state, const std::vector<Tensor>& round_start,
                      AdversaryMode mode) const;

  /// kFreeRide: the sample count a free-rider claims for `actual` samples.
  [[nodiscard]] int64_t inflate_samples(int64_t actual) const;

  /// kCorrupt, sparse-exchange path: deterministically damage a serialized
  /// uplink — a handful of bit flips, sometimes a truncation — from the
  /// (seed, round, client) stream. The server's decode either rejects the
  /// wire or yields garbage for the non-finite guard.
  void corrupt_wire(std::vector<uint8_t>& wire, int round, int client) const;

  /// kCorrupt, dense-exchange path (no wire to damage): poison a few state
  /// values with NaN so the accumulator's non-finite guard must catch it.
  void corrupt_dense(std::vector<Tensor>& state, int round, int client) const;

 private:
  AdversaryConfig config_;
  uint64_t seed_ = 0;
};

/// Strict mode parsing for CLI/env knobs ("none" | "label_flip" | "scale" |
/// "sign_flip" | "free_ride" | "corrupt"); throws std::invalid_argument on
/// anything else — a typo must not silently run the clean fleet.
[[nodiscard]] AdversaryMode adversary_mode_from_name(const std::string& name);
[[nodiscard]] const char* adversary_mode_name(AdversaryMode mode);

}  // namespace fedtiny::fl
