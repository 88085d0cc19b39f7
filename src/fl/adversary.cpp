#include "fl/adversary.h"

#include <cassert>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "tensor/rng.h"

namespace fedtiny::fl {

namespace {

// Stream tags keep the adversary draws independent of every other consumer
// of the (seed, client) counter space (comm profiles, scheduler, training).
constexpr uint64_t kMemberTag = 0xbadc11e47ULL;   // per-client membership
constexpr uint64_t kCorruptTag = 0xc0220b7ULL;    // per-(round, client) damage

}  // namespace

bool AdversaryModel::is_adversary(int client) const {
  if (!config_.enabled()) return false;
  Rng rng(derive_seed(seed_, static_cast<uint64_t>(client), kMemberTag),
          /*stream=*/0xbad5eed);
  return rng.uniform() < config_.fraction;
}

void AdversaryModel::perturb_update(std::vector<Tensor>& state,
                                    const std::vector<Tensor>& round_start,
                                    AdversaryMode mode) const {
  assert(mode == AdversaryMode::kScale || mode == AdversaryMode::kSignFlip);
  const float factor =
      mode == AdversaryMode::kSignFlip ? -1.0f : static_cast<float>(config_.scale);
  assert(state.size() == round_start.size());
  for (size_t i = 0; i < state.size(); ++i) {
    auto dst = state[i].flat();
    const auto ref = round_start[i].flat();
    assert(dst.size() == ref.size());
    for (size_t j = 0; j < dst.size(); ++j) {
      dst[j] = ref[j] + factor * (dst[j] - ref[j]);
    }
  }
}

int64_t AdversaryModel::inflate_samples(int64_t actual) const {
  const double inflate = config_.inflate > 1.0 ? config_.inflate : 1.0;
  return static_cast<int64_t>(static_cast<double>(actual) * inflate);
}

void AdversaryModel::corrupt_wire(std::vector<uint8_t>& wire, int round, int client) const {
  if (wire.empty()) return;
  Rng rng(derive_seed(derive_seed(seed_, static_cast<uint64_t>(round),
                                  static_cast<uint64_t>(client)),
                      kCorruptTag, 0),
          /*stream=*/0xf11b);
  // One uplink in three arrives truncated (a dead connection); the rest get
  // a burst of bit flips. Either way the payload is structurally damaged,
  // not merely noisy: length prefixes, tags, or varint streams break, which
  // is exactly what the deserializers' rejection paths must absorb.
  if (rng.uniform() < (1.0 / 3.0)) {
    const auto keep = static_cast<size_t>(
        rng.uniform_int(static_cast<int64_t>(wire.size())));
    wire.resize(keep);
    return;
  }
  const int flips = 4 + static_cast<int>(rng.uniform_int(13));
  for (int f = 0; f < flips; ++f) {
    const auto at = static_cast<size_t>(
        rng.uniform_int(static_cast<int64_t>(wire.size())));
    wire[at] ^= static_cast<uint8_t>(1U << rng.uniform_int(8));
  }
}

void AdversaryModel::corrupt_dense(std::vector<Tensor>& state, int round, int client) const {
  Rng rng(derive_seed(derive_seed(seed_, static_cast<uint64_t>(round),
                                  static_cast<uint64_t>(client)),
                      kCorruptTag, 0),
          /*stream=*/0xf11b);
  const float nan = std::numeric_limits<float>::quiet_NaN();
  for (auto& t : state) {
    auto v = t.flat();
    if (v.empty()) continue;
    // A few poisoned coordinates per tensor: any one is enough to trip the
    // accumulator's non-finite guard, several make the damage robust to
    // future layout changes.
    const int hits = 1 + static_cast<int>(rng.uniform_int(3));
    for (int h = 0; h < hits; ++h) {
      v[static_cast<size_t>(rng.uniform_int(static_cast<int64_t>(v.size())))] = nan;
    }
  }
}

AdversaryMode adversary_mode_from_name(const std::string& name) {
  if (name.empty() || name == "none") return AdversaryMode::kNone;
  if (name == "label_flip") return AdversaryMode::kLabelFlip;
  if (name == "scale") return AdversaryMode::kScale;
  if (name == "sign_flip") return AdversaryMode::kSignFlip;
  if (name == "free_ride") return AdversaryMode::kFreeRide;
  if (name == "corrupt") return AdversaryMode::kCorrupt;
  throw std::invalid_argument(
      "unknown adversary mode: " + name +
      " (expected none|label_flip|scale|sign_flip|free_ride|corrupt)");
}

const char* adversary_mode_name(AdversaryMode mode) {
  switch (mode) {
    case AdversaryMode::kNone: return "none";
    case AdversaryMode::kLabelFlip: return "label_flip";
    case AdversaryMode::kScale: return "scale";
    case AdversaryMode::kSignFlip: return "sign_flip";
    case AdversaryMode::kFreeRide: return "free_ride";
    case AdversaryMode::kCorrupt: return "corrupt";
  }
  return "none";
}

}  // namespace fedtiny::fl
