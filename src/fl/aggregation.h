// Aggregation-policy naming for CLI/env knobs. The policies themselves are
// implemented inside ShardedAccumulator (streaming norm clipping, retained
// per-coordinate trimmed mean / median); this header only maps names to
// AggregationConfig the way fl/codec.h maps codec names.
#pragma once

#include <string>

#include "fl/config.h"

namespace fedtiny::fl {

/// Strict parsing ("fedavg" | "norm_clip" | "trimmed_mean" | "coord_median");
/// throws std::invalid_argument on anything else — a typo must not silently
/// aggregate unprotected.
[[nodiscard]] AggregationConfig aggregation_config_from_name(const std::string& name);
[[nodiscard]] const char* aggregation_name(Aggregation policy);

}  // namespace fedtiny::fl
