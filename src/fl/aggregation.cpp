#include "fl/aggregation.h"

#include <stdexcept>

namespace fedtiny::fl {

AggregationConfig aggregation_config_from_name(const std::string& name) {
  AggregationConfig config;
  if (name.empty() || name == "fedavg") {
    config.policy = Aggregation::kFedAvg;
  } else if (name == "norm_clip") {
    config.policy = Aggregation::kNormClip;
  } else if (name == "trimmed_mean") {
    config.policy = Aggregation::kTrimmedMean;
  } else if (name == "coord_median") {
    config.policy = Aggregation::kCoordMedian;
  } else {
    throw std::invalid_argument(
        "unknown aggregation policy: " + name +
        " (expected fedavg|norm_clip|trimmed_mean|coord_median)");
  }
  return config;
}

const char* aggregation_name(Aggregation policy) {
  switch (policy) {
    case Aggregation::kFedAvg: return "fedavg";
    case Aggregation::kNormClip: return "norm_clip";
    case Aggregation::kTrimmedMean: return "trimmed_mean";
    case Aggregation::kCoordMedian: return "coord_median";
  }
  return "fedavg";
}

}  // namespace fedtiny::fl
