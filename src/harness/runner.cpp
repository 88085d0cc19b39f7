#include "harness/runner.h"

#include <algorithm>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <string>

#include "harness/knobs.h"
#include "tensor/kernels.h"
#include "tensor/parallel.h"

namespace fedtiny::harness {

RunSpec with_env_knobs(RunSpec spec) {
  static const RunSpec defaults;
  for (const Knob& k : knobs()) {
    if (k.env == nullptr || k.show(spec) != k.show(defaults)) continue;
    env_value(k.env, k.domain, [&](const char* v) { return k.set(spec, v); });
  }
  return spec;
}

std::vector<RunResult> run_all(const Experiment& experiment, const std::vector<RunSpec>& specs,
                               int workers) {
  // Apply the env knobs once per spec (the workers run these verbatim).
  std::vector<RunSpec> knobbed;
  knobbed.reserve(specs.size());
  for (const RunSpec& raw : specs) knobbed.push_back(with_env_knobs(raw));

  // The kernel mode is process-wide, so concurrently running specs that pin
  // different modes would flip each other's kernels mid-run. Reject
  // conflicting batches, and apply an agreed pin once, up front: unpinned
  // specs in the same batch then deterministically run under it too,
  // instead of racing against whichever worker sets it first.
  std::string pinned;
  for (const RunSpec& spec : knobbed) {
    if (spec.kernels.empty()) continue;
    if (pinned.empty()) {
      pinned = spec.kernels;
    } else if (pinned != spec.kernels) {
      throw std::invalid_argument("run_all: specs pin conflicting kernels modes (\"" + pinned +
                                  "\" vs \"" + spec.kernels + "\"); the mode is process-wide");
    }
  }
  if (!pinned.empty()) kernels::set_mode(kernels::parse_mode(pinned.c_str()));
  if (workers <= 0) {
    env_value("FEDTINY_WORKERS", ">= 0 (0 = auto)", [&](const char* v) {
      int64_t n = 0;
      if (!parse_int(v, n) || n < 0 || n > std::numeric_limits<int>::max()) return false;
      workers = static_cast<int>(n);
      return true;
    });
    if (workers <= 0) workers = default_pool_workers();
  }
  workers = std::min<int>(workers, static_cast<int>(specs.size()));
  std::vector<RunResult> results(specs.size());
  worker_pool_for(specs.size(), workers, [&](int /*worker*/, size_t i) {
    results[i] = experiment.run(knobbed[i]);
  });
  return results;
}

}  // namespace fedtiny::harness
