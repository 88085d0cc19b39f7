// Parallel execution of independent experiment runs on the process-wide
// executor (tensor/parallel.h). Kernels are serial by design; bench
// throughput comes from running many RunSpecs concurrently on executor
// lanes, which share one thread budget with the per-round client pools so
// nested parallelism cannot oversubscribe the machine.
#pragma once

#include <vector>

#include "harness/experiment.h"

namespace fedtiny::harness {

/// Fill every knob that still holds its RunSpec{} default from its
/// environment variable (the table in harness/knobs.h; `fedtiny_cli --help`
/// lists them). Explicit spec values win; a bad env value warns on stderr and
/// is ignored.
RunSpec with_env_knobs(RunSpec spec);

/// Run every spec (order-preserving results) after with_env_knobs. workers
/// <= 0 reads FEDTINY_WORKERS, then falls back to min(#specs,
/// hardware_concurrency - 2).
std::vector<RunResult> run_all(const Experiment& experiment, const std::vector<RunSpec>& specs,
                               int workers = 0);

}  // namespace fedtiny::harness
