// Command-line experiment runner: run any method/dataset/model/density
// combination and optionally checkpoint the resulting sparse model + mask.
//
//   ./build/examples/fedtiny_cli --method fedtiny --dataset svhns \
//       --model resnet18 --density 0.01 --alpha 0.5 --seed 1 \
//       --save-prefix /tmp/svhns_sparse
//
// Flags default to the quickstart configuration; --help lists them.
#include <cstdio>
#include <cstdlib>
#include <string>

#include "harness/experiment.h"
#include "harness/knobs.h"
#include "harness/runner.h"
#include "io/checkpoint.h"

int main(int argc, char** argv) {
  using namespace fedtiny;
  harness::RunSpec spec = harness::with_env_knobs({});
  std::string save_prefix;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for %s\n", arg.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (const harness::Knob* knob = harness::find_flag(arg)) {
      const char* value = knob->arg != nullptr ? next() : "1";
      if (!knob->set(spec, value)) {
        std::fprintf(stderr, "%s %s: invalid (want %s)\n", arg.c_str(), value,
                     knob->domain.c_str());
        return 2;
      }
    } else if (arg == "--save-prefix") {
      save_prefix = next();
      spec.capture_final = true;
    } else if (arg == "--help") {
      std::printf(
          "fedtiny_cli — run one federated pruning experiment\n"
          "Precedence: flag > environment variable > default. A bad flag value exits 2;\n"
          "a bad environment value warns and is ignored.\n%s"
          "  --save-prefix P         write P.state.bin and P.mask.bin on success\n"
          "  --help\n"
          "Scale via FEDTINY_SCALE=tiny|small|paper.\n",
          harness::knob_help().c_str());
      return 0;
    } else {
      std::fprintf(stderr, "unknown flag %s (--help lists the flags)\n", arg.c_str());
      return 2;
    }
  }

  harness::Experiment experiment(harness::ScaleConfig::from_env());
  std::string changed;  // every knob that differs from its default
  const harness::RunSpec defaults;
  for (const harness::Knob& k : harness::knobs()) {
    const std::string value = k.show(spec);
    if (value != k.show(defaults)) changed += std::string(" ") + k.name() + " " + value;
  }
  std::printf("running %s on %s/%s at density %.4g (scale %s)\n  non-default:%s\n",
              spec.method.c_str(), spec.dataset.c_str(), spec.model.c_str(), spec.density,
              experiment.scale().name.c_str(), changed.empty() ? " none" : changed.c_str());
  try {
    auto result = experiment.run(spec);
    std::printf("top1_accuracy   %.4f\n", result.accuracy);
    std::printf("final_density   %.5f\n", result.final_density);
    std::printf("flops_ratio     %.4f (max round vs dense FedAvg)\n", result.flops_ratio());
    std::printf("memory_MB       %.4f (dense: %.4f)\n", result.memory_mb(),
                result.dense_memory_mb());
    std::printf("comm_total_MB   %.3f\n", result.total_comm_bytes / (1024.0 * 1024.0));
    if (result.sim_time_s > 0.0) {
      std::printf("sim_time_s      %.2f (simulated wall-clock of the whole run)\n",
                  result.sim_time_s);
    }
    if (result.selected_candidate >= 0) {
      std::printf("selected coarse candidate: %d\n", result.selected_candidate);
    }
    if (!save_prefix.empty() && !result.final_state.empty()) {
      const std::string state_path = save_prefix + ".state.bin";
      const std::string mask_path = save_prefix + ".mask.bin";
      const bool ok = io::save_state(state_path, result.final_state) &&
                      io::save_mask(mask_path, result.final_mask);
      std::printf("checkpoint: %s (%s, %s)\n", ok ? "written" : "FAILED", state_path.c_str(),
                  mask_path.c_str());
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  return 0;
}
