#include "harness/knobs.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <map>
#include <optional>
#include <set>
#include <string>

#include "harness/runner.h"
#include "harness/scale.h"

namespace fedtiny::harness {
namespace {

// Sets (nullptr: unsets) one environment variable for a scope and restores
// the ambient value afterwards; CI jobs export some knobs for the whole suite.
class ScopedEnv {
 public:
  ScopedEnv(const char* name, const char* value) : name_(name) {
    if (const char* old = std::getenv(name)) old_ = old;
    if (value != nullptr) {
      setenv(name, value, 1);
    } else {
      unsetenv(name);
    }
  }
  ~ScopedEnv() {
    if (old_) {
      setenv(name_, old_->c_str(), 1);
    } else {
      unsetenv(name_);
    }
  }
  ScopedEnv(const ScopedEnv&) = delete;
  ScopedEnv& operator=(const ScopedEnv&) = delete;

 private:
  const char* name_;
  std::optional<std::string> old_;
};

struct Samples {
  const char* a;        // valid and not the default
  const char* b;        // valid and not `a` (may be the default)
  const char* garbage;  // rejected text
  const char* out_of_range;  // parses but fails the check; nullptr if none exists
};

// One entry per row, keyed by Knob::name(). The table test fails on a row
// without samples, so a new knob cannot skip these checks.
const std::map<std::string, Samples>& samples() {
  static const std::map<std::string, Samples> s = {
      {"--method", {"snip", "fedavg", "fedtinny", "fedtinny"}},
      {"--dataset", {"svhns", "cinic10s", "mnist", "mnist"}},
      {"--model", {"vgg11", "resnet18", "alexnet", "alexnet"}},
      {"--density", {"0.25", "0.5", "abc", "1.5"}},
      {"--alpha", {"0.1", "2", "0.5x", "0"}},
      {"--seed", {"7", "42", "-1", nullptr}},
      {"--pool", {"8", "16", "8.5", "-2"}},
      {"--num-clients", {"40", "20", "forty", "0"}},
      {"--clients-per-round", {"8", "4", "8 ", "-1"}},
      {"FEDTINY_ON_DEMAND_SAMPLES", {"16", "32", "1e3", "-5"}},
      {"--workers", {"2", "3", "", "-1"}},
      {"--sparse-exchange", {"1", "0", "yes", nullptr}},
      {"--sparse-exec", {"0.3", "0.5", "0.3f", "1.5"}},
      {"--sparse-train", {"1", "0", "true", nullptr}},
      {"--kernels", {"reference", "fast", "refrence", "refrence"}},
      {"--codec", {"int8", "q4", "int4", "int4"}},
      {"--quant-bits", {"4", "8", "four", "6"}},
      {"--topk-frac", {"0.25", "0.5", "abc", "1.5"}},
      {"--aggregation", {"trimmed_mean", "coord_median", "trimmed", "trimmed"}},
      {"--trim-frac", {"0.2", "0.1", "x", "0.5"}},
      {"--clip-tau", {"2.5", "1", "", "-1"}},
      {"--adversary-frac", {"0.2", "0.4", "20%", "1.1"}},
      {"--adversary-mode", {"sign_flip", "scale", "flip", "flip"}},
      {"--adversary-scale", {"-5", "3", "abc", "inf"}},
      {"--sim-device-flops", {"1e9", "2e9", "1e9x", "-1"}},
      {"--sim-bandwidth", {"2e5", "1e6", "fast", "-2e5"}},
      {"--sim-latency", {"0.05", "0.1", "50ms", "-0.05"}},
      {"--sim-het", {"3", "2", "x3", "0.5"}},
      {"--sim-stragglers", {"0.25", "0.5", "a quarter", "2"}},
      {"--sim-slowdown", {"20", "5", "", "0.5"}},
      {"--availability", {"0.8", "0.9", "abc", "1.01"}},
      {"--dropout", {"0.1", "0.2", "abc", "-0.1"}},
      {"--deadline", {"60", "30", "1 min", "-1"}},
      {"--async", {"1", "0", "on", nullptr}},
      {"--async-m", {"2", "4", "2.0", "-2"}},
      {"--staleness-alpha", {"1", "0.25", "half", "-0.5"}},
  };
  return s;
}

const Samples& samples_for(const Knob& k) { return samples().at(k.name()); }

// What the CLI stores for `text`: a switch flag takes no value and sets 1.
std::string via_cli(const Knob& k, const char* text) {
  RunSpec spec;
  EXPECT_TRUE(k.set(spec, k.arg != nullptr ? text : "1")) << k.name() << " " << text;
  return k.show(spec);
}

TEST(Knobs, EveryRowIsNamedSampledAndDefaultsPassTheirChecks) {
  const RunSpec defaults;
  EXPECT_NO_THROW(validate(defaults));
  std::set<std::string> names;
  for (const Knob& k : knobs()) {
    ASSERT_TRUE(k.flag != nullptr || k.env != nullptr);
    EXPECT_TRUE(names.insert(k.name()).second) << "duplicate " << k.name();
    if (k.flag != nullptr && k.env != nullptr) {
      EXPECT_TRUE(names.insert(k.env).second) << "duplicate " << k.env;
    }
    EXPECT_TRUE(k.ok(defaults)) << k.name();
    if (k.flag != nullptr) EXPECT_EQ(find_flag(k.flag), &k);
    ASSERT_EQ(samples().count(k.name()), 1u) << "no samples for " << k.name();
  }
  EXPECT_EQ(samples().size(), knobs().size()) << "samples name a row that is gone";
}

TEST(Knobs, ValuesRoundTripThroughEnvAndCli) {
  const RunSpec defaults;
  for (const Knob& k : knobs()) {
    const Samples& s = samples_for(k);
    const std::string cli = via_cli(k, s.a);
    EXPECT_NE(cli, k.show(defaults)) << k.name();
    RunSpec again;
    ASSERT_TRUE(k.set(again, cli.c_str())) << k.name() << " " << cli;
    EXPECT_EQ(k.show(again), cli) << k.name();
    if (k.env == nullptr) continue;
    ScopedEnv env(k.env, s.a);
    EXPECT_EQ(k.show(with_env_knobs(RunSpec{})), cli) << k.env;
  }
}

TEST(Knobs, PrecedenceIsCliOverPinOverEnvOverDefault) {
  const RunSpec defaults;
  for (const Knob& k : knobs()) {
    if (k.env == nullptr) continue;
    const Samples& s = samples_for(k);
    {
      ScopedEnv env(k.env, nullptr);
      EXPECT_EQ(k.show(with_env_knobs(RunSpec{})), k.show(defaults)) << k.env;
    }
    ScopedEnv env(k.env, s.b);
    RunSpec pinned;
    ASSERT_TRUE(k.set(pinned, s.a));
    RunSpec spec = with_env_knobs(pinned);
    EXPECT_EQ(k.show(spec), k.show(pinned)) << "env overrode a pin: " << k.env;
    const char* flag_value = k.arg != nullptr ? s.b : "1";
    ASSERT_TRUE(k.set(spec, flag_value));
    EXPECT_EQ(k.show(spec), via_cli(k, flag_value)) << k.name();
  }
}

TEST(Knobs, BadValuesAreRejectedByEnvCliAndExperiment) {
  const RunSpec defaults;
  ScaleConfig scale = ScaleConfig::tiny();
  scale.train_size = 40;
  scale.test_size = 20;
  scale.public_size = 20;
  scale.rounds = 1;
  Experiment ex(scale);
  for (const Knob& k : knobs()) {
    const Samples& s = samples_for(k);
    RunSpec spec;
    if (k.arg != nullptr) {
      EXPECT_FALSE(k.set(spec, s.garbage)) << k.name() << " took " << s.garbage;
      EXPECT_EQ(k.show(spec), k.show(defaults)) << k.name();
    }
    if (k.env != nullptr) {
      ScopedEnv env(k.env, s.garbage);
      testing::internal::CaptureStderr();
      const RunSpec from_env = with_env_knobs(RunSpec{});
      const std::string warning = testing::internal::GetCapturedStderr();
      EXPECT_EQ(k.show(from_env), k.show(defaults)) << k.env;
      EXPECT_NE(warning.find(std::string(k.env) + "="), std::string::npos) << k.env;
    }
    if (s.out_of_range == nullptr) continue;
    EXPECT_FALSE(k.set(spec, s.out_of_range)) << k.name() << " took " << s.out_of_range;
    ASSERT_TRUE(k.parse(spec, s.out_of_range)) << k.name();
    try {
      (void)ex.run(spec);
      ADD_FAILURE() << "Experiment::run took " << k.name() << " " << s.out_of_range;
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(k.name()), std::string::npos) << e.what();
    }
  }
}

TEST(Knobs, HelpListsEveryFlagAndEnvVar) {
  const std::string help = knob_help();
  for (const Knob& k : knobs()) {
    if (k.flag != nullptr) EXPECT_NE(help.find(k.flag), std::string::npos) << k.flag;
    if (k.env != nullptr) EXPECT_NE(help.find(k.env), std::string::npos) << k.env;
  }
}

TEST(Knobs, BadScaleAndWorkersEnvWarn) {
  {
    ScopedEnv env("FEDTINY_SCALE", "smal");
    testing::internal::CaptureStderr();
    EXPECT_EQ(ScaleConfig::from_env().name, "tiny");
    EXPECT_NE(testing::internal::GetCapturedStderr().find("FEDTINY_SCALE=smal"),
              std::string::npos);
  }
  {
    ScopedEnv env("FEDTINY_SCALE", "small");
    EXPECT_EQ(ScaleConfig::from_env().name, "small");
  }
  ScopedEnv env("FEDTINY_WORKERS", "abc");
  testing::internal::CaptureStderr();
  EXPECT_TRUE(run_all(Experiment(ScaleConfig::tiny()), {}).empty());
  EXPECT_NE(testing::internal::GetCapturedStderr().find("FEDTINY_WORKERS=abc"),
            std::string::npos);
}

}  // namespace
}  // namespace fedtiny::harness
