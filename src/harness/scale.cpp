#include "harness/scale.h"

#include <string>

#include "harness/knobs.h"

namespace fedtiny::harness {

ScaleConfig ScaleConfig::tiny() { return ScaleConfig{}; }

ScaleConfig ScaleConfig::small() {
  ScaleConfig s;
  s.name = "small";
  s.image_size = 16;
  s.train_size = 2000;
  s.test_size = 500;
  s.public_size = 400;
  s.width_mult = 0.25f;
  s.rounds = 40;
  s.local_epochs = 2;
  s.pretrain_epochs = 2;
  s.delta_r = 5;
  s.r_stop = 25;
  s.pool_size = 30;
  return s;
}

ScaleConfig ScaleConfig::paper() {
  ScaleConfig s;
  s.name = "paper";
  s.image_size = 32;
  s.train_size = 50000;
  s.test_size = 10000;
  s.public_size = 2000;
  s.width_mult = 1.0f;
  s.rounds = 300;
  s.local_epochs = 5;
  s.pretrain_epochs = 5;
  s.batch_size = 64;
  s.delta_r = 10;
  s.r_stop = 100;
  s.pool_size = 50;
  return s;
}

ScaleConfig ScaleConfig::from_env() {
  ScaleConfig scale = tiny();
  env_value("FEDTINY_SCALE", "tiny|small|paper", [&](const std::string& v) {
    if (v == "small") scale = small();
    if (v == "paper") scale = paper();
    return v == "tiny" || v == "small" || v == "paper";
  });
  return scale;
}

}  // namespace fedtiny::harness
