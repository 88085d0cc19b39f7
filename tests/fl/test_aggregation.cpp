// Robust aggregation policies (ShardedAccumulator) and the adversary model:
// hand-computed order statistics, norm clipping, non-finite rejection, and
// the bitwise lane-count / worker-count invariants the engine guarantees.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>

#include "data/partition.h"
#include "data/synthetic.h"
#include "fl/adversary.h"
#include "fl/aggregation.h"
#include "fl/sharded_accumulator.h"
#include "fl/trainer.h"
#include "nn/models.h"
#include "tensor/parallel.h"
#include "tensor/rng.h"

namespace fedtiny::fl {
namespace {

std::vector<Tensor> make_state(const std::vector<float>& values) {
  std::vector<Tensor> state;
  state.emplace_back(std::vector<int64_t>{static_cast<int64_t>(values.size())});
  std::memcpy(state[0].data(), values.data(), values.size() * sizeof(float));
  return state;
}

// Five clients, three coordinates, one outlier row (c4). Weights 1..5.
const std::vector<std::vector<float>> kRows = {
    {1.0f, 10.0f, -5.0f},   {2.0f, 20.0f, -4.0f}, {3.0f, 30.0f, -3.0f},
    {4.0f, 40.0f, -2.0f},   {100.0f, -100.0f, 0.0f},
};
const std::vector<double> kWeights = {1.0, 2.0, 3.0, 4.0, 5.0};

TEST(RobustAggregation, TrimmedMeanMatchesHandComputed) {
  ShardedAccumulator acc;
  acc.begin_round();
  AggregationConfig policy;
  policy.policy = Aggregation::kTrimmedMean;
  policy.trim_frac = 0.25;  // floor(0.25 * 5) = 1 row off each tail
  acc.set_policy(policy);
  for (size_t i = 0; i < kRows.size(); ++i) acc.fold(make_state(kRows[i]), kWeights[i]);

  std::vector<Tensor> out;
  ASSERT_TRUE(acc.average_into(out));
  ASSERT_EQ(out.size(), 1u);
  const auto v = out[0].flat();
  // Survivors after trimming min and max, weighted by the surviving rows:
  //   coord 0: {2 (w2), 3 (w3), 4 (w4)}   -> 29/9
  //   coord 1: {10 (w1), 20 (w2), 30 (w3)} -> 140/6
  //   coord 2: {-4 (w2), -3 (w3), -2 (w4)} -> -25/9
  EXPECT_FLOAT_EQ(v[0], static_cast<float>(29.0 / 9.0));
  EXPECT_FLOAT_EQ(v[1], static_cast<float>(140.0 / 6.0));
  EXPECT_FLOAT_EQ(v[2], static_cast<float>(-25.0 / 9.0));
}

TEST(RobustAggregation, CoordMedianMatchesHandComputed) {
  ShardedAccumulator acc;
  acc.begin_round();
  AggregationConfig policy;
  policy.policy = Aggregation::kCoordMedian;
  acc.set_policy(policy);
  for (size_t i = 0; i < kRows.size(); ++i) acc.fold(make_state(kRows[i]), kWeights[i]);

  std::vector<Tensor> out;
  ASSERT_TRUE(acc.average_into(out));
  const auto v = out[0].flat();
  EXPECT_FLOAT_EQ(v[0], 3.0f);
  EXPECT_FLOAT_EQ(v[1], 20.0f);
  EXPECT_FLOAT_EQ(v[2], -3.0f);

  // Even row count takes the midpoint of the two middle order statistics.
  acc.begin_round();
  acc.set_policy(policy);
  for (size_t i = 0; i < 4; ++i) acc.fold(make_state(kRows[i]), 1.0);
  ASSERT_TRUE(acc.average_into(out));
  const auto v4 = out[0].flat();
  EXPECT_FLOAT_EQ(v4[0], 2.5f);
  EXPECT_FLOAT_EQ(v4[1], 25.0f);
  EXPECT_FLOAT_EQ(v4[2], -3.5f);
}

TEST(RobustAggregation, NormClipScalesOversizedDelta) {
  const std::vector<float> ref_values = {1.0f, 2.0f, 3.0f, 4.0f};
  const auto ref = make_state(ref_values);

  // Uplink = ref + delta with |delta| = 5 (delta = {3, 4, 0, 0}).
  auto up = make_state({4.0f, 6.0f, 3.0f, 4.0f});

  ShardedAccumulator acc;
  acc.begin_round();
  AggregationConfig policy;
  policy.policy = Aggregation::kNormClip;
  policy.clip_tau = 1.0;
  acc.set_policy(policy);
  acc.set_reference(ref);
  acc.fold(up, 2.0);
  EXPECT_EQ(acc.clipped(), 1);

  std::vector<Tensor> out;
  ASSERT_TRUE(acc.average_into(out));
  const auto v = out[0].flat();
  // Clipped fold: ref + (tau/|delta|) * delta = ref + 0.2 * delta.
  EXPECT_NEAR(v[0], 1.0f + 0.2f * 3.0f, 1e-5);
  EXPECT_NEAR(v[1], 2.0f + 0.2f * 4.0f, 1e-5);
  EXPECT_NEAR(v[2], 3.0f, 1e-5);
  EXPECT_NEAR(v[3], 4.0f, 1e-5);
}

TEST(RobustAggregation, NormClipUnderThresholdIsBitwiseFedAvg) {
  Rng rng(7, 0x11);
  std::vector<float> ref_values(257), up_values(257);
  for (auto& x : ref_values) x = static_cast<float>(rng.normal());
  for (size_t j = 0; j < up_values.size(); ++j) {
    up_values[j] = ref_values[j] + 0.001f * static_cast<float>(rng.normal());
  }
  const auto ref = make_state(ref_values);
  const auto up = make_state(up_values);

  ShardedAccumulator fedavg;
  fedavg.begin_round();
  fedavg.fold(up, 3.0);
  std::vector<Tensor> expected;
  ASSERT_TRUE(fedavg.average_into(expected));

  ShardedAccumulator clip;
  clip.begin_round();
  AggregationConfig policy;
  policy.policy = Aggregation::kNormClip;
  policy.clip_tau = 1e9;  // far above any delta norm: nothing clips
  clip.set_policy(policy);
  clip.set_reference(ref);
  clip.fold(up, 3.0);
  EXPECT_EQ(clip.clipped(), 0);
  std::vector<Tensor> got;
  ASSERT_TRUE(clip.average_into(got));

  ASSERT_EQ(got[0].flat().size(), expected[0].flat().size());
  EXPECT_EQ(std::memcmp(got[0].data(), expected[0].data(),
                        expected[0].flat().size() * sizeof(float)),
            0);
}

TEST(RobustAggregation, NonFiniteUplinkDroppedAndRenormalized) {
  ShardedAccumulator acc;
  acc.begin_round();
  const auto good = make_state({1.0f, 2.0f, 3.0f});
  auto bad = make_state({1.0f, 2.0f, 3.0f});
  bad[0].flat()[1] = std::numeric_limits<float>::quiet_NaN();

  acc.fold(good, 1.0);
  acc.fold(bad, 100.0);  // the huge weight must not enter the average
  EXPECT_EQ(acc.dropped_nonfinite(), 1);
  EXPECT_EQ(acc.folded(), 1);
  EXPECT_DOUBLE_EQ(acc.total_weight(), 1.0);

  std::vector<Tensor> out;
  ASSERT_TRUE(acc.average_into(out));
  const auto v = out[0].flat();
  EXPECT_FLOAT_EQ(v[0], 1.0f);
  EXPECT_FLOAT_EQ(v[1], 2.0f);
  EXPECT_FLOAT_EQ(v[2], 3.0f);
}

TEST(RobustAggregation, NonFiniteSparseUplinkDropped) {
  SparseUpdatePayload good;
  good.sparse_layers.push_back({{4}, {1.0f, 2.0f, 3.0f, 4.0f}});
  good.num_samples = 8;
  SparseUpdatePayload bad = good;
  bad.sparse_layers[0].values[2] = std::numeric_limits<float>::infinity();

  ShardedAccumulator acc;
  acc.begin_round();
  acc.fold_sparse(good, 1.0);
  acc.fold_sparse(bad, 1.0);
  EXPECT_EQ(acc.dropped_nonfinite(), 1);
  EXPECT_EQ(acc.folded(), 1);
  EXPECT_DOUBLE_EQ(acc.total_weight(), 1.0);
}

TEST(RobustAggregation, BatchAccumulatorDropsNonFinite) {
  StateAccumulator acc;
  const auto good = make_state({1.0f, 2.0f});
  auto bad = make_state({1.0f, 2.0f});
  bad[0].flat()[0] = std::numeric_limits<float>::quiet_NaN();
  acc.add(good, 1.0);
  acc.add(bad, 5.0);
  EXPECT_EQ(acc.dropped_nonfinite(), 1);
  auto out = acc.average();
  ASSERT_EQ(out.size(), 1u);
  EXPECT_FLOAT_EQ(out[0].flat()[0], 1.0f);
  EXPECT_FLOAT_EQ(out[0].flat()[1], 2.0f);
}

// The retained per-coordinate reduction shards the arena over the Executor
// in fixed coordinate chunks; any thread budget must produce the same bits.
TEST(RobustAggregation, RetainedReductionBitwiseAcrossLaneCounts) {
  constexpr size_t kElems = 10000;  // > one 4096-coordinate chunk
  constexpr int kClients = 7;
  std::vector<std::vector<float>> rows(kClients, std::vector<float>(kElems));
  Rng rng(3, 0x22);
  for (auto& row : rows) {
    for (auto& x : row) x = static_cast<float>(rng.normal());
  }

  auto run_with_budget = [&](int budget, Aggregation which) {
    auto& exec = Executor::instance();
    const int saved = exec.thread_budget();
    exec.set_thread_budget(budget);
    ShardedAccumulator acc;
    acc.begin_round();
    AggregationConfig policy;
    policy.policy = which;
    acc.set_policy(policy);
    for (int i = 0; i < kClients; ++i) {
      acc.fold(make_state(rows[static_cast<size_t>(i)]), 1.0 + i);
    }
    std::vector<Tensor> out;
    EXPECT_TRUE(acc.average_into(out));
    exec.set_thread_budget(saved);
    return out;
  };

  for (const auto which : {Aggregation::kTrimmedMean, Aggregation::kCoordMedian}) {
    const auto serial = run_with_budget(0, which);
    const auto parallel = run_with_budget(4, which);
    ASSERT_EQ(serial[0].flat().size(), parallel[0].flat().size());
    EXPECT_EQ(std::memcmp(serial[0].data(), parallel[0].data(),
                          kElems * sizeof(float)),
              0);
  }
}

// The norm computation chunks the arena with a FIXED chunk size and sums
// partials serially in chunk order — lane counts must not change the norm,
// hence not the clipped fold either.
TEST(RobustAggregation, NormClipBitwiseAcrossLaneCounts) {
  constexpr size_t kElems = 200000;  // > three 65536-element norm chunks
  std::vector<float> ref_values(kElems), up_values(kElems);
  Rng rng(5, 0x33);
  for (auto& x : ref_values) x = static_cast<float>(rng.normal());
  for (size_t j = 0; j < kElems; ++j) {
    up_values[j] = ref_values[j] + static_cast<float>(rng.normal());
  }
  const auto ref = make_state(ref_values);
  const auto up = make_state(up_values);

  auto run_with_budget = [&](int budget) {
    auto& exec = Executor::instance();
    const int saved = exec.thread_budget();
    exec.set_thread_budget(budget);
    ShardedAccumulator acc;
    acc.begin_round();
    AggregationConfig policy;
    policy.policy = Aggregation::kNormClip;
    policy.clip_tau = 1.0;  // well under the delta norm: always clips
    acc.set_policy(policy);
    acc.set_reference(ref);
    acc.fold(up, 1.0);
    EXPECT_EQ(acc.clipped(), 1);
    std::vector<Tensor> out;
    EXPECT_TRUE(acc.average_into(out));
    exec.set_thread_budget(saved);
    return out;
  };

  const auto serial = run_with_budget(0);
  const auto parallel = run_with_budget(4);
  EXPECT_EQ(std::memcmp(serial[0].data(), parallel[0].data(), kElems * sizeof(float)), 0);
}

TEST(Adversary, MembershipIsDeterministicPerSeed) {
  AdversaryConfig config;
  config.fraction = 0.3;
  config.mode = AdversaryMode::kScale;
  const AdversaryModel a(config, 42);
  const AdversaryModel b(config, 42);
  int marked = 0;
  for (int c = 0; c < 64; ++c) {
    EXPECT_EQ(a.is_adversary(c), b.is_adversary(c));
    marked += a.is_adversary(c) ? 1 : 0;
  }
  EXPECT_GT(marked, 0);
  EXPECT_LT(marked, 64);

  AdversaryConfig off = config;
  off.fraction = 0.0;
  const AdversaryModel none(off, 42);
  AdversaryConfig all = config;
  all.fraction = 1.0;
  const AdversaryModel everyone(all, 42);
  for (int c = 0; c < 16; ++c) {
    EXPECT_FALSE(none.is_adversary(c));
    EXPECT_TRUE(everyone.is_adversary(c));
  }
}

TEST(Adversary, NameParsingRoundTrips) {
  for (const char* name : {"none", "label_flip", "scale", "sign_flip", "free_ride", "corrupt"}) {
    EXPECT_STREQ(adversary_mode_name(adversary_mode_from_name(name)), name);
  }
  EXPECT_THROW((void)adversary_mode_from_name("scael"), std::invalid_argument);
  for (const char* name : {"fedavg", "norm_clip", "trimmed_mean", "coord_median"}) {
    EXPECT_STREQ(aggregation_name(aggregation_config_from_name(name).policy), name);
  }
  EXPECT_THROW((void)aggregation_config_from_name("median"), std::invalid_argument);
}

// ---- Trainer-level regression + determinism ------------------------------

struct TrainerFixture {
  data::TrainTest data;
  nn::ModelConfig mc;
  std::vector<std::vector<int64_t>> partitions;
  FLConfig config;

  TrainerFixture() {
    data = data::make_synthetic(data::cifar10s_spec(8, 160, 40), 13);
    mc.num_classes = 10;
    mc.image_size = 8;
    mc.width_mult = 0.0625f;
    Rng rng(4);
    partitions = data::dirichlet_partition(data.train.labels, 6, 0.5, rng);
    config.num_clients = 6;
    config.rounds = 3;
    config.local_epochs = 1;
    config.batch_size = 16;
    config.seed = 4;
  }

  // A fresh model every run: the trainer mutates the one it is handed, so
  // reuse would leak one arm's training into the next comparison.
  double run() const {
    auto model = nn::make_resnet18(mc);
    FederatedTrainer trainer(*model, data.train, data.test, partitions, config);
    return trainer.run();
  }
};

// --aggregation fedavg --adversary-frac 0 must reproduce the historical
// engine bitwise: the explicit defaults are the same code path, and an
// unclippable norm_clip run (threshold far above any delta) folds every
// uplink verbatim, so it lands on the identical bits too.
TEST(RobustAggregation, ExplicitFedAvgAndUnclippedRunsAreBitwiseHistorical) {
  TrainerFixture f;
  const double historical = f.run();

  TrainerFixture explicit_defaults;
  explicit_defaults.config.aggregation.policy = Aggregation::kFedAvg;
  explicit_defaults.config.adversary.fraction = 0.0;
  EXPECT_EQ(explicit_defaults.run(), historical);

  TrainerFixture unclipped;
  unclipped.config.aggregation.policy = Aggregation::kNormClip;
  unclipped.config.aggregation.clip_tau = 1e12;
  EXPECT_EQ(unclipped.run(), historical);
}

// Robust-policy aggregation under attack is a pure function of
// (seed, config): worker lanes must not change a bit of the trajectory.
TEST(RobustAggregation, AttackedTrimmedMeanDeterministicAcrossWorkers) {
  TrainerFixture f;
  f.config.aggregation.policy = Aggregation::kTrimmedMean;
  f.config.adversary.fraction = 0.3;
  f.config.adversary.mode = AdversaryMode::kScale;

  f.config.parallel_clients = 1;
  const double serial = f.run();
  f.config.parallel_clients = 3;
  const double parallel = f.run();
  EXPECT_EQ(serial, parallel);
  EXPECT_TRUE(std::isfinite(serial));
}

}  // namespace
}  // namespace fedtiny::fl
