// Training workloads: the FedTiny pipeline at the tiny preset
// (fedtiny_tiny) and a cross-device fleet on the int8 codec (fleet_int8).
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>
#include <utility>

#include "baselines/init_masks.h"
#include "bench.h"
#include "core/fedtiny.h"
#include "core/pretrain.h"
#include "data/synthetic.h"
#include "fl/codec.h"
#include "fl/trainer.h"
#include "harness/scale.h"
#include "nn/models.h"
#include "probes.h"
#include "tensor/parallel.h"

namespace e2ebench {

namespace {

using namespace fedtiny;

constexpr double kTargetDensity = 0.05;
constexpr float kCsrThreshold = 0.5f;
constexpr int kSetupReps = 9;
constexpr int kMaxPipelineReps = 8;

/// A trainer with round marks taken from the library's round hooks:
/// before_round (round start) and after_aggregate (the server has folded
/// and averaged; the hook itself is the method's mask adjustment).
template <typename Base>
class Marked : public Base {
 public:
  struct Marks {
    int64_t start_ns = 0;
    int64_t aggregated_ns = 0;
    int64_t adjusted_ns = 0;
  };

  template <typename... Args>
  explicit Marked(const Tracer& clock, Args&&... args)
      : Base(std::forward<Args>(args)...), clock_(clock) {}

  [[nodiscard]] const std::vector<Marks>& marks() const { return marks_; }

 protected:
  void before_round(int round) override {
    marks_.push_back({clock_.now_ns(), 0, 0});
    Base::before_round(round);
  }
  void after_aggregate(int round) override {
    marks_.back().aggregated_ns = clock_.now_ns();
    Base::after_aggregate(round);
    marks_.back().adjusted_ns = clock_.now_ns();
  }

 private:
  const Tracer& clock_;
  std::vector<Marks> marks_;
};

/// What one timed training run produced.
struct RunOutcome {
  double pipeline_s = 0.0;
  double run_s = 0.0;
  double accuracy = 0.0;
  double pretrain_s = 0.0;
  double selection_s = 0.0;
  std::vector<double> round_ms;
  std::vector<fl::RoundStats> history;
};

/// Round spans from the marks, with train/agg children placed from the
/// RoundStats wall split (marked derived: the library times them, the
/// benchmark only positions them just before the aggregation mark).
template <typename Trainer>
void round_spans(Tracer& tracer, const Trainer& trainer, int run_span, int64_t run_end_ns,
                 uint64_t group_base, const char* adjust_name, RunOutcome& out) {
  const auto& marks = trainer.marks();
  const auto& hist = trainer.history();
  for (size_t r = 0; r < marks.size(); ++r) {
    const int64_t end = r + 1 < marks.size() ? marks[r + 1].start_ns : run_end_ns;
    out.round_ms.push_back(static_cast<double>(end - marks[r].start_ns) / 1e6);
    if (!tracer.on() || r >= hist.size()) continue;
    const uint64_t group = group_base + r + 1;
    const int round = tracer.add("fl.round", marks[r].start_ns, end, run_span, group);
    const auto agg_ns = static_cast<int64_t>(hist[r].wall_agg_s * 1e9);
    const auto train_ns = static_cast<int64_t>(hist[r].wall_train_s * 1e9);
    const int64_t agg_end = marks[r].aggregated_ns;
    const int64_t train_start = std::max(marks[r].start_ns, agg_end - agg_ns - train_ns);
    tracer.add("fl.broadcast", marks[r].start_ns, train_start, round, group, 0, true);
    tracer.add("fl.train", train_start, agg_end - agg_ns, round, group, 0, true);
    tracer.add("fl.agg", agg_end - agg_ns, agg_end, round, group, 0, true);
    tracer.add(adjust_name, agg_end, marks[r].adjusted_ns, round, group);
    tracer.add("fl.record_eval", marks[r].adjusted_ns, end, round, group);
  }
}

/// End-to-end metrics shared by both training workloads.
void report_training(const std::vector<double>& setup_s, const std::vector<RunOutcome>& runs,
                     int rounds, Report& report) {
  std::vector<double> pipeline, run_s, p50, p99, uplinks_per_s;
  double comm = 0.0;
  int64_t participants = 0, failed = 0;
  for (const auto& r : runs) {
    pipeline.push_back(r.pipeline_s);
    run_s.push_back(r.run_s);
    p50.push_back(quantile(r.round_ms, 0.5));
    p99.push_back(quantile(r.round_ms, 0.99));
    int64_t run_folded = 0;
    for (const auto& h : r.history) {
      comm += h.comm_bytes;
      participants += h.participants;
      failed += h.rejected_uplinks + h.nonfinite_dropped;
      run_folded += h.aggregated;
    }
    uplinks_per_s.push_back(static_cast<double>(run_folded) / r.run_s);
  }
  report.attempted = participants;
  report.failed = failed;
  report.e2e("setup_s", median(setup_s), "s");
  report.e2e("pipeline_s", median(pipeline), "s");
  report.e2e("rounds_per_s", static_cast<double>(rounds) / median(run_s), "1/s");
  report.e2e("accuracy", runs.front().accuracy, "fraction");
  report.e2e("comm_bytes_per_round",
             comm / static_cast<double>(rounds) / static_cast<double>(runs.size()), "B");
  report.e2e("peak_rss_mb", peak_rss_mb(), "MiB");
  report.e2e("ok_frac",
             participants > 0 ? 1.0 - static_cast<double>(failed) / static_cast<double>(participants)
                              : 0.0,
             "fraction");
  // Round latency: each run's quantiles over its rounds, median over runs.
  report.e2e("p50_ms", median(p50), "ms");
  report.e2e("p99_ms", median(p99), "ms");
  report.e2e("max_qps_at_slo", median(uplinks_per_s), "1/s");
}

/// Per-layer metrics read off the runs themselves (RoundStats and spans).
void report_run_layers(const std::vector<RunOutcome>& runs, Report& report) {
  std::vector<double> train_s, agg_s, other_s, pretrain_s, selection_s;
  int64_t uplinks = 0, participants = 0;
  for (const auto& r : runs) {
    double t = 0.0, a = 0.0;
    for (const auto& h : r.history) {
      t += h.wall_train_s;
      a += h.wall_agg_s;
    }
    if (&r == &runs.front()) {
      for (const auto& h : r.history) {
        uplinks += h.aggregated;
        participants += h.participants;
      }
    }
    train_s.push_back(t);
    agg_s.push_back(a);
    other_s.push_back(r.run_s - t - a);
    pretrain_s.push_back(r.pretrain_s);
    selection_s.push_back(r.selection_s);
  }
  report.layer("core.pretrain_s", median(pretrain_s), "s");
  report.layer("core.bn_selection_s", median(selection_s), "s");
  report.layer("fl.train_s", median(train_s), "s");
  report.layer("fl.agg_s", median(agg_s), "s");
  report.layer("fl.round_other_s", median(other_s), "s");
  report.layer("fl.uplinks", static_cast<double>(uplinks), "count");
  report.layer("fl.accept_frac",
               participants > 0 ? static_cast<double>(uplinks) / static_cast<double>(participants)
                                : 0.0,
               "ratio");
}

bool timed_out(Clock::time_point deadline, size_t reps) {
  return reps >= static_cast<size_t>(kMaxPipelineReps) || Clock::now() >= deadline;
}

// ---- fedtiny_tiny -----------------------------------------------------------------

struct TinyInputs {
  data::TrainTest data;
  data::Dataset public_data;
  std::vector<std::vector<int64_t>> partitions;
  std::unique_ptr<nn::Model> model;
};

constexpr int kTinyClients = 10;

TinyInputs tiny_inputs(const harness::ScaleConfig& scale, Tracer& tracer) {
  TinyInputs in;
  const auto spec =
      data::spec_by_name("cifar10s", scale.image_size, scale.train_size, scale.test_size);
  {
    Scoped s(tracer, "data.synthesize");
    in.data = data::make_synthetic(spec, kTaskSeed);
  }
  {
    Scoped s(tracer, "data.partition");
    Rng part_rng(kTaskSeed, /*stream=*/0xd1d1);
    in.partitions = data::dirichlet_partition(in.data.train.labels, kTinyClients, 0.5, part_rng);
    Rng pub_rng(kTaskSeed, /*stream=*/0x9b1c);
    auto perm = pub_rng.permutation(in.data.train.size());
    perm.resize(static_cast<size_t>(std::min(scale.public_size, in.data.train.size())));
    in.public_data = in.data.train.subset(perm);
  }
  {
    Scoped s(tracer, "nn.build");
    in.model = nn::make_resnet18(tiny_model_config(scale));
  }
  return in;
}

}  // namespace

nn::ModelConfig tiny_model_config(const harness::ScaleConfig& scale) {
  nn::ModelConfig mc;
  mc.num_classes = 10;
  mc.image_size = scale.image_size;
  mc.width_mult = scale.width_mult;
  mc.seed = kTaskSeed;
  return mc;
}

void run_fedtiny_tiny(const Options& opt, Tracer& tracer, Report& report) {
  check_thread_budget(0, "fedtiny_tiny");
  const int64_t window_start = tracer.now_ns();
  const auto scale = harness::ScaleConfig::tiny();
  const auto mc = tiny_model_config(scale);
  const nn::ModelFactory factory = nn::resnet18_factory(mc);

  std::vector<double> setup_s;
  TinyInputs in;
  for (int r = 0; r < kSetupReps; ++r) {
    const auto t0 = Clock::now();
    in = tiny_inputs(scale, tracer);
    setup_s.push_back(seconds_between(t0, Clock::now()));
  }

  fl::FLConfig flc;
  flc.num_clients = kTinyClients;
  flc.rounds = scale.rounds;
  flc.local_epochs = scale.local_epochs;
  flc.batch_size = scale.batch_size;
  flc.lr = scale.lr;
  flc.seed = opt.seed;
  flc.sparse_exchange = true;  // codec "none": the v1 wire
  flc.sparse_exec_max_density = kCsrThreshold;
  flc.sparse_training = true;
  flc.parallel_clients = Executor::instance().thread_budget() + 1;

  core::FedTinyConfig ftc;
  // The pool rule of the paper (C* = 0.1 / d, clamped to [4, 4 * pool]).
  ftc.selection.pool.pool_size = static_cast<int>(
      std::clamp(0.1 / kTargetDensity, 4.0, 4.0 * static_cast<double>(scale.pool_size)));
  ftc.selection.pool.target_density = kTargetDensity;
  ftc.selection.batch_size = scale.batch_size;
  ftc.selection.seed = opt.seed;
  ftc.schedule.granularity = core::Granularity::kBlock;
  ftc.schedule.backward_order = true;
  ftc.schedule.delta_r = scale.delta_r;
  ftc.schedule.r_stop = scale.r_stop;
  ftc.schedule.num_blocks = 5;
  const core::PretrainConfig pcfg{scale.pretrain_epochs, scale.batch_size, scale.lr, 0.9f, 5e-4f,
                                  kTaskSeed};

  using Trainer = Marked<core::FedTinyTrainer>;
  std::vector<RunOutcome> runs;
  std::unique_ptr<nn::Model> last_model;  // declared first: outlives the trainer
  std::unique_ptr<Trainer> last;
  const auto deadline = Clock::now() + std::chrono::duration_cast<Clock::duration>(
                                           std::chrono::duration<double>(opt.seconds));
  do {
    last.reset();
    // The first run trains the model set-up built; later ones a fresh copy.
    auto model = runs.empty() ? std::move(in.model) : factory();
    RunOutcome out;
    const uint64_t group_base = runs.size() * 1000;
    const auto t0 = Clock::now();
    const int pipe = tracer.begin("core.pipeline", -1, group_base);
    {
      Scoped s(tracer, "core.pretrain", pipe, group_base);
      core::server_pretrain(*model, in.public_data, pcfg);
    }
    const auto t1 = Clock::now();
    auto trainer = std::make_unique<Trainer>(tracer, *model, in.data.train, in.data.test,
                                             in.partitions, flc, ftc);
    {
      Scoped s(tracer, "core.bn_selection", pipe, group_base);
      trainer->initialize();
    }
    trainer->set_model_factory(factory);
    const auto t2 = Clock::now();
    const int run = tracer.begin("fl.run", pipe, group_base);
    out.accuracy = trainer->run();
    const auto t3 = Clock::now();
    tracer.end(run);
    tracer.end(pipe);
    out.pipeline_s = seconds_between(t0, t3);
    out.run_s = seconds_between(t2, t3);
    out.pretrain_s = seconds_between(t0, t1);
    out.selection_s = seconds_between(t1, t2);
    out.history = trainer->history();
    round_spans(tracer, *trainer, run, tracer.to_ns(t3), group_base, "core.grow_prune", out);

    check(static_cast<int>(out.history.size()) == scale.rounds,
          "fedtiny_tiny: " + std::to_string(out.history.size()) + " rounds recorded, want " +
              std::to_string(scale.rounds));
    check(std::abs(trainer->mask().density() - kTargetDensity) <= 1e-3,
          "fedtiny_tiny: final density " + std::to_string(trainer->mask().density()) +
              " not within 1e-3 of " + std::to_string(kTargetDensity));
    check(std::isfinite(out.accuracy) && out.accuracy > 0.1,
          "fedtiny_tiny: accuracy " + std::to_string(out.accuracy) + " not above chance (0.1)");
    if (!runs.empty()) {
      check(out.accuracy == runs.front().accuracy,
            "fedtiny_tiny: accuracy differs between repetitions of one seed");
    }
    std::fprintf(stderr, "run %zu: pipeline %.3f s, run() %.3f s, accuracy %.4f\n", runs.size(),
                 out.pipeline_s, out.run_s, out.accuracy);
    runs.push_back(std::move(out));
    last_model = std::move(model);
    last = std::move(trainer);
  } while (!timed_out(deadline, runs.size()));
  const int64_t window_end = tracer.now_ns();
  report.checks.push_back("16 rounds, final density within 1e-3 of 0.05, accuracy above chance, "
                          "bitwise-equal accuracy over " + std::to_string(runs.size()) + " runs");
  report_training(setup_s, runs, scale.rounds, report);
  if (!opt.trace) return;

  report_run_layers(runs, report);
  report.layer("core.candidates",
               static_cast<double>(last->selection_report().candidate_losses.size()), "count");
  const double coverage = summarize_trace(tracer, window_start, window_end, opt.trace_out);
  report.layer("trace.coverage", coverage, "ratio");
  report.layer("trace.unattributed_s",
               (1.0 - coverage) * static_cast<double>(window_end - window_start) / 1e9, "s");

  // Replays at the workload's shapes. Client lanes held the whole budget,
  // so kernels ran inline: probe with budget 0.
  ScopedBudget budget(0);
  const auto& prunable = last->model().prunable_indices();
  const auto& state = last->global_state();
  const auto& mask = last->mask();
  const int64_t mean_client = in.data.train.size() / kTinyClients;
  probe_codec(state, mask, prunable, flc.codec, mean_client, opt.seed, report);
  probe_fold(state, mask, prunable, kTinyClients, report);
  const data::PartitionArena arena(in.partitions);
  const data::PartitionedSource source(in.data.train, arena);
  probe_batch(source, flc.batch_size, report);
  auto replica = factory();
  replica->set_state(state);
  probe_install(*replica, mask, kCsrThreshold, true, report);
  std::vector<int64_t> ids(static_cast<size_t>(flc.batch_size));
  for (size_t i = 0; i < ids.size(); ++i) ids[i] = static_cast<int64_t>(i);
  probe_train_step(*replica, mask, data::gather_batch(in.data.train, ids), flc, report);
  probe_serving(opt, report);
}

// ---- fleet_int8 -------------------------------------------------------------------

namespace {

constexpr int kFleetClients = 100000;
constexpr int kFleetCohort = 64;
constexpr int64_t kFleetSamples = 8;
constexpr int kFleetRounds = 40;

struct FleetInputs {
  std::shared_ptr<const data::ClientDataSource> source;
  data::Dataset test;
  data::Dataset public_data;
  std::unique_ptr<nn::Model> model;
};

FleetInputs fleet_inputs(const harness::ScaleConfig& scale, Tracer& tracer) {
  FleetInputs in;
  const auto spec =
      data::spec_by_name("cifar10s", scale.image_size, scale.train_size, scale.test_size);
  {
    Scoped s(tracer, "data.synthesize");
    in.source = std::make_shared<data::SyntheticFleetSource>(spec, kTaskSeed, kFleetClients,
                                                             kFleetSamples);
    auto data = data::make_synthetic(spec, kTaskSeed);
    in.test = std::move(data.test);
    // The server's public set: the first public_size synthetic train rows.
    std::vector<int64_t> ids(static_cast<size_t>(std::min(scale.public_size, data.train.size())));
    for (size_t i = 0; i < ids.size(); ++i) ids[i] = static_cast<int64_t>(i);
    in.public_data = data.train.subset(ids);
  }
  {
    Scoped s(tracer, "nn.build");
    in.model = nn::make_resnet18(tiny_model_config(scale));
  }
  return in;
}

}  // namespace

void run_fleet_int8(const Options& opt, Tracer& tracer, Report& report) {
  check_thread_budget(0, "fleet_int8");
  const int64_t window_start = tracer.now_ns();
  const auto scale = harness::ScaleConfig::tiny();
  const auto mc = tiny_model_config(scale);
  const nn::ModelFactory factory = nn::resnet18_factory(mc);

  std::vector<double> setup_s;
  FleetInputs in;
  for (int r = 0; r < kSetupReps; ++r) {
    const auto t0 = Clock::now();
    in = fleet_inputs(scale, tracer);
    setup_s.push_back(seconds_between(t0, Clock::now()));
  }

  fl::FLConfig flc;
  flc.num_clients = kFleetClients;
  flc.clients_per_round = kFleetCohort;
  flc.rounds = kFleetRounds;
  flc.local_epochs = 1;
  flc.batch_size = scale.batch_size;
  flc.lr = scale.lr;
  flc.seed = opt.seed;
  flc.sparse_exchange = true;
  flc.codec = fl::codec::config_from_name("int8");
  flc.sparse_exec_max_density = kCsrThreshold;
  flc.sparse_training = true;
  flc.parallel_clients = Executor::instance().thread_budget() + 1;

  const core::PretrainConfig pcfg{scale.pretrain_epochs, scale.batch_size, scale.lr, 0.9f, 5e-4f,
                                  kTaskSeed};
  prune::MaskSet mask;

  using Trainer = Marked<fl::FederatedTrainer>;
  std::vector<RunOutcome> runs;
  std::unique_ptr<nn::Model> last_model;  // declared first: outlives the trainer
  std::unique_ptr<Trainer> last;
  const auto deadline = Clock::now() + std::chrono::duration_cast<Clock::duration>(
                                           std::chrono::duration<double>(opt.seconds));
  do {
    last.reset();
    // The first run trains the model set-up built; later ones a fresh copy.
    auto model = runs.empty() ? std::move(in.model) : factory();
    RunOutcome out;
    const uint64_t group_base = runs.size() * 1000;
    const auto t0 = Clock::now();
    const int pipe = tracer.begin("core.pipeline", -1, group_base);
    {
      Scoped s(tracer, "core.pretrain", pipe, group_base);
      core::server_pretrain(*model, in.public_data, pcfg);
    }
    const auto t1 = Clock::now();
    {
      Scoped s(tracer, "prune.initial_mask", pipe, group_base);
      mask = baselines::flpqsu_initial_mask(*model, kTargetDensity);
    }
    auto trainer = std::make_unique<Trainer>(tracer, *model, in.source, in.test, flc);
    trainer->set_model_factory(factory);
    trainer->set_mask(mask);
    const auto t2 = Clock::now();
    const int run = tracer.begin("fl.run", pipe, group_base);
    out.accuracy = trainer->run();
    const auto t3 = Clock::now();
    tracer.end(run);
    tracer.end(pipe);
    out.pipeline_s = seconds_between(t0, t3);
    out.run_s = seconds_between(t2, t3);
    out.pretrain_s = seconds_between(t0, t1);
    out.history = trainer->history();
    round_spans(tracer, *trainer, run, tracer.to_ns(t3), group_base, "fl.mask_apply", out);

    check(static_cast<int>(out.history.size()) == kFleetRounds, "fleet_int8: round count");
    for (const auto& h : out.history) {
      check(h.aggregated == kFleetCohort,
            "fleet_int8: round " + std::to_string(h.round) + " aggregated " +
                std::to_string(h.aggregated) + " of " + std::to_string(kFleetCohort));
    }
    check(trainer->mask() == mask, "fleet_int8: static mask changed during training");
    check(std::isfinite(out.accuracy) && out.accuracy > 0.0, "fleet_int8: accuracy not finite");
    if (!runs.empty()) {
      check(out.accuracy == runs.front().accuracy,
            "fleet_int8: accuracy differs between repetitions of one seed");
    }
    std::fprintf(stderr, "run %zu: pipeline %.3f s, run() %.3f s, accuracy %.4f\n", runs.size(),
                 out.pipeline_s, out.run_s, out.accuracy);
    runs.push_back(std::move(out));
    last_model = std::move(model);
    last = std::move(trainer);
  } while (!timed_out(deadline, runs.size()));
  const int64_t window_end = tracer.now_ns();
  report.checks.push_back("every round folded 64 of 64 uplinks, mask density unchanged, "
                          "bitwise-equal accuracy over " + std::to_string(runs.size()) + " runs");
  report_training(setup_s, runs, kFleetRounds, report);
  if (!opt.trace) return;

  report_run_layers(runs, report);
  const double coverage = summarize_trace(tracer, window_start, window_end, opt.trace_out);
  report.layer("trace.coverage", coverage, "ratio");
  report.layer("trace.unattributed_s",
               (1.0 - coverage) * static_cast<double>(window_end - window_start) / 1e9, "s");

  ScopedBudget budget(0);
  const auto& prunable = last->model().prunable_indices();
  const auto& state = last->global_state();
  probe_codec(state, mask, prunable, flc.codec, kFleetSamples, opt.seed, report);
  probe_fold(state, mask, prunable, kFleetCohort, report);
  probe_batch(*in.source, flc.batch_size, report);
  auto replica = factory();
  replica->set_state(state);
  probe_install(*replica, mask, kCsrThreshold, true, report);
  std::vector<int64_t> ids(static_cast<size_t>(kFleetSamples));
  for (size_t i = 0; i < ids.size(); ++i) ids[i] = static_cast<int64_t>(i);
  probe_train_step(*replica, mask, in.source->gather(0, ids), flc, report);
}

}  // namespace e2ebench
