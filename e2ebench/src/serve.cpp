// serve_swap: an open loop of Poisson arrivals into InferenceServer while a
// publisher thread hot-swaps the two sparse tiers from FTSPRS01 checkpoints.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <thread>

#include "baselines/init_masks.h"
#include "bench.h"
#include "core/pretrain.h"
#include "data/client_source.h"
#include "data/synthetic.h"
#include "fl/payload.h"
#include "harness/scale.h"
#include "nn/conv2d.h"
#include "nn/fusion.h"
#include "nn/models.h"
#include "probes.h"
#include "serve/server.h"
#include "tensor/rng.h"

namespace e2ebench {

namespace {

using namespace fedtiny;

constexpr int kSetupReps = 3;
constexpr int kServeBudget = 1;       // Executor budget: kernel lanes of the batch worker
constexpr int kThreadsStarted = 3;    // generator + publisher + one batch worker
constexpr double kLatencyRate = 2000.0;
constexpr double kLatencyShare = 0.25;  // of --seconds; the ladders get the rest
constexpr double kSloP99Ms = 10.0;
constexpr double kLadder[] = {1500.0, 2000.0, 2500.0, 3000.0, 3500.0};
constexpr auto kSwapPeriod = std::chrono::milliseconds(100);

struct TierSpec {
  const char* name;
  double density;  // 1 = dense
  double share;    // seeded tier mix
};
constexpr TierSpec kTiers[] = {{"dense", 1.0, 0.2}, {"d10", 0.10, 0.4}, {"d05", 0.05, 0.4}};
constexpr int kNumTiers = 3;
// probe_serving: 1 s at 2000 req/s, then one ladder.
constexpr double kProbeSessionSeconds = 5.0;

struct Checkpoints {
  std::string path[kNumTiers];
  fl::SparseStatePayload payload[kNumTiers];
  prune::MaskSet mask[kNumTiers];
  int64_t bytes[kNumTiers] = {};
};

/// One request of the arrival schedule and what came back.
struct Request {
  double due_ms = 0.0;  // offset from the phase start
  int tier = 0;
  int image = 0;
  double lateness_ms = 0.0;
  std::future<serve::InferResult> future;
  serve::InferResult result;
  Clock::time_point sent{};
};

struct Publish {
  uint64_t version = 0;
  int tier = 0;
  Clock::time_point start{}, end{};
};

/// Pretrain a dense model as the tiny preset does, derive the d=0.10 and d=0.05 tiers by
/// magnitude pruning, and write all three as FTSPRS01 checkpoints.
Checkpoints build_checkpoints(const data::Dataset& public_data,
                              const harness::ScaleConfig& scale, const std::string& dir,
                              Tracer& tracer) {
  Checkpoints ck;
  std::unique_ptr<nn::Model> model;
  {
    Scoped s(tracer, "nn.build");
    model = nn::make_resnet18(tiny_model_config(scale));
  }
  {
    Scoped s(tracer, "core.pretrain");
    core::server_pretrain(*model, public_data,
                          {scale.pretrain_epochs, scale.batch_size, scale.lr, 0.9f, 5e-4f, kTaskSeed});
  }
  const auto dense_state = model->state();
  for (int t = 0; t < kNumTiers; ++t) {
    {
      Scoped s(tracer, "prune.magnitude");
      model->set_state(dense_state);
      ck.mask[t] = kTiers[t].density >= 1.0
                       ? prune::MaskSet::ones_like(*model)
                       : baselines::flpqsu_initial_mask(*model, kTiers[t].density);
      ck.payload[t] = fl::build_sparse_state(model->state(), ck.mask[t], model->prunable_indices());
    }
    Scoped s(tracer, "io.checkpoint_save");
    ck.path[t] = dir + "/" + kTiers[t].name + ".ftsprs";
    check(fl::save_sparse_checkpoint(ck.path[t], ck.payload[t]), "cannot write " + ck.path[t]);
    ck.bytes[t] = static_cast<int64_t>(std::filesystem::file_size(ck.path[t]));
  }
  return ck;
}

std::unique_ptr<serve::InferenceServer> make_server(const nn::ModelFactory& factory) {
  serve::ServerConfig cfg;
  cfg.factory = factory;
  for (const auto& t : kTiers) cfg.tiers.emplace_back(t.name);
  cfg.workers = 1;
  cfg.batcher.max_batch = 32;
  cfg.sparse_max_density = 0.5f;
  cfg.fuse_conv_relu = true;
  cfg.warm_batch = 32;
  return std::make_unique<serve::InferenceServer>(cfg);
}

Tensor image_tensor(const data::Dataset& d, int i) {
  const int64_t n = d.channels() * d.height() * d.width();
  Tensor t({d.channels(), d.height(), d.width()});
  std::memcpy(t.data(), d.images.data() + i * n, static_cast<size_t>(n) * sizeof(float));
  return t;
}

/// Seeded Poisson schedule: exponential gaps at `rate`, a uniform test
/// image and a tier drawn from the mix.
std::vector<Request> schedule(uint64_t seed, uint64_t phase, double rate, double seconds,
                              int images) {
  Rng rng(seed, /*stream=*/0x5e7e + phase);
  std::vector<Request> out;
  double t = 0.0;
  while (true) {
    t += -std::log(1.0 - rng.uniform()) / rate * 1e3;
    if (t >= seconds * 1e3) break;
    Request r;
    r.due_ms = t;
    r.image = static_cast<int>(rng.uniform_int(images));
    const double u = rng.uniform();
    double acc = 0.0;
    r.tier = kNumTiers - 1;
    for (int k = 0; k < kNumTiers; ++k) {
      acc += kTiers[k].share;
      if (u < acc) {
        r.tier = k;
        break;
      }
    }
    out.push_back(std::move(r));
  }
  return out;
}

/// Send every request at its due time from one generator thread, then wait
/// for all responses. The generator sleeps rather than spins, so it takes no
/// core from the server; its wake-up lateness counts in every latency.
void drive(serve::InferenceServer& server, std::vector<Request>& reqs,
           const std::vector<Tensor>& images) {
  const auto t0 = Clock::now() + std::chrono::milliseconds(2);
  std::thread generator([&] {
    for (auto& r : reqs) {
      const auto due = t0 + std::chrono::duration_cast<Clock::duration>(
                                std::chrono::duration<double, std::milli>(r.due_ms));
      std::this_thread::sleep_until(due);
      r.sent = Clock::now();
      r.lateness_ms = ms_between(due, r.sent);
      r.future = server.submit_to(kTiers[r.tier].name, images[static_cast<size_t>(r.image)]);
    }
  });
  generator.join();
  for (auto& r : reqs) r.result = r.future.get();
}

double latency_ms(const Request& r) { return r.lateness_ms + r.result.total_ms; }

/// The publisher thread: stopped and joined on destruction too, so an
/// exception in the timed phase cannot leave it running.
class Publisher {
 public:
  template <typename Fn>
  explicit Publisher(Fn&& body) : thread_([this, body] { body(stop_); }) {}
  ~Publisher() { stop(); }
  Publisher(const Publisher&) = delete;
  Publisher& operator=(const Publisher&) = delete;

  void stop() {
    stop_.store(true);
    if (thread_.joinable()) thread_.join();
  }

 private:
  std::atomic<bool> stop_{false};
  std::thread thread_;  // declared after stop_, which it reads
};

/// One rung of one ladder: its p99, and the median latency of its last
/// quarter, which exceeds the limit when the backlog grows.
struct Rung {
  double p99 = 0.0;
  double tail_p50 = 0.0;
};

Rung judge(const std::vector<Request>& reqs) {
  std::vector<double> all, tail;
  for (size_t i = 0; i < reqs.size(); ++i) {
    const double l = reqs[i].result.ok ? latency_ms(reqs[i]) : 1e9;  // a failure misses
    all.push_back(l);
    if (i >= reqs.size() * 3 / 4) tail.push_back(l);
  }
  return {quantile(all, 0.99), median(tail)};
}

/// Capacity from the rung-wise medians over all ladders (so one disturbed
/// ladder does not move it): the highest rate whose p99 and tail meet the
/// limit, interpolated linearly on p99 towards the first failing rate.
double capacity(const std::vector<std::vector<Rung>>& ladders) {
  const size_t n = std::size(kLadder);
  double best = 0.0;
  double prev_p99 = 0.0;
  for (size_t i = 0; i < n; ++i) {
    std::vector<double> p99, tail;
    for (const auto& ladder : ladders) {
      p99.push_back(ladder[i].p99);
      tail.push_back(ladder[i].tail_p50);
    }
    const double p = median(p99);
    std::fprintf(stderr, "rung %6.0f req/s: median p99 %8.3f ms, tail p50 %8.3f ms\n", kLadder[i],
                 p, median(tail));
    if (p > kSloP99Ms || median(tail) > kSloP99Ms) {
      if (i == 0) return kLadder[0] * kSloP99Ms / p;
      const double frac = p > prev_p99 ? (kSloP99Ms - prev_p99) / (p - prev_p99) : 0.0;
      return kLadder[i - 1] + std::clamp(frac, 0.0, 1.0) * (kLadder[i] - kLadder[i - 1]);
    }
    best = kLadder[i];
    prev_p99 = p;
  }
  return best;
}

/// The serving session behind serve_swap. `full` is the workload itself:
/// repeated set-up, end-to-end metrics, the trace summary and every probe.
/// Otherwise it is a short session (one set-up, --seconds sized by the
/// caller) that reports only the serve.* and io.* per-layer metrics.
void serve_session(const Options& opt, Tracer& tracer, Report& report, bool full) {
  ScopedBudget budget(kServeBudget);
  check_thread_budget(kThreadsStarted, "serve_swap");
  const int64_t window_start = tracer.now_ns();
  const auto scale = harness::ScaleConfig::tiny();
  const nn::ModelFactory factory = nn::resnet18_factory(tiny_model_config(scale));
  const std::string dir = opt.work_dir + "/serve-" + std::to_string(opt.seed);
  std::filesystem::create_directories(dir);

  // ---- Set-up, repeated: task data, checkpoints, server, first publishes
  // and a warm-up burst.
  std::vector<double> setup_s;
  data::TrainTest task;
  Checkpoints ck;
  std::unique_ptr<serve::InferenceServer> server;
  std::vector<Tensor> images;
  std::vector<Publish> publishes;
  for (int rep = 0; rep < (full ? kSetupReps : 1); ++rep) {
    server.reset();
    publishes.clear();
    const auto t0 = Clock::now();
    {
      Scoped s(tracer, "data.synthesize");
      task = data::make_synthetic(
          data::spec_by_name("cifar10s", scale.image_size, scale.train_size, scale.test_size),
          kTaskSeed);
    }
    std::vector<int64_t> pub(static_cast<size_t>(scale.public_size));
    for (size_t i = 0; i < pub.size(); ++i) pub[i] = static_cast<int64_t>(i);
    ck = build_checkpoints(task.train.subset(pub), scale, dir, tracer);
    {
      Scoped s(tracer, "serve.start");
      server = make_server(factory);
      for (int t = 0; t < kNumTiers; ++t) {
        Publish p{0, t, Clock::now(), {}};
        p.version = server->publish_checkpoint(kTiers[t].name, ck.path[t]);
        p.end = Clock::now();
        check(p.version != 0, std::string("first publish of tier ") + kTiers[t].name);
        publishes.push_back(p);
      }
    }
    images.clear();
    for (int i = 0; i < static_cast<int>(task.test.size()); ++i) {
      images.push_back(image_tensor(task.test, i));
    }
    {
      Scoped s(tracer, "serve.warmup");
      auto warm = schedule(opt.seed, 99, kLatencyRate, 0.1, static_cast<int>(images.size()));
      drive(*server, warm, images);
    }
    setup_s.push_back(seconds_between(t0, Clock::now()));
  }

  // ---- Timed phases, with the publisher re-publishing both sparse tiers
  // every 100 ms from their checkpoint files.
  std::mutex pub_mu;
  Publisher publisher([&](const std::atomic<bool>& stop) {
    auto next = Clock::now() + kSwapPeriod;
    while (!stop.load()) {
      std::this_thread::sleep_until(next);
      next += kSwapPeriod;
      for (int t = 1; t < kNumTiers; ++t) {
        Publish p{0, t, Clock::now(), {}};
        p.version = server->publish_checkpoint(kTiers[t].name, ck.path[t]);
        p.end = Clock::now();
        std::lock_guard<std::mutex> lk(pub_mu);
        publishes.push_back(p);
      }
    }
  });

  // Phase 1: latency at a fixed rate, in 1 s windows. Phase 2: full rate
  // ladders in 1 s rungs. Both are sized from --seconds, so a run's request
  // count does not depend on how fast it went.
  const int n_images = static_cast<int>(images.size());
  const int windows = std::max(1, static_cast<int>(std::lround(kLatencyShare * opt.seconds)));
  const int ladders = std::max(
      1, static_cast<int>((1.0 - kLatencyShare) * opt.seconds / std::size(kLadder)));
  std::vector<std::vector<Request>> lat;
  std::vector<std::vector<Request>> ladder;
  std::vector<std::vector<Rung>> rungs;  // [ladder][rate]
  const auto timed_start = Clock::now();
  {
    Scoped s(tracer, "serve.latency_phase");
    for (int w = 0; w < windows; ++w) {
      lat.push_back(schedule(opt.seed, static_cast<uint64_t>(w), kLatencyRate, 1.0, n_images));
      drive(*server, lat.back(), images);
    }
  }
  {
    Scoped s(tracer, "serve.ladder");
    uint64_t phase = 1000;
    for (int l = 0; l < ladders; ++l) {
      rungs.emplace_back();
      for (double rate : kLadder) {
        ladder.push_back(schedule(opt.seed, phase++, rate, 1.0, n_images));
        drive(*server, ladder.back(), images);
        rungs.back().push_back(judge(ladder.back()));
      }
    }
  }
  publisher.stop();
  const auto timed_end = Clock::now();
  server->shutdown();

  // ---- Output checks: every response ok, served by a version published to
  // its tier, and byte-equal to a fresh single-threaded forward of that
  // version's checkpoint.
  std::map<uint64_t, int> version_tier;
  for (const auto& p : publishes) {
    check(p.version != 0, std::string("publish to tier ") + kTiers[p.tier].name + " failed");
    version_tier[p.version] = p.tier;
  }
  std::vector<Request*> all;
  for (auto* phase : {&lat, &ladder}) {
    for (auto& batch : *phase) {
      for (auto& r : batch) all.push_back(&r);
    }
  }
  int64_t ok = 0, correct = 0;
  {
    Scoped s(tracer, "serve.oracle_check");
    ScopedBudget single(0);
    serve::ServableConfig sc;
    sc.factory = factory;
    std::shared_ptr<const serve::ServableModel> oracle[kNumTiers];
    for (int t = 0; t < kNumTiers; ++t) {
      oracle[t] = serve::ServableModel::load(ck.path[t], sc, 0);
      check(oracle[t] != nullptr, "oracle load " + ck.path[t]);
    }
    std::map<std::pair<int, int>, Tensor> expected;
    for (const Request* r : all) {
      const auto& res = r->result;
      if (!res.ok) continue;
      ++ok;
      const auto it = version_tier.find(res.version);
      check(it != version_tier.end() && it->second == r->tier && res.tier == r->tier,
            "response served by version " + std::to_string(res.version) +
                " not published to its tier");
      auto& want = expected[{r->tier, r->image}];
      if (want.empty()) {
        Tensor x = images[static_cast<size_t>(r->image)];
        x.reshape({1, x.dim(0), x.dim(1), x.dim(2)});
        want = oracle[r->tier]->forward(x);
      }
      check(res.logits.numel() == want.numel() &&
                std::memcmp(res.logits.data(), want.data(),
                            static_cast<size_t>(want.numel()) * sizeof(float)) == 0,
            "served logits differ from the single-threaded oracle (tier " +
                std::string(kTiers[r->tier].name) + ", image " + std::to_string(r->image) + ")");
      if (res.predicted == task.test.labels[static_cast<size_t>(r->image)]) ++correct;
    }
  }
  const auto failed = static_cast<int64_t>(all.size()) - ok;
  check(failed == 0, std::to_string(failed) + " requests failed");
  report.checks.push_back(std::to_string(ok) + " responses ok and memcmp-equal to per-version "
                          "oracles over " + std::to_string(publishes.size()) + " publishes");

  // ---- End-to-end metrics.
  // Latency quantiles per 1 s window (2000 samples: 20 beyond p99), median
  // over windows.
  std::vector<double> p50, p99;
  for (const auto& window : lat) {
    std::vector<double> ms;
    for (const auto& r : window) ms.push_back(latency_ms(r));
    p50.push_back(quantile(ms, 0.5));
    p99.push_back(quantile(ms, 0.99));
  }
  // Deploy latency: publish start to the first response the new version
  // served; swap rounds: both sparse tiers re-published back to back.
  std::map<uint64_t, Clock::time_point> first_served;
  for (const Request* r : all) {
    const auto done = r->sent + std::chrono::duration_cast<Clock::duration>(
                                    std::chrono::duration<double, std::milli>(r->result.total_ms));
    auto [it, fresh] = first_served.emplace(r->result.version, done);
    if (!fresh && done < it->second) it->second = done;
  }
  std::vector<double> deploy_s, round_ms, publish_ms;
  for (size_t i = kNumTiers; i < publishes.size(); ++i) {
    const auto& p = publishes[i];
    publish_ms.push_back(ms_between(p.start, p.end));
    const auto it = first_served.find(p.version);
    if (it != first_served.end()) deploy_s.push_back(seconds_between(p.start, it->second));
    if (p.tier == kNumTiers - 1 && publishes[i - 1].tier == 1) {
      round_ms.push_back(ms_between(publishes[i - 1].start, p.end));
    }
  }
  check(!deploy_s.empty() && !round_ms.empty(), "no hot swap completed during the timed phase");
  if (full) {
    report.attempted = static_cast<int64_t>(all.size());
    report.failed = failed;
    report.e2e("setup_s", median(setup_s), "s");
    report.e2e("pipeline_s", median(deploy_s), "s");
    report.e2e("rounds_per_s", 1e3 / median(round_ms), "1/s");
    report.e2e("accuracy", static_cast<double>(correct) / static_cast<double>(ok), "fraction");
    report.e2e("comm_bytes_per_round", static_cast<double>(ck.bytes[1] + ck.bytes[2]), "B");
    report.e2e("peak_rss_mb", peak_rss_mb(), "MiB");
    report.e2e("ok_frac", static_cast<double>(ok) / static_cast<double>(all.size()), "fraction");
    report.e2e("p50_ms", median(p50), "ms");
    report.e2e("p99_ms", median(p99), "ms");
    report.e2e("max_qps_at_slo", capacity(rungs), "1/s");
  }
  if (!opt.trace) return;

  // ---- Traced run: request and publish spans, then replays.
  uint64_t group = 1;
  for (const Request* r : all) {
    const int64_t sent = tracer.to_ns(r->sent);
    const auto due = sent - static_cast<int64_t>(r->lateness_ms * 1e6);
    const auto queue = static_cast<int64_t>(r->result.queue_ms * 1e6);
    const auto total = static_cast<int64_t>(r->result.total_ms * 1e6);
    const int id = tracer.add("serve.request", due, sent + total, -1, group, 1);
    tracer.add("serve.gen_lag", due, sent, id, group, 1);
    tracer.add("serve.queue", sent, sent + queue, id, group, 1, true);
    tracer.add("serve.service", sent + queue, sent + total, id, group, 1, true);
    ++group;
  }
  for (size_t i = kNumTiers; i < publishes.size(); ++i) {
    tracer.add("serve.publish", tracer.to_ns(publishes[i].start), tracer.to_ns(publishes[i].end),
               -1, group++, 2);
  }
  if (full) {
    const double coverage =
        summarize_trace(tracer, window_start, tracer.to_ns(timed_end), opt.trace_out);
    report.layer("trace.coverage", coverage, "ratio");
    report.layer("trace.unattributed_s",
                 (1.0 - coverage) * seconds_between(timed_start, timed_end), "s");
  }

  std::vector<double> queue_ms, service_ms, lag_ms;
  double inv_batch = 0.0;
  size_t n_lat = 0;
  for (const auto& window : lat) {
    for (const auto& r : window) {
      ++n_lat;
      queue_ms.push_back(r.result.queue_ms);
      service_ms.push_back(r.result.total_ms - r.result.queue_ms);
      lag_ms.push_back(r.lateness_ms);
      inv_batch += 1.0 / static_cast<double>(std::max<int64_t>(r.result.batch_size, 1));
    }
  }
  report.layer("serve.queue_p50_ms", quantile(queue_ms, 0.5), "ms");
  report.layer("serve.queue_p99_ms", quantile(queue_ms, 0.99), "ms");
  report.layer("serve.service_ms", median(service_ms), "ms");
  // Batch-weighted mean: a batch of b requests contributes b * (1/b) = 1.
  report.layer("serve.batch_mean", static_cast<double>(n_lat) / inv_batch, "count");
  report.layer("serve.publish_ms", median(publish_ms), "ms");
  report.layer("serve.publishes", static_cast<double>(publish_ms.size()), "count");
  report.layer("serve.gen_lag_p99_ms", quantile(lag_ms, 0.99), "ms");
  report.layer("serve.gen_lag_max_ms", quantile(lag_ms, 1.0), "ms");

  serve::ServableConfig sc;
  sc.factory = factory;
  for (int t = 0; t < kNumTiers; ++t) {
    const auto servable = serve::ServableModel::load(ck.path[t], sc, 0);
    for (int64_t b : {1, 8, 32}) {
      Tensor x({b, task.test.channels(), task.test.height(), task.test.width()});
      std::memcpy(x.data(), task.test.images.data(), static_cast<size_t>(x.numel()) * sizeof(float));
      report.layer(std::string("serve.forward_ms.") + kTiers[t].name + ".b" + std::to_string(b),
                   time_median_ms(50, [&] { servable->forward(x); }), "ms");
    }
  }
  fl::SparseStatePayload loaded;
  report.layer("io.checkpoint_load_ms", time_median_ms(50, [&] {
                 check(fl::load_sparse_checkpoint(ck.path[2], loaded), "checkpoint reload");
               }), "ms");
  if (!full) return;

  // The d=0.05 tier, configured as ServableModel builds its replicas.
  auto replica = factory();
  std::vector<Tensor> state;
  check(fl::reconstruct_state(ck.payload[2], replica->prunable_indices(), state),
        "d05 payload reconstruct");
  replica->set_state(state);
  nn::fuse_conv_relu(*replica);
  probe_install(*replica, ck.mask[2], 0.5f, false, report);
  for (auto* leaf : replica->leaves()) {
    if (auto* conv = dynamic_cast<nn::Conv2d*>(leaf)) conv->set_retain_eval_workspace(true);
  }
  probe_codec(state, ck.mask[2], replica->prunable_indices(), fl::CodecConfig{}, 0, opt.seed,
              report);
  std::vector<int64_t> all_test(static_cast<size_t>(task.test.size()));
  for (size_t i = 0; i < all_test.size(); ++i) all_test[i] = static_cast<int64_t>(i);
  const data::PartitionArena one_client(std::vector<std::vector<int64_t>>{all_test});
  probe_batch(data::PartitionedSource(task.test, one_client), 8, report);
  std::vector<int64_t> ids(8);
  for (size_t i = 0; i < ids.size(); ++i) ids[i] = static_cast<int64_t>(i);
  probe_eval_forward(*replica, ck.mask[2], data::gather_batch(task.test, ids).x, report);
}

}  // namespace

void run_serve_swap(const Options& opt, Tracer& tracer, Report& report) {
  serve_session(opt, tracer, report, /*full=*/true);
}

void probe_serving(const Options& opt, Report& report) {
  Options session = opt;
  session.seconds = kProbeSessionSeconds;
  Tracer untraced(false);
  serve_session(session, untraced, report, /*full=*/false);
}

}  // namespace e2ebench
