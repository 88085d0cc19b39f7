// Serving-core tests: routing rule, snapshot bitwise correctness, RCU
// retire-after-drain, server lifecycle, Executor lane composition, and the
// concurrent hammer + hot-swap storm with a per-version oracle.
#include "serve/server.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#include "data/synthetic.h"
#include "fl/payload.h"
#include "nn/models.h"
#include "prune/magnitude.h"
#include "serve/registry.h"
#include "serve/servable.h"
#include "tensor/parallel.h"

namespace fedtiny::serve {
namespace {

nn::ModelConfig tiny_config() {
  nn::ModelConfig c;
  c.num_classes = 10;
  c.image_size = 8;
  c.width_mult = 0.0625f;
  c.seed = 7;
  return c;
}

nn::ModelFactory tiny_factory() {
  return [] { return nn::make_resnet18(tiny_config()); };
}

fl::SparseStatePayload tiny_payload(double density) {
  auto model = tiny_factory()();
  auto mask = prune::magnitude_prune_global(*model, density);
  mask.apply(*model);
  return fl::build_sparse_state(model->state(), mask, model->prunable_indices());
}

std::vector<Tensor> tiny_samples(int n) {
  const auto mc = tiny_config();
  auto data = data::make_synthetic(data::cifar10s_spec(mc.image_size, 32, 32), 42);
  std::vector<Tensor> out;
  for (int64_t i = 0; i < n; ++i) {
    const std::vector<int64_t> idx = {i};
    out.push_back(data::gather_batch(data.test, idx).x);
  }
  return out;
}

bool bitwise_equal(const Tensor& a, const Tensor& b) {
  return a.numel() == b.numel() &&
         std::memcmp(a.data(), b.data(), sizeof(float) * static_cast<size_t>(a.numel())) == 0;
}

TEST(RouteByBudget, PureCases) {
  EXPECT_EQ(route_by_budget({}, 1.0), -1);
  const double est[] = {5.0, 2.0, 1.0};
  EXPECT_EQ(route_by_budget(est, 0.0), 0);   // no constraint -> best quality
  EXPECT_EQ(route_by_budget(est, -1.0), 0);
  EXPECT_EQ(route_by_budget(est, 10.0), 0);  // everything fits -> best
  EXPECT_EQ(route_by_budget(est, 3.0), 1);   // first tier that fits
  EXPECT_EQ(route_by_budget(est, 0.5), 2);   // nothing fits -> cheapest
  const double cold[] = {5.0, 0.0, 1.0};
  EXPECT_EQ(route_by_budget(cold, 3.0), 1);  // no estimate -> optimistic fit
}

TEST(ServingStats, PercentilesTrackRecentTraffic) {
  // A full sample buffer of warm-up traffic, then a slow phase a quarter of
  // its size: the percentiles must see the slow phase, not stay frozen on
  // the warm-up.
  ServingStats stats;
  constexpr int kWarm = 1 << 20;
  constexpr int kSlow = 1 << 18;
  for (int i = 0; i < kWarm; ++i) stats.record_served(1.0);
  for (int i = 0; i < kSlow; ++i) stats.record_served(10.0);
  const auto lat = stats.latency();
  EXPECT_EQ(lat.count, static_cast<uint64_t>(kWarm + kSlow));
  EXPECT_EQ(lat.p50_ms, 1.0);
  EXPECT_EQ(lat.p99_ms, 10.0);
  EXPECT_EQ(lat.max_ms, 10.0);
}

TEST(Servable, ForwardBitwiseEqualsFreshSingleThreadedLoad) {
  const auto payload = tiny_payload(0.1);
  ServableConfig sc;
  sc.factory = tiny_factory();
  sc.replicas = 3;
  auto served = ServableModel::from_payload(payload, sc, 1);
  ASSERT_NE(served, nullptr);
  EXPECT_EQ(served->replicas(), 3);
  EXPECT_GT(served->sparse_layers(), 0);

  ServableConfig oracle_cfg;
  oracle_cfg.factory = tiny_factory();
  oracle_cfg.replicas = 1;
  auto oracle = ServableModel::from_payload(payload, oracle_cfg, 1);
  ASSERT_NE(oracle, nullptr);

  const auto samples = tiny_samples(4);
  // Hammer the replica pool from several threads; every result must be
  // bitwise-identical to the single-replica single-threaded oracle.
  std::vector<Tensor> want;
  for (const auto& s : samples) want.push_back(oracle->forward(s));
  std::vector<std::thread> threads;
  std::vector<int> mismatches(4, 0);
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      for (int rep = 0; rep < 8; ++rep) {
        const size_t i = static_cast<size_t>((t + rep) % 4);
        if (!bitwise_equal(served->forward(samples[i]), want[i])) ++mismatches[t];
      }
    });
  }
  for (auto& th : threads) th.join();
  for (int t = 0; t < 4; ++t) EXPECT_EQ(mismatches[t], 0) << "thread " << t;
}

TEST(Servable, RejectsWrongArchitecture) {
  const auto payload = tiny_payload(0.2);
  ServableConfig sc;
  sc.factory = [] {
    nn::ModelConfig c = tiny_config();
    c.width_mult = 0.125f;  // different channel widths than the payload
    return nn::make_resnet18(c);
  };
  EXPECT_EQ(ServableModel::from_payload(payload, sc, 1), nullptr);
}

TEST(Servable, WorkspaceDoesNotGrowPastWarm) {
  const auto payload = tiny_payload(0.1);
  ServableConfig sc;
  sc.factory = tiny_factory();
  sc.replicas = 1;
  sc.warm_batch = 8;
  auto snap = ServableModel::from_payload(payload, sc, 1);
  ASSERT_NE(snap, nullptr);
  const int64_t warm = snap->workspace_bytes();
  EXPECT_GT(warm, 0);

  const auto mc = tiny_config();
  for (int64_t n : {1, 4, 8, 3, 8}) {
    Tensor x({n, 3, mc.image_size, mc.image_size});
    for (int64_t i = 0; i < x.numel(); ++i) x[i] = static_cast<float>(i % 13) * 0.05f;
    (void)snap->forward(x);
    EXPECT_LE(snap->workspace_bytes(), warm) << "batch " << n;
  }
}

TEST(Registry, RetiredSnapshotDrainsBeforeDestruction) {
  ServableConfig sc;
  sc.factory = tiny_factory();
  sc.replicas = 1;
  SnapshotRegistry reg;
  auto a = ServableModel::from_payload(tiny_payload(0.2), sc, 1);
  ASSERT_NE(a, nullptr);
  std::weak_ptr<const ServableModel> watch = a;
  reg.publish(std::move(a));

  auto in_flight = reg.current();  // a request holding the old snapshot
  ASSERT_NE(in_flight, nullptr);
  auto b = ServableModel::from_payload(tiny_payload(0.5), sc, 2);
  ASSERT_NE(b, nullptr);
  reg.publish(std::move(b));

  // Swapped out but still referenced: must stay alive for the reader.
  EXPECT_FALSE(watch.expired());
  EXPECT_EQ(reg.current()->version(), 2u);
  in_flight.reset();  // last in-flight request drains
  EXPECT_TRUE(watch.expired());
  EXPECT_EQ(reg.publishes(), 2u);
}

TEST(Server, PublishAndServeRoundTrip) {
  ServerConfig sc;
  sc.factory = tiny_factory();
  sc.tiers = {"main"};
  InferenceServer server(std::move(sc));
  EXPECT_EQ(server.publish("nonexistent", tiny_payload(0.2)), 0u);

  const uint64_t v = server.publish("main", tiny_payload(0.2));
  ASSERT_GT(v, 0u);
  EXPECT_NEAR(server.tier_density(server.tier_index("main")), 0.2, 0.05);

  const auto samples = tiny_samples(2);
  auto r = server.submit_to("main", samples[0]).get();
  ASSERT_TRUE(r.ok);
  EXPECT_EQ(r.version, v);
  EXPECT_GE(r.predicted, 0);
  EXPECT_LT(r.predicted, 10);
  EXPECT_EQ(r.logits.numel(), 10);
  EXPECT_GE(r.total_ms, r.queue_ms);
  EXPECT_EQ(server.tier_served(0), 1u);

  // Unknown tier and bad geometry fail as responses, never hang.
  EXPECT_FALSE(server.submit_to("nope", samples[1]).get().ok);
  EXPECT_FALSE(server.submit_to("main", Tensor({1, 3, 5, 5})).get().ok);
  EXPECT_EQ(server.stats().failed(), 2u);
}

TEST(Server, SubmitBeforePublishFailsCleanly) {
  ServerConfig sc;
  sc.factory = tiny_factory();
  sc.tiers = {"main"};
  InferenceServer server(std::move(sc));
  const auto samples = tiny_samples(1);
  EXPECT_FALSE(server.submit(samples[0]).get().ok);           // no routable tier
  EXPECT_FALSE(server.submit_to("main", samples[0]).get().ok);  // no snapshot yet
}

TEST(Server, ShutdownDrainsQueuedRequestsAndRefusesNew) {
  ServerConfig sc;
  sc.factory = tiny_factory();
  sc.tiers = {"main"};
  sc.batcher.max_batch = 4;
  InferenceServer server(std::move(sc));
  ASSERT_GT(server.publish("main", tiny_payload(0.2)), 0u);

  const auto samples = tiny_samples(4);
  std::vector<std::future<InferResult>> pending;
  for (int i = 0; i < 16; ++i) {
    pending.push_back(server.submit_to("main", samples[static_cast<size_t>(i) % 4]));
  }
  server.shutdown();
  for (auto& f : pending) EXPECT_TRUE(f.get().ok);  // drained, never dropped
  EXPECT_FALSE(server.submit_to("main", samples[0]).get().ok);  // after close
}

TEST(Server, RoutesByLatencyBudgetAcrossTiers) {
  ServerConfig sc;
  sc.factory = tiny_factory();
  sc.tiers = {"dense", "sparse"};
  InferenceServer server(std::move(sc));
  ASSERT_GT(server.publish("dense", tiny_payload(1.0)), 0u);
  ASSERT_GT(server.publish("sparse", tiny_payload(0.05)), 0u);

  const auto samples = tiny_samples(1);
  // Cold estimates: budget <= 0 routes best-quality (tier 0).
  auto r = server.submit(samples[0], 0.0).get();
  ASSERT_TRUE(r.ok);
  EXPECT_EQ(r.tier, 0);
  // Warm both tiers, then an impossible budget must pick the cheaper EWMA.
  // The EWMA store lands after the response future resolves, so poll briefly.
  ASSERT_TRUE(server.submit_to("sparse", samples[0]).get().ok);
  for (int spin = 0; spin < 1000 && (server.tier_latency_estimate_ms(0) <= 0.0 ||
                                     server.tier_latency_estimate_ms(1) <= 0.0);
       ++spin) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  const double d0 = server.tier_latency_estimate_ms(0);
  const double d1 = server.tier_latency_estimate_ms(1);
  ASSERT_GT(d0, 0.0);
  ASSERT_GT(d1, 0.0);
  auto tight = server.submit(samples[0], 1e-6).get();
  ASSERT_TRUE(tight.ok);
  EXPECT_EQ(tight.tier, d1 < d0 ? 1 : 0);
}

TEST(Server, ComposesWithExecutorThreadBudget) {
  auto& ex = Executor::instance();
  const int saved_budget = ex.thread_budget();
  const int base_in_use = ex.threads_in_use();
  ex.set_thread_budget(base_in_use + 3);
  {
    ServerConfig sc;
    sc.factory = tiny_factory();
    sc.tiers = {"main"};
    sc.workers = 8;  // wants 7 extra lanes; budget only has 3 spare
    InferenceServer server(std::move(sc));
    EXPECT_EQ(server.workers(), 4);  // 1 free + 3 granted
    EXPECT_EQ(ex.threads_in_use(), base_in_use + 3);
    // A second server sees an exhausted budget and runs single-worker.
    ServerConfig sc2;
    sc2.factory = tiny_factory();
    sc2.tiers = {"main"};
    sc2.workers = 4;
    InferenceServer second(std::move(sc2));
    EXPECT_EQ(second.workers(), 1);
  }
  // Both servers released their grants on destruction.
  EXPECT_EQ(ex.threads_in_use(), base_in_use);
  ex.set_thread_budget(saved_budget);
}

// The tentpole correctness property: N client threads hammer the server
// while a publisher storms hot swaps; every response must be bitwise-equal
// to a fresh single-threaded oracle of the exact snapshot version that
// served it.
TEST(Server, SwapStormResponsesMatchPerVersionOracle) {
  ServerConfig sc;
  sc.factory = tiny_factory();
  sc.tiers = {"main"};
  sc.workers = 2;
  sc.batcher.max_batch = 8;
  InferenceServer server(std::move(sc));

  const double densities[] = {0.1, 0.2, 0.5};
  std::vector<fl::SparseStatePayload> payloads;
  for (const double d : densities) payloads.push_back(tiny_payload(d));

  std::mutex mu;
  std::vector<std::pair<uint64_t, size_t>> version_of;  // publish log
  {
    const uint64_t v0 = server.publish("main", payloads[0]);
    ASSERT_GT(v0, 0u);
    version_of.emplace_back(v0, 0);
  }

  const auto samples = tiny_samples(4);
  struct Response {
    uint64_t version;
    size_t sample;
    Tensor logits;
  };
  std::vector<std::vector<Response>> responses(3);
  std::atomic<int> failed{0};
  std::atomic<bool> stop{false};

  std::thread publisher([&] {
    for (int swap = 1; swap <= 8; ++swap) {
      const size_t which = static_cast<size_t>(swap) % 3;
      const uint64_t v = server.publish("main", payloads[which]);
      ASSERT_GT(v, 0u);
      {
        std::lock_guard<std::mutex> lk(mu);
        version_of.emplace_back(v, which);
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    stop.store(true);
  });
  std::vector<std::thread> clients;
  for (int t = 0; t < 3; ++t) {
    clients.emplace_back([&, t] {
      size_t i = static_cast<size_t>(t);
      while (!stop.load()) {
        const size_t s = i++ % 4;
        auto r = server.submit_to("main", samples[s]).get();
        if (!r.ok) {
          ++failed;
          continue;
        }
        responses[static_cast<size_t>(t)].push_back({r.version, s, std::move(r.logits)});
      }
    });
  }
  publisher.join();
  for (auto& c : clients) c.join();
  EXPECT_EQ(failed.load(), 0);

  // Replay every (version, sample) against a fresh single-threaded build of
  // that version's payload.
  ServableConfig oracle_cfg;
  oracle_cfg.factory = tiny_factory();
  oracle_cfg.replicas = 1;
  std::map<uint64_t, std::shared_ptr<const ServableModel>> oracles;
  for (const auto& [v, which] : version_of) {
    oracles[v] = ServableModel::from_payload(payloads[which], oracle_cfg, v);
    ASSERT_NE(oracles[v], nullptr);
  }
  size_t checked = 0;
  for (const auto& per_client : responses) {
    for (const auto& r : per_client) {
      auto it = oracles.find(r.version);
      ASSERT_NE(it, oracles.end()) << "response from unpublished version " << r.version;
      Tensor want = it->second->forward(samples[r.sample]);
      ASSERT_EQ(want.numel(), r.logits.numel());
      EXPECT_TRUE(std::memcmp(want.data(), r.logits.data(),
                              sizeof(float) * static_cast<size_t>(want.numel())) == 0)
          << "version " << r.version << " sample " << r.sample;
      ++checked;
    }
  }
  EXPECT_GT(checked, 0u);
}

}  // namespace
}  // namespace fedtiny::serve
