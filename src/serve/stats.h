// Serving-side counters: request latencies (for p50/p95/p99), dispatched
// micro-batch sizes, served/failed/swap totals. One mutex; every record is
// a few stores, so contention is negligible next to a forward pass.
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <vector>

namespace fedtiny::serve {

struct LatencySummary {
  uint64_t count = 0;
  double mean_ms = 0.0;
  double p50_ms = 0.0;
  double p95_ms = 0.0;
  double p99_ms = 0.0;
  double max_ms = 0.0;
};

class ServingStats {
 public:
  /// One served request: end-to-end latency (enqueue -> response ready).
  void record_served(double total_ms);
  /// One dispatched micro-batch of `size` requests.
  void record_batch(int64_t size);
  void record_failed(uint64_t n = 1);
  void record_swap();

  [[nodiscard]] LatencySummary latency() const;
  /// batch size -> number of batches dispatched at that size.
  [[nodiscard]] std::map<int64_t, uint64_t> batch_histogram() const;
  [[nodiscard]] uint64_t served() const;
  [[nodiscard]] uint64_t failed() const;
  [[nodiscard]] uint64_t swaps() const;
  [[nodiscard]] uint64_t batches() const;
  /// Mean requests per dispatched batch (0 when nothing dispatched).
  [[nodiscard]] double mean_batch() const;
  void reset();

 private:
  // Latency samples are a ring of the most recent kMaxSamples requests (slot
  // served_ % kMaxSamples), so percentiles track current traffic and a
  // long-running server cannot grow without bound; count keeps the true
  // total. 1M samples x 4B = 4 MB worst case.
  static constexpr size_t kMaxSamples = 1u << 20;

  mutable std::mutex mu_;
  std::vector<float> samples_;
  uint64_t served_ = 0;
  uint64_t failed_ = 0;
  uint64_t swaps_ = 0;
  uint64_t batches_ = 0;
  std::map<int64_t, uint64_t> hist_;
};

}  // namespace fedtiny::serve
