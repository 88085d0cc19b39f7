#include "serve/stats.h"

#include <algorithm>
#include <cmath>

namespace fedtiny::serve {

void ServingStats::record_served(double total_ms) {
  std::lock_guard<std::mutex> lk(mu_);
  const auto sample = static_cast<float>(total_ms);
  if (samples_.size() < kMaxSamples) {
    samples_.push_back(sample);
  } else {
    samples_[served_ % kMaxSamples] = sample;
  }
  ++served_;
}

void ServingStats::record_batch(int64_t size) {
  std::lock_guard<std::mutex> lk(mu_);
  ++batches_;
  ++hist_[size];
}

void ServingStats::record_failed(uint64_t n) {
  std::lock_guard<std::mutex> lk(mu_);
  failed_ += n;
}

void ServingStats::record_swap() {
  std::lock_guard<std::mutex> lk(mu_);
  ++swaps_;
}

LatencySummary ServingStats::latency() const {
  std::vector<float> samples;
  uint64_t count = 0;
  {
    std::lock_guard<std::mutex> lk(mu_);
    samples = samples_;
    count = served_;
  }
  LatencySummary out;
  out.count = count;
  if (samples.empty()) return out;
  double sum = 0.0;
  for (float s : samples) sum += s;
  out.mean_ms = sum / static_cast<double>(samples.size());
  auto percentile = [&](double p) {
    // Nearest-rank on the sample set; nth_element instead of a full sort.
    const auto rank = static_cast<size_t>(
        std::min<double>(static_cast<double>(samples.size()) - 1.0,
                         std::ceil(p * static_cast<double>(samples.size())) - 1.0));
    std::nth_element(samples.begin(), samples.begin() + static_cast<ptrdiff_t>(rank),
                     samples.end());
    return static_cast<double>(samples[rank]);
  };
  out.p50_ms = percentile(0.50);
  out.p95_ms = percentile(0.95);
  out.p99_ms = percentile(0.99);
  out.max_ms = static_cast<double>(*std::max_element(samples.begin(), samples.end()));
  return out;
}

std::map<int64_t, uint64_t> ServingStats::batch_histogram() const {
  std::lock_guard<std::mutex> lk(mu_);
  return hist_;
}

uint64_t ServingStats::served() const {
  std::lock_guard<std::mutex> lk(mu_);
  return served_;
}

uint64_t ServingStats::failed() const {
  std::lock_guard<std::mutex> lk(mu_);
  return failed_;
}

uint64_t ServingStats::swaps() const {
  std::lock_guard<std::mutex> lk(mu_);
  return swaps_;
}

uint64_t ServingStats::batches() const {
  std::lock_guard<std::mutex> lk(mu_);
  return batches_;
}

double ServingStats::mean_batch() const {
  std::lock_guard<std::mutex> lk(mu_);
  return batches_ > 0 ? static_cast<double>(served_) / static_cast<double>(batches_) : 0.0;
}

void ServingStats::reset() {
  std::lock_guard<std::mutex> lk(mu_);
  samples_.clear();
  served_ = failed_ = swaps_ = batches_ = 0;
  hist_.clear();
}

}  // namespace fedtiny::serve
