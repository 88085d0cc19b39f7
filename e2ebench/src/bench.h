// Shared plumbing for the end-to-end benchmark: command-line options, the
// metric sink, the in-memory span recorder and small statistics helpers.
//
// The benchmark drives the fedtiny library only through its public headers.
// Spans are recorded here, around the calls the benchmark makes into each
// `src/` module; nothing inside the library is instrumented.
#pragma once

#include <chrono>
#include <cstdint>
#include <mutex>
#include <stdexcept>
#include <string>
#include <vector>

namespace e2ebench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}
inline double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_out;            // Chrome trace JSON path (traced runs only)
  std::string work_dir = ".bench_out";  // scratch files (serving checkpoints)
};

/// Seed of everything a workload trains from: the synthetic cifar10s task,
/// the client partition, the public split, the initial weights and the
/// pretraining shuffle. They are fixed so that accuracy and the shape of the
/// work compare across seeds; --seed draws the algorithm's own randomness
/// and the traffic: local shuffles, client sampling, the BN-selection
/// candidate pool, arrival times, tier mix and request images.
inline constexpr uint64_t kTaskSeed = 1;

/// A failed output check. Thrown by check(); fails the run.
struct CheckFailure : std::runtime_error {
  using std::runtime_error::runtime_error;
};

inline void check(bool ok, const std::string& what) {
  if (!ok) throw CheckFailure(what);
}

/// Named metrics in emission order; `layer` separates the traced run's
/// per-layer metrics from the end-to-end ones.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  bool layer = false;
};

struct Report {
  std::vector<Metric> metrics;
  std::vector<std::string> checks;  // passed output checks, for the log
  int64_t attempted = 0;
  int64_t failed = 0;

  void e2e(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit, false});
  }
  void layer(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit, true});
  }
};

// ---- Spans ------------------------------------------------------------------

/// One timed interval. `parent` indexes the span that caused it (-1 for a
/// top-level phase); spans of one round or one request share `group`.
/// `derived` spans were placed from durations the library reports (e.g.
/// RoundStats::wall_train_s) rather than timed around a call.
struct Span {
  std::string name;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int parent = -1;
  uint64_t group = 0;
  int thread = 0;
  bool derived = false;
};

/// In-memory span recorder. Disabled (the untraced run) it records nothing
/// and every call is a branch on one bool.
class Tracer {
 public:
  explicit Tracer(bool on) : on_(on), origin_(Clock::now()) {}

  [[nodiscard]] bool on() const { return on_; }
  [[nodiscard]] int64_t now_ns() const { return to_ns(Clock::now()); }
  [[nodiscard]] int64_t to_ns(Clock::time_point t) const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(t - origin_).count();
  }

  int begin(const std::string& name, int parent = -1, uint64_t group = 0, int thread = 0) {
    if (!on_) return -1;
    const int64_t t = now_ns();
    std::lock_guard<std::mutex> lk(mu_);
    spans_.push_back({name, t, t, parent, group, thread, false});
    return static_cast<int>(spans_.size()) - 1;
  }
  void end(int id) {
    if (id < 0) return;
    const int64_t t = now_ns();
    std::lock_guard<std::mutex> lk(mu_);
    spans_[static_cast<size_t>(id)].end_ns = t;
  }
  /// Record an interval measured elsewhere.
  int add(const std::string& name, int64_t start_ns, int64_t end_ns, int parent = -1,
          uint64_t group = 0, int thread = 0, bool derived = false) {
    if (!on_) return -1;
    std::lock_guard<std::mutex> lk(mu_);
    spans_.push_back({name, start_ns, end_ns, parent, group, thread, derived});
    return static_cast<int>(spans_.size()) - 1;
  }
  /// Snapshot of every span (call after worker threads have stopped).
  [[nodiscard]] std::vector<Span> spans() const {
    std::lock_guard<std::mutex> lk(mu_);
    return spans_;
  }

 private:
  bool on_;
  Clock::time_point origin_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

/// RAII span around one call into a module.
class Scoped {
 public:
  Scoped(Tracer& tracer, const std::string& name, int parent = -1, uint64_t group = 0)
      : tracer_(tracer), id_(tracer.begin(name, parent, group)) {}
  ~Scoped() { tracer_.end(id_); }
  Scoped(const Scoped&) = delete;
  Scoped& operator=(const Scoped&) = delete;

 private:
  Tracer& tracer_;
  int id_;
};

/// Summarize spans into the per-module self-time table (printed to stderr)
/// and return the share of [window_start, window_end] that top-level spans
/// on the main thread cover. Writes Chrome Trace Event JSON when `path` is
/// non-empty.
double summarize_trace(const Tracer& tracer, int64_t window_start_ns, int64_t window_end_ns,
                       const std::string& path);

// ---- Statistics ---------------------------------------------------------------

/// Linear-interpolated quantile (q in [0, 1]); sorts a copy. 0 when empty.
double quantile(std::vector<double> values, double q);
inline double median(std::vector<double> values) { return quantile(std::move(values), 0.5); }

/// Peak resident set size of this process, MiB.
double peak_rss_mb();

/// Repeat `fn` `reps` times and return the median wall time in ms.
template <typename Fn>
double time_median_ms(int reps, Fn&& fn) {
  std::vector<double> ms;
  ms.reserve(static_cast<size_t>(reps));
  for (int r = 0; r < reps; ++r) {
    const auto t0 = Clock::now();
    fn();
    ms.push_back(ms_between(t0, Clock::now()));
  }
  return median(std::move(ms));
}

/// Assert that the threads the benchmark starts plus the Executor budget
/// fit the machine, before anything is timed.
void check_thread_budget(int threads_started, const std::string& workload);

// ---- Workloads ----------------------------------------------------------------

void run_fedtiny_tiny(const Options& opt, Tracer& tracer, Report& report);
void run_fleet_int8(const Options& opt, Tracer& tracer, Report& report);
void run_serve_swap(const Options& opt, Tracer& tracer, Report& report);

}  // namespace e2ebench
