// e2ebench: one end-to-end benchmark of the FedTiny system.
//
//   e2ebench --workload NAME --seed N --seconds S --trace 0|1
//            [--trace-out PATH] [--work-dir DIR]
//
// Workloads: fedtiny_tiny, fleet_int8, serve_swap (see METRICS.md). The
// last line of stdout is one JSON object: {"correct", "attempted", "failed",
// "metrics", "traced_e2e"}. Untraced runs fill "metrics" with the end-to-end
// metrics; traced runs fill it with the per-layer metrics and put the
// end-to-end numbers measured under tracing in "traced_e2e". A failed output
// check prints "correct": false and exits 1.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>
#include <string>

#include "bench.h"
#include "tensor/parallel.h"

namespace e2ebench {

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

void check_thread_budget(int threads_started, const std::string& workload) {
  const long nproc = sysconf(_SC_NPROCESSORS_ONLN);
  const int budget = fedtiny::Executor::instance().thread_budget();
  check(fedtiny::parallelism() == 1,
        workload + ": FEDTINY_THREADS must be unset (kernel OpenMP threads sit outside the budget)");
  check(threads_started + budget <= nproc,
        workload + ": " + std::to_string(threads_started) + " started threads + Executor budget " +
            std::to_string(budget) + " exceed nproc " + std::to_string(nproc));
}

namespace {

std::string module_of(const std::string& name) {
  const auto dot = name.find('.');
  return dot == std::string::npos ? name : name.substr(0, dot);
}

void write_chrome_trace(const std::vector<Span>& spans, const std::string& path) {
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "warning: cannot write trace to %s\n", path.c_str());
    return;
  }
  out << "{\"traceEvents\":[\n";
  for (size_t i = 0; i < spans.size(); ++i) {
    const auto& s = spans[i];
    char line[512];
    std::snprintf(line, sizeof(line),
                  "{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"ts\":%.3f,\"dur\":%.3f,"
                  "\"pid\":1,\"tid\":%d,\"args\":{\"id\":%zu,\"parent\":%d,\"group\":%llu,"
                  "\"derived\":%s}}%s\n",
                  s.name.c_str(), module_of(s.name).c_str(), static_cast<double>(s.start_ns) / 1e3,
                  static_cast<double>(s.end_ns - s.start_ns) / 1e3, s.thread, i, s.parent,
                  static_cast<unsigned long long>(s.group), s.derived ? "true" : "false",
                  i + 1 < spans.size() ? "," : "");
    out << line;
  }
  out << "]}\n";
}

}  // namespace

double summarize_trace(const Tracer& tracer, int64_t window_start_ns, int64_t window_end_ns,
                       const std::string& path) {
  const auto spans = tracer.spans();
  // Self time: a span's duration minus the part its children cover. Children
  // of one parent run one after another, so their durations add up.
  std::vector<double> child_ns(spans.size(), 0.0);
  for (const auto& s : spans) {
    if (s.parent >= 0) child_ns[static_cast<size_t>(s.parent)] += static_cast<double>(s.end_ns - s.start_ns);
  }
  struct Row {
    int spans = 0;
    double total_s = 0.0;
    double self_s = 0.0;
  };
  std::map<std::string, Row> by_module;
  double top_ns = 0.0;
  for (size_t i = 0; i < spans.size(); ++i) {
    const auto& s = spans[i];
    const double dur = static_cast<double>(s.end_ns - s.start_ns);
    auto& row = by_module[module_of(s.name)];
    ++row.spans;
    row.total_s += dur / 1e9;
    row.self_s += std::max(0.0, dur - child_ns[i]) / 1e9;
    if (s.parent < 0 && s.thread == 0 && s.start_ns >= window_start_ns &&
        s.end_ns <= window_end_ns) {
      top_ns += dur;
    }
  }
  const double window_s = static_cast<double>(window_end_ns - window_start_ns) / 1e9;
  std::fprintf(stderr, "\n%-8s %8s %12s %12s %8s\n", "layer", "spans", "total_s", "self_s",
               "self%");
  for (const auto& [module, row] : by_module) {
    std::fprintf(stderr, "%-8s %8d %12.4f %12.4f %7.1f%%\n", module.c_str(), row.spans,
                 row.total_s, row.self_s, window_s > 0 ? 100.0 * row.self_s / window_s : 0.0);
  }
  const double unattributed_s = window_s - top_ns / 1e9;
  std::fprintf(stderr, "%-8s %8s %12s %12.4f %7.1f%%   (main-thread wall not under a top-level span)\n",
               "(none)", "-", "-", unattributed_s,
               window_s > 0 ? 100.0 * unattributed_s / window_s : 0.0);
  std::fprintf(stderr, "wall %.4f s, top-level coverage %.1f%%\n\n", window_s,
               window_s > 0 ? 100.0 * top_ns / 1e9 / window_s : 0.0);
  if (!path.empty()) write_chrome_trace(spans, path);
  return window_s > 0 ? top_ns / 1e9 / window_s : 0.0;
}

}  // namespace e2ebench

namespace {

/// Every per-layer metric a traced run prints, with its unit. A workload
/// that bypasses a layer leaves its metrics at 0 (see METRICS.md).
std::vector<std::pair<std::string, std::string>> layer_metrics() {
  std::vector<std::pair<std::string, std::string>> out = {
      {"core.pretrain_s", "s"},          {"core.bn_selection_s", "s"},
      {"core.candidates", "count"},      {"fl.train_s", "s"},
      {"fl.round_other_s", "s"},         {"fl.agg_s", "s"},
      {"fl.accumulator.fold_ms", "ms"},  {"fl.uplinks", "count"},
      {"fl.accept_frac", "ratio"},       {"fl.codec.encode_state_ms", "ms"},
      {"fl.codec.decode_state_ms", "ms"}, {"fl.codec.encode_update_ms", "ms"},
      {"fl.codec.decode_update_ms", "ms"}, {"fl.codec.ratio", "ratio"},
      {"prune.install_ms", "ms"},        {"prune.refresh_ms", "ms"},
      {"data.batch_ms", "ms"},           {"nn.step_ms", "ms"},
      {"nn.fwd_ms", "ms"},               {"nn.bwd_ms", "ms"},
      {"nn.sgd_ms", "ms"},               {"nn.conv.fwd_ms", "ms"},
      {"nn.conv.bwd_ms", "ms"},          {"nn.bn.fwd_ms", "ms"},
      {"nn.bn.bwd_ms", "ms"},            {"nn.other.fwd_ms", "ms"},
      {"nn.other.bwd_ms", "ms"},         {"nn.unattributed_ms", "ms"},
      {"nn.coverage", "ratio"}};
  for (const char* k : {"gemm", "spmm", "im2col", "col2im", "permute"}) {
    const std::string base = std::string("tensor.") + k;
    const bool compute = std::string(k) == "gemm" || std::string(k) == "spmm";
    out.emplace_back(base + ".ms", "ms");
    out.emplace_back(base + ".calls", "count");
    out.emplace_back(base + ".bytes", "B");
    out.emplace_back(base + (compute ? ".gflops" : ".gbps"), compute ? "GFLOP/s" : "GB/s");
  }
  out.emplace_back("tensor.permute.conv_share", "ratio");
  for (const auto& [name, unit] : std::vector<std::pair<std::string, std::string>>{
           {"serve.queue_p50_ms", "ms"}, {"serve.queue_p99_ms", "ms"},
           {"serve.service_ms", "ms"},   {"serve.batch_mean", "count"},
           {"serve.publish_ms", "ms"},   {"serve.publishes", "count"},
           {"io.checkpoint_load_ms", "ms"}, {"serve.gen_lag_p99_ms", "ms"},
           {"serve.gen_lag_max_ms", "ms"}}) {
    out.emplace_back(name, unit);
  }
  for (const char* tier : {"dense", "d10", "d05"}) {
    for (const char* b : {"b1", "b8", "b32"}) {
      out.emplace_back(std::string("serve.forward_ms.") + tier + "." + b, "ms");
    }
  }
  out.emplace_back("trace.coverage", "ratio");
  out.emplace_back("trace.unattributed_s", "s");
  return out;
}

/// Put the per-layer metrics in table order, adding 0 for bypassed layers.
/// A metric missing from the table is a programming error.
void complete_layers(e2ebench::Report& report) {
  std::map<std::string, e2ebench::Metric> got;
  std::vector<e2ebench::Metric> e2e;
  for (auto& m : report.metrics) {
    if (m.layer) {
      got[m.name] = m;
    } else {
      e2e.push_back(m);
    }
  }
  std::vector<e2ebench::Metric> out = e2e;
  for (const auto& [name, unit] : layer_metrics()) {
    auto it = got.find(name);
    out.push_back(it != got.end() ? it->second : e2ebench::Metric{name, 0.0, unit, true});
    if (it != got.end()) got.erase(it);
  }
  for (const auto& [name, m] : got) {
    throw std::logic_error("per-layer metric missing from layer_metrics(): " + name);
  }
  report.metrics = std::move(out);
}

void usage() {
  std::fprintf(stderr,
               "usage: e2ebench --workload fedtiny_tiny|fleet_int8|serve_swap --seed N "
               "--seconds S --trace 0|1 [--trace-out PATH] [--work-dir DIR]\n");
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

void print_result(bool correct, const e2ebench::Report& report, bool trace) {
  auto block = [&](bool layer) {
    std::string out = "{";
    bool first = true;
    for (const auto& m : report.metrics) {
      if (m.layer != layer) continue;
      out += first ? "" : ", ";
      first = false;
      out += "\"" + m.name + "\": {\"value\": " + json_number(m.value) + ", \"unit\": \"" +
             m.unit + "\"}";
    }
    return out + "}";
  };
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, \"metrics\": %s, "
              "\"traced_e2e\": %s}\n",
              correct ? "true" : "false", static_cast<long long>(report.attempted),
              static_cast<long long>(report.failed), block(trace).c_str(),
              trace ? block(false).c_str() : "{}");
  std::fflush(stdout);
}

}  // namespace

int main(int argc, char** argv) {
  e2ebench::Options opt;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string val = argv[i + 1];
    if (key == "--workload") {
      opt.workload = val;
    } else if (key == "--seed") {
      opt.seed = std::stoull(val);
    } else if (key == "--seconds") {
      opt.seconds = std::stod(val);
    } else if (key == "--trace") {
      opt.trace = val == "1";
    } else if (key == "--trace-out") {
      opt.trace_out = val;
    } else if (key == "--work-dir") {
      opt.work_dir = val;
    } else {
      usage();
      return 2;
    }
  }
  if (opt.seconds <= 0.0) {
    usage();
    return 2;
  }

  e2ebench::Tracer tracer(opt.trace);
  e2ebench::Report report;
  try {
    if (opt.workload == "fedtiny_tiny") {
      e2ebench::run_fedtiny_tiny(opt, tracer, report);
    } else if (opt.workload == "fleet_int8") {
      e2ebench::run_fleet_int8(opt, tracer, report);
    } else if (opt.workload == "serve_swap") {
      e2ebench::run_serve_swap(opt, tracer, report);
    } else {
      usage();
      return 2;
    }
  } catch (const e2ebench::CheckFailure& e) {
    std::fprintf(stderr, "CHECK FAILED: %s\n", e.what());
    print_result(false, report, opt.trace);
    return 1;
  }
  for (const auto& c : report.checks) std::fprintf(stderr, "check ok: %s\n", c.c_str());
  if (opt.trace) complete_layers(report);
  print_result(true, report, opt.trace);
  return 0;
}
