#include "harness/knobs.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <stdexcept>
#include <type_traits>

#include "fl/adversary.h"
#include "fl/aggregation.h"
#include "fl/codec.h"
#include "tensor/kernels.h"

namespace fedtiny::harness {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

bool parse_text(const char* text, std::string& out) {
  out = text;
  return true;
}

bool parse_text(const char* text, bool& out) {
  if (std::strcmp(text, "0") != 0 && std::strcmp(text, "1") != 0) return false;
  out = text[0] == '1';
  return true;
}

template <class T>
bool parse_text(const char* text, T& out) {
  const char* end = text + std::strlen(text);
  T value{};
  const auto [ptr, ec] = std::from_chars(text, end, value);
  if (ec != std::errc{} || ptr != end) return false;
  out = value;
  return true;
}

template <class T>
std::string show_value(const T& v) {
  if constexpr (std::is_same_v<T, std::string>) {
    return v;
  } else if constexpr (std::is_same_v<T, bool>) {
    return v ? "1" : "0";
  } else {
    char buf[32];
    return std::string(buf, std::to_chars(buf, buf + sizeof(buf), v).ptr);
  }
}

// A row's check on its field's value (numbers as double) and the accepted
// values as text, for --help and error messages.
template <class T>
struct Check {
  std::string domain;
  std::function<bool(const T&)> ok;
};

// Finite numbers from lo to hi; `bounds` is "[]", "[)", "(]" or "()". An
// infinite hi reads as ">= lo" or "> lo".
Check<double> range(const char* bounds, double lo, double hi = kInf) {
  const bool lo_open = bounds[0] == '(';
  const bool hi_open = bounds[1] == ')';
  return {hi == kInf ? (lo_open ? "> " : ">= ") + show_value(lo)
                     : bounds[0] + show_value(lo) + ", " + show_value(hi) + bounds[1],
          [=](const double& v) {
            return std::isfinite(v) && (lo_open ? v > lo : v >= lo) &&
                   (hi_open ? v < hi : v <= hi);
          }};
}

// Exactly the names listed in `domain` ("a|b|c").
Check<std::string> one_of(const char* domain) {
  return {domain, [domain](const std::string& v) {
            return !v.empty() && ("|" + std::string(domain) + "|").find("|" + v + "|") !=
                                     std::string::npos;
          }};
}

// Empty (the owning module's default) or a name the module's parser takes;
// the parser throws std::invalid_argument on any other.
template <class Parse>
Check<std::string> parsed_by(const char* domain, Parse parse) {
  return {domain, [parse](const std::string& v) {
            try {
              if (!v.empty()) (void)parse(v.c_str());
              return true;
            } catch (const std::invalid_argument&) {
              return false;
            }
          }};
}

// The field a row owns, as a member path from RunSpec.
template <auto... Path>
struct Field {
  template <class Spec>
  auto& operator()(Spec& s) const {
    return (s .* ... .* Path);
  }
};
template <auto M>
constexpr Field<M> at{};
template <auto M>
constexpr Field<&RunSpec::sim, M> sim{};

template <class Dest, class C>
Knob row(const char* flag, const char* env, const char* arg, Dest dest, Check<C> check,
         const char* help) {
  return {flag, env, arg, help, std::move(check.domain),
          [dest](RunSpec& s, const char* text) { return parse_text(text, dest(s)); },
          [dest, ok = std::move(check.ok)](const RunSpec& s) { return ok(C(dest(s))); },
          [dest](const RunSpec& s) { return show_value(dest(s)); }};
}

std::vector<Knob> make_table() {
  using fl::SimConfig;
  const auto nonneg = range("[]", 0.0);
  const auto prob = range("[]", 0.0, 1.0);
  const Check<double> toggle{"0|1", [](const double&) { return true; }};
  return {
      row("--method", nullptr, "M", at<&RunSpec::method>,
          one_of("fedavg|snip|synflow|flpqsu|prunefl|feddst|lotteryfl|fedtiny|fedtiny_vanilla|"
                 "adaptive_bn|vanilla|small_model"),
          "federated pruning method"),
      row("--dataset", nullptr, "D", at<&RunSpec::dataset>,
          one_of("cifar10s|cifar100s|cinic10s|svhns"), "synthetic dataset"),
      row("--model", nullptr, "A", at<&RunSpec::model>, one_of("resnet18|vgg11"), "architecture"),
      row("--density", nullptr, "F", at<&RunSpec::density>, range("(]", 0.0, 1.0),
          "target density"),
      row("--alpha", nullptr, "F", at<&RunSpec::dirichlet_alpha>, range("()", 0.0),
          "Dirichlet non-iid alpha"),
      row("--seed", nullptr, "N", at<&RunSpec::seed>, nonneg, "RNG seed"),
      row("--pool", nullptr, "N", at<&RunSpec::pool_size>, range("[]", -1.0),
          "candidate pool size (-1 = C* = 0.1/density, clamped)"),
      row("--num-clients", nullptr, "K", at<&RunSpec::num_clients>, range("[]", 1.0),
          "federation size"),
      row("--clients-per-round", "FEDTINY_CLIENTS_PER_ROUND", "M", at<&RunSpec::clients_per_round>,
          nonneg, "clients sampled per round (0 = all K)"),
      row(nullptr, "FEDTINY_ON_DEMAND_SAMPLES", "N", at<&RunSpec::on_demand_samples_per_client>,
          nonneg,
          "generate client data on demand, N samples per client (0 = partition a materialized "
          "train split; plain-trainer methods only)"),
      row("--workers", "FEDTINY_PARALLEL_CLIENTS", "N", at<&RunSpec::parallel_clients>, nonneg,
          "client-training lanes (0 = executor auto)"),
      row("--sparse-exchange", "FEDTINY_SPARSE_EXCHANGE", nullptr, at<&RunSpec::sparse_exchange>,
          toggle, "ship real serialized payloads (measured comm bytes)"),
      row("--sparse-exec", "FEDTINY_SPARSE_EXEC", "F", at<&RunSpec::sparse_exec_max_density>, prob,
          "CSR forward below this density at eval (0 = dense)"),
      row("--sparse-train", "FEDTINY_SPARSE_TRAINING", nullptr, at<&RunSpec::sparse_training>,
          toggle, "masked sparse local SGD (needs --sparse-exec > 0)"),
      row("--kernels", "FEDTINY_KERNELS", "M", at<&RunSpec::kernels>,
          parsed_by("reference|fast", kernels::parse_mode),
          "kernel engine (empty = process mode, fast)"),
      row("--codec", "FEDTINY_CODEC", "C", at<&RunSpec::codec>,
          parsed_by("none|int8|q4|topk8|topk4", fl::codec::config_from_name),
          "sparse-exchange payload codec (needs --sparse-exchange; none = v1 fp32 wire)"),
      row("--quant-bits", "FEDTINY_QUANT_BITS", "N", at<&RunSpec::quant_bits>,
          Check<double>{"0|4|8", [](const double& v) { return v == 0 || v == 4 || v == 8; }},
          "top-k value quantization width (0 = codec default)"),
      row("--topk-frac", "FEDTINY_TOPK_FRAC", "F", at<&RunSpec::topk_frac>, prob,
          "top-k kept fraction (0 = codec default 0.08)"),
      row("--aggregation", "FEDTINY_AGGREGATION", "P", at<&RunSpec::aggregation>,
          parsed_by("fedavg|norm_clip|trimmed_mean|coord_median",
                    fl::aggregation_config_from_name),
          "server aggregation policy (empty = fedavg)"),
      row("--trim-frac", "FEDTINY_TRIM_FRAC", "F", at<&RunSpec::trim_frac>, range("[)", 0.0, 0.5),
          "trimmed_mean per-coordinate trim fraction (0 = default 0.3)"),
      row("--clip-tau", "FEDTINY_CLIP_TAU", "F", at<&RunSpec::clip_tau>, nonneg,
          "fixed norm_clip threshold (0 = adaptive median)"),
      row("--adversary-frac", "FEDTINY_ADVERSARY_FRAC", "F", at<&RunSpec::adversary_frac>, prob,
          "fraction of clients marked adversarial"),
      row("--adversary-mode", "FEDTINY_ADVERSARY_MODE", "M", at<&RunSpec::adversary_mode>,
          parsed_by("none|label_flip|scale|sign_flip|free_ride|corrupt",
                    fl::adversary_mode_from_name),
          "adversary behavior"),
      row("--adversary-scale", "FEDTINY_ADVERSARY_SCALE", "F", at<&RunSpec::adversary_scale>,
          Check<double>{"finite", [](const double& v) { return std::isfinite(v); }},
          "update scaling for --adversary-mode scale (0 = default -10)"),
      row("--sim-device-flops", "FEDTINY_SIM_DEVICE_FLOPS", "F",
          sim<&SimConfig::device_flops_per_s>, nonneg, "mean device speed, FLOP/s (0 = infinite)"),
      row("--sim-bandwidth", "FEDTINY_SIM_BANDWIDTH", "F", sim<&SimConfig::bandwidth_bps>, nonneg,
          "mean link bandwidth, bytes/s (0 = infinite)"),
      row("--sim-latency", "FEDTINY_SIM_LATENCY", "F", sim<&SimConfig::latency_s>, nonneg,
          "per-transfer link latency, seconds"),
      row("--sim-het", "FEDTINY_SIM_HET", "F", sim<&SimConfig::het_spread>, range("[]", 1.0),
          "log-uniform per-client spread factor (1 = none)"),
      row("--sim-stragglers", "FEDTINY_SIM_STRAGGLERS", "F", sim<&SimConfig::straggler_fraction>,
          prob, "straggler fraction"),
      row("--sim-slowdown", "FEDTINY_SIM_SLOWDOWN", "F", sim<&SimConfig::straggler_slowdown>,
          range("[]", 1.0), "straggler slowdown factor"),
      row("--availability", "FEDTINY_SIM_AVAILABILITY", "F", sim<&SimConfig::availability>, prob,
          "per-round check-in probability"),
      row("--dropout", "FEDTINY_SIM_DROPOUT", "F", sim<&SimConfig::dropout>, prob,
          "mid-round dropout probability"),
      row("--deadline", "FEDTINY_SIM_DEADLINE", "F", sim<&SimConfig::deadline_s>, nonneg,
          "round deadline, simulated seconds (0 = none)"),
      row("--async", "FEDTINY_ASYNC", nullptr, sim<&SimConfig::async_rounds>, toggle,
          "async overlapping rounds (FedBuff-style)"),
      row("--async-m", "FEDTINY_ASYNC_M", "N", sim<&SimConfig::async_aggregate_m>, nonneg,
          "arrivals aggregated per async round (0 = half the cohort)"),
      row("--staleness-alpha", "FEDTINY_STALENESS_ALPHA", "F", sim<&SimConfig::staleness_alpha>,
          nonneg, "async staleness discount exponent"),
  };
}

}  // namespace

bool Knob::set(RunSpec& spec, const char* text) const {
  RunSpec trial = spec;
  if (!parse(trial, text) || !ok(trial)) return false;
  spec = std::move(trial);
  return true;
}

const std::vector<Knob>& knobs() {
  static const std::vector<Knob> table = make_table();
  return table;
}

const Knob* find_flag(std::string_view flag) {
  for (const Knob& k : knobs()) {
    if (k.flag != nullptr && flag == k.flag) return &k;
  }
  return nullptr;
}

void validate(const RunSpec& spec) {
  for (const Knob& k : knobs()) {
    if (!k.ok(spec)) {
      throw std::invalid_argument(std::string(k.name()) + ": '" + k.show(spec) +
                                  "' is invalid (want " + k.domain + ")");
    }
  }
}

std::string knob_help() {
  const RunSpec defaults;
  std::string out;
  for (const Knob& k : knobs()) {
    std::string head = k.name();
    if (k.arg != nullptr) head += (k.flag != nullptr ? " " : "=") + std::string(k.arg);
    head.resize(std::max<size_t>(head.size() + 1, 24), ' ');
    const std::string value = k.show(defaults);
    out += "  " + head + k.help + "\n" + std::string(26, ' ') + k.domain + "; default " +
           (value.empty() ? "\"\"" : value) +
           (k.flag != nullptr && k.env != nullptr ? "; env " + std::string(k.env) : "") + "\n";
  }
  return out;
}

bool env_value(const char* name, const std::string& domain,
               const std::function<bool(const char*)>& accept) {
  const char* value = std::getenv(name);
  if (value == nullptr) return false;
  if (accept(value)) return true;
  std::fprintf(stderr, "%s=%s invalid (want %s); ignoring\n", name, value, domain.c_str());
  return false;
}

bool parse_int(const char* text, int64_t& out) { return parse_text(text, out); }

}  // namespace fedtiny::harness
