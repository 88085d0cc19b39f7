#include "probes.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <map>
#include <string>

#include "fl/codec.h"
#include "fl/payload.h"
#include "fl/sharded_accumulator.h"
#include "nn/conv2d.h"
#include "nn/linear.h"
#include "nn/loss.h"
#include "nn/sgd.h"
#include "prune/sparse_exec.h"
#include "tensor/kernels.h"
#include "tensor/ops.h"
#include "tensor/parallel.h"
#include "tensor/rng.h"
#include "tensor/sparse.h"

namespace e2ebench {

namespace fl = fedtiny::fl;
namespace prune = fedtiny::prune;
namespace kernels = fedtiny::kernels;
namespace sparse = fedtiny::sparse;
using fedtiny::Tensor;

ScopedBudget::ScopedBudget(int budget)
    : previous_(fedtiny::Executor::instance().thread_budget()) {
  fedtiny::Executor::instance().set_thread_budget(budget);
}
ScopedBudget::~ScopedBudget() { fedtiny::Executor::instance().set_thread_budget(previous_); }

namespace {

// Enough repetitions for a steady median: about 0.5 s of replay per probe,
// never fewer than 9 nor more than 400.
int reps_for(double one_ms) {
  const double r = 500.0 / std::max(one_ms, 1e-3);
  return static_cast<int>(std::clamp(r, 9.0, 400.0));
}

/// Median time of `fn`; the first call warms up and sizes the repetitions.
template <typename Fn>
double median_ms(Fn&& fn) {
  const auto t0 = Clock::now();
  fn();
  return time_median_ms(reps_for(ms_between(t0, Clock::now())), fn);
}

Tensor random_tensor(std::vector<int64_t> shape, uint64_t stream) {
  Tensor t(std::move(shape));
  fedtiny::Rng rng(0x5eed, stream);
  for (auto& v : t.flat()) v = rng.normal();
  return t;
}

// ---- Shapes read from the live model -----------------------------------------

// Input spatial size of a conv from its geometry and last output size. The
// reproduced models only shrink by exact stride factors, so out * stride
// reproduces the input whenever it is consistent; otherwise the smallest
// consistent input is used.
int64_t conv_in_size(int64_t out, int64_t kernel, int64_t stride, int64_t pad) {
  const int64_t guess = out * stride;
  if (fedtiny::ops::conv_out_size(guess, kernel, stride, pad) == out) return guess;
  return (out - 1) * stride + kernel - 2 * pad;
}

struct LeafShape {
  nn::Layer* leaf = nullptr;
  std::vector<int64_t> in;  // input shape at the probed batch
};

/// Every leaf with the input shape it saw during the last forward at batch n
/// (requires one forward first so convs have their last_out_h/w).
std::vector<LeafShape> leaf_shapes(nn::Model& model, int64_t n) {
  std::vector<LeafShape> out;
  const auto& in = model.input_shape();
  std::vector<int64_t> cur = {n, in[0], in[1], in[2]};
  for (nn::Layer* leaf : model.leaves()) {
    if (auto* conv = dynamic_cast<nn::Conv2d*>(leaf)) {
      const int64_t h = conv_in_size(conv->last_out_h(), conv->kernel(), conv->stride(), conv->pad());
      const int64_t w = conv_in_size(conv->last_out_w(), conv->kernel(), conv->stride(), conv->pad());
      out.push_back({leaf, {n, conv->in_channels(), h, w}});
      cur = {n, conv->out_channels(), conv->last_out_h(), conv->last_out_w()};
    } else if (auto* lin = dynamic_cast<nn::Linear*>(leaf)) {
      out.push_back({leaf, {n, lin->in_features()}});
      cur = {n, lin->out_features()};
    } else if (leaf->kind() == "GlobalAvgPool") {
      out.push_back({leaf, cur});
      cur = {n, cur[1]};
    } else if (leaf->kind() == "Flatten") {
      out.push_back({leaf, cur});
      int64_t f = 1;
      for (size_t i = 1; i < cur.size(); ++i) f *= cur[i];
      cur = {n, f};
    } else {
      out.push_back({leaf, cur});  // BatchNorm2d, ReLU: shape-preserving
    }
  }
  return out;
}

std::string leaf_group(const nn::Layer* leaf) {
  const auto kind = leaf->kind();
  if (kind == "Conv2d") return "conv";
  if (kind == "BatchNorm2d") return "bn";
  return "other";
}

/// Times several calls round-robin: each pass times every item once (after
/// its untimed `before`), and each item reports its median over passes. On
/// a shared host whose speed drifts over seconds, items timed side by side
/// drift together, so their ratios (e.g. nn.coverage) stay meaningful. The
/// first pass warms up and sizes the pass count (about 2 s in total).
class Interleaved {
 public:
  size_t add(std::function<void()> fn, std::function<void()> before = [] {}) {
    items_.push_back({std::move(fn), std::move(before)});
    return items_.size() - 1;
  }

  [[nodiscard]] std::vector<double> run() const {
    const auto t0 = Clock::now();
    pass(nullptr);
    const double pass_ms = ms_between(t0, Clock::now());
    const int passes = static_cast<int>(std::clamp(2000.0 / std::max(pass_ms, 1e-3), 9.0, 400.0));
    std::vector<std::vector<double>> ms(items_.size());
    for (int p = 0; p < passes; ++p) pass(&ms);
    std::vector<double> out;
    for (auto& m : ms) out.push_back(median(std::move(m)));
    return out;
  }

 private:
  struct Item {
    std::function<void()> fn, before;
  };

  void pass(std::vector<std::vector<double>>* ms) const {
    for (size_t i = 0; i < items_.size(); ++i) {
      items_[i].before();
      const auto t = Clock::now();
      items_[i].fn();
      if (ms != nullptr) (*ms)[i].push_back(ms_between(t, Clock::now()));
    }
  }

  std::vector<Item> items_;
};

/// Per-leaf replay items, grouped by leaf kind. Backward needs its own
/// forward (layers cache activations), so backward is forward+backward minus
/// the forward.
struct LeafItems {
  struct Entry {
    std::string group;
    size_t fwd = 0, both = 0;
    bool backward = false;
  };
  std::vector<Entry> entries;
  std::vector<Tensor> inputs, grads;  // kept alive for the timed lambdas
};

LeafItems add_leaves(Interleaved& timer, nn::Model& model, int64_t n, nn::Mode mode) {
  LeafItems items;
  const auto shapes = leaf_shapes(model, n);
  items.inputs.reserve(shapes.size());
  items.grads.reserve(shapes.size());
  uint64_t stream = 1;
  for (const auto& ls : shapes) {
    const Tensor& x = items.inputs.emplace_back(random_tensor(ls.in, stream++));
    LeafItems::Entry e{leaf_group(ls.leaf)};
    nn::Layer* leaf = ls.leaf;
    e.fwd = timer.add([leaf, &x, mode] { leaf->forward(x, mode); });
    if (mode == nn::Mode::kTrain) {
      const Tensor& dy =
          items.grads.emplace_back(random_tensor(leaf->forward(x, mode).shape(), stream++));
      e.both = timer.add([leaf, &x, &dy, mode] {
        leaf->forward(x, mode);
        leaf->backward(dy);
      });
      e.backward = true;
    }
    items.entries.push_back(e);
  }
  return items;
}

/// nn.{conv,bn,other}.{fwd,bwd}_ms, nn.unattributed_ms and nn.coverage
/// against the full model's forward (+ backward) time `full_ms`.
void report_leaves(const LeafItems& items, const std::vector<double>& ms, double full_ms,
                   Report& report) {
  std::map<std::string, double> fwd = {{"conv", 0.0}, {"bn", 0.0}, {"other", 0.0}};
  std::map<std::string, double> bwd = fwd;
  double total = 0.0;
  for (const auto& e : items.entries) {
    fwd[e.group] += ms[e.fwd];
    total += ms[e.fwd];
    if (e.backward) {
      const double b = std::max(0.0, ms[e.both] - ms[e.fwd]);
      bwd[e.group] += b;
      total += b;
    }
  }
  for (const char* g : {"conv", "bn", "other"}) {
    report.layer(std::string("nn.") + g + ".fwd_ms", fwd[g], "ms");
    report.layer(std::string("nn.") + g + ".bwd_ms", bwd[g], "ms");
  }
  report.layer("nn.unattributed_ms", full_ms - total, "ms");
  report.layer("nn.coverage", full_ms > 0 ? total / full_ms : 0.0, "ratio");
}

// ---- Kernel replay at conv geometry --------------------------------------------

struct KernelTally {
  double ms = 0.0;
  int64_t calls = 0;
  double flops = 0.0;
  double bytes = 0.0;
};

struct KernelSet {
  std::map<std::string, KernelTally> k;
  KernelSet() {
    for (const char* name : {"gemm", "spmm", "im2col", "col2im", "permute"}) k[name] = {};
  }
};

// Times one call and adds it to the tally.
template <typename Fn>
void timed(KernelTally& tally, double flops, double bytes, Fn&& fn) {
  const auto t0 = Clock::now();
  fn();
  tally.ms += ms_between(t0, Clock::now());
  ++tally.calls;
  tally.flops += flops;
  tally.bytes += bytes;
}

double gemm_bytes(int64_t m, int64_t n, int64_t k, bool accumulate) {
  return 4.0 * static_cast<double>(m * k + k * n + m * n * (accumulate ? 2 : 1));
}

const std::vector<uint8_t>* mask_for(nn::Model& model, const prune::MaskSet& mask,
                                     nn::Conv2d* conv) {
  const auto& params = model.params();
  const auto& prunable = model.prunable_indices();
  for (size_t l = 0; l < prunable.size() && l < mask.num_layers(); ++l) {
    if (params[static_cast<size_t>(prunable[l])] == &conv->weight()) return &mask.layer(l);
  }
  return nullptr;
}

/// One step's conv kernel calls, made exactly as Conv2d's fast pipeline
/// makes them: the batched dense path (im2col_batched, one GEMM, permute)
/// or the per-sample CSR path (im2col, spmm, masked_grad_dot, spmm_tn,
/// col2im).
KernelSet replay_conv_kernels(nn::Model& model, const prune::MaskSet& mask, int64_t n,
                              bool backward) {
  KernelSet set;
  for (const auto& ls : leaf_shapes(model, n)) {
    auto* conv = dynamic_cast<nn::Conv2d*>(ls.leaf);
    if (conv == nullptr) continue;
    const int64_t c = conv->in_channels(), oc = conv->out_channels(), kk = conv->kernel();
    const int64_t s = conv->stride(), p = conv->pad(), h = ls.in[2], w = ls.in[3];
    const int64_t hw = conv->last_out_h() * conv->last_out_w();
    const int64_t rows = c * kk * kk;
    const Tensor x = random_tensor(ls.in, 7);
    const Tensor dy = random_tensor({n, oc, conv->last_out_h(), conv->last_out_w()}, 8);
    const float* wt = conv->weight().value.data();
    Tensor grad({oc, rows});
    Tensor dx(ls.in);
    auto& gemm = set.k["gemm"];
    auto& spmm = set.k["spmm"];
    auto& im2col = set.k["im2col"];
    auto& col2im = set.k["col2im"];
    auto& permute = set.k["permute"];
    const double in_bytes = 4.0 * static_cast<double>(c * h * w);
    const double col_bytes = 4.0 * static_cast<double>(rows * hw);

    if (!conv->sparse_active()) {
      const int64_t bcols = n * hw;
      Tensor cols({rows, bcols}), ybuf({oc, bcols}), y({n, oc, hw});
      kernels::GemmEpilogue epi;
      epi.relu = conv->fused_relu();
      timed(im2col, 0.0, static_cast<double>(n) * (in_bytes + col_bytes), [&] {
        kernels::im2col_batched_fast(x.data(), n, c, h, w, kk, kk, s, p, cols.data());
      });
      timed(gemm, 2.0 * static_cast<double>(oc * bcols * rows), gemm_bytes(oc, bcols, rows, false),
            [&] {
              kernels::gemm_fast_ex(false, false, oc, bcols, rows, 1.0f, wt, cols.data(), 0.0f,
                                    ybuf.data(), epi);
            });
      timed(permute, 0.0, 8.0 * static_cast<double>(oc * bcols),
            [&] { kernels::permute_to_samples(ybuf.data(), oc, n, hw, y.data()); });
      if (!backward) continue;
      Tensor dybuf({oc, bcols}), dcols({rows, bcols});
      timed(permute, 0.0, 8.0 * static_cast<double>(oc * bcols),
            [&] { kernels::permute_to_staging(dy.data(), oc, n, hw, dybuf.data()); });
      timed(gemm, 2.0 * static_cast<double>(oc * rows * bcols), gemm_bytes(oc, rows, bcols, true),
            [&] {
              kernels::gemm_fast(false, true, oc, rows, bcols, 1.0f, dybuf.data(), cols.data(),
                                 1.0f, grad.data());
            });
      timed(gemm, 2.0 * static_cast<double>(rows * bcols * oc), gemm_bytes(rows, bcols, oc, false),
            [&] {
              kernels::gemm_fast(true, false, rows, bcols, oc, 1.0f, wt, dybuf.data(), 0.0f,
                                 dcols.data());
            });
      timed(col2im, 0.0, static_cast<double>(n) * (col_bytes + 2.0 * in_bytes), [&] {
        kernels::col2im_batched_fast(dcols.data(), n, c, h, w, kk, kk, s, p, dx.data());
      });
      continue;
    }

    const auto* m = mask_for(model, mask, conv);
    if (m == nullptr) continue;
    auto csr = sparse::csr_from_mask(wt, oc, rows, *m);
    if (backward) sparse::build_transpose(csr);
    const auto nnz = static_cast<double>(csr.values.size());
    const double csr_bytes = 12.0 * nnz + 8.0 * static_cast<double>(oc + 1);
    Tensor cols({rows, hw}), dcols({rows, hw}), y({oc, hw});
    for (int64_t i = 0; i < n; ++i) {
      const float* xi = x.data() + i * c * h * w;
      timed(im2col, 0.0, in_bytes + col_bytes,
            [&] { kernels::im2col_fast(xi, c, h, w, kk, kk, s, p, cols.data(), hw); });
      timed(spmm, 2.0 * nnz * static_cast<double>(hw),
            csr_bytes + col_bytes + 4.0 * static_cast<double>(oc * hw),
            [&] { kernels::spmm_fast(csr, cols.data(), hw, y.data(), false); });
      if (!backward) continue;
      const float* dyi = dy.data() + i * oc * hw;
      timed(spmm, 2.0 * nnz * static_cast<double>(hw),
            csr_bytes + col_bytes + 4.0 * static_cast<double>(oc * hw),
            [&] { kernels::masked_grad_dot_fast(csr, dyi, cols.data(), hw, grad.data()); });
      timed(spmm, 2.0 * nnz * static_cast<double>(hw),
            csr_bytes + col_bytes + 4.0 * static_cast<double>(oc * hw),
            [&] { kernels::spmm_tn_fast(csr, dyi, hw, dcols.data()); });
      timed(col2im, 0.0, col_bytes + 2.0 * in_bytes, [&] {
        kernels::col2im_fast(dcols.data(), c, h, w, kk, kk, s, p, dx.data() + i * c * h * w, hw);
      });
    }
  }
  return set;
}

void report_kernels(nn::Model& model, const prune::MaskSet& mask, int64_t n, bool backward,
                    Report& report) {
  replay_conv_kernels(model, mask, n, backward);  // warm-up
  const auto t0 = Clock::now();
  std::vector<KernelSet> runs;
  runs.push_back(replay_conv_kernels(model, mask, n, backward));
  const int reps = reps_for(ms_between(t0, Clock::now()));
  for (int r = 1; r < reps; ++r) runs.push_back(replay_conv_kernels(model, mask, n, backward));

  double conv_ms = 0.0;
  double permute_ms = 0.0;
  for (const char* name : {"gemm", "spmm", "im2col", "col2im", "permute"}) {
    std::vector<double> ms;
    for (const auto& run : runs) ms.push_back(run.k.at(name).ms);
    const double med = median(ms);
    const auto& first = runs.front().k.at(name);
    const std::string base = std::string("tensor.") + name;
    report.layer(base + ".ms", med, "ms");
    report.layer(base + ".calls", static_cast<double>(first.calls), "count");
    report.layer(base + ".bytes", first.bytes, "B");
    const bool compute = std::string(name) == "gemm" || std::string(name) == "spmm";
    if (compute) {
      report.layer(base + ".gflops", med > 0 ? first.flops / (med * 1e6) : 0.0, "GFLOP/s");
    } else {
      report.layer(base + ".gbps", med > 0 ? first.bytes / (med * 1e6) : 0.0, "GB/s");
    }
    conv_ms += med;
    if (std::string(name) == "permute") permute_ms = med;
  }
  report.layer("tensor.permute.conv_share", conv_ms > 0 ? permute_ms / conv_ms : 0.0, "ratio");
}

}  // namespace

void probe_train_step(nn::Model& model, const prune::MaskSet& mask, const fedtiny::data::Batch& batch,
                      const fl::FLConfig& config, Report& report) {
  const auto param_masks = mask.for_params(model);
  nn::SGD sgd({config.lr, config.momentum, config.weight_decay});
  const bool refresh = config.sparse_training && config.sparse_exec_max_density > 0.0f;

  // Steps repeated on one batch would walk the weights away from the
  // workload's; every timed step and SGD update starts from its state.
  const auto saved = model.state();
  auto restore = [&] {
    model.set_state(saved);
    if (refresh) prune::refresh_sparse_values(model);
  };
  const auto loss = nn::softmax_cross_entropy(model.forward(batch.x, nn::Mode::kTrain), batch.y);

  Interleaved timer;
  const size_t step = timer.add(
      [&] {
        model.zero_grad();
        Tensor logits = model.forward(batch.x, nn::Mode::kTrain);
        auto l = nn::softmax_cross_entropy(logits, batch.y);
        model.backward(l.grad_logits);
        sgd.step_masked(model.params(), param_masks);
        if (refresh) prune::refresh_sparse_values(model);
      },
      restore);
  const size_t fwd = timer.add([&] { model.forward(batch.x, nn::Mode::kTrain); });
  const size_t fwd_bwd = timer.add([&] {
    model.zero_grad();
    model.forward(batch.x, nn::Mode::kTrain);
    model.backward(loss.grad_logits);
  });
  const size_t update =
      timer.add([&] { sgd.step_masked(model.params(), param_masks); }, restore);
  const size_t refresh_csr = timer.add([&] {
    if (refresh) prune::refresh_sparse_values(model);
  });
  const auto leaves = add_leaves(timer, model, batch.size(), nn::Mode::kTrain);
  const auto ms = timer.run();
  restore();

  const double bwd_ms = std::max(0.0, ms[fwd_bwd] - ms[fwd]);
  report.layer("nn.step_ms", ms[step], "ms");
  report.layer("nn.fwd_ms", ms[fwd], "ms");
  report.layer("nn.bwd_ms", bwd_ms, "ms");
  report.layer("nn.sgd_ms", ms[update], "ms");
  report.layer("prune.refresh_ms", refresh ? ms[refresh_csr] : 0.0, "ms");
  report_leaves(leaves, ms, ms[fwd] + bwd_ms, report);
  report_kernels(model, mask, batch.size(), /*backward=*/true, report);
}

void probe_eval_forward(nn::Model& model, const prune::MaskSet& mask, const Tensor& x,
                        Report& report) {
  model.forward(x, nn::Mode::kEval);  // conv geometry at this batch
  Interleaved timer;
  const size_t fwd = timer.add([&] { model.forward(x, nn::Mode::kEval); });
  const auto leaves = add_leaves(timer, model, x.dim(0), nn::Mode::kEval);
  const auto ms = timer.run();
  report.layer("nn.step_ms", ms[fwd], "ms");
  report.layer("nn.fwd_ms", ms[fwd], "ms");
  report.layer("nn.bwd_ms", 0.0, "ms");
  report.layer("nn.sgd_ms", 0.0, "ms");
  report.layer("prune.refresh_ms", 0.0, "ms");
  report_leaves(leaves, ms, ms[fwd], report);
  report_kernels(model, mask, x.dim(0), /*backward=*/false, report);
}

void probe_codec(const std::vector<Tensor>& state, const prune::MaskSet& mask,
                 const std::vector<int>& prunable, const fl::CodecConfig& codec, int64_t samples,
                 uint64_t seed, Report& report) {
  const auto payload = fl::build_sparse_state(state, mask, prunable);
  auto update = fl::build_sparse_update(state, mask, prunable);
  update.num_samples = samples;
  const auto v1_state = fl::serialize(payload);
  const auto v1_update = fl::serialize(update);

  std::vector<uint8_t> state_wire, update_wire;
  fl::SparseStatePayload state_out;
  fl::SparseUpdatePayload update_out;
  double enc_s = 0.0, dec_s = 0.0, enc_u = 0.0, dec_u = 0.0;
  if (!codec.enabled()) {
    enc_s = median_ms([&] { state_wire = fl::serialize(payload); });
    dec_s = median_ms([&] { check(fl::deserialize(state_wire, state_out), "v1 state decode"); });
    enc_u = median_ms([&] { update_wire = fl::serialize(update); });
    dec_u = median_ms([&] { check(fl::deserialize(update_wire, update_out), "v1 update decode"); });
  } else {
    enc_s = median_ms([&] { state_wire = fl::codec::encode_state(payload, codec, seed, 0); });
    dec_s = median_ms(
        [&] { check(fl::codec::decode_state(state_wire, state_out), "codec state decode"); });
    // The uplink's delta reference: the decoded broadcast's values at the
    // mask support plus its dense remainder, as both ends compute it.
    std::vector<Tensor> round_start;
    check(fl::reconstruct_state(state_out, prunable, round_start), "broadcast reconstruct");
    auto ref_update = fl::build_sparse_update(round_start, mask, prunable);
    fl::codec::SupportValues reference;
    for (auto& layer : ref_update.sparse_layers) reference.push_back(std::move(layer.values));
    for (const auto& t : ref_update.dense_tensors) {
      const auto v = t.flat();
      reference.emplace_back(v.begin(), v.end());
    }
    enc_u = median_ms([&] {
      update_wire = fl::codec::encode_update(update, codec, seed, 0, 0, &reference, nullptr);
    });
    dec_u = median_ms([&] {
      check(fl::codec::decode_update(update_wire, update_out, &reference), "codec update decode");
    });
  }
  report.layer("fl.codec.encode_state_ms", enc_s, "ms");
  report.layer("fl.codec.decode_state_ms", dec_s, "ms");
  report.layer("fl.codec.encode_update_ms", enc_u, "ms");
  report.layer("fl.codec.decode_update_ms", dec_u, "ms");
  report.layer("fl.codec.ratio",
               static_cast<double>(state_wire.size() + update_wire.size()) /
                   static_cast<double>(v1_state.size() + v1_update.size()),
               "ratio");
}

void probe_fold(const std::vector<Tensor>& state, const prune::MaskSet& mask,
                const std::vector<int>& prunable, int cohort, Report& report) {
  const auto update = fl::build_sparse_update(state, mask, prunable);
  fl::ShardedAccumulator acc;
  const double weight = 1.0 / static_cast<double>(std::max(cohort, 1));
  std::vector<double> per_fold;
  for (int round = 0; round < 8; ++round) {
    acc.begin_round();
    for (int c = 0; c < cohort; ++c) {
      const auto t0 = Clock::now();
      acc.fold_sparse(update, weight);
      per_fold.push_back(ms_between(t0, Clock::now()));
    }
  }
  report.layer("fl.accumulator.fold_ms", median(per_fold), "ms");
}

void probe_install(nn::Model& model, const prune::MaskSet& mask, float max_density, bool train,
                   Report& report) {
  const double ms = median_ms([&] {
    prune::clear_sparse_execution(model);
    prune::install_sparse_execution(model, mask, max_density, train);
  });
  report.layer("prune.install_ms", ms, "ms");
}

void probe_batch(const fedtiny::data::ClientDataSource& source, int64_t batch_size,
                 Report& report) {
  // The first client holding a full batch (else the largest one).
  int client = 0;
  for (int k = 0; k < std::min(source.num_clients(), 1000); ++k) {
    if (source.size(k) > source.size(client)) client = k;
    if (source.size(client) >= batch_size) break;
  }
  std::vector<int64_t> ids(static_cast<size_t>(std::min(batch_size, source.size(client))));
  for (size_t i = 0; i < ids.size(); ++i) ids[i] = static_cast<int64_t>(i);
  const double ms = median_ms([&] { auto batch = source.gather(client, ids); });
  report.layer("data.batch_ms", ms, "ms");
}

}  // namespace e2ebench
