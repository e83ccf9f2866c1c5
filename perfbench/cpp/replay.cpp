#include "replay.hpp"

#include <algorithm>
#include <cstring>
#include <stdexcept>
#include <vector>

#include "nn/decode.hpp"
#include "tensor/kernels.hpp"
#include "tensor/ops.hpp"
#include "train/optim.hpp"
#include "util/rng.hpp"

namespace perfbench {

using namespace sdd;

namespace {

double us_since(std::int64_t start_ns) {
  return static_cast<double>(now_ns() - start_ns) * 1e-3;
}

nn::RMSNorm final_norm_of(const nn::TransformerLM& model) {
  for (const nn::NamedParam& p : model.parameters()) {
    if (p.name == "final_norm.weight") {
      nn::RMSNorm norm{model.config().d_model};
      norm.weight() = p.tensor;
      return norm;
    }
  }
  throw std::logic_error("replay: model has no final_norm.weight");
}

std::vector<float> random_vector(std::size_t n, Rng& rng) {
  std::vector<float> v(n);
  for (float& x : v) x = rng.uniform_float(-1.0F, 1.0F);
  return v;
}

// Mean microseconds per call of `linear.apply` at `rows` rows.
double time_apply(const nn::Linear& linear, std::int64_t rows, int reps, Rng& rng) {
  const std::vector<float> x = random_vector(
      static_cast<std::size_t>(rows * linear.in_features()), rng);
  std::vector<float> y(static_cast<std::size_t>(rows * linear.out_features()));
  linear.apply(x.data(), y.data(), rows);  // warm
  const std::int64_t start = now_ns();
  for (int r = 0; r < reps; ++r) linear.apply(x.data(), y.data(), rows);
  return us_since(start) / reps;
}

}  // namespace

DecodeSplit replay_decode(nn::TransformerLM& model,
                          std::span<const std::int32_t> context, int reps) {
  const nn::ModelConfig& config = model.config();
  const std::int64_t channels = config.d_model;
  const float eps = config.rmsnorm_eps;
  const nn::RMSNorm final_norm = final_norm_of(model);
  nn::Linear head;  // the tied LM head: the token embedding as a Linear
  head.weight() = model.token_embedding();

  nn::TransformerLM::DecodeState state = model.make_decode_state();
  model.decode_span(state, context.first(context.size() - 1));
  const std::int64_t position = state.position;
  const std::int32_t token = context.back();
  Rng rng{1};

  DecodeSplit split;
  std::vector<double> step_us, norm_us, attn_us, mlp_us, head_us, sample_us;
  std::vector<float> reference;
  std::int32_t reference_next = -1;
  for (int r = 0; r < reps; ++r) {
    state.rollback(position);
    std::int64_t start = now_ns();
    reference = model.decode_step(state, token);
    reference_next = nn::sample_token(reference, 0.0F, rng);
    step_us.push_back(us_since(start));

    state.rollback(position);
    double norm = 0.0, attn = 0.0, mlp = 0.0;
    std::vector<float> x(static_cast<std::size_t>(channels));
    std::vector<float> normed(x.size());
    std::vector<float> delta(x.size());
    std::memcpy(x.data(), model.token_embedding().data().data() + token * channels,
                x.size() * sizeof(float));
    for (std::int64_t l = 0; l < model.n_layers(); ++l) {
      nn::TransformerBlock& block = model.block(static_cast<std::size_t>(l));
      nn::LayerKVCache& cache = state.caches[static_cast<std::size_t>(l)];
      start = now_ns();
      block.norm1().apply(x.data(), normed.data(), 1, eps);
      norm += us_since(start);
      start = now_ns();
      block.attention().step(normed.data(), delta.data(), cache, position);
      attn += us_since(start);
      kernels::axpy(1.0F, delta.data(), x.data(), channels, /*accumulate=*/true);
      start = now_ns();
      block.norm2().apply(x.data(), normed.data(), 1, eps);
      norm += us_since(start);
      start = now_ns();
      block.mlp().step(normed.data(), delta.data());
      mlp += us_since(start);
      kernels::axpy(1.0F, delta.data(), x.data(), channels, /*accumulate=*/true);
    }
    ++state.position;
    start = now_ns();
    final_norm.apply(x.data(), normed.data(), 1, eps);
    norm += us_since(start);
    std::vector<float> logits(static_cast<std::size_t>(config.vocab_size));
    start = now_ns();
    head.apply(normed.data(), logits.data(), 1);
    head_us.push_back(us_since(start));
    start = now_ns();
    const std::int32_t next = nn::sample_token(logits, 0.0F, rng);
    sample_us.push_back(us_since(start));
    norm_us.push_back(norm);
    attn_us.push_back(attn);
    mlp_us.push_back(mlp);
    split.bitwise = logits.size() == reference.size() && next == reference_next &&
                    std::memcmp(logits.data(), reference.data(),
                                logits.size() * sizeof(float)) == 0;
    if (!split.bitwise) break;
  }
  split.step_us = median(step_us);
  split.rmsnorm_us = median(norm_us);
  split.attn_us = median(attn_us);
  split.mlp_us = median(mlp_us);
  split.lm_head_us = median(head_us);
  split.sample_us = median(sample_us);

  std::vector<double> span_us;
  for (int r = 0; r < std::max(3, reps / 20); ++r) {
    nn::TransformerLM::DecodeState fresh = model.make_decode_state();
    const std::int64_t start = now_ns();
    model.decode_span(fresh, context);
    span_us.push_back(us_since(start) / static_cast<double>(context.size()));
  }
  split.span_us_per_tok = median(span_us);
  return split;
}

TrainSplit replay_train_step(const nn::TransformerLM& source, bool lora,
                             std::int64_t batch, std::int64_t seq,
                             std::uint64_t seed, int reps) {
  nn::TransformerLM model = source.clone();
  if (lora) model.attach_lora(nn::LoraConfig{}, seed);
  train::AdamW optimizer{model.trainable_parameters(), train::AdamWConfig{}};
  Rng rng{seed};
  const auto n = static_cast<std::size_t>(batch * seq);
  std::vector<std::int32_t> inputs(n);
  std::vector<std::int32_t> targets(n);
  for (std::size_t i = 0; i < n; ++i) {
    inputs[i] = static_cast<std::int32_t>(rng.uniform_int(0, model.config().vocab_size - 1));
    targets[i] = static_cast<std::int32_t>(rng.uniform_int(0, model.config().vocab_size - 1));
  }
  const std::vector<float> weights(n, 1.0F);

  std::vector<double> forward, backward, optim, step;
  for (int r = 0; r < reps; ++r) {
    const std::int64_t t0 = now_ns();
    const Tensor logits = model.forward(inputs, batch, seq);
    Tensor loss = ops::cross_entropy(logits, targets, weights);
    (void)loss.item();
    const std::int64_t t1 = now_ns();
    optimizer.zero_grad();
    const std::int64_t t2 = now_ns();
    loss.backward();
    const std::int64_t t3 = now_ns();
    optimizer.clip_gradients(1.0F);
    optimizer.step();
    const std::int64_t t4 = now_ns();
    forward.push_back(ns_to_ms(t1 - t0));
    backward.push_back(ns_to_ms(t3 - t2));
    optim.push_back(ns_to_ms((t2 - t1) + (t4 - t3)));
    step.push_back(ns_to_ms(t4 - t0));
  }
  return TrainSplit{median(step), median(forward), median(backward), median(optim)};
}

KernelProbe probe_kernels(nn::TransformerLM& model, std::int64_t gemm_rows) {
  nn::TransformerBlock& block = model.block(0);
  nn::Linear head;
  head.weight() = model.token_embedding();
  const std::vector<const nn::Linear*> projections{
      &block.attention().wq(), &block.attention().wk(), &block.attention().wv(),
      &block.attention().wo(), &block.mlp().w_gate(),   &block.mlp().w_up(),
      &block.mlp().w_down()};
  const auto layers = static_cast<double>(model.n_layers());
  Rng rng{2};

  auto macs = [](const nn::Linear& l) {
    return static_cast<double>(l.in_features() * l.out_features());
  };
  double token_macs = macs(head);
  double gemv_us = time_apply(head, 1, 400, rng);
  double gemm_macs = macs(head) * static_cast<double>(gemm_rows);
  double gemm_us = time_apply(head, gemm_rows, 4, rng);
  for (const nn::Linear* p : projections) {
    token_macs += layers * macs(*p);
    gemv_us += layers * time_apply(*p, 1, 4000, rng);
    gemm_macs += layers * macs(*p) * static_cast<double>(gemm_rows);
    gemm_us += layers * time_apply(*p, gemm_rows, 20, rng);
  }
  KernelProbe probe;
  probe.gemv_gflops = 2.0 * token_macs / (gemv_us * 1e3);
  probe.gemv_bytes_per_tok = 4.0 * token_macs;  // fp32 weights, each read once
  probe.gemm_gflops = 2.0 * gemm_macs / (gemm_us * 1e3);
  return probe;
}

void report_replays(const nn::TransformerLM& source, std::uint64_t seed,
                    Tracer& tracer, Report& report) {
  nn::TransformerLM model = source.clone();
  Rng rng{seed ^ 0xDEC0DEULL};
  std::vector<std::int32_t> context(96);
  for (std::int32_t& t : context) {
    t = static_cast<std::int32_t>(rng.uniform_int(0, model.config().vocab_size - 1));
  }

  DecodeSplit decode;
  {
    const ScopedSpan span{tracer, "replay.decode_step", "nn"};
    decode = replay_decode(model, context, 200);
  }
  report.check(decode.bitwise, "decode_replay_bitwise",
               "op-by-op replay differs from TransformerLM::decode_step");
  KernelProbe probe;
  {
    const ScopedSpan span{tracer, "replay.linear_probe", "tensor"};
    probe = probe_kernels(model, 8 * 96);
  }
  TrainSplit pretrain;
  TrainSplit sft;
  {
    const ScopedSpan span{tracer, "replay.train_step", "train"};
    pretrain = replay_train_step(model, /*lora=*/false, 8, 96, seed, 4);
    sft = replay_train_step(model, /*lora=*/true, 8, 64, seed, 4);
  }

  report.layer("tensor.gemv_gflops", probe.gemv_gflops, "GFLOP/s");
  report.layer("tensor.gemv_bytes_per_tok", probe.gemv_bytes_per_tok, "B");
  report.layer("tensor.gemm_gflops", probe.gemm_gflops, "GFLOP/s");
  report.layer("nn.decode_step_us", decode.step_us, "us");
  report.layer("nn.decode_span_us_per_tok", decode.span_us_per_tok, "us");
  report.layer("nn.rmsnorm_us", decode.rmsnorm_us, "us");
  report.layer("nn.attn_step_us", decode.attn_us, "us");
  report.layer("nn.mlp_step_us", decode.mlp_us, "us");
  report.layer("nn.lm_head_us", decode.lm_head_us, "us");
  report.layer("nn.sample_us", decode.sample_us, "us");
  const double split_sum = decode.rmsnorm_us + decode.attn_us + decode.mlp_us +
                           decode.lm_head_us + decode.sample_us;
  report.layer("nn.op_split_coverage_pct",
               decode.step_us > 0.0 ? 100.0 * split_sum / decode.step_us : 0.0, "%");
  report.layer("train.pretrain_step_ms", pretrain.step_ms, "ms");
  report.layer("train.sft_step_ms", sft.step_ms, "ms");
  report.layer("train.forward_ms", pretrain.forward_ms, "ms");
  report.layer("train.backward_ms", pretrain.backward_ms, "ms");
  report.layer("train.optim_ms", pretrain.optim_ms, "ms");
}

}  // namespace perfbench
