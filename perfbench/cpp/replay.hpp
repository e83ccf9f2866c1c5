// Op-by-op replays of one decode step and one train step through the public
// nn/tensor/train calls, plus GEMV/GEMM probes on the model's projection
// shapes. These give the per-op split the end-to-end runs cannot see from
// outside: each replay re-runs exactly the calls the library makes, timed
// one at a time.
#pragma once

#include <cstdint>
#include <span>

#include "nn/transformer.hpp"
#include "report.hpp"
#include "trace.hpp"

namespace perfbench {

namespace nn = sdd::nn;

struct DecodeSplit {
  double step_us = 0.0;  // TransformerLM::decode_step + nn::sample_token
  double rmsnorm_us = 0.0;
  double attn_us = 0.0;
  double mlp_us = 0.0;
  double lm_head_us = 0.0;
  double sample_us = 0.0;
  double span_us_per_tok = 0.0;  // TransformerLM::decode_span over a prompt
  bool bitwise = false;          // replayed logits == decode_step logits
};

// Replays the decode step for the token after `context` (which must leave
// room for one more position).
DecodeSplit replay_decode(nn::TransformerLM& model,
                          std::span<const std::int32_t> context, int reps);

struct TrainSplit {
  double step_ms = 0.0;
  double forward_ms = 0.0;   // TransformerLM::forward + ops::cross_entropy
  double backward_ms = 0.0;  // Tensor::backward
  double optim_ms = 0.0;     // AdamW zero_grad + clip_gradients + step
};

// One AdamW train step on random tokens; `lora` attaches rank-8 adapters
// first (the recovery fine-tune), otherwise every weight trains (pretrain).
TrainSplit replay_train_step(const nn::TransformerLM& model, bool lora,
                             std::int64_t batch, std::int64_t seq,
                             std::uint64_t seed, int reps);

struct KernelProbe {
  double gemv_gflops = 0.0;        // Linear::apply at rows = 1
  double gemv_bytes_per_tok = 0.0; // weight bytes one token streams
  double gemm_gflops = 0.0;        // Linear::apply at rows = gemm_rows
};

KernelProbe probe_kernels(nn::TransformerLM& model, std::int64_t gemm_rows);

// Runs every replay on `model` (the workload's model), records each as a
// span, checks the decode replay bitwise against TransformerLM::decode_step,
// and reports the tensor.*, nn.decode_* / op split and train.* metrics.
void report_replays(const nn::TransformerLM& model, std::uint64_t seed,
                    Tracer& tracer, Report& report);

}  // namespace perfbench
