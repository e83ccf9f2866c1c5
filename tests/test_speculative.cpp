// Self-speculative decoding: the substrate (decode_span, KV rollback,
// gemm_nt_rowwise) must be bitwise-identical to the sequential decode path,
// and the draft-and-verify loop — standalone, behind an InferenceServer,
// and behind a VariantRouter with draft pairing — must emit byte-identical
// output to the target's plain greedy decode at every prune depth, every k,
// and under injected rejection storms and draft NaNs.
#include <algorithm>
#include <stdexcept>
#include <vector>

#include <gtest/gtest.h>

#include "nn/decode.hpp"
#include "nn/speculative.hpp"
#include "nn/transformer.hpp"
#include "serve/router.hpp"
#include "serve/serve.hpp"
#include "tensor/kernels.hpp"
#include "test_helpers.hpp"
#include "util/error.hpp"
#include "util/fault.hpp"

namespace sdd {
namespace {

using namespace std::chrono_literals;
using fault::Fault;
using nn::TransformerLM;
using testing::tiny_config;

constexpr auto kWait = 60s;

std::vector<std::int32_t> test_prompt(std::uint64_t index = 0) {
  return {static_cast<std::int32_t>(1 + index % 11),
          static_cast<std::int32_t>(3 + index % 7),
          static_cast<std::int32_t>(5 + index % 17)};
}

nn::GenerateOptions greedy_options(std::int64_t max_new = 12) {
  nn::GenerateOptions options;
  options.max_new_tokens = max_new;
  options.temperature = 0.0F;
  return options;
}

// ---- substrate: batched verify must be bitwise-equal to sequential decode --

TEST(Spec, GemmNtRowwiseBitwiseMatchesSingleRowCalls) {
  const std::int64_t m = 5, k = 19, n = 7;
  std::vector<float> a(static_cast<std::size_t>(m * k));
  std::vector<float> b(static_cast<std::size_t>(n * k));
  for (std::size_t i = 0; i < a.size(); ++i) {
    a[i] = 0.1F * static_cast<float>(i % 13) - 0.3F;
  }
  for (std::size_t i = 0; i < b.size(); ++i) {
    b[i] = 0.07F * static_cast<float>(i % 17) - 0.5F;
  }
  std::vector<float> batched(static_cast<std::size_t>(m * n), -1.0F);
  kernels::gemm_nt_rowwise(a.data(), b.data(), batched.data(), m, k, n, false);
  for (std::int64_t row = 0; row < m; ++row) {
    std::vector<float> single(static_cast<std::size_t>(n), -1.0F);
    // The m=1 gemm_nt shape is exactly what decode_step uses per token.
    kernels::gemm_nt(a.data() + row * k, b.data(), single.data(), 1, k, n,
                     false);
    for (std::int64_t col = 0; col < n; ++col) {
      EXPECT_EQ(batched[static_cast<std::size_t>(row * n + col)],
                single[static_cast<std::size_t>(col)])
          << "row " << row << " col " << col << " not bitwise equal";
    }
  }
}

TEST(Spec, DecodeSpanBitwiseMatchesSequentialDecodeSteps) {
  const TransformerLM model{tiny_config(3), 71};
  const std::vector<std::int32_t> tokens{4, 9, 1, 22, 13, 7};

  TransformerLM::DecodeState sequential = model.make_decode_state();
  std::vector<std::vector<float>> step_logits;
  for (const std::int32_t token : tokens) {
    step_logits.push_back(model.decode_step(sequential, token));
  }

  TransformerLM::DecodeState spanned = model.make_decode_state();
  const std::vector<float> rows = model.decode_span(spanned, tokens);
  const auto vocab = static_cast<std::size_t>(model.config().vocab_size);
  ASSERT_EQ(rows.size(), tokens.size() * vocab);
  ASSERT_EQ(spanned.position, sequential.position);
  for (std::size_t t = 0; t < tokens.size(); ++t) {
    for (std::size_t v = 0; v < vocab; ++v) {
      ASSERT_EQ(rows[t * vocab + v], step_logits[t][v])
          << "token " << t << " logit " << v << " not bitwise equal";
    }
  }
}

TEST(Spec, DecodeSpanAfterPrefixMatchesContinuedSteps) {
  // Mixed mode, the exact shape the verify loop uses: sequential prefill,
  // then a batched span in the middle of the stream.
  const TransformerLM model{tiny_config(3), 72};
  TransformerLM::DecodeState sequential = model.make_decode_state();
  TransformerLM::DecodeState spanned = model.make_decode_state();
  for (const std::int32_t token : test_prompt()) {
    model.decode_step(sequential, token);
    model.decode_step(spanned, token);
  }
  const std::vector<std::int32_t> span{8, 2, 31};
  std::vector<std::vector<float>> step_logits;
  for (const std::int32_t token : span) {
    step_logits.push_back(model.decode_step(sequential, token));
  }
  const std::vector<float> rows = model.decode_span(spanned, span);
  const auto vocab = static_cast<std::size_t>(model.config().vocab_size);
  for (std::size_t t = 0; t < span.size(); ++t) {
    for (std::size_t v = 0; v < vocab; ++v) {
      ASSERT_EQ(rows[t * vocab + v], step_logits[t][v]);
    }
  }
}

TEST(Spec, RollbackReplaysBitwiseIdentically) {
  const TransformerLM model{tiny_config(3), 73};
  TransformerLM::DecodeState state = model.make_decode_state();
  for (const std::int32_t token : test_prompt()) {
    model.decode_step(state, token);
  }
  const std::int64_t base = state.position;
  const std::vector<float> original = model.decode_step(state, 17);

  // Rejected-tail shape: feed a different continuation, rewind, re-feed.
  model.decode_step(state, 23);
  model.decode_step(state, 5);
  state.rollback(base);
  EXPECT_EQ(state.position, base);
  const std::vector<float> replayed = model.decode_step(state, 17);
  ASSERT_EQ(replayed.size(), original.size());
  for (std::size_t i = 0; i < original.size(); ++i) {
    ASSERT_EQ(replayed[i], original[i]) << "logit " << i << " differs";
  }
}

TEST(Spec, RollbackValidatesTarget) {
  const TransformerLM model{tiny_config(2), 74};
  TransformerLM::DecodeState state = model.make_decode_state();
  model.decode_step(state, 1);
  model.decode_step(state, 2);
  EXPECT_THROW(state.rollback(-1), std::invalid_argument);
  EXPECT_THROW(state.rollback(state.position + 1), std::invalid_argument);
  state.rollback(0);  // full rewind is legal
  EXPECT_EQ(state.position, 0);
}

TEST(Spec, DecodeSpanValidatesInput) {
  const TransformerLM model{tiny_config(2), 75};
  TransformerLM::DecodeState state = model.make_decode_state();
  EXPECT_TRUE(model.decode_span(state, {}).empty());
  const std::vector<std::int32_t> bad{-1};
  EXPECT_THROW(model.decode_span(state, bad), std::invalid_argument);
  const std::vector<std::int32_t> over(
      static_cast<std::size_t>(model.config().max_seq_len) + 1, 1);
  EXPECT_THROW(model.decode_span(state, over), std::logic_error);
}

// ---- the speculative loop: bit-identity at every depth, k, and fault -------

TEST(Spec, GenerateBitIdenticalAcrossPruneDepthsAndK) {
  const TransformerLM target{tiny_config(4), 81};
  const std::vector<std::int32_t> prompt = test_prompt();
  const nn::GenerateOptions options = greedy_options(14);
  const auto reference = nn::generate(target, prompt, options);

  std::vector<TransformerLM> drafts;
  drafts.push_back(target.clone());      // acceptance ceiling
  drafts.push_back(target.pruned(2, 1));  // depth 1
  drafts.push_back(target.pruned(1, 2));  // depth 2
  for (const TransformerLM& draft : drafts) {
    for (const std::int64_t k : {1, 3, 4, 7}) {  // k=1, odd, even, > budget/2
      const auto output =
          nn::speculative_generate(target, draft, prompt, options, k);
      EXPECT_EQ(output, reference)
          << "diverged with draft depth " << target.n_layers() - draft.n_layers()
          << ", k=" << k;
    }
  }
}

TEST(Spec, SelfDraftAcceptsEveryProposal) {
  const TransformerLM target{tiny_config(3), 82};
  nn::SpecCounters counters;
  const auto output = nn::speculative_generate(
      target, target, test_prompt(), greedy_options(12), 4, &counters);
  EXPECT_EQ(output, nn::generate(target, test_prompt(), greedy_options(12)));
  EXPECT_GT(counters.proposed, 0);
  EXPECT_EQ(counters.accepted, counters.proposed);
  EXPECT_DOUBLE_EQ(counters.acceptance_rate(), 1.0);
  EXPECT_EQ(counters.corrections, 0);
  EXPECT_GT(counters.bonus, 0);
}

TEST(Spec, CountersBalanceExactly) {
  const TransformerLM target{tiny_config(4), 83};
  const TransformerLM draft = target.pruned(1, 2);
  nn::SpecCounters counters;
  const std::int64_t budget = 13;
  const auto output = nn::speculative_generate(
      target, draft, test_prompt(), greedy_options(budget), 3, &counters);
  // No stop token: the budget is hit exactly, and every emitted token is
  // accounted to exactly one counter bucket.
  EXPECT_EQ(static_cast<std::int64_t>(output.size()), budget);
  EXPECT_EQ(counters.emitted(), budget);
  EXPECT_EQ(counters.rounds, counters.corrections + counters.bonus + counters.solo);
  EXPECT_LE(counters.accepted, counters.proposed);
}

TEST(Spec, RejectionStormAtPositionZeroPreservesBytes) {
  const TransformerLM target{tiny_config(3), 84};
  // Every proposal corrupted: reject at pos 0.
  fault::configure("spec_reject_storm:p=1");
  nn::SpecCounters counters;
  const auto output = nn::speculative_generate(
      target, target, test_prompt(), greedy_options(10), 4, &counters);
  fault::reset();
  // A self-draft proposes the target's own argmax; corruption shifts it off
  // by one, so nothing can be accepted — yet the output must not change.
  EXPECT_EQ(output, nn::generate(target, test_prompt(), greedy_options(10)));
  EXPECT_EQ(counters.accepted, 0);
  EXPECT_GT(counters.corrections, 0);
  EXPECT_EQ(counters.bonus, 0);
}

TEST(Spec, PartialRejectionStormPreservesBytes) {
  const TransformerLM target{tiny_config(4), 85};
  const TransformerLM draft = target.pruned(2, 1);
  const auto reference = nn::generate(target, test_prompt(), greedy_options(14));
  fault::configure("spec_reject_storm:p=0.5");
  for (const std::int64_t k : {1, 3, 4}) {
    EXPECT_EQ(nn::speculative_generate(target, draft, test_prompt(),
                                       greedy_options(14), k),
              reference)
        << "partial storm diverged at k=" << k;
  }
  fault::reset();
}

TEST(Spec, DraftNanDegradesRoundWithoutFailing) {
  const TransformerLM target{tiny_config(3), 86};
  // Past the prompt prefill rows, inside a proposal.
  fault::configure("draft_nan:5");
  nn::SpecCounters counters;
  const auto output = nn::speculative_generate(
      target, target, test_prompt(), greedy_options(12), 4, &counters);
  fault::reset();
  EXPECT_EQ(output, nn::generate(target, test_prompt(), greedy_options(12)));
  EXPECT_GE(counters.draft_fallbacks, 1);
  EXPECT_GE(counters.solo, counters.draft_fallbacks);
}

TEST(Spec, StopTokenEndsGenerationIdentically) {
  const TransformerLM target{tiny_config(3), 87};
  const TransformerLM draft = target.pruned(1, 1);
  const auto unbounded = nn::generate(target, test_prompt(), greedy_options(12));
  ASSERT_GE(unbounded.size(), 4U);
  // Stop on a token the greedy stream actually emits, so the stop fires
  // mid-round for the speculative decoder.
  nn::GenerateOptions options = greedy_options(12);
  options.stop_token = unbounded[3];
  const auto reference = nn::generate(target, test_prompt(), options);
  EXPECT_EQ(nn::speculative_generate(target, draft, test_prompt(), options, 4),
            reference);
}

TEST(Spec, RejectsInvalidSessions) {
  const TransformerLM target{tiny_config(3), 88};
  EXPECT_THROW(nn::speculative_generate(target, target, {}, greedy_options(), 4),
               std::invalid_argument);
  nn::GenerateOptions sampled = greedy_options();
  sampled.temperature = 0.7F;
  EXPECT_THROW(nn::speculative_generate(target, target, test_prompt(), sampled, 4),
               std::invalid_argument);

  nn::ModelConfig other_vocab = tiny_config(2);
  other_vocab.vocab_size = 32;
  const TransformerLM mismatched{other_vocab, 89};
  EXPECT_THROW(nn::SpeculativeSession(target, mismatched, 4),
               std::invalid_argument);

  nn::ModelConfig short_ctx = tiny_config(2);
  short_ctx.max_seq_len = tiny_config().max_seq_len / 2;
  const TransformerLM narrow{short_ctx, 90};
  EXPECT_THROW(nn::SpeculativeSession(target, narrow, 4),
               std::invalid_argument);
}

TEST(Spec, FaultSpecParsesSpeculativeDirectives) {
  const fault::FaultConfig storm = fault::parse_fault_spec("spec_reject_storm");
  EXPECT_DOUBLE_EQ(storm.probability(Fault::kSpecRejectStorm), 1.0);
  const fault::FaultConfig half =
      fault::parse_fault_spec("spec_reject_storm:p=0.5");
  EXPECT_DOUBLE_EQ(half.probability(Fault::kSpecRejectStorm), 0.5);
  const fault::FaultConfig nan = fault::parse_fault_spec("draft_nan:7");
  EXPECT_EQ(nan[Fault::kDraftNan], 7);
  EXPECT_TRUE(storm.any());
  EXPECT_TRUE(nan.any());
  EXPECT_THROW(fault::parse_fault_spec("spec_reject_storm:p=nope"),
               std::invalid_argument);
}

// ---- serving integration ---------------------------------------------------

serve::Request spec_request(std::uint64_t index, std::int64_t max_new = 10) {
  serve::Request request;
  request.prompt = test_prompt(index);
  request.max_new_tokens = max_new;
  request.temperature = 0.0F;
  request.task = index % 2 == 0 ? "even" : "odd";
  return request;
}

TEST(SpecServe, SpeculativeServerBitIdenticalToPlainGreedy) {
  const TransformerLM model{tiny_config(4), 91};
  const TransformerLM draft = model.pruned(1, 2);
  serve::ServerConfig config;
  config.spec_k = 4;
  serve::InferenceServer server{model, config, &draft};
  ASSERT_TRUE(server.speculative());

  std::vector<serve::Request> requests;
  std::vector<serve::TicketPtr> tickets;
  for (std::uint64_t i = 0; i < 5; ++i) {
    requests.push_back(spec_request(i));
    tickets.push_back(server.submit(requests[i]));
  }
  for (std::size_t i = 0; i < tickets.size(); ++i) {
    ASSERT_TRUE(tickets[i]->wait_for(kWait));
    const serve::Response& response = tickets[i]->wait();
    ASSERT_EQ(response.state, serve::RequestState::kCompleted)
        << response.message;
    nn::GenerateOptions options = greedy_options(requests[i].max_new_tokens);
    options.stop_token = requests[i].stop_token;
    EXPECT_EQ(response.tokens, nn::generate(model, requests[i].prompt, options))
        << "request " << i << " diverged under speculative serving";
  }
  const serve::ServerStats stats = server.stats();
  EXPECT_EQ(stats.spec_requests, 5);
  EXPECT_GT(stats.spec.rounds, 0);
  EXPECT_EQ(stats.spec.emitted(), 5 * 10);
}

TEST(SpecServe, PerTaskAcceptanceCountersPartitionTheAggregate) {
  const TransformerLM model{tiny_config(3), 92};
  serve::ServerConfig config;
  config.spec_k = 3;
  serve::InferenceServer server{model, config, &model};  // self-draft
  std::vector<serve::TicketPtr> tickets;
  for (std::uint64_t i = 0; i < 6; ++i) {
    tickets.push_back(server.submit(spec_request(i)));
  }
  for (auto& ticket : tickets) {
    ASSERT_TRUE(ticket->wait_for(kWait));
    ASSERT_EQ(ticket->wait().state, serve::RequestState::kCompleted);
  }
  const serve::ServerStats stats = server.stats();
  ASSERT_EQ(stats.spec_by_task.count("even"), 1U);
  ASSERT_EQ(stats.spec_by_task.count("odd"), 1U);
  const nn::SpecCounters& even = stats.spec_by_task.at("even");
  const nn::SpecCounters& odd = stats.spec_by_task.at("odd");
  EXPECT_EQ(even.emitted() + odd.emitted(), stats.spec.emitted());
  EXPECT_EQ(even.proposed + odd.proposed, stats.spec.proposed);
  // Self-draft, no faults: acceptance is total in every bucket.
  EXPECT_DOUBLE_EQ(stats.spec.acceptance_rate(), 1.0);
}

TEST(SpecServe, SampledRequestsBypassTheDraft) {
  const TransformerLM model{tiny_config(3), 93};
  const TransformerLM draft = model.pruned(1, 1);
  serve::ServerConfig config;
  config.spec_k = 4;
  serve::InferenceServer server{model, config, &draft};
  serve::Request request = spec_request(0);
  request.temperature = 0.8F;
  request.seed = 777;
  auto ticket = server.submit(request);
  ASSERT_TRUE(ticket->wait_for(kWait));
  const serve::Response& response = ticket->wait();
  ASSERT_EQ(response.state, serve::RequestState::kCompleted);
  nn::GenerateOptions options = greedy_options(request.max_new_tokens);
  options.temperature = request.temperature;
  options.seed = request.seed;
  EXPECT_EQ(response.tokens, nn::generate(model, request.prompt, options));
  EXPECT_EQ(server.stats().spec_requests, 0);
}

TEST(SpecServe, SpeculativeSlotSurvivesRejectionStorm) {
  const TransformerLM model{tiny_config(3), 94};
  fault::configure("spec_reject_storm:p=1");
  serve::ServerConfig config;
  config.spec_k = 4;
  serve::InferenceServer server{model, config, &model};
  const serve::Request request = spec_request(1);
  auto ticket = server.submit(request);
  ASSERT_TRUE(ticket->wait_for(kWait));
  const serve::Response& response = ticket->wait();
  server.shutdown();
  const serve::ServerStats stats = server.stats();
  fault::reset();
  ASSERT_EQ(response.state, serve::RequestState::kCompleted);
  nn::GenerateOptions options = greedy_options(request.max_new_tokens);
  EXPECT_EQ(response.tokens, nn::generate(model, request.prompt, options));
  EXPECT_EQ(stats.spec.accepted, 0);  // storm: nothing accepted, bytes intact
}

TEST(SpecServe, KvSlotBytesIncludeTheDraftCache) {
  const TransformerLM model{tiny_config(4), 95};
  const TransformerLM draft = model.pruned(1, 2);
  serve::ServerConfig config;
  serve::InferenceServer plain{model, config};
  config.spec_k = 4;
  serve::InferenceServer spec{model, config, &draft};
  EXPECT_GT(spec.kv_slot_bytes(), plain.kv_slot_bytes());
  // Draft present but spec_k = 0: speculation off, no draft KV charge.
  serve::ServerConfig off;
  serve::InferenceServer disabled{model, off, &draft};
  EXPECT_FALSE(disabled.speculative());
  EXPECT_EQ(disabled.kv_slot_bytes(), plain.kv_slot_bytes());
}

TEST(SpecRouter, DraftPairingKeepsRoutedOutputsBitIdentical) {
  const TransformerLM full{tiny_config(4), 96};
  serve::RouterConfig config;
  config.spec_draft = "p2";
  config.server.spec_k = 4;
  std::vector<serve::VariantSpec> variants;
  variants.push_back({"full", full.clone(), 0.9, "", 0});
  variants.push_back({"p2", full.pruned(1, 2), 0.55, "", 0});
  serve::VariantRouter router{std::move(variants), config};

  std::vector<serve::RouteTicketPtr> tickets;
  for (std::uint64_t i = 0; i < 4; ++i) {
    serve::RouteRequest route;
    route.request = spec_request(i);
    route.request.task.clear();  // route-level label must reach the server
    route.task = "spec";
    route.variant = "full";
    tickets.push_back(router.submit(std::move(route)));
  }
  for (std::uint64_t i = 0; i < 4; ++i) {
    auto& ticket = *tickets[i];
    ASSERT_TRUE(ticket.wait_for(kWait));
    const serve::RouteResponse& routed = ticket.wait();
    ASSERT_EQ(routed.response.state, serve::RequestState::kCompleted)
        << routed.response.message;
    ASSERT_EQ(routed.variant, "full");
    EXPECT_EQ(routed.response.tokens,
              nn::generate(full, test_prompt(i), greedy_options(10)));
  }
  bool saw_draft_flag = false;
  for (const serve::ReplicaSnapshot& snap : router.replicas()) {
    if (snap.name == "p2") saw_draft_flag = snap.drafts;
    if (snap.name == "full") {
      EXPECT_EQ(snap.server.spec_requests, 4);
      // The route-level task label must reach the per-task breakdown.
      EXPECT_EQ(snap.server.spec_by_task.count("spec"), 1U);
    }
  }
  EXPECT_TRUE(saw_draft_flag);
}

TEST(SpecRouter, UnknownDraftVariantFailsLoudly) {
  const TransformerLM full{tiny_config(3), 97};
  serve::RouterConfig config;
  config.spec_draft = "nope";
  config.server.spec_k = 4;
  std::vector<serve::VariantSpec> variants;
  variants.push_back({"full", full.clone(), 0.9, "", 0});
  EXPECT_THROW(serve::VariantRouter(std::move(variants), config), Error);
}

}  // namespace
}  // namespace sdd
