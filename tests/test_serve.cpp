// Tests for the fault-tolerant batched inference serving layer (src/serve)
// and the decode-path cancellation/fault plumbing it relies on.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <set>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "nn/decode.hpp"
#include "nn/transformer.hpp"
#include "serve/serve.hpp"
#include "test_helpers.hpp"
#include "util/cancel.hpp"
#include "util/error.hpp"
#include "util/fault.hpp"

namespace sdd {
namespace {

using namespace std::chrono_literals;
using fault::Fault;
using serve::InferenceServer;
using serve::Request;
using serve::RequestState;
using serve::Response;
using serve::ServerConfig;
using testing::tiny_config;

constexpr auto kWait = 60s;  // generous terminal-state bound for CI machines

std::vector<std::int32_t> prompt_for(std::uint64_t salt) {
  return {static_cast<std::int32_t>(1 + salt % 7),
          static_cast<std::int32_t>(3 + salt % 11),
          static_cast<std::int32_t>(2 + salt % 5)};
}

Request request_for(std::uint64_t salt, std::int64_t max_new = 12) {
  Request request;
  request.prompt = prompt_for(salt);
  request.max_new_tokens = max_new;
  request.seed = 1000 + salt;
  return request;
}

std::vector<std::int32_t> reference_tokens(const nn::TransformerLM& model,
                                           const Request& request) {
  nn::GenerateOptions options;
  options.max_new_tokens = request.max_new_tokens;
  options.temperature = request.temperature;
  options.stop_token = request.stop_token;
  options.seed = request.seed;
  return nn::generate(model, request.prompt, options);
}

const Response& wait_resolved(serve::Ticket& ticket) {
  EXPECT_TRUE(ticket.wait_for(kWait)) << "request did not reach a terminal state";
  return ticket.wait();
}

TEST(Serve, SingleRequestMatchesUnloadedGenerate) {
  const nn::TransformerLM model{tiny_config(), 41};
  InferenceServer server{model, ServerConfig{}};
  const Request request = request_for(0);
  auto ticket = server.submit(request);
  const Response& response = wait_resolved(*ticket);
  EXPECT_EQ(response.state, RequestState::kCompleted);
  EXPECT_FALSE(response.error.has_value());
  EXPECT_EQ(response.tokens, reference_tokens(model, request));
}

TEST(Serve, BatchedRequestsAreBitIdenticalToUnbatched) {
  const nn::TransformerLM model{tiny_config(), 42};
  ServerConfig config;
  config.max_batch = 4;
  InferenceServer server{model, config};

  std::vector<Request> requests;
  std::vector<serve::TicketPtr> tickets;
  for (std::uint64_t i = 0; i < 6; ++i) {
    requests.push_back(request_for(i, /*max_new=*/10));
    requests.back().temperature = i % 2 == 0 ? 0.0F : 0.7F;
    tickets.push_back(server.submit(requests.back()));
  }
  for (std::size_t i = 0; i < tickets.size(); ++i) {
    const Response& response = wait_resolved(*tickets[i]);
    ASSERT_EQ(response.state, RequestState::kCompleted) << response.message;
    EXPECT_EQ(response.tokens, reference_tokens(model, requests[i]))
        << "request " << i << " diverged under batching";
  }
  EXPECT_EQ(server.stats().completed, 6);
}

TEST(Serve, AdmissionControlRejectsTyped) {
  const nn::TransformerLM model{tiny_config(), 43};
  ServerConfig config;
  config.queue_capacity = 2;
  config.start_worker = false;  // keep everything queued deterministically
  InferenceServer server{model, config};

  auto a = server.submit(request_for(1));
  auto b = server.submit(request_for(2));
  auto c = server.submit(request_for(3));  // over capacity, same priority
  EXPECT_EQ(c->state(), RequestState::kRejected);
  const Response& rejected = c->wait();
  ASSERT_TRUE(rejected.error.has_value());
  EXPECT_EQ(*rejected.error, ErrorKind::kResourceExhausted);
  EXPECT_TRUE(rejected.retryable);

  server.start();
  EXPECT_EQ(wait_resolved(*a).state, RequestState::kCompleted);
  EXPECT_EQ(wait_resolved(*b).state, RequestState::kCompleted);
  const serve::ServerStats stats = server.stats();
  EXPECT_EQ(stats.submitted, 3);
  EXPECT_EQ(stats.rejected, 1);
  EXPECT_EQ(stats.completed, 2);
}

TEST(Serve, ShedsLowestPriorityForHigherPriorityArrival) {
  const nn::TransformerLM model{tiny_config(), 44};
  ServerConfig config;
  config.queue_capacity = 2;
  config.start_worker = false;
  InferenceServer server{model, config};

  Request low = request_for(1);
  low.priority = 0;
  Request mid = request_for(2);
  mid.priority = 1;
  Request high = request_for(3);
  high.priority = 5;

  auto low_ticket = server.submit(low);
  auto mid_ticket = server.submit(mid);
  auto high_ticket = server.submit(high);  // queue full: sheds `low`

  EXPECT_EQ(low_ticket->state(), RequestState::kShed);
  const Response& shed = low_ticket->wait();
  ASSERT_TRUE(shed.error.has_value());
  EXPECT_EQ(*shed.error, ErrorKind::kResourceExhausted);
  EXPECT_TRUE(shed.retryable);

  // A same-or-lower priority arrival cannot shed anyone: it is rejected.
  Request another_low = request_for(4);
  another_low.priority = 1;
  auto rejected = server.submit(another_low);
  EXPECT_EQ(rejected->state(), RequestState::kRejected);

  server.start();
  EXPECT_EQ(wait_resolved(*mid_ticket).state, RequestState::kCompleted);
  EXPECT_EQ(wait_resolved(*high_ticket).state, RequestState::kCompleted);
  EXPECT_EQ(server.stats().shed, 1);
}

TEST(Serve, ShedTieBreaksOldestOfEqualLowestPriority) {
  const nn::TransformerLM model{tiny_config(), 47};
  ServerConfig config;
  config.queue_capacity = 2;
  config.start_worker = false;
  InferenceServer server{model, config};

  Request first = request_for(11);
  first.priority = 0;
  Request second = request_for(12);
  second.priority = 0;
  auto first_ticket = server.submit(first);
  auto second_ticket = server.submit(second);
  Request high = request_for(13);
  high.priority = 3;
  auto high_ticket = server.submit(high);

  // Several queued requests tie for lowest priority: the tie-break is
  // deterministic and FIFO-fair — the OLDEST of them is shed (it has had
  // the longest shot at a slot), never an arbitrary queue position.
  EXPECT_EQ(first_ticket->state(), RequestState::kShed);
  EXPECT_EQ(second_ticket->state(), RequestState::kQueued);
  EXPECT_EQ(high_ticket->state(), RequestState::kQueued);

  server.start();
  EXPECT_EQ(wait_resolved(*second_ticket).state, RequestState::kCompleted);
  EXPECT_EQ(wait_resolved(*high_ticket).state, RequestState::kCompleted);
  EXPECT_EQ(server.stats().shed, 1);
}

TEST(Serve, WaitForZeroTimeoutIsAnExactBoundary) {
  const nn::TransformerLM model{tiny_config(), 48};
  ServerConfig config;
  config.start_worker = false;  // the request provably stays pending
  InferenceServer server{model, config};
  auto ticket = server.submit(request_for(14));

  // A zero timeout is the boundary case: wait_for must return immediately
  // with "still pending" — no block, no spurious success.
  EXPECT_FALSE(ticket->wait_for(0ms));
  EXPECT_EQ(ticket->state(), RequestState::kQueued);

  server.start();
  ASSERT_TRUE(ticket->wait_for(kWait));
  // Once terminal, the same zero timeout reports success without blocking.
  EXPECT_TRUE(ticket->wait_for(0ms));
  EXPECT_EQ(ticket->wait().state, RequestState::kCompleted);
}

TEST(Serve, DeadlineAlreadyExpiredAtAdmissionTimesOutTyped) {
  const nn::TransformerLM model{tiny_config(), 49};
  ServerConfig config;
  config.start_worker = false;
  InferenceServer server{model, config};
  Request doomed = request_for(15);
  doomed.deadline_ms = 1;
  auto ticket = server.submit(doomed);
  // Let the deadline elapse before the scheduler first sees the queue: the
  // expiry check is >=, so a deadline that lands exactly on the admission
  // instant counts as expired — zero tokens, typed timeout, never kRunning.
  std::this_thread::sleep_for(10ms);
  server.start();
  const Response& response = wait_resolved(*ticket);
  EXPECT_EQ(response.state, RequestState::kTimeout);
  ASSERT_TRUE(response.error.has_value());
  EXPECT_EQ(*response.error, ErrorKind::kTimeout);
  EXPECT_TRUE(response.tokens.empty());
  EXPECT_TRUE(response.retryable);
}

// Heavy enough that decoding its full token budget takes far longer than the
// deadlines used below, so a tight deadline provably expires before the
// request can complete (usually mid-generation, at worst while queued —
// either way it must resolve as a timeout with a partial/empty output).
nn::ModelConfig slow_config() {
  nn::ModelConfig config;
  config.vocab_size = 50;
  config.d_model = 96;
  config.n_heads = 4;
  config.n_layers = 5;
  config.d_ff = 192;
  config.max_seq_len = 160;
  return config;
}

TEST(Serve, DeadlineFreesSlotAndDeterminismSurvives) {
  const nn::TransformerLM model{slow_config(), 45};
  InferenceServer server{model, ServerConfig{}};

  // A ~few-token time budget on a long generation: the request must resolve
  // as a timeout with a *partial* result, freeing its slot mid-generation.
  Request doomed = request_for(7, /*max_new=*/120);
  doomed.deadline_ms = 5;
  auto doomed_ticket = server.submit(doomed);
  const Response& timed_out = wait_resolved(*doomed_ticket);
  EXPECT_EQ(timed_out.state, RequestState::kTimeout);
  ASSERT_TRUE(timed_out.error.has_value());
  EXPECT_EQ(*timed_out.error, ErrorKind::kTimeout);
  EXPECT_LT(static_cast<std::int64_t>(timed_out.tokens.size()),
            doomed.max_new_tokens);
  // Whatever was produced before expiry must be a prefix of the unloaded
  // output (determinism is per-request, even for aborted ones).
  const auto reference = reference_tokens(model, doomed);
  ASSERT_LE(timed_out.tokens.size(), reference.size());
  EXPECT_TRUE(std::equal(timed_out.tokens.begin(), timed_out.tokens.end(),
                         reference.begin()));

  // The next request on the same worker is bit-identical to an unloaded run.
  const Request follow_up = request_for(8);
  auto follow_ticket = server.submit(follow_up);
  const Response& followed = wait_resolved(*follow_ticket);
  ASSERT_EQ(followed.state, RequestState::kCompleted);
  EXPECT_EQ(followed.tokens, reference_tokens(model, follow_up));
}

TEST(Serve, ClientCancelFreesSlot) {
  const nn::TransformerLM model{tiny_config(), 46};
  ServerConfig config;
  config.start_worker = false;  // pin the cancel-before-decode ordering
  InferenceServer server{model, config};
  auto cancelled_ticket = server.submit(request_for(9, /*max_new=*/44));
  auto follow_ticket = server.submit(request_for(10));
  cancelled_ticket->cancel();
  server.start();

  // Client abandonment is not an error: no ErrorKind, slot freed, and the
  // request behind it is unaffected.
  const Response& response = wait_resolved(*cancelled_ticket);
  EXPECT_EQ(response.state, RequestState::kCancelled);
  EXPECT_FALSE(response.error.has_value());
  EXPECT_EQ(wait_resolved(*follow_ticket).state, RequestState::kCompleted);
  EXPECT_EQ(server.stats().cancelled, 1);
}

TEST(Serve, KvBudgetBoundsConcurrentSlots) {
  const nn::TransformerLM model{tiny_config(), 47};
  ServerConfig config;
  config.max_batch = 8;
  config.kv_budget_bytes = 2 * model.n_layers() * 2 *
                           tiny_config().max_seq_len * tiny_config().d_model *
                           static_cast<std::int64_t>(sizeof(float));
  InferenceServer server{model, config};
  EXPECT_EQ(server.current_batch_limit(), 2);

  std::vector<serve::TicketPtr> tickets;
  for (std::uint64_t i = 0; i < 6; ++i) {
    tickets.push_back(server.submit(request_for(i)));
  }
  for (auto& ticket : tickets) {
    EXPECT_EQ(wait_resolved(*ticket).state, RequestState::kCompleted);
  }
  EXPECT_LE(server.stats().peak_active, 2);
}

TEST(Serve, AllocFailureDegradesInsteadOfCrashing) {
  const nn::TransformerLM model{tiny_config(), 48};
  ServerConfig config;
  config.start_worker = false;
  InferenceServer server{model, config};

  // After configure() the allocation counter is zero, so the very next
  // guarded allocation — the first decode slot — fails.
  fault::configure("alloc_fail:0");

  auto first = server.submit(request_for(1));
  auto second = server.submit(request_for(2));
  server.start();

  const Response& failed = wait_resolved(*first);
  EXPECT_EQ(failed.state, RequestState::kRejected);
  ASSERT_TRUE(failed.error.has_value());
  EXPECT_EQ(*failed.error, ErrorKind::kResourceExhausted);
  EXPECT_TRUE(failed.retryable);

  // The injector is one-shot: the server keeps serving afterwards.
  const Response& ok = wait_resolved(*second);
  EXPECT_EQ(ok.state, RequestState::kCompleted);
  fault::reset();
}

TEST(Serve, NanLogitsFailTypedAndServingContinues) {
  const nn::TransformerLM model{tiny_config(), 49};
  ServerConfig config;
  config.start_worker = false;
  InferenceServer server{model, config};

  fault::configure("nan_decode:2");  // poison the third decode token

  auto poisoned = server.submit(request_for(1, /*max_new=*/10));
  auto clean = server.submit(request_for(2, /*max_new=*/10));
  server.start();

  const Response& failed = wait_resolved(*poisoned);
  EXPECT_EQ(failed.state, RequestState::kFailed);
  ASSERT_TRUE(failed.error.has_value());
  EXPECT_EQ(*failed.error, ErrorKind::kNumericDivergence);

  const Response& ok = wait_resolved(*clean);
  ASSERT_EQ(ok.state, RequestState::kCompleted);
  EXPECT_EQ(ok.tokens, reference_tokens(model, request_for(2, 10)));
  fault::reset();
}

TEST(Serve, HungDecodeIsRecycledByWatchdog) {
  const nn::TransformerLM model{tiny_config(), 50};
  ServerConfig config;
  config.start_worker = false;
  config.worker.hang_ms = 200;  // heartbeat-silence watchdog
  InferenceServer server{model, config};

  // The first request's first decode round hangs.
  fault::configure("hang_decode:0,hang_cap:10000");

  auto hung = server.submit(request_for(1, /*max_new=*/10));
  auto survivor = server.submit(request_for(2, /*max_new=*/10));
  server.start();

  const Response& failed = wait_resolved(*hung);
  EXPECT_EQ(failed.state, RequestState::kFailed);
  ASSERT_TRUE(failed.error.has_value());
  EXPECT_EQ(*failed.error, ErrorKind::kTimeout);

  // The other slot survives the stage recycle and still decodes correctly.
  const Response& ok = wait_resolved(*survivor);
  ASSERT_EQ(ok.state, RequestState::kCompleted) << ok.message;
  EXPECT_EQ(ok.tokens, reference_tokens(model, request_for(2, 10)));
  EXPECT_GE(server.stats().worker_recycles, 1);
  fault::reset();
}

TEST(Serve, OverloadDegradesTokenBudget) {
  const nn::TransformerLM model{tiny_config(), 51};
  ServerConfig config;
  config.queue_capacity = 8;
  config.degrade_queue_depth = 2;
  config.degrade_max_new_tokens = 3;
  config.start_worker = false;
  InferenceServer server{model, config};

  std::vector<Request> requests;
  std::vector<serve::TicketPtr> tickets;
  for (std::uint64_t i = 0; i < 6; ++i) {
    requests.push_back(request_for(i, /*max_new=*/20));
    tickets.push_back(server.submit(requests.back()));
  }
  server.start();

  bool any_degraded = false;
  for (std::size_t i = 0; i < tickets.size(); ++i) {
    const Response& response = wait_resolved(*tickets[i]);
    ASSERT_EQ(response.state, RequestState::kCompleted);
    const auto reference = reference_tokens(model, requests[i]);
    if (response.degraded) {
      any_degraded = true;
      EXPECT_LE(static_cast<std::int64_t>(response.tokens.size()), 3);
      // Degraded output is a prefix of the full unloaded output.
      ASSERT_LE(response.tokens.size(), reference.size());
      EXPECT_TRUE(std::equal(response.tokens.begin(), response.tokens.end(),
                             reference.begin()));
    } else {
      EXPECT_EQ(response.tokens, reference);
    }
  }
  EXPECT_TRUE(any_degraded);
  EXPECT_GE(server.stats().degraded, 1);
}

TEST(Serve, ShutdownResolvesEverything) {
  const nn::TransformerLM model{tiny_config(), 52};
  ServerConfig config;
  config.start_worker = false;
  InferenceServer server{model, config};
  auto a = server.submit(request_for(1));
  auto b = server.submit(request_for(2));
  server.shutdown();  // worker never ran: queued requests must still resolve
  EXPECT_EQ(a->wait().state, RequestState::kCancelled);
  EXPECT_EQ(b->wait().state, RequestState::kCancelled);
  auto late = server.submit(request_for(3));
  EXPECT_EQ(late->wait().state, RequestState::kRejected);
}

TEST(Serve, ChaosOverloadEveryRequestResolves) {
  const nn::TransformerLM model{tiny_config(), 53};
  ServerConfig config;
  config.queue_capacity = 4;
  config.max_batch = 2;
  config.degrade_max_new_tokens = 4;
  InferenceServer server{model, config};

  // 4x queue-capacity offered load from concurrent clients with mixed
  // priorities and deadlines; every ticket must reach a terminal state.
  constexpr int kClients = 4;
  constexpr int kPerClient = 4;
  std::vector<std::thread> clients;
  std::mutex tickets_mutex;
  std::vector<serve::TicketPtr> tickets;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      for (int r = 0; r < kPerClient; ++r) {
        Request request = request_for(static_cast<std::uint64_t>(c * 13 + r),
                                      /*max_new=*/8);
        request.priority = (c + r) % 3;
        request.deadline_ms = r % 2 == 0 ? 0 : 2000;
        auto ticket = server.submit(std::move(request));
        const std::lock_guard<std::mutex> lock{tickets_mutex};
        tickets.push_back(std::move(ticket));
      }
    });
  }
  for (auto& client : clients) client.join();

  std::set<RequestState> seen;
  for (auto& ticket : tickets) {
    ASSERT_TRUE(ticket->wait_for(kWait));
    const Response& response = ticket->wait();
    EXPECT_TRUE(serve::request_state_terminal(response.state));
    if (response.state != RequestState::kCompleted &&
        response.state != RequestState::kCancelled) {
      EXPECT_TRUE(response.error.has_value());
    }
    seen.insert(response.state);
  }
  const serve::ServerStats stats = server.stats();
  EXPECT_EQ(stats.submitted, kClients * kPerClient);
  EXPECT_EQ(stats.resolved(), stats.submitted);
}

// ---- decode-path plumbing the server depends on ---------------------------

TEST(Serve, CancelTokenStopsGenerateWithPartialOutput) {
  const nn::TransformerLM model{tiny_config(), 54};
  const auto prompt = prompt_for(3);

  nn::GenerateOptions options;
  options.max_new_tokens = 12;
  const auto full = nn::generate(model, prompt, options);
  ASSERT_GT(full.size(), 0U);

  // Pre-cancelled token: nothing is generated.
  options.cancel = CancelToken::make();
  options.cancel.cancel();
  EXPECT_TRUE(nn::generate(model, prompt, options).empty());

  // An already-expired deadline behaves the same, through the deadline path.
  options.cancel = CancelToken::with_deadline(std::chrono::milliseconds{0});
  std::this_thread::sleep_for(1ms);
  EXPECT_TRUE(options.cancel.cancelled());
  EXPECT_EQ(options.cancel.reason(), std::string{"deadline exceeded"});
  EXPECT_TRUE(nn::generate(model, prompt, options).empty());

  // An empty token is free and changes nothing.
  options.cancel = CancelToken{};
  EXPECT_EQ(nn::generate(model, prompt, options), full);
}

TEST(Serve, CancelTokenAbortsSequenceLogprobTyped) {
  const nn::TransformerLM model{tiny_config(), 55};
  const std::vector<std::int32_t> prompt = {1, 2, 3};
  const std::vector<std::int32_t> continuation = {4, 5};

  CancelToken cancel = CancelToken::make();
  cancel.cancel();
  try {
    nn::sequence_logprob(model, prompt, continuation, cancel);
    FAIL() << "expected Error{timeout}";
  } catch (const Error& e) {
    EXPECT_EQ(e.kind(), ErrorKind::kTimeout);
  }
  // Without a token the result is unchanged.
  const double lp = nn::sequence_logprob(model, prompt, continuation);
  EXPECT_TRUE(std::isfinite(lp));
}

TEST(Serve, ErrorExitCodesAreDistinctAndStable) {
  const std::vector<ErrorKind> kinds = {
      ErrorKind::kTransientIo,       ErrorKind::kCorruptArtifact,
      ErrorKind::kNumericDivergence, ErrorKind::kTimeout,
      ErrorKind::kResourceExhausted, ErrorKind::kFatal,
  };
  std::set<int> codes;
  for (const ErrorKind kind : kinds) {
    const int code = error_kind_exit_code(kind);
    EXPECT_NE(code, 0);
    EXPECT_NE(code, 1);   // reserved: non-taxonomy exceptions
    EXPECT_NE(code, 2);   // reserved: CLI usage errors
    EXPECT_NE(code, 64);  // reserved: malformed SDD_FAULT (EX_USAGE)
    codes.insert(code);
  }
  EXPECT_EQ(codes.size(), kinds.size()) << "exit codes must be distinct";
  EXPECT_EQ(error_kind_exit_code(ErrorKind::kCorruptArtifact), 65);
  EXPECT_EQ(error_kind_exit_code(ErrorKind::kResourceExhausted), 69);
}

TEST(Serve, FaultSpecParsesNewDirectives) {
  const fault::FaultConfig config = fault::parse_fault_spec(
      "alloc_fail:at=4,hang_decode:7,nan_decode:9");
  EXPECT_EQ(config[Fault::kAllocFail], 4);
  EXPECT_EQ(config[Fault::kHangDecode], 7);
  EXPECT_EQ(config[Fault::kNanDecode], 9);
  EXPECT_TRUE(config.any());
  // Short form without "at=".
  EXPECT_EQ(fault::parse_fault_spec("alloc_fail:2")[Fault::kAllocFail], 2);
  EXPECT_THROW(fault::parse_fault_spec("alloc_fail:at=x"),
               std::invalid_argument);
}

TEST(ServeConcurrency, SharedConstModelGenerateIsDeterministic) {
  const nn::TransformerLM model{tiny_config(), 56};
  const auto prompt = prompt_for(5);
  nn::GenerateOptions options;
  options.max_new_tokens = 10;
  options.temperature = 0.5F;
  options.seed = 77;
  const auto reference = nn::generate(model, prompt, options);

  // The serving layer assumes a const TransformerLM is safely shareable:
  // N threads decoding the same prompt+seed must agree bit for bit (and run
  // clean under TSan).
  constexpr int kThreads = 4;
  std::vector<std::vector<std::int32_t>> outputs(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      outputs[static_cast<std::size_t>(t)] = nn::generate(model, prompt, options);
    });
  }
  for (auto& thread : threads) thread.join();
  for (const auto& output : outputs) EXPECT_EQ(output, reference);
}

TEST(ServeConcurrency, SharedConstModelLogprobIsDeterministic) {
  const nn::TransformerLM model{tiny_config(), 57};
  const std::vector<std::int32_t> prompt = {2, 4, 6};
  const std::vector<std::int32_t> continuation = {1, 3};
  const double reference = nn::sequence_logprob(model, prompt, continuation);

  constexpr int kThreads = 4;
  std::vector<double> outputs(kThreads, 0.0);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      outputs[static_cast<std::size_t>(t)] =
          nn::sequence_logprob(model, prompt, continuation);
    });
  }
  for (auto& thread : threads) thread.join();
  for (const double output : outputs) EXPECT_EQ(output, reference);
}

}  // namespace
}  // namespace sdd
