// Tests for the replicated multi-variant serving layer (src/serve/replica,
// src/serve/router): the circuit-breaker health state machine, quality/
// deadline-aware routing, bounded failover, and the router chaos injectors.
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "nn/decode.hpp"
#include "nn/transformer.hpp"
#include "serve/replica.hpp"
#include "serve/router.hpp"
#include "test_helpers.hpp"
#include "util/error.hpp"
#include "util/fault.hpp"

namespace sdd {
namespace {

using namespace std::chrono_literals;
using fault::Fault;
using serve::BreakerConfig;
using serve::HealthBreaker;
using serve::HealthState;
using serve::QualityTable;
using serve::Request;
using serve::RequestState;
using serve::Response;
using serve::RouteRequest;
using serve::RouteResponse;
using serve::RouterConfig;
using serve::VariantRouter;
using serve::VariantSpec;
using testing::tiny_config;

constexpr auto kWait = 60s;  // generous terminal-state bound for CI machines

// ---- breaker state machine (fake clock) ------------------------------------

struct FakeClock {
  std::chrono::steady_clock::time_point now =
      std::chrono::steady_clock::time_point{} + 1h;
  void advance(std::chrono::milliseconds by) { now += by; }
};

BreakerConfig breaker_config(FakeClock& clock) {
  BreakerConfig config;
  config.degraded_after = 1;
  config.open_after = 3;
  config.cooldown_ms = 100;
  config.probe_max = 1;
  config.now_fn = [&clock] { return clock.now; };
  return config;
}

TEST(Breaker, OpensAfterConsecutiveFailuresAndCoolsToHalfOpen) {
  FakeClock clock;
  HealthBreaker breaker{breaker_config(clock)};
  EXPECT_EQ(breaker.state(), HealthState::kHealthy);
  EXPECT_TRUE(breaker.dispatchable());

  bool is_probe = false;
  ASSERT_TRUE(breaker.try_begin(&is_probe));
  breaker.record(HealthBreaker::Outcome::kFailure, is_probe);
  EXPECT_EQ(breaker.state(), HealthState::kDegraded);
  EXPECT_TRUE(breaker.dispatchable());  // degraded still serves

  ASSERT_TRUE(breaker.try_begin(&is_probe));
  breaker.record(HealthBreaker::Outcome::kFailure, is_probe);
  ASSERT_TRUE(breaker.try_begin(&is_probe));
  breaker.record(HealthBreaker::Outcome::kFailure, is_probe);
  EXPECT_EQ(breaker.state(), HealthState::kOpen);
  EXPECT_EQ(breaker.consecutive_failures(), 3);

  // Quarantined: nothing dispatches until the cooldown elapses.
  EXPECT_FALSE(breaker.dispatchable());
  EXPECT_FALSE(breaker.try_begin(&is_probe));
  EXPECT_GT(breaker.cooldown_remaining_ms(), 0);

  clock.advance(101ms);
  EXPECT_TRUE(breaker.dispatchable());
  ASSERT_TRUE(breaker.try_begin(&is_probe));
  EXPECT_TRUE(is_probe);
  EXPECT_EQ(breaker.state(), HealthState::kHalfOpen);
}

TEST(Breaker, ProbeSuccessClosesProbeFailureReopens) {
  FakeClock clock;
  HealthBreaker breaker{breaker_config(clock)};
  bool is_probe = false;
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(breaker.try_begin(&is_probe));
    breaker.record(HealthBreaker::Outcome::kFailure, is_probe);
  }
  ASSERT_EQ(breaker.state(), HealthState::kOpen);

  // Failed probe: straight back to open, cooldown restarts.
  clock.advance(101ms);
  ASSERT_TRUE(breaker.try_begin(&is_probe));
  ASSERT_TRUE(is_probe);
  breaker.record(HealthBreaker::Outcome::kFailure, is_probe);
  EXPECT_EQ(breaker.state(), HealthState::kOpen);
  EXPECT_FALSE(breaker.dispatchable());

  // Successful probe closes the breaker and clears the streak.
  clock.advance(101ms);
  ASSERT_TRUE(breaker.try_begin(&is_probe));
  ASSERT_TRUE(is_probe);
  breaker.record(HealthBreaker::Outcome::kSuccess, is_probe);
  EXPECT_EQ(breaker.state(), HealthState::kHealthy);
  EXPECT_EQ(breaker.consecutive_failures(), 0);
}

TEST(Breaker, HalfOpenProbeBudgetIsBounded) {
  FakeClock clock;
  HealthBreaker breaker{breaker_config(clock)};
  bool is_probe = false;
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(breaker.try_begin(&is_probe));
    breaker.record(HealthBreaker::Outcome::kFailure, is_probe);
  }
  clock.advance(101ms);
  ASSERT_TRUE(breaker.try_begin(&is_probe));  // takes the only probe token
  ASSERT_TRUE(is_probe);
  bool second_probe = false;
  EXPECT_FALSE(breaker.try_begin(&second_probe));  // budget exhausted
  EXPECT_FALSE(breaker.dispatchable());
  // Abandoning the probe returns the token without recording an outcome.
  breaker.abandon(is_probe);
  EXPECT_EQ(breaker.state(), HealthState::kHalfOpen);
  EXPECT_TRUE(breaker.try_begin(&second_probe));
  EXPECT_TRUE(second_probe);
}

TEST(Breaker, BackpressureNeverTripsTheBreaker) {
  FakeClock clock;
  HealthBreaker breaker{breaker_config(clock)};
  bool is_probe = false;
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(breaker.try_begin(&is_probe));
    breaker.record(HealthBreaker::Outcome::kBackpressure, is_probe);
  }
  EXPECT_EQ(breaker.state(), HealthState::kHealthy);
  EXPECT_EQ(breaker.load_penalty(), 20);
  // Success decays the pressure instead of zeroing it.
  ASSERT_TRUE(breaker.try_begin(&is_probe));
  breaker.record(HealthBreaker::Outcome::kSuccess, is_probe);
  EXPECT_EQ(breaker.load_penalty(), 10);
}

TEST(Breaker, DegradedHealsOnSuccess) {
  FakeClock clock;
  HealthBreaker breaker{breaker_config(clock)};
  bool is_probe = false;
  ASSERT_TRUE(breaker.try_begin(&is_probe));
  breaker.record(HealthBreaker::Outcome::kFailure, is_probe);
  ASSERT_EQ(breaker.state(), HealthState::kDegraded);
  ASSERT_TRUE(breaker.try_begin(&is_probe));
  breaker.record(HealthBreaker::Outcome::kSuccess, is_probe);
  EXPECT_EQ(breaker.state(), HealthState::kHealthy);
}

// ---- router ----------------------------------------------------------------

std::vector<std::int32_t> prompt_for(std::uint64_t salt) {
  return {static_cast<std::int32_t>(1 + salt % 7),
          static_cast<std::int32_t>(3 + salt % 11),
          static_cast<std::int32_t>(2 + salt % 5)};
}

RouteRequest route_request_for(std::uint64_t salt, std::int64_t max_new = 8) {
  RouteRequest route;
  route.request.prompt = prompt_for(salt);
  route.request.max_new_tokens = max_new;
  route.request.seed = 4000 + salt;
  return route;
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

RouterConfig test_router_config() {
  RouterConfig config;
  config.poll_ms = 1;
  config.reroute_wait_ms = 2;
  config.breaker.cooldown_ms = 50;
  return config;
}

// "full" (3 layers, quality 0.9) + "p1" (2 layers, quality 0.6).
std::vector<VariantSpec> two_variants(std::uint64_t seed) {
  const nn::TransformerLM full{tiny_config(), seed};
  std::vector<VariantSpec> variants;
  variants.push_back({"full", full.clone(), 0.9, "", 0});
  variants.push_back({"p1", full.pruned(2, 1), 0.6, "", 0});
  return variants;
}

const RouteResponse& wait_routed(serve::RouteTicket& ticket) {
  EXPECT_TRUE(ticket.wait_for(kWait)) << "request did not reach terminal state";
  return ticket.wait();
}

TEST(Router, RoutesToHighestQualityVariant) {
  const nn::TransformerLM full{tiny_config(), 60};
  VariantRouter router{two_variants(60), test_router_config()};
  const RouteRequest route = route_request_for(0);
  auto ticket = router.submit(route);
  const RouteResponse& routed = wait_routed(*ticket);
  ASSERT_EQ(routed.response.state, RequestState::kCompleted)
      << routed.response.message;
  EXPECT_EQ(routed.variant, "full");
  EXPECT_EQ(routed.hops, 0);
  EXPECT_FALSE(routed.rerouted);
  EXPECT_EQ(routed.response.tokens, reference_tokens(full, route.request));
}

TEST(Router, TightDeadlinePrefersCheapVariant) {
  const nn::TransformerLM full{tiny_config(), 61};
  const nn::TransformerLM p1 = full.pruned(2, 1);
  RouterConfig config = test_router_config();
  config.cheap_deadline_ms = 5000;  // anything under 5s counts as pressured
  VariantRouter router{two_variants(61), config};

  RouteRequest route = route_request_for(1);
  route.request.deadline_ms = 2000;
  auto ticket = router.submit(route);
  const RouteResponse& routed = wait_routed(*ticket);
  ASSERT_EQ(routed.response.state, RequestState::kCompleted)
      << routed.response.message;
  // Degradation by routing: the pruned (cheaper) variant serves it, and the
  // output is bit-identical to that variant's unloaded decode.
  EXPECT_EQ(routed.variant, "p1");
  EXPECT_EQ(routed.response.tokens, reference_tokens(p1, route.request));
}

TEST(Router, PinnedVariantWinsOverQualityOrder) {
  const nn::TransformerLM full{tiny_config(), 62};
  const nn::TransformerLM p1 = full.pruned(2, 1);
  VariantRouter router{two_variants(62), test_router_config()};
  RouteRequest route = route_request_for(2);
  route.variant = "p1";
  auto ticket = router.submit(route);
  const RouteResponse& routed = wait_routed(*ticket);
  ASSERT_EQ(routed.response.state, RequestState::kCompleted);
  EXPECT_EQ(routed.variant, "p1");
  EXPECT_EQ(routed.response.tokens, reference_tokens(p1, route.request));

  RouteRequest unknown = route_request_for(3);
  unknown.variant = "nope";
  auto rejected_ticket = router.submit(unknown);
  const RouteResponse& rejected = wait_routed(*rejected_ticket);
  EXPECT_EQ(rejected.response.state, RequestState::kRejected);
  ASSERT_TRUE(rejected.response.error.has_value());
  EXPECT_EQ(*rejected.response.error, ErrorKind::kFatal);
}

TEST(Router, FailoverReroutesAndStaysBitIdentical) {
  const nn::TransformerLM p1 = nn::TransformerLM{tiny_config(), 63}.pruned(2, 1);

  // The first dispatch to replica 0 ("full") dies before reaching its queue;
  // the request must fail over to "p1" and produce p1's exact unloaded output.
  fault::configure("replica_fail:0,replica_fail_n:1,replica_idx:0");

  VariantRouter router{two_variants(63), test_router_config()};
  const RouteRequest route = route_request_for(4);
  auto ticket = router.submit(route);
  const RouteResponse& routed = wait_routed(*ticket);
  fault::reset();

  ASSERT_EQ(routed.response.state, RequestState::kCompleted)
      << routed.response.message;
  EXPECT_EQ(routed.variant, "p1");
  EXPECT_EQ(routed.hops, 1);
  EXPECT_TRUE(routed.rerouted);
  EXPECT_EQ(routed.response.tokens, reference_tokens(p1, route.request));
  EXPECT_GE(router.stats().failovers, 1);
  EXPECT_GE(router.stats().injected_failures, 1);
}

TEST(Router, DeadVariantQuarantinedThenProbedBackHealthy) {
  // Dispatches 0..3 to "full" fail; with open_after=2 the breaker opens
  // after two failures, then half-open probes burn through the rest of the
  // window and the variant recovers. Requests pin "full" so traffic keeps
  // reaching the sick replica instead of settling on "p1".
  fault::configure("replica_fail:0,replica_fail_n:4,replica_idx:0");

  RouterConfig config = test_router_config();
  config.breaker.open_after = 2;
  config.breaker.cooldown_ms = 25;
  VariantRouter router{two_variants(64), config};

  const auto deadline = std::chrono::steady_clock::now() + 30s;
  std::uint64_t salt = 10;
  bool recovered = false;
  while (std::chrono::steady_clock::now() < deadline) {
    RouteRequest route = route_request_for(salt++);
    route.variant = "full";
    auto ticket = router.submit(route);
    const RouteResponse& routed = wait_routed(*ticket);
    EXPECT_TRUE(serve::request_state_terminal(routed.response.state));
    const serve::ReplicaSnapshot target = router.replicas()[0];
    if (target.health == HealthState::kHealthy &&
        target.stats.probe_successes >= 1) {
      recovered = true;
      break;
    }
    std::this_thread::sleep_for(5ms);
  }
  fault::reset();

  EXPECT_TRUE(recovered) << "dead variant never probed back to healthy";
  const serve::ReplicaSnapshot snap = router.replicas()[0];
  EXPECT_GE(snap.stats.breaker_opens, 1);
  EXPECT_GE(snap.stats.probes, 1);
  EXPECT_GE(snap.stats.probe_successes, 1);
  // Every request meanwhile was served or typed — none lost.
  const serve::RouterStats stats = router.stats();
  EXPECT_EQ(stats.resolved(), stats.submitted);
}

TEST(Router, SingleDeadVariantExhaustsFailoverTyped) {
  // Only one variant, and every dispatch to it fails: the request must still
  // terminate, carrying the last typed failure plus an exhausted marker.
  fault::configure("replica_fail:0,replica_fail_n:1000,replica_idx:0");

  const nn::TransformerLM full{tiny_config(), 65};
  std::vector<VariantSpec> variants;
  variants.push_back({"full", full.clone(), 0.9, "", 0});
  RouterConfig config = test_router_config();
  config.failover_max = 2;
  VariantRouter router{std::move(variants), config};

  auto ticket = router.submit(route_request_for(5));
  const RouteResponse& routed = wait_routed(*ticket);
  fault::reset();

  EXPECT_EQ(routed.response.state, RequestState::kFailed);
  ASSERT_TRUE(routed.response.error.has_value());
  EXPECT_EQ(*routed.response.error, ErrorKind::kWorkerLost);
  EXPECT_EQ(routed.hops, 2);
  EXPECT_NE(routed.response.message.find("failover exhausted"),
            std::string::npos);
  EXPECT_EQ(router.stats().exhausted, 1);
}

TEST(Router, EmptyPromptIsTerminalWithoutFailover) {
  VariantRouter router{two_variants(66), test_router_config()};
  RouteRequest route;
  route.request.prompt = {};  // invalid on every variant
  auto ticket = router.submit(route);
  const RouteResponse& routed = wait_routed(*ticket);
  EXPECT_EQ(routed.response.state, RequestState::kRejected);
  ASSERT_TRUE(routed.response.error.has_value());
  EXPECT_EQ(*routed.response.error, ErrorKind::kFatal);
  // A bad request must not burn failover hops or trip any breaker.
  EXPECT_EQ(routed.hops, 0);
  EXPECT_EQ(router.stats().failovers, 0);
  for (const auto& snap : router.replicas()) {
    EXPECT_EQ(snap.health, HealthState::kHealthy);
  }
}

TEST(Router, ShutdownResolvesPendingRequests) {
  RouterConfig config = test_router_config();
  config.start_dispatcher = false;  // nothing will ever dispatch
  VariantRouter router{two_variants(67), config};
  auto a = router.submit(route_request_for(6));
  auto b = router.submit(route_request_for(7));
  router.shutdown();
  EXPECT_EQ(a->wait().response.state, RequestState::kRejected);
  EXPECT_EQ(b->wait().response.state, RequestState::kRejected);
  EXPECT_TRUE(a->wait().response.retryable);
  // Submits after shutdown get typed rejections too, never hangs.
  auto late = router.submit(route_request_for(8));
  EXPECT_EQ(late->wait().response.state, RequestState::kRejected);
  const serve::RouterStats stats = router.stats();
  EXPECT_EQ(stats.resolved(), stats.submitted);
}

TEST(Router, CancelResolvesBeforeDispatch) {
  RouterConfig config = test_router_config();
  config.start_dispatcher = false;
  VariantRouter router{two_variants(68), config};
  auto ticket = router.submit(route_request_for(9));
  ticket->cancel();
  router.start();
  const RouteResponse& routed = wait_routed(*ticket);
  EXPECT_EQ(routed.response.state, RequestState::kCancelled);
  EXPECT_FALSE(routed.response.error.has_value());
}

// ---- quality table ---------------------------------------------------------

TEST(Router, QualityTableParsesSuiteDigestFormat) {
  const QualityTable table = QualityTable::parse(
      "variant full\n"
      "metric arc_c 0.61\n"
      "metric gsm8k 0.38\n"
      "metric average 0.49\n"
      "variant p1\n"
      "metric arc_c 0.55\n"
      "metric gsm8k 0.44\n"
      "metric average 0.50\n");
  EXPECT_TRUE(table.has_variant("full"));
  EXPECT_DOUBLE_EQ(table.score("full", "arc_c", 0.0), 0.61);
  // Unknown task falls back to the variant average, then to the caller's
  // fallback for unknown variants.
  EXPECT_DOUBLE_EQ(table.score("full", "winogrande", 0.0), 0.49);
  EXPECT_DOUBLE_EQ(table.score("ghost", "arc_c", 0.33), 0.33);

  EXPECT_THROW(QualityTable::parse("metric arc_c 0.5\n"), Error);
  EXPECT_THROW(QualityTable::parse("variant\n"), Error);
  EXPECT_THROW(QualityTable::parse("bogus line here\n"), Error);
  EXPECT_THROW(QualityTable::load("/nonexistent/quality.txt"), Error);
}

TEST(Router, TaskScoreDrivesVariantChoice) {
  const nn::TransformerLM full{tiny_config(), 69};
  const nn::TransformerLM p1 = full.pruned(2, 1);
  // p1 beats full on gsm8k despite a lower average — a gsm8k-tagged request
  // must land on p1.
  QualityTable table = QualityTable::parse(
      "variant full\n"
      "metric gsm8k 0.38\n"
      "metric average 0.60\n"
      "variant p1\n"
      "metric gsm8k 0.44\n"
      "metric average 0.50\n");
  VariantRouter router{two_variants(69), test_router_config(),
                       std::move(table)};
  RouteRequest route = route_request_for(11);
  route.task = "gsm8k";
  auto ticket = router.submit(route);
  const RouteResponse& routed = wait_routed(*ticket);
  ASSERT_EQ(routed.response.state, RequestState::kCompleted);
  EXPECT_EQ(routed.variant, "p1");
  EXPECT_EQ(routed.response.tokens, reference_tokens(p1, route.request));
}

// ---- router fault directives -----------------------------------------------

TEST(Router, FaultSpecParsesRouterDirectives) {
  const fault::FaultConfig config = fault::parse_fault_spec(
      "replica_fail:at=2,replica_fail_n:3,replica_idx:1,replica_slow:30");
  EXPECT_EQ(config[Fault::kReplicaFail], 2);
  EXPECT_EQ(config[Fault::kReplicaFailN], 3);
  EXPECT_EQ(config[Fault::kReplicaIdx], 1);
  EXPECT_EQ(config[Fault::kReplicaSlow], 30);
  EXPECT_TRUE(config.any());
  EXPECT_TRUE(
      fault::parse_fault_spec("breaker_flap").armed(Fault::kBreakerFlap));
  // Short forms without the "at=" / "ms=" key.
  EXPECT_EQ(fault::parse_fault_spec("replica_fail:4")[Fault::kReplicaFail], 4);
  EXPECT_EQ(fault::parse_fault_spec("replica_slow:ms=9")[Fault::kReplicaSlow],
            9);
  EXPECT_THROW(fault::parse_fault_spec("replica_fail:at=x"),
               std::invalid_argument);
  EXPECT_THROW(fault::parse_fault_spec("replica_idx:-1"),
               std::invalid_argument);
  EXPECT_THROW(fault::parse_fault_spec("replica_fail_n:0"),
               std::invalid_argument);
}

TEST(Router, ShouldFailReplicaWindowAndTargeting) {
  fault::configure("replica_fail:1,replica_fail_n:2,replica_idx:0");
  // Non-target replicas never fail and never advance the ordinal.
  EXPECT_FALSE(fault::should_fail_replica(1));
  EXPECT_FALSE(fault::should_fail_replica(2));
  // Target ordinals: 0 ok, 1..2 fail, 3 ok again (window passed).
  EXPECT_FALSE(fault::should_fail_replica(0));
  EXPECT_TRUE(fault::should_fail_replica(0));
  EXPECT_TRUE(fault::should_fail_replica(0));
  EXPECT_FALSE(fault::should_fail_replica(0));
  fault::reset();
  EXPECT_FALSE(fault::should_fail_replica(0));
}

TEST(Router, BreakerFlapFailsInBursts) {
  fault::configure("breaker_flap");
  std::vector<bool> pattern;
  for (int i = 0; i < 12; ++i) pattern.push_back(fault::should_fail_replica(0));
  fault::reset();
  const std::vector<bool> expected = {false, false, false, true, true, true,
                                      false, false, false, true, true, true};
  EXPECT_EQ(pattern, expected);
}

TEST(Router, ReplicaSlowDelayTargetsOneReplica) {
  fault::configure("replica_slow:30,replica_idx:1");
  EXPECT_EQ(fault::replica_dispatch_delay_ms(1), 30);
  EXPECT_EQ(fault::replica_dispatch_delay_ms(0), 0);
  fault::reset();
  EXPECT_EQ(fault::replica_dispatch_delay_ms(1), 0);
}

}  // namespace
}  // namespace sdd
