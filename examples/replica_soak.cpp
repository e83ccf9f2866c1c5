// Chaos soak for cross-process serving replicas (scripts/replica_soak.sh).
//
// Builds a tiny full model plus two depth-pruned variants, saves them as
// checkpoints, and hosts all three behind a VariantRouter in cross-process
// mode: each variant runs in its own `replica-worker` child (this binary
// re-execs itself — see main), supervised with heartbeat leases, crash
// respawn, and breaker quarantine. Concurrent clients then assert the
// process-isolation invariants end to end:
//   * every submitted request reaches a terminal typed RouteResponse — no
//     request is lost, even when a worker is SIGKILLed mid-decode (the
//     in-flight tickets fail over to sibling variants);
//   * stats balance: router resolved == submitted;
//   * cross-process determinism: whichever variant completed a request, its
//     tokens are byte-identical to the in-process nn::generate reference for
//     THAT variant — the process boundary never changes bytes;
//   * under worker chaos (SDD_FAULT = child.replica_kill9:at=N,
//     child.replica_wedge:N, or child.ipc_torn_frame, armed in the first
//     worker generation of variant replica_idx only) the dead variant's
//     breaker opens, the supervisor respawns it, the router records
//     failovers, and a half-open probe readmits the respawned worker;
//   * SDD_REPLICA_SOAK_SWAP=1: a rolling upgrade (swap_model) drains the
//     `full` worker, respawns it on different weights, and pinned post-swap
//     requests decode exactly the new checkpoint's reference output.
//
// Exit codes: 0 = all invariants held, 3 = an invariant was violated,
// 2 = infra (bad workdir).
#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "nn/decode.hpp"
#include "nn/transformer.hpp"
#include "serve/router.hpp"
#include "util/env.hpp"
#include "util/fault.hpp"
#include "util/signals.hpp"

using namespace sdd;
using namespace std::chrono_literals;

namespace {

struct Submitted {
  serve::RouteRequest request;
  serve::RouteTicketPtr ticket;
};

nn::ModelConfig soak_model_config() {
  nn::ModelConfig config;
  config.vocab_size = env_int("SDD_ROUTE_SOAK_VOCAB", 96);
  config.d_model = env_int("SDD_ROUTE_SOAK_DMODEL", 32);
  config.n_heads = env_int("SDD_ROUTE_SOAK_HEADS", 2);
  config.n_layers = env_int("SDD_ROUTE_SOAK_LAYERS", 4);
  config.d_ff = env_int("SDD_ROUTE_SOAK_DFF", 48);
  config.max_seq_len = env_int("SDD_ROUTE_SOAK_CTX", 64);
  return config;
}

serve::RouteRequest request_for(std::uint64_t index) {
  serve::RouteRequest route;
  route.request.prompt = {static_cast<std::int32_t>(1 + index % 13),
                          static_cast<std::int32_t>(2 + index % 7),
                          static_cast<std::int32_t>(5 + index % 19)};
  route.request.max_new_tokens = 6 + static_cast<std::int64_t>(index % 8);
  route.request.temperature = index % 3 == 0 ? 0.0F : 0.6F;
  route.request.seed = 9000 + index;
  route.request.priority = static_cast<std::int32_t>(index % 4);
  // Generous or absent deadlines only: cross-process hops pay spawn/IPC
  // latency, and this soak is about process supervision, not deadline
  // degradation (router_soak covers that).
  route.request.deadline_ms = index % 2 == 0 ? 0 : 20000;
  if (index % 7 == 3) route.variant = "p1";
  return route;
}

std::vector<std::int32_t> reference_tokens(const nn::TransformerLM& model,
                                           const serve::Request& request) {
  nn::GenerateOptions options;
  options.max_new_tokens = request.max_new_tokens;
  options.temperature = request.temperature;
  options.stop_token = request.stop_token;
  options.seed = request.seed;
  return nn::generate(model, request.prompt, options);
}

// Child entry: `replica_soak replica-worker --model M --name N --fd F
// --heartbeat H`, the same argv contract RemoteReplica uses to spawn
// `sdd_cli replica-worker` — self_exe() re-exec means the worker is always
// this binary, so the production spawn path is what gets soaked.
int run_worker(int argc, char** argv) {
  std::string model;
  std::string name = "replica";
  int fd = -1;
  std::int64_t heartbeat_ms = 25;
  for (int i = 2; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--model") model = value;
    if (key == "--name") name = value;
    if (key == "--fd") fd = static_cast<int>(std::stol(value));
    if (key == "--heartbeat") heartbeat_ms = std::stoll(value);
  }
  signals::install_graceful_shutdown();
  return serve::replica_worker_main(model, name, fd, heartbeat_ms);
}

}  // namespace

int main(int argc, char** argv) {
  if (argc >= 2 && std::string{argv[1]} == "replica-worker") {
    return run_worker(argc, argv);
  }

  // Chaos reaches the workers through the router: it forwards the child.*
  // directives of SDD_FAULT as the first-generation SDD_FAULT of variant
  // replica_idx. The parent only needs them here to pick its assertions.
  const fault::FaultConfig faults = fault::active();
  const std::string chaos = faults.child;
  const auto target =
      static_cast<std::size_t>(faults[fault::Fault::kReplicaIdx]);
  const bool swap_mode = env_flag("SDD_REPLICA_SOAK_SWAP", false);

  const std::filesystem::path work{
      env_string("SDD_REPLICA_SOAK_DIR", "replica_soak_work")};
  std::error_code ec;
  std::filesystem::create_directories(work, ec);
  if (ec) {
    std::fprintf(stderr, "replica_soak: cannot create workdir %s: %s\n",
                 work.string().c_str(), ec.message().c_str());
    return 2;
  }

  // The paper's variant family: full model + depth-pruned variants (random
  // weights — only supervision and byte-level determinism are under test).
  const nn::TransformerLM full{soak_model_config(), 2025};
  const nn::TransformerLM p1 = full.pruned(2, 1);
  const nn::TransformerLM p2 = full.pruned(1, 2);
  full.save(work / "full.bin");
  p1.save(work / "p1.bin");
  p2.save(work / "p2.bin");

  const std::vector<const nn::TransformerLM*> models{&full, &p1, &p2};
  const std::vector<std::string> names{"full", "p1", "p2"};

  const std::int64_t clients = env_int("SDD_ROUTE_SOAK_CLIENTS", 4);
  const std::int64_t per_client = env_int("SDD_ROUTE_SOAK_PER_CLIENT", 12);
  const auto total = static_cast<std::size_t>(clients * per_client);

  // In-process references, decoded before any worker exists: reference[v][i]
  // is the exact byte sequence request i must produce on variant v, whether
  // it lands there directly or after failover.
  std::vector<std::vector<std::vector<std::int32_t>>> reference(models.size());
  for (std::size_t v = 0; v < models.size(); ++v) {
    reference[v].resize(total);
    for (std::size_t i = 0; i < total; ++i) {
      reference[v][i] = reference_tokens(*models[v], request_for(i).request);
    }
  }

  serve::RouterConfig config = serve::RouterConfig::from_env();
  config.cross_process = true;

  std::vector<serve::VariantSpec> variants(3);
  for (std::size_t v = 0; v < 3; ++v) {
    variants[v].name = names[v];
    variants[v].path = (work / (names[v] + ".bin")).string();
    variants[v].quality = v == 0 ? 0.9 : (v == 1 ? 0.7 : 0.55);
    variants[v].cost_hint = models[v]->param_count();
  }
  serve::VariantRouter router{std::move(variants), std::move(config)};

  std::vector<Submitted> submitted(total);
  std::vector<std::thread> client_threads;
  for (std::int64_t c = 0; c < clients; ++c) {
    client_threads.emplace_back([&, c] {
      for (std::int64_t r = 0; r < per_client; ++r) {
        const auto index = static_cast<std::size_t>(c * per_client + r);
        Submitted& entry = submitted[index];
        entry.request = request_for(index);
        entry.ticket = router.submit(entry.request);
      }
    });
  }
  for (auto& thread : client_threads) thread.join();

  std::int64_t unresolved = 0;
  std::int64_t determinism_violations = 0;
  std::int64_t completed_remote = 0;
  for (std::size_t i = 0; i < submitted.size(); ++i) {
    serve::RouteTicket& ticket = *submitted[i].ticket;
    if (!ticket.wait_for(120s)) {
      ++unresolved;
      std::fprintf(stderr, "replica_soak: request %zu never resolved\n", i);
      continue;
    }
    const serve::RouteResponse& routed = ticket.wait();
    if (!serve::request_state_terminal(routed.response.state)) {
      ++unresolved;
      continue;
    }
    if (routed.variant.empty()) continue;  // never reached a replica
    const auto v = static_cast<std::size_t>(
        std::find(names.begin(), names.end(), routed.variant) - names.begin());
    if (v >= names.size()) {
      ++determinism_violations;
      std::fprintf(stderr,
                   "replica_soak: request %zu reports unknown variant '%s'\n",
                   i, routed.variant.c_str());
      continue;
    }
    // The digest invariant: tokens decoded across the process boundary are
    // byte-identical to the in-process reference for the serving variant.
    const auto& ref = reference[v][i];
    const auto& got = routed.response.tokens;
    const bool prefix = got.size() <= ref.size() &&
                        std::equal(got.begin(), got.end(), ref.begin());
    const bool full_required =
        routed.response.state == serve::RequestState::kCompleted &&
        !routed.response.degraded;
    if (!prefix || (full_required && got != ref)) {
      ++determinism_violations;
      std::fprintf(stderr,
                   "replica_soak: request %zu diverged on variant %s "
                   "(state=%s, hops=%lld, %zu tokens vs %zu reference)\n",
                   i, routed.variant.c_str(),
                   std::string{request_state_name(routed.response.state)}
                       .c_str(),
                   static_cast<long long>(routed.hops), got.size(), ref.size());
    }
    if (routed.response.state == serve::RequestState::kCompleted) {
      ++completed_remote;
    }
  }

  // Recovery phase: with worker chaos armed, keep offering traffic until the
  // respawned worker answers a half-open probe and the variant is healthy
  // again — quarantine must be temporary.
  if (!chaos.empty() && target < names.size()) {
    const auto recovery_deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds{60};
    std::uint64_t extra = 0;
    while (std::chrono::steady_clock::now() < recovery_deadline) {
      const serve::ReplicaSnapshot snap = router.replicas()[target];
      if (snap.health == serve::HealthState::kHealthy &&
          snap.stats.probe_successes >= 1) {
        break;
      }
      serve::RouteRequest route = request_for(extra % total);
      route.variant.clear();
      route.request.deadline_ms = 0;
      router.submit(route)->wait_for(10s);
      ++extra;
      std::this_thread::sleep_for(20ms);
    }
  }

  // Rolling upgrade: drain `full`, come back on different weights, and serve
  // pinned traffic that must decode the NEW checkpoint's reference bytes.
  bool swap_ok = true;
  if (swap_mode) {
    const nn::TransformerLM full_v2{soak_model_config(), 4242};
    full_v2.save(work / "full_v2.bin");
    serve::Replica* replica = router.replica("full");
    if (!replica->swap_model((work / "full_v2.bin").string(), 15000)) {
      std::fprintf(stderr, "replica_soak: swap_model never saw the new "
                   "generation's HELLO\n");
      swap_ok = false;
    } else {
      for (std::uint64_t i = 0; i < 8; ++i) {
        serve::RouteRequest route = request_for(i);
        route.variant = "full";
        route.request.deadline_ms = 0;
        // Keep the ticket alive past wait(): the RouteResponse reference
        // lives inside the ticket's job.
        const serve::RouteTicketPtr ticket = router.submit(route);
        const serve::RouteResponse& routed = ticket->wait();
        if (routed.response.state != serve::RequestState::kCompleted ||
            routed.variant != "full") {
          std::fprintf(stderr,
                       "replica_soak: post-swap request %llu not completed on "
                       "'full' (state=%s, variant=%s)\n",
                       static_cast<unsigned long long>(i),
                       std::string{
                           request_state_name(routed.response.state)}.c_str(),
                       routed.variant.c_str());
          swap_ok = false;
          continue;
        }
        if (routed.response.tokens !=
            reference_tokens(full_v2, route.request)) {
          std::fprintf(stderr,
                       "replica_soak: post-swap request %llu does not match "
                       "the new checkpoint's reference\n",
                       static_cast<unsigned long long>(i));
          swap_ok = false;
        }
      }
      if (router.replicas()[0].restarts < 1) {
        std::fprintf(stderr, "replica_soak: swap completed but no restart "
                     "recorded\n");
        swap_ok = false;
      }
    }
  }

  const std::vector<serve::ReplicaSnapshot> before_stop = router.replicas();
  router.shutdown();

  const serve::RouterStats stats = router.stats();
  std::printf("replica_soak: submitted=%lld resolved=%lld completed=%lld "
              "failed=%lld failovers=%lld exhausted=%lld\n",
              static_cast<long long>(stats.submitted),
              static_cast<long long>(stats.resolved()),
              static_cast<long long>(stats.completed),
              static_cast<long long>(stats.failed),
              static_cast<long long>(stats.failovers),
              static_cast<long long>(stats.exhausted));
  for (const serve::ReplicaSnapshot& snap : before_stop) {
    std::printf("replica_soak: replica %-5s health=%-9s pid=%lld "
                "restarts=%lld beat_age=%lldms dispatched=%lld "
                "completed=%lld failures=%lld opens=%lld probes=%lld "
                "probe_ok=%lld\n",
                snap.name.c_str(),
                std::string{serve::health_state_name(snap.health)}.c_str(),
                static_cast<long long>(snap.pid),
                static_cast<long long>(snap.restarts),
                static_cast<long long>(snap.heartbeat_age_ms),
                static_cast<long long>(snap.stats.dispatched),
                static_cast<long long>(snap.stats.completed),
                static_cast<long long>(snap.stats.breaker_failures),
                static_cast<long long>(snap.stats.breaker_opens),
                static_cast<long long>(snap.stats.probes),
                static_cast<long long>(snap.stats.probe_successes));
  }

  bool ok = swap_ok;
  if (unresolved > 0) {
    std::fprintf(stderr, "replica_soak: %lld request(s) never terminated\n",
                 static_cast<long long>(unresolved));
    ok = false;
  }
  if (stats.resolved() != stats.submitted) {
    std::fprintf(stderr, "replica_soak: stats leak: %lld submitted, %lld "
                 "resolved\n", static_cast<long long>(stats.submitted),
                 static_cast<long long>(stats.resolved()));
    ok = false;
  }
  if (determinism_violations > 0) {
    std::fprintf(stderr, "replica_soak: %lld determinism violation(s)\n",
                 static_cast<long long>(determinism_violations));
    ok = false;
  }
  if (completed_remote == 0) {
    std::fprintf(stderr, "replica_soak: nothing completed — degenerate run\n");
    ok = false;
  }
  if (!chaos.empty() && target < names.size()) {
    const serve::ReplicaSnapshot& snap = before_stop[target];
    if (snap.stats.breaker_opens < 1) {
      std::fprintf(stderr, "replica_soak: chaos '%s' armed but variant '%s' "
                   "never quarantined (breaker_opens=0)\n",
                   chaos.c_str(), snap.name.c_str());
      ok = false;
    }
    if (snap.restarts < 1) {
      std::fprintf(stderr, "replica_soak: chaos '%s' armed but variant '%s' "
                   "never respawned (restarts=0)\n",
                   chaos.c_str(), snap.name.c_str());
      ok = false;
    }
    if (snap.health != serve::HealthState::kHealthy ||
        snap.stats.probe_successes < 1) {
      std::fprintf(stderr, "replica_soak: variant '%s' never probed back to "
                   "healthy (health=%s, probe_ok=%lld)\n",
                   snap.name.c_str(),
                   std::string{serve::health_state_name(snap.health)}.c_str(),
                   static_cast<long long>(snap.stats.probe_successes));
      ok = false;
    }
    if (stats.failovers < 1) {
      std::fprintf(stderr, "replica_soak: chaos armed but no failover "
                   "recorded\n");
      ok = false;
    }
  }
  std::printf("replica_soak: %s\n", ok ? "OK" : "FAILED");
  return ok ? 0 : 3;
}
