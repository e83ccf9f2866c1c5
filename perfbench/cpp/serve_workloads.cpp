// Workloads serve_chat and serve_prefill: open-loop Poisson arrivals into a
// VariantRouter hosting a full model and its n=3 depth-pruned variant, both
// seeded random-init. Greedy decoding with the stop token disabled fixes each
// request's work by its prompt and output lengths, whatever the weights.
//
//   serve_chat     in-process replicas; short prompts (8-32 tokens), long
//                  outputs (32-64): decode-dominated, so the per-slot
//                  decode_step scheduler is the bottleneck.
//   serve_prefill  process-isolated replicas (replica-worker children);
//                  long prompts (96-150), short outputs (1-8): prompt
//                  tokens dominate and prompt-sized frames cross util/ipc.
//
// Each pass runs two kinds of phase at fixed rates: `low` (an eighth to a
// fifth of the capacity of the code this benchmark was written against) for
// latency, `high` (above that capacity) for throughput. A quarter of the
// requests carry a deadline at the router's cheap threshold, which steers
// them to the pruned variant; the threshold is long enough that no request
// times out.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <unistd.h>
#include <vector>

#include "data/vocab.hpp"
#include "nn/decode.hpp"
#include "replay.hpp"
#include "serve/router.hpp"
#include "util/hash.hpp"
#include "util/rng.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace sdd;

namespace {

struct Traffic {
  std::int64_t prompt_min, prompt_max;  // prompt tokens
  std::int64_t new_min, new_max;        // max_new_tokens
  double low_rate, high_rate;           // requests per second
  bool cross_process;
};

// Rates are fixed, not measured per run, so that a faster program shows as
// lower latency and higher tokens/s rather than as a different load.
Traffic traffic_for(const std::string& workload) {
  if (workload == "serve_chat") return {8, 32, 32, 64, 12.0, 200.0, false};
  return {96, 150, 1, 8, 8.0, 100.0, true};
}

constexpr std::uint64_t kFullSeed = 11;
constexpr std::uint64_t kShapeSeed = 5;
constexpr std::int64_t kPruneStart = 12;
constexpr std::int64_t kPruneBlock = 3;
constexpr std::int64_t kCheapDeadlineMs = 5000;
constexpr double kDeadlineShare = 0.25;
// Each pass splits --seconds into latency windows at the low rate (0.75 of
// the time; as many windows as give each at least kMinWindowRequests
// requests, at most kMaxLowWindows) and kBursts throughput bursts at the
// high rate (arrivals over 0.12 of it; the bursts run on until their queues
// drain).
// Metrics are medians over windows, so a stall of the host that hits a few
// windows does not move them.
constexpr std::int64_t kMinWindowRequests = 24;
constexpr std::int64_t kMaxLowWindows = 10;
constexpr int kBursts = 5;
constexpr double kLowShare = 0.75;
constexpr double kHighShare = 0.12;
constexpr std::int64_t kMaxBatch = 8;  // decode slots per replica
constexpr const char* kFull = "full";
constexpr const char* kPruned = "pruned";

struct Planned {
  std::int64_t due_ns = 0;  // relative to the phase start
  serve::RouteRequest request;
};

// Shuffles `values` with `rng` (Fisher-Yates).
template <typename T>
void shuffle(std::vector<T>& values, Rng& rng) {
  for (std::size_t i = values.size(); i > 1; --i) {
    std::swap(values[i - 1], values[rng.index(i)]);
  }
}

// `count` values spread evenly over [lo, hi], in random order.
std::vector<std::int64_t> stratified_ints(std::size_t count, std::int64_t lo,
                                          std::int64_t hi, Rng& rng) {
  std::vector<std::int64_t> values(count);
  const double span = static_cast<double>(hi - lo + 1);
  for (std::size_t i = 0; i < count; ++i) {
    values[i] = lo + static_cast<std::int64_t>((static_cast<double>(i) + 0.5) * span /
                                               static_cast<double>(count));
  }
  shuffle(values, rng);
  return values;
}

// Poisson arrivals conditioned on their count: round(rate * seconds)
// requests whose arrival times are the normalised partial sums of
// exponential gaps, and exactly a quarter of them (at random positions)
// carrying the cheap deadline. The gaps, prompt lengths and output lengths
// are stratified samples (the exponential's quantiles and evenly spread
// lengths) in an order drawn from `shape_seed`. So every window offers the
// same load and variant mix and differs only in the order of its arrivals
// and lengths. `token_seed` draws the prompt tokens.
std::vector<Planned> make_schedule(const Traffic& traffic, double rate,
                                   double seconds, std::uint64_t shape_seed,
                                   std::uint64_t token_seed) {
  const std::int64_t vocab = data::Vocab::instance().size();
  const auto count = static_cast<std::size_t>(std::llround(rate * seconds));
  Rng rng{shape_seed};
  Rng tokens{token_seed};
  std::vector<double> gaps(count + 1);
  for (std::size_t i = 0; i <= count; ++i) {
    gaps[i] = -std::log(1.0 - (static_cast<double>(i) + 0.5) / static_cast<double>(count + 1));
  }
  shuffle(gaps, rng);
  std::vector<double> at(count + 1);
  double sum = 0.0;
  for (std::size_t i = 0; i <= count; ++i) at[i] = sum += gaps[i];
  std::vector<std::uint8_t> cheap(count, 0);
  std::fill_n(cheap.begin(), std::llround(kDeadlineShare * static_cast<double>(count)), 1);
  shuffle(cheap, rng);
  const auto prompt_lengths =
      stratified_ints(count, traffic.prompt_min, traffic.prompt_max, rng);
  const auto new_tokens = stratified_ints(count, traffic.new_min, traffic.new_max, rng);
  std::vector<Planned> plan(count);
  for (std::size_t i = 0; i < count; ++i) {
    Planned& p = plan[i];
    p.due_ns = static_cast<std::int64_t>(at[i] / at[count] * seconds * 1e9);
    if (cheap[i]) p.request.request.deadline_ms = kCheapDeadlineMs;
    for (std::int64_t t = 0; t < prompt_lengths[i]; ++t) {
      p.request.request.prompt.push_back(
          static_cast<std::int32_t>(tokens.uniform_int(0, vocab - 1)));
    }
    p.request.request.max_new_tokens = new_tokens[i];
    p.request.request.temperature = 0.0F;
    p.request.request.stop_token = -1;
    p.request.request.seed = tokens.next_u64();
  }
  return plan;
}

serve::RouterConfig router_config(bool cross_process) {
  serve::RouterConfig config;
  config.failover_max = 2;
  config.cheap_deadline_ms = kCheapDeadlineMs;
  config.poll_ms = 1;
  config.reroute_wait_ms = 5;
  config.cross_process = cross_process;
  config.breaker.degraded_after = 1;
  config.breaker.open_after = 3;
  config.breaker.cooldown_ms = 250;
  config.breaker.probe_max = 1;
  config.server.queue_capacity = 1024;
  config.server.max_batch = kMaxBatch;
  config.server.kv_budget_bytes = 0;
  config.server.default_deadline_ms = 0;
  config.server.degrade_queue_depth = 0;
  config.server.degrade_max_new_tokens = 16;
  config.server.nan_guard = true;
  config.server.spec_k = 0;
  config.server.worker = serve::ServerConfig::default_worker_config();
  config.remote.heartbeat_ms = 25;
  config.remote.lease_ms = 400;
  config.remote.respawn_max = 8;
  config.remote.backoff_ms = 50;
  config.remote.backoff_cap_ms = 2000;
  config.remote.drain_grace_ms = 3000;
  // Workers build their ServerConfig from the environment; pin it to the
  // in-process values above.
  config.remote.env_overrides = {
      "SDD_SERVE_QUEUE_CAP=1024",     "SDD_SERVE_MAX_BATCH=" + std::to_string(kMaxBatch),
      "SDD_SERVE_KV_BUDGET_MB=0",     "SDD_SERVE_DEADLINE_MS=0",
      "SDD_SERVE_DEGRADE_DEPTH=0",    "SDD_SERVE_DEGRADE_MAX_TOKENS=16",
      "SDD_SERVE_NAN_GUARD=1",        "SDD_SERVE_HANG_MS=0",
      "SDD_STAGE_HANG_SEC=0",         "SDD_SPEC_K=0"};
  return config;
}

struct Hosted {
  nn::TransformerLM full;
  nn::TransformerLM pruned;
  std::unique_ptr<serve::VariantRouter> router;
  std::vector<serve::Replica*> replicas;
  std::int64_t submitted = 0;  // warm-up requests sent through the router
};

// `model_dir` receives the checkpoints cross-process workers load.
Hosted set_up(const std::filesystem::path& model_dir, const Traffic& traffic) {
  Hosted hosted;
  hosted.full = nn::TransformerLM{standard_model(), kFullSeed};
  hosted.pruned = hosted.full.pruned(kPruneStart, kPruneBlock);
  std::vector<serve::VariantSpec> variants(2);
  variants[0].name = kFull;
  variants[0].quality = 0.9;
  variants[1].name = kPruned;
  variants[1].quality = 0.6;
  if (traffic.cross_process) {
    std::filesystem::create_directories(model_dir);
    variants[0].path = (model_dir / "full.bin").string();
    variants[1].path = (model_dir / "pruned.bin").string();
    hosted.full.save(variants[0].path);
    hosted.pruned.save(variants[1].path);
  } else {
    variants[0].model = hosted.full.clone();
    variants[1].model = hosted.pruned.clone();
  }
  hosted.router = std::make_unique<serve::VariantRouter>(
      std::move(variants), router_config(traffic.cross_process));
  for (const char* name : {kFull, kPruned}) {
    hosted.replicas.push_back(hosted.router->replica(name));
  }
  if (traffic.cross_process) {
    // A worker reports its parameter count in HELLO once its model is loaded.
    const std::int64_t give_up = now_ns() + 30'000'000'000LL;
    while (std::any_of(hosted.replicas.begin(), hosted.replicas.end(),
                       [](serve::Replica* r) { return r->cost() <= 0; })) {
      if (now_ns() > give_up) throw std::runtime_error("replica workers never said HELLO");
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  }
  // Warm-up: one request of the workload's longest shape pinned to every
  // decode slot of each variant, so the first window finds its memory
  // touched.
  std::vector<serve::RouteTicketPtr> warm;
  for (std::int64_t i = 0; i < 2 * kMaxBatch; ++i) {
    serve::RouteRequest request;
    request.variant = i % 2 == 0 ? kFull : kPruned;
    request.request.prompt.assign(static_cast<std::size_t>(traffic.prompt_max), 1);
    request.request.max_new_tokens = traffic.new_max;
    request.request.stop_token = -1;
    warm.push_back(hosted.router->submit(std::move(request)));
    ++hosted.submitted;
  }
  for (const auto& ticket : warm) {
    if (ticket->wait().response.state != serve::RequestState::kCompleted) {
      throw std::runtime_error("warm-up request did not complete");
    }
  }
  return hosted;
}

struct Outcome {
  std::int64_t prompt_tokens = 0;
  std::int64_t due_ns = 0;
  std::int64_t submit_ns = 0;
  std::int64_t submitted_ns = 0;
  std::int64_t done_ns = -1;
  serve::RouteTicketPtr ticket;
  serve::RouteResponse response;
};

struct PhaseResult {
  const std::vector<Planned>* plan = nullptr;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;  // last terminal response
  std::vector<Outcome> outcomes;
  std::int64_t heartbeat_age_max_ms = 0;
};

// Sleeps until 1 ms before `at_ns`, then spins, so that a slow wake-up does
// not make the generator late.
void sleep_until_ns(std::int64_t at_ns) {
  constexpr std::int64_t kSpinNs = 1'000'000;
  const std::int64_t remaining = at_ns - kSpinNs - now_ns();
  if (remaining > 0) std::this_thread::sleep_for(std::chrono::nanoseconds(remaining));
  while (now_ns() < at_ns) {
  }
}

// Sends `plan` open-loop from this thread while a second thread records when
// each ticket reaches a terminal state.
PhaseResult run_phase(Hosted& hosted, const std::vector<Planned>& plan, bool remote) {
  PhaseResult result;
  result.plan = &plan;
  result.outcomes.resize(plan.size());
  std::atomic<std::size_t> issued{0};
  result.start_ns = now_ns() + 1'000'000;  // 1 ms lead before the first due time
  const std::int64_t give_up =
      result.start_ns + (plan.empty() ? 0 : plan.back().due_ns) + 60'000'000'000LL;

  std::thread collector{[&] {
    std::vector<std::size_t> pending;
    std::size_t seen = 0;
    std::int64_t next_sample = 0;
    bool cancelled = false;
    while (true) {
      const std::size_t n = issued.load(std::memory_order_acquire);
      for (; seen < n; ++seen) pending.push_back(seen);
      for (std::size_t k = 0; k < pending.size();) {
        Outcome& o = result.outcomes[pending[k]];
        if (o.ticket->wait_for(std::chrono::milliseconds(0))) {
          o.done_ns = now_ns();
          pending[k] = pending.back();
          pending.pop_back();
        } else {
          ++k;
        }
      }
      const std::int64_t now = now_ns();
      if (remote && now >= next_sample) {
        for (serve::Replica* r : hosted.replicas) {
          result.heartbeat_age_max_ms =
              std::max(result.heartbeat_age_max_ms, r->heartbeat_age_ms());
        }
        next_sample = now + 10'000'000;
      }
      if (seen == plan.size() && pending.empty()) break;
      if (now > give_up && !cancelled) {
        for (const std::size_t i : pending) result.outcomes[i].ticket->cancel();
        cancelled = true;
      }
      std::this_thread::sleep_for(std::chrono::microseconds(250));
    }
  }};

  for (std::size_t i = 0; i < plan.size(); ++i) {
    Outcome& o = result.outcomes[i];
    o.prompt_tokens = static_cast<std::int64_t>(plan[i].request.request.prompt.size());
    o.due_ns = result.start_ns + plan[i].due_ns;
    sleep_until_ns(o.due_ns);
    o.submit_ns = now_ns();
    o.ticket = hosted.router->submit(plan[i].request);
    o.submitted_ns = now_ns();
    ++hosted.submitted;
    issued.store(i + 1, std::memory_order_release);
  }
  collector.join();
  for (Outcome& o : result.outcomes) {
    o.response = o.ticket->wait();
    result.end_ns = std::max(result.end_ns, o.done_ns);
  }
  return result;
}

bool completed(const Outcome& o) {
  return o.response.response.state == serve::RequestState::kCompleted;
}

double latency_ms(const Outcome& o) { return ns_to_ms(o.done_ns - o.due_ns); }

// Records the phase and its requests as spans: the generator's lateness, the
// submit call, then the server's own queue and decode times as it reports
// them; what remains of a request is dispatch, polling and (cross-process)
// IPC, charged to the router or the remote layer. The phase span only groups
// its requests: it has no layer, so the idle time between requests is
// charged to nothing.
void trace_phase(Tracer& tracer, const char* name, const PhaseResult& phase,
                 std::int64_t first_request, bool remote) {
  if (!tracer.enabled()) return;
  const std::int64_t phase_id = tracer.add(name, "", phase.start_ns, phase.end_ns);
  for (std::size_t i = 0; i < phase.outcomes.size(); ++i) {
    const Outcome& o = phase.outcomes[i];
    const std::int64_t request = first_request + static_cast<std::int64_t>(i);
    const std::int64_t id = tracer.add("request", remote ? "remote" : "router",
                                       o.due_ns, o.done_ns, phase_id, request);
    tracer.add("gen.late", "gen", o.due_ns, o.submit_ns, id, request);
    tracer.add("router.submit", "router", o.submit_ns, o.submitted_ns, id, request);
    const std::int64_t queue_end = std::min(
        o.done_ns, o.submitted_ns + o.response.response.queue_ms * 1'000'000);
    const std::int64_t decode_end =
        std::min(o.done_ns, queue_end + o.response.response.decode_ms * 1'000'000);
    tracer.add("serve.queue", "serve", o.submitted_ns, queue_end, id, request);
    tracer.add("serve.decode", "serve", queue_end, decode_end, id, request);
  }
}

struct PassResult {
  PassWall wall;
  std::vector<PhaseResult> low;   // one per window
  std::vector<PhaseResult> high;  // one per burst
};

using Plans = std::vector<std::vector<Planned>>;

// Alternates latency windows and throughput bursts, so that a slow spell of
// the host lands in a few of each rather than in all of one kind.
PassResult run_pass(Hosted& hosted, const Plans& low, const Plans& high,
                    const Traffic& traffic, Tracer& tracer) {
  PassResult pass;
  pass.wall.start_ns = now_ns();
  std::int64_t first_request = 0;
  auto run = [&](const std::vector<Planned>& plan, const char* name,
                 std::vector<PhaseResult>& into) {
    into.push_back(run_phase(hosted, plan, traffic.cross_process));
    trace_phase(tracer, name, into.back(), first_request, traffic.cross_process);
    first_request += static_cast<std::int64_t>(plan.size());
  };
  for (std::size_t i = 0; i < std::max(low.size(), high.size()); ++i) {
    if (i < low.size()) run(low[i], "phase.low", pass.low);
    if (i < high.size()) run(high[i], "phase.high", pass.high);
  }
  pass.wall.end_ns = now_ns();
  return pass;
}

std::vector<const PhaseResult*> phases_of(const PassResult& pass) {
  std::vector<const PhaseResult*> phases;
  for (const PhaseResult& p : pass.low) phases.push_back(&p);
  for (const PhaseResult& p : pass.high) phases.push_back(&p);
  return phases;
}

// Seconds of the pass during which at least one request was open (from its
// due time to its terminal response).
double busy_seconds(const PassResult& pass) {
  std::int64_t busy = 0;
  for (const PhaseResult* phase : phases_of(pass)) {
    std::vector<std::pair<std::int64_t, std::int64_t>> open;
    for (const Outcome& o : phase->outcomes) open.emplace_back(o.due_ns, o.done_ns);
    std::sort(open.begin(), open.end());
    std::int64_t covered_to = 0;
    for (const auto& [from, to] : open) {
      const std::int64_t start = std::max(from, covered_to);
      if (to > start) busy += to - start;
      covered_to = std::max(covered_to, to);
    }
  }
  return ns_to_s(busy);
}

// Reference decodes: every completed response must equal nn::generate on
// the variant that served it. Computed after the timed window, in parallel.
std::int64_t count_mismatches(const Hosted& hosted,
                              const std::vector<const PhaseResult*>& phases,
                              Tracer& tracer) {
  const ScopedSpan span{tracer, "check.reference_generate", "nn"};
  struct Job {
    const serve::Request* request = nullptr;
    const nn::TransformerLM* model = nullptr;
    std::vector<const std::vector<std::int32_t>*> served;
    std::int64_t mismatches = 0;
  };
  std::map<std::pair<const serve::Request*, std::string>, Job> jobs;
  for (const PhaseResult* phase : phases) {
    const std::vector<Planned>& plan = *phase->plan;
    for (std::size_t i = 0; i < phase->outcomes.size(); ++i) {
      const Outcome& o = phase->outcomes[i];
      if (!completed(o)) continue;
      const serve::Request* request = &plan[i].request.request;
      Job& job = jobs[{request, o.response.variant}];
      job.request = request;
      job.model = o.response.variant == kFull ? &hosted.full : &hosted.pruned;
      job.served.push_back(&o.response.response.tokens);
    }
  }
  std::vector<Job*> work;
  for (auto& [key, job] : jobs) work.push_back(&job);
  std::atomic<std::size_t> next{0};
  auto worker = [&] {
    for (std::size_t k = next++; k < work.size(); k = next++) {
      Job& job = *work[k];
      nn::GenerateOptions options;
      options.max_new_tokens = job.request->max_new_tokens;
      options.temperature = job.request->temperature;
      options.stop_token = job.request->stop_token;
      options.seed = job.request->seed;
      const auto reference = nn::generate(*job.model, job.request->prompt, options);
      for (const auto* served : job.served) job.mismatches += *served != reference;
    }
  };
  const unsigned threads = std::max(1U, std::min(4U, std::thread::hardware_concurrency()));
  std::vector<std::thread> pool;
  for (unsigned t = 0; t < threads; ++t) pool.emplace_back(worker);
  for (std::thread& t : pool) t.join();
  std::int64_t mismatches = 0;
  for (const Job* job : work) mismatches += job->mismatches;
  return mismatches;
}

std::string output_digest(const Hosted& hosted, const PassResult& pass) {
  std::string digest = "full " + hash_hex(hosted.full.weight_hash()) + "\n";
  digest += "pruned " + hash_hex(hosted.pruned.weight_hash()) + "\n";
  std::uint64_t h = 0;
  for (const PhaseResult* phase : phases_of(pass)) {
    for (const Outcome& o : phase->outcomes) {
      const auto& tokens = o.response.response.tokens;
      h = xxh64(o.response.variant, h);
      h = xxh64(std::string_view{reinterpret_cast<const char*>(tokens.data()),
                                 tokens.size() * sizeof(std::int32_t)},
                h);
    }
  }
  return digest + "outputs " + hash_hex(h) + "\n";
}

}  // namespace

void run_serve_workload(const RunOptions& options, Report& report) {
  const Traffic traffic = traffic_for(options.workload);
  struct RemoveOnExit {
    std::filesystem::path path;
    ~RemoveOnExit() {
      std::error_code ignored;
      std::filesystem::remove_all(path, ignored);
    }
  } const model_dir{options.work / ("serve-" + std::to_string(::getpid()))};
  std::vector<double> setup_s;
  std::optional<Hosted> hosted;  // declared after model_dir: stops first
  for (int k = 0; k < kSetups; ++k) {
    // Tearing down the previous set-up is not part of the next one.
    if (hosted) hosted->router->shutdown();
    hosted.reset();
    const std::int64_t start = k == 0 ? 0 : now_ns();  // first one from process start
    hosted.emplace(set_up(model_dir.path, traffic));
    setup_s.push_back(ns_to_s(now_ns() - start));
  }

  // The shape of every phase (arrival order, lengths, deadlines) comes from a
  // fixed seed and --seed draws the prompt tokens. A window's latency tail is
  // set by which long requests happen to overlap: shapes drawn from five
  // seeds spread serve_chat's latency_p99_ms by 0.37 of its median, while
  // three runs of one shape stayed within 5%.
  Plans low, high;
  const double low_seconds = options.seconds * kLowShare;
  const std::int64_t low_windows = std::clamp<std::int64_t>(
      std::llround(traffic.low_rate * low_seconds) / kMinWindowRequests, 1, kMaxLowWindows);
  for (std::int64_t w = 0; w < low_windows; ++w) {
    const auto phase = static_cast<std::uint64_t>(w);
    low.push_back(make_schedule(traffic, traffic.low_rate,
                                low_seconds / static_cast<double>(low_windows),
                                kShapeSeed * 64 + phase, options.seed * 64 + phase));
  }
  for (int b = 0; b < kBursts; ++b) {
    const auto phase = 32 + static_cast<std::uint64_t>(b);
    high.push_back(make_schedule(traffic, traffic.high_rate,
                                 options.seconds * kHighShare / kBursts,
                                 kShapeSeed * 64 + phase, options.seed * 64 + phase));
  }

  // A traced run repeats the untraced pass with tracing on, so both kinds of
  // pass see the same inputs and their wall times give the tracing overhead.
  Tracer off{false};
  const PassResult untraced = run_pass(*hosted, low, high, traffic, off);
  Tracer tracer{options.traced};
  std::optional<PassResult> traced_pass;
  if (options.traced) {
    traced_pass = run_pass(*hosted, low, high, traffic, tracer);
  }
  const std::vector<serve::ReplicaSnapshot> snapshots = hosted->router->replicas();
  const serve::RouterStats stats = hosted->router->stats();

  // ---- output checks (outside the timed window) ----------------------------
  std::vector<const PhaseResult*> phases = phases_of(untraced);
  if (traced_pass) {
    for (const PhaseResult* p : phases_of(*traced_pass)) phases.push_back(p);
  }
  const std::int64_t mismatches = count_mismatches(*hosted, phases, tracer);
  report.check(mismatches == 0, "serve_output_matches_generate",
               std::to_string(mismatches) + " responses differ from nn::generate");

  std::map<serve::RequestState, std::int64_t> on_tickets;
  std::int64_t requests = 0;
  for (const PhaseResult* phase : phases) {
    for (const Outcome& o : phase->outcomes) {
      ++on_tickets[o.response.response.state];
      ++requests;
    }
  }
  const std::int64_t warm_ups = hosted->submitted - requests;
  const std::int64_t ticket_completed = on_tickets[serve::RequestState::kCompleted];
  std::int64_t ticket_terminal = 0;
  for (const auto& [state, n] : on_tickets) {
    ticket_terminal += serve::request_state_terminal(state) ? n : 0;
  }
  report.check(ticket_terminal == requests && stats.submitted == hosted->submitted &&
                   stats.resolved() == stats.submitted &&
                   stats.completed == ticket_completed + warm_ups &&
                   stats.timed_out == on_tickets[serve::RequestState::kTimeout] &&
                   stats.rejected == on_tickets[serve::RequestState::kRejected] &&
                   stats.shed == on_tickets[serve::RequestState::kShed] &&
                   stats.failed == on_tickets[serve::RequestState::kFailed] &&
                   stats.cancelled == on_tickets[serve::RequestState::kCancelled],
               "terminal_states_balance",
               "submitted " + std::to_string(stats.submitted) + " (router) vs " +
                   std::to_string(hosted->submitted) + " sent; router resolved " +
                   std::to_string(stats.resolved()) + ", tickets terminal " +
                   std::to_string(ticket_terminal) + " of " + std::to_string(requests));
  report.count(requests, requests - ticket_completed);

  const std::string digest = output_digest(*hosted, untraced);
  std::fprintf(stderr, "digest:\n%s", digest.c_str());
  if (traced_pass) {
    report.check(output_digest(*hosted, *traced_pass) == digest,
                 "traced_pass_same_outputs");
  }
  check_digest(options, digest, report);

  // ---- end-to-end metrics: medians over windows, from the untraced pass ----
  std::vector<double> p50, p99, tok_s, makespan;
  std::int64_t low_requests = 0, high_requests = 0;
  std::string per_window;
  for (const PhaseResult& window : untraced.low) {
    std::vector<double> latency;
    for (const Outcome& o : window.outcomes) {
      if (completed(o)) latency.push_back(latency_ms(o));
    }
    p50.push_back(percentile(latency, 50));
    p99.push_back(percentile(latency, 99));
    low_requests += static_cast<std::int64_t>(window.outcomes.size());
    char text[48];
    std::snprintf(text, sizeof(text), "%s%.1f/%.1f", per_window.empty() ? "" : " ",
                  p50.back(), p99.back());
    per_window += text;
  }
  for (const PhaseResult& burst : untraced.high) {
    std::int64_t tokens = 0;
    for (const Outcome& o : burst.outcomes) {
      if (completed(o)) {
        tokens += o.prompt_tokens +
                  static_cast<std::int64_t>(o.response.response.tokens.size());
      }
    }
    const double seconds = ns_to_s(burst.end_ns - burst.start_ns);
    tok_s.push_back(static_cast<double>(tokens) / seconds);
    makespan.push_back(seconds);
    high_requests += static_cast<std::int64_t>(burst.outcomes.size());
  }
  report.end_to_end("setup_s", median(setup_s), "s");
  report.end_to_end("latency_p50_ms", median(p50), "ms");
  report.end_to_end("latency_p99_ms", median(p99), "ms");
  report.end_to_end("tokens_per_s", median(tok_s), "tok/s");
  report.end_to_end("work_s", median(makespan), "s");
  report.info("low windows", std::to_string(low_requests) + " requests at " +
                                 std::to_string(traffic.low_rate) + "/s in " +
                                 std::to_string(low_windows) + " windows");
  report.info("window p50/p99 ms", per_window);
  report.info("high bursts", std::to_string(high_requests) + " requests at " +
                                 std::to_string(traffic.high_rate) + "/s in " +
                                 std::to_string(kBursts) + " bursts");

  if (!traced_pass) return;
  // ---- per-layer metrics (traced pass, pooled over windows) ----------------
  const PassResult& t = *traced_pass;
  std::vector<double> queue_ms, decode_ms_per_tok, overhead_ms, late_ms, submit_us;
  std::int64_t cheap = 0, done = 0, degraded = 0, heartbeat_age_max = 0;
  const std::vector<const PhaseResult*> traced_phases = phases_of(t);
  for (std::size_t i = 0; i < traced_phases.size(); ++i) {
    const PhaseResult* phase = traced_phases[i];
    const bool low_rate = i < t.low.size();
    heartbeat_age_max = std::max(heartbeat_age_max, phase->heartbeat_age_max_ms);
    for (const Outcome& o : phase->outcomes) {
      const serve::Response& r = o.response.response;
      late_ms.push_back(ns_to_ms(o.submit_ns - o.due_ns));
      submit_us.push_back(static_cast<double>(o.submitted_ns - o.submit_ns) * 1e-3);
      degraded += r.degraded ? 1 : 0;
      if (!completed(o)) continue;
      ++done;
      cheap += o.response.variant == kPruned ? 1 : 0;
      if (!low_rate) continue;
      queue_ms.push_back(static_cast<double>(r.queue_ms));
      // Per token the slot fed: prompt tokens are decoded one per round too.
      decode_ms_per_tok.push_back(
          static_cast<double>(r.decode_ms) /
          static_cast<double>(o.prompt_tokens + static_cast<std::int64_t>(r.tokens.size())));
      overhead_ms.push_back(latency_ms(o) - static_cast<double>(r.queue_ms + r.decode_ms) -
                            ns_to_ms(o.submit_ns - o.due_ns));
    }
  }
  std::int64_t peak_active = 0, restarts = 0;
  for (const serve::ReplicaSnapshot& s : snapshots) {
    peak_active = std::max(peak_active, s.server.peak_active);
    restarts += s.restarts;
  }
  report.layer("serve.queue_ms_p50", percentile(queue_ms, 50), "ms");
  report.layer("serve.queue_ms_p99", percentile(queue_ms, 99), "ms");
  report.layer("serve.decode_ms_per_tok_p50", percentile(decode_ms_per_tok, 50), "ms");
  report.layer("serve.peak_active", static_cast<double>(peak_active), "count");
  report.layer("serve.rejected", static_cast<double>(stats.rejected), "count");
  report.layer("serve.shed", static_cast<double>(stats.shed), "count");
  report.layer("serve.timed_out", static_cast<double>(stats.timed_out), "count");
  report.layer("serve.degraded", static_cast<double>(degraded), "count");
  report.layer("router.overhead_ms_p50", percentile(overhead_ms, 50), "ms");
  report.layer("router.overhead_ms_p99", percentile(overhead_ms, 99), "ms");
  report.layer("router.cheap_share",
               done > 0 ? static_cast<double>(cheap) / static_cast<double>(done) : 0.0,
               "ratio");
  report.layer("router.failovers", static_cast<double>(stats.failovers), "count");
  report.layer("router.submit_us_p99", percentile(submit_us, 99), "us");
  report.layer("remote.restarts", static_cast<double>(restarts), "count");
  report.layer("remote.heartbeat_age_ms_max", static_cast<double>(heartbeat_age_max), "ms");
  report.layer("gen.late_ms_p99", percentile(late_ms, 99), "ms");
  report_self_times(tracer, t.wall, untraced.wall, busy_seconds(untraced),
                    {"gen", "router", "serve", "remote"}, report);
  report_replays(hosted->full, options.seed, tracer, report);
  write_trace(options, tracer, report);
}

}  // namespace perfbench
