#include "util/fault.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdlib>
#include <limits>
#include <mutex>
#include <string>
#include <sstream>
#include <thread>
#include <type_traits>

#include "util/error.hpp"
#include "util/log.hpp"
#include "util/rng.hpp"
#include "util/supervisor.hpp"

namespace sdd::fault {
namespace {

constexpr std::size_t idx(Fault f) { return static_cast<std::size_t>(f); }
constexpr std::size_t idx(Hook h) { return static_cast<std::size_t>(h); }

constexpr bool rows_follow_enum() {
  for (std::size_t i = 0; i < kFaultCount; ++i) {
    if (idx(kDirectives[i].id) != i) return false;
  }
  return true;
}
static_assert(rows_follow_enum(), "kDirectives rows must follow Fault order");

constexpr std::string_view kChild = "child.";

// kUnread until the first hook reads SDD_FAULT (or configure() preempts it);
// afterwards every hook decides on this one load. Constant-initialized, so
// hooks running during static initialization are safe.
enum Phase : int { kUnread, kOff, kOn };
std::atomic<int> g_phase{kUnread};
std::once_flag g_env_once;

struct State {
  FaultConfig config;
  // Events per hook since the last configure(). Counting while a hook's own
  // directives are unarmed would be harmless: only configure() changes the
  // config, and it resets every counter.
  std::array<std::atomic<std::int64_t>, kHookCount> counters{};
  std::atomic<bool> wedged{false};
  std::mutex rng_mutex;
  Rng rng{0};
};

State& state() {
  static State s;
  return s;
}

std::int64_t value(Fault f) { return state().config[f]; }

// 0-based ordinal of this event on `hook`.
std::int64_t tick(Hook hook) {
  return state().counters[idx(hook)].fetch_add(1, std::memory_order_relaxed);
}

// True when the ordinal directive `f` targets event `n` (an unarmed ordinal
// is -1, which no event ever is).
bool hits(Fault f, std::int64_t n) { return value(f) == n; }

// For hooks with one ordinal directive: while `f` is armed, counts this
// event on its hook and returns the ordinal when `f` targets it; else -1.
// Unarmed, the hook skips the shared counter (hot allocation paths).
std::int64_t fire(Fault f) {
  if (!enabled() || value(f) < 0) return -1;
  const std::int64_t n = tick(kDirectives[idx(f)].hook);
  return n == value(f) ? n : -1;
}

bool poisons(Fault f, const char* what) {
  const std::int64_t n = fire(f);
  if (n >= 0) log_warn("fault: poisoning ", what, " with NaN at #", n);
  return n >= 0;
}

bool coin(double p) {
  State& s = state();
  const std::lock_guard<std::mutex> lock{s.rng_mutex};
  return s.rng.bernoulli(p);
}

// Crash point: throws FaultCrash under mode:throw. Otherwise dies without
// unwinding — by SIGKILL when `sigkill` (the truly unhandleable death), else
// by _Exit(137), which skips atexit handlers and flushes like SIGKILL does.
[[noreturn]] void crash(const std::string& what, bool sigkill = false) {
  if (value(Fault::kMode) == static_cast<std::int64_t>(CrashMode::kThrow)) {
    throw FaultCrash("injected " + what);
  }
  log_error("fault: injected ", what, sigkill ? " — SIGKILL" : " — _Exit(137)");
  if (sigkill) ::raise(SIGKILL);
  std::_Exit(137);  // also the backstop should SIGKILL not land
}

// Parks the calling thread for at most hang_cap ms. A watched park (training
// or decode hang) wakes when a supervisor watchdog cancels the stage and
// throws Error{timeout}. An unwatched park (worker stall, replica wedge)
// waits to be SIGKILLed from outside; outliving the cap is a crash.
[[noreturn]] void park(const std::string& what, bool watched) {
  const std::chrono::milliseconds cap{value(Fault::kHangCap)};
  log_warn("fault: ", what, " (waiting for ",
           watched ? "watchdog cancellation" : "SIGKILL", ", cap ", cap.count(),
           " ms)");
  if (!watched) {
    std::this_thread::sleep_for(cap);
    crash(what + " outlived the hang cap");
  }
  const bool cancelled = supervisor::wait_for_cancellation(cap);
  throw Error(ErrorKind::kTimeout,
              "injected " + what +
                  (cancelled ? " aborted by watchdog" : " expired unwatched"));
}

std::invalid_argument malformed(const std::string& problem,
                                const std::string& directive) {
  return std::invalid_argument("fault: " + problem + " in '" + directive + "'");
}

// Parses all of `text` with std::stoll / std::stod.
template <typename T>
T parse_number(const std::string& text, const std::string& directive) {
  std::size_t used = std::string::npos;
  T value{};
  try {
    if constexpr (std::is_same_v<T, double>) {
      value = std::stod(text, &used);
    } else {
      value = std::stoll(text, &used);
    }
  } catch (const std::exception&) {
  }
  if (used != text.size()) throw malformed("bad number '" + text + "'", directive);
  return value;
}

const Directive* find_directive(std::string_view name) {
  for (const Directive& row : kDirectives) {
    if (row.name == name) return &row;
  }
  return nullptr;
}

std::string env_spec() {
  const char* spec = std::getenv("SDD_FAULT");
  return spec == nullptr ? "" : spec;
}

// Parses an SDD_FAULT value. A malformed one exits 64 (EX_USAGE) with the
// generated directive list: a typo'd soak spec must not run fault-free.
FaultConfig parse_env_spec(const std::string& spec) {
  try {
    return parse_fault_spec(spec);
  } catch (const std::invalid_argument& e) {
    log_error("fault: malformed SDD_FAULT='", spec, "': ", e.what(),
              "\nfault: ", usage());
    std::exit(64);
  }
}

bool init_from_env() {
  std::call_once(g_env_once, [] {
    // A programmatic configure() beats the environment.
    if (g_phase.load(std::memory_order_acquire) != kUnread) return;
    const std::string spec = env_spec();
    const FaultConfig config = parse_env_spec(spec);
    configure(config);
    if (config.any()) log_warn("fault: armed from SDD_FAULT=", spec);
  });
  return g_phase.load(std::memory_order_acquire) == kOn;
}

// O_EXCL marker under the fleet run directory: the first process to create it
// wins, so a fleet-level fault fires at most once per run even though every
// respawned worker inherits the same SDD_FAULT environment.
bool try_create_marker(const std::filesystem::path& marker) {
  const int fd =
      ::open(marker.string().c_str(), O_CREAT | O_EXCL | O_WRONLY, 0644);
  if (fd < 0) return false;
  ::close(fd);
  return true;
}

}  // namespace

bool FaultConfig::armed(Fault f) const {
  switch (kDirectives[idx(f)].arg) {
    case Arg::kFlag: return (*this)[f] != 0;
    case Arg::kOrdinal: return (*this)[f] >= 0;
    case Arg::kDelay: return (*this)[f] > 0;
    case Arg::kProb:
    case Arg::kOptProb: return probability(f) > 0.0;
    default: return false;
  }
}

bool FaultConfig::any() const {
  for (const Directive& row : kDirectives) {
    if (armed(row.id)) return true;
  }
  return false;
}

FaultConfig parse_fault_spec(const std::string& spec) {
  FaultConfig config;
  std::stringstream directives{spec};
  for (std::string directive; std::getline(directives, directive, ',');) {
    if (directive.empty()) continue;
    if (directive.starts_with(kChild)) {
      // Validate the innermost directive now, so a typo fails in the parent
      // instead of in every child it spawns.
      std::string_view inner = directive;
      while (inner.starts_with(kChild)) inner.remove_prefix(kChild.size());
      parse_fault_spec(std::string{inner});
      if (inner.empty()) continue;
      if (!config.child.empty()) config.child += ',';
      config.child += directive.substr(kChild.size());
      continue;
    }
    const std::size_t colon = directive.find(':');
    const Directive* row =
        find_directive(std::string_view{directive}.substr(0, colon));
    if (row == nullptr) throw malformed("unknown directive", directive);
    std::string arg =
        colon == std::string::npos ? "" : directive.substr(colon + 1);
    const bool bare = arg.empty();
    if (!row->alias.empty() && arg.starts_with(row->alias)) {
      arg.erase(0, row->alias.size());
    }
    const std::size_t i = idx(row->id);
    switch (row->arg) {
      case Arg::kFlag:
        config.value[i] = 1;
        break;
      case Arg::kProb:
      case Arg::kOptProb:
        config.prob[i] = bare && row->arg == Arg::kOptProb
                             ? 1.0
                             : parse_number<double>(arg, directive);
        if (config.prob[i] < 0.0 || config.prob[i] > 1.0) {
          throw malformed("probability outside [0, 1]", directive);
        }
        break;
      case Arg::kMode:
        if (arg != "exit" && arg != "throw") throw malformed("unknown mode", directive);
        config.value[i] = static_cast<std::int64_t>(
            arg == "throw" ? CrashMode::kThrow : CrashMode::kExit);
        break;
      default:  // kOrdinal, kDelay, kParam
        config.value[i] = parse_number<std::int64_t>(arg, directive);
        if (config.value[i] < row->min) {
          throw malformed("value below " + std::to_string(row->min), directive);
        }
    }
  }
  return config;
}

std::string usage() {
  // Argument placeholder per Arg, in enum order.
  constexpr std::array<std::string_view, 7> kForms = {
      "", ":N", ":ms=M", ":p=P", "[:p=P]", ":N", ":throw|exit"};
  static_assert(kForms.size() == static_cast<std::size_t>(Arg::kMode) + 1);
  std::string text = "valid directives: ";
  for (const Directive& row : kDirectives) {
    text += row.name;
    text += row.alias == "at=" ? ":at=N" : kForms[static_cast<std::size_t>(row.arg)];
    text += ", ";
  }
  return text + "child.<directive> (comma-combined)";
}

void configure(const FaultConfig& config) {
  State& s = state();
  s.config = config;
  for (std::atomic<std::int64_t>& counter : s.counters) {
    counter.store(0, std::memory_order_relaxed);
  }
  s.wedged.store(false, std::memory_order_relaxed);
  {
    const std::lock_guard<std::mutex> lock{s.rng_mutex};
    s.rng.reseed(static_cast<std::uint64_t>(config[Fault::kSeed]));
  }
  g_phase.store(config.any() ? kOn : kOff, std::memory_order_release);
}

void configure(const std::string& spec) { configure(parse_fault_spec(spec)); }

void reset() { configure(FaultConfig{}); }

bool enabled() {
  const int phase = g_phase.load(std::memory_order_acquire);
  if (phase != kUnread) return phase == kOn;
  return init_from_env();
}

FaultConfig active() {
  enabled();
  return state().config;
}

std::string take_env_spec() {
  const std::string spec = env_spec();
  parse_env_spec(spec);  // exits 64 when malformed
  reset();               // lazy SDD_FAULT initialization now never arms
  return spec;
}

void on_train_step() {
  if (!enabled()) return;
  const std::int64_t step = tick(Hook::kTrainStep);
  if (hits(Fault::kCrashAtStep, step)) {
    crash("crash at train step #" + std::to_string(step));
  }
  if (hits(Fault::kHangAtStep, step)) {
    park("hang at train step #" + std::to_string(step), true);
  }
}

float poison_loss(float loss) {
  return poisons(Fault::kNanAtStep, "training loss")
             ? std::numeric_limits<float>::quiet_NaN()
             : loss;
}

bool should_fail_io(const std::filesystem::path& path) {
  if (!enabled()) return false;
  const double p = state().config.probability(Fault::kIoFail);
  if (p <= 0.0 || !coin(p)) return false;
  log_warn("fault: injected io failure for ", path.string());
  return true;
}

bool should_truncate_write(const std::filesystem::path& path) {
  if (!enabled() || value(Fault::kTruncateWrite) == 0) return false;
  log_warn("fault: tearing write of ", path.string());
  return true;
}

void on_io_commit(const std::filesystem::path& path) {
  const std::int64_t commit = fire(Fault::kCrashAtIo);
  if (commit < 0) return;
  crash("crash at io commit #" + std::to_string(commit) + " of " +
        path.string());
}

void io_delay(const std::filesystem::path& path) {
  if (!enabled()) return;
  const std::int64_t ms = value(Fault::kSlowIo);
  if (ms <= 0) return;
  log_debug("fault: delaying commit of ", path.string(), " by ", ms, " ms");
  std::this_thread::sleep_for(std::chrono::milliseconds{ms});
}

void on_alloc(std::size_t bytes) {
  const std::int64_t alloc = fire(Fault::kAllocFail);
  if (alloc < 0) return;
  log_warn("fault: failing guarded allocation #", alloc, " (", bytes, " bytes)");
  throw Error(ErrorKind::kResourceExhausted,
              "injected allocation failure at guarded allocation #" +
                  std::to_string(alloc) + " (" + std::to_string(bytes) +
                  " bytes)");
}

void on_decode_token() {
  const std::int64_t token = fire(Fault::kHangDecode);
  if (token < 0) return;
  park("decode hang at token #" + std::to_string(token), true);
}

bool should_poison_logits() { return poisons(Fault::kNanDecode, "decode logits"); }

void on_fleet_claim(const std::filesystem::path& fleet_dir) {
  if (!enabled()) return;
  const std::int64_t claim = tick(Hook::kFleetClaim);
  if (hits(Fault::kWorkerKill9, claim) &&
      try_create_marker(fleet_dir / ".fault_worker_kill9")) {
    crash("worker kill -9 at fleet claim #" + std::to_string(claim), true);
  }
  if (hits(Fault::kWorkerStall, claim) &&
      try_create_marker(fleet_dir / ".fault_worker_stall")) {
    park("worker stall at fleet claim #" + std::to_string(claim), false);
  }
}

bool claim_race_armed() {
  return enabled() && value(Fault::kClaimRace) != 0;
}

void on_fleet_completion() {
  const std::int64_t done = fire(Fault::kOrchCrash);
  if (done < 0) return;
  crash("orchestrator crash at fleet completion #" + std::to_string(done));
}

bool should_fail_replica(std::int64_t index) {
  if (!enabled() || index != value(Fault::kReplicaIdx)) return false;
  // The ordinal only advances for dispatches to the target replica, so the
  // failure window is stable regardless of how much traffic the healthy
  // replicas absorb meanwhile.
  const std::int64_t ordinal = tick(Hook::kReplicaDispatch);
  const std::int64_t first = value(Fault::kReplicaFail);
  // breaker_flap: bursts of three consecutive failures (the default breaker
  // threshold), so the breaker genuinely opens, probes half-open, closes,
  // and re-opens.
  const bool fail = value(Fault::kBreakerFlap) != 0
                        ? (ordinal / 3) % 2 == 1
                        : first >= 0 && ordinal >= first &&
                              ordinal - first < value(Fault::kReplicaFailN);
  if (fail) {
    log_warn("fault: failing router dispatch #", ordinal, " to replica ",
             index);
  }
  return fail;
}

std::int64_t replica_dispatch_delay_ms(std::int64_t index) {
  if (!enabled() || index != value(Fault::kReplicaIdx)) return 0;
  return std::max<std::int64_t>(0, value(Fault::kReplicaSlow));
}

void on_replica_request() {
  if (!enabled()) return;
  const std::int64_t request = tick(Hook::kReplicaRequest);
  if (hits(Fault::kReplicaKill9, request)) {
    crash("replica kill -9 at request frame #" + std::to_string(request),
          true);
  }
  if (hits(Fault::kReplicaWedge, request)) {
    // Flag first so the heartbeat thread falls silent: the supervisor's
    // liveness lease — not a request error — must detect the wedge.
    state().wedged.store(true, std::memory_order_release);
    park("replica wedge at request frame #" + std::to_string(request), false);
  }
}

bool replica_wedged() {
  return enabled() && state().wedged.load(std::memory_order_acquire);
}

bool should_tear_frame() {
  return enabled() && value(Fault::kIpcTornFrame) != 0 &&
         tick(Hook::kTornFrame) == 0;
}

std::int32_t corrupt_draft_token(std::int32_t token, std::int32_t vocab) {
  if (!enabled()) return token;
  const double p = state().config.probability(Fault::kSpecRejectStorm);
  if (p <= 0.0 || vocab <= 1 || (p < 1.0 && !coin(p))) return token;
  return static_cast<std::int32_t>((token + 1) % vocab);
}

bool should_poison_draft_logits() {
  return poisons(Fault::kDraftNan, "draft logits");
}

}  // namespace sdd::fault
