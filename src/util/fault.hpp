// Fault-injection framework for durability testing.
//
// Production code is instrumented with a handful of hook points (artifact
// commits, training steps, decode tokens, fleet claims, router dispatches,
// replica request frames). Faults are armed either programmatically (tests,
// soak drivers) or through the one SDD_FAULT environment variable:
//
//   io_fail:p=P          every artifact commit fails (throws SerializeError)
//                        with probability P
//   truncate_write       artifact commits tear: half the bytes land at the
//                        final path, no rename
//   crash_at_step:N      die at the Nth training step (process-global
//                        counter across all loops)
//   crash_at_io:N        die during the Nth artifact commit, after the temp
//                        file is durable but before the rename
//   hang_at_step:N       stall the Nth training step: block until the
//                        supervisor watchdog cancels the stage (then throw
//                        Error{timeout}), or until hang_cap expires
//   nan_at_step:N        poison the Nth training loss with NaN (own counter,
//                        one counted call per step)
//   slow_io:ms=M         delay every artifact commit by M ms
//   alloc_fail:at=N      the Nth guarded tensor/KV-cache allocation throws
//                        Error{resource_exhausted} (counter starts at 0)
//   hang_decode:N        stall the Nth decode token like hang_at_step
//   nan_decode:N         poison the logits of the Nth decode token with NaN
//                        (serving NaN-guard path)
//   worker_kill9:at=N    a fleet worker raises SIGKILL right after claiming
//                        its Nth task (0-based). Fires at most once per fleet
//                        run (O_EXCL marker in the fleet dir) so respawned
//                        workers make progress
//   worker_stall:N       a fleet worker goes silent after claiming its Nth
//                        task: no lease renewal, no progress, until the
//                        orchestrator SIGKILLs it (exit 137 after hang_cap
//                        otherwise). Once per fleet run, like worker_kill9
//   claim_race           fleet workers scan tasks in identical order and
//                        pause between scan and claim, forcing many workers
//                        to race one claim file (exactly one may win)
//   orch_crash:N         the fleet orchestrator dies after observing its Nth
//                        completed task; a restart must resume from queue
//                        state
//   replica_fail:at=N    router dispatches to the target replica fail before
//                        reaching its queue, starting at the Nth dispatch to
//                        it, for replica_fail_n consecutive dispatches
//   replica_fail_n:K     width of the replica_fail window (default 6, long
//                        enough to trip the circuit breaker)
//   replica_idx:I        the replica the router-side faults target AND the
//                        replica whose first worker generation receives the
//                        child.* directives of a cross-process router
//                        (default 0)
//   replica_slow:ms=M    the router delays a request's first dispatch to the
//                        target replica by M ms (non-blocking not_before
//                        gate, never stalls others)
//   breaker_flap         dispatches to the target replica fail in bursts of
//                        three (ordinals 3-5, 9-11, ...) so its breaker
//                        repeatedly opens, probes closed, and re-opens
//   replica_kill9:at=N   a serving replica worker raises SIGKILL on receiving
//                        its Nth REQUEST frame (0-based, per process)
//   replica_wedge:N      a replica worker wedges on its Nth REQUEST frame:
//                        heartbeats stop and the worker parks until the
//                        supervisor's lease expires and SIGKILLs it (exit 137
//                        after hang_cap otherwise)
//   ipc_torn_frame       a replica worker writes half a RESPONSE frame then
//                        dies (once per process)
//   spec_reject_storm[:p=P]  corrupt every speculative draft proposal (or a
//                        fraction P) so the target rejects it; output bytes
//                        must not change, only the acceptance rate
//   draft_nan:N          poison the Nth draft-model logits row with NaN; the
//                        speculative round degrades to a target-only step
//   hang_cap:MS          safety cap for every injected hang, stall and wedge
//                        (default 60000)
//   mode:throw|exit      crash by throwing FaultCrash instead of _Exit(137)
//                        (for in-process tests)
//   seed:N               seed for the io_fail / spec_reject_storm coin
//
// Directives combine with commas: "io_fail:p=0.5,seed:7,mode:throw".
//
// Child scope: a directive written as child.<directive> is not armed in the
// process that reads it. The process forwards it, prefix removed, as the
// SDD_FAULT of the processes it spawns: the fleet orchestrator to every
// worker, a cross-process VariantRouter to the first worker generation of
// replica replica_idx. "orch_crash:2,child.worker_kill9:at=0" crashes the
// orchestrator and SIGKILLs a worker. Children never inherit the parent's
// own directives.
//
// Every directive is one row of kDirectives below; the parser and the
// "valid directives" message are generated from the table. With nothing
// armed every hook is one atomic load. A malformed SDD_FAULT value
// terminates the process (exit 64) with the directive list at the first
// instrumented operation — a soak run with a typo'd spec must fail loudly,
// not silently run fault-free.
#pragma once

#include <array>
#include <cstdint>
#include <filesystem>
#include <stdexcept>
#include <string>
#include <string_view>

namespace sdd::fault {

// Thrown by crash points when mode is kThrow; simulates an abrupt process
// death inside a single test process. Deliberately NOT derived from
// SerializeError: recovery code must not swallow it.
class FaultCrash : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

enum class CrashMode : std::int64_t { kExit, kThrow };

// One enumerator per directive, in kDirectives row order.
enum class Fault : std::uint8_t {
  kIoFail, kTruncateWrite, kCrashAtStep, kCrashAtIo, kHangAtStep, kNanAtStep,
  kSlowIo, kAllocFail, kHangDecode, kNanDecode, kWorkerKill9, kWorkerStall,
  kClaimRace, kOrchCrash, kReplicaFail, kReplicaFailN, kReplicaIdx,
  kReplicaSlow, kBreakerFlap, kReplicaKill9, kReplicaWedge, kIpcTornFrame,
  kSpecRejectStorm, kDraftNan, kHangCap, kMode, kSeed,
};
inline constexpr std::size_t kFaultCount = 27;

// The per-process event counter a directive's ordinal is compared against.
// All hooks count their calls in one shared array.
enum class Hook : std::uint8_t {
  kNone, kTrainStep, kIoCommit, kLossCheck, kAlloc, kDecodeToken,
  kLogitCheck, kFleetClaim, kFleetCompletion, kReplicaDispatch,
  kReplicaRequest, kTornFrame, kDraftLogits,
};
inline constexpr std::size_t kHookCount = 13;

// Argument form of a directive.
enum class Arg : std::uint8_t {
  kFlag,     // bare name (any argument is ignored); arms when present
  kOrdinal,  // N: fire on the hook's Nth event (0-based); -1 = never
  kDelay,    // M milliseconds >= 0; arms when > 0
  kProb,     // P in [0, 1]; arms when > 0
  kOptProb,  // like kProb, and the bare name means P = 1
  kParam,    // integer knob >= min; arms nothing by itself
  kMode,     // exit | throw
};

struct Directive {
  Fault id;
  std::string_view name;
  Arg arg;
  std::string_view alias;  // optional argument prefix ("at=", "ms=", "p=")
  std::int64_t fallback;   // value when the directive is absent
  std::int64_t min;        // smallest accepted integer argument
  Hook hook;               // counter the ordinal is compared against
};

inline constexpr std::int64_t kNoMin = INT64_MIN;

// The fault registry. Adding a directive means one enumerator, one row here
// and its hook call site.
// clang-format off
inline constexpr std::array<Directive, kFaultCount> kDirectives{{
    // id                     name                 arg            alias  fallback    min     hook
    {Fault::kIoFail,          "io_fail",           Arg::kProb,    "p=",  0,          0,      Hook::kNone},
    {Fault::kTruncateWrite,   "truncate_write",    Arg::kFlag,    "",    0,          0,      Hook::kNone},
    {Fault::kCrashAtStep,     "crash_at_step",     Arg::kOrdinal, "",    -1,         kNoMin, Hook::kTrainStep},
    {Fault::kCrashAtIo,       "crash_at_io",       Arg::kOrdinal, "",    -1,         kNoMin, Hook::kIoCommit},
    {Fault::kHangAtStep,      "hang_at_step",      Arg::kOrdinal, "",    -1,         kNoMin, Hook::kTrainStep},
    {Fault::kNanAtStep,       "nan_at_step",       Arg::kOrdinal, "",    -1,         kNoMin, Hook::kLossCheck},
    {Fault::kSlowIo,          "slow_io",           Arg::kDelay,   "ms=", 0,          0,      Hook::kNone},
    {Fault::kAllocFail,       "alloc_fail",        Arg::kOrdinal, "at=", -1,         kNoMin, Hook::kAlloc},
    {Fault::kHangDecode,      "hang_decode",       Arg::kOrdinal, "",    -1,         kNoMin, Hook::kDecodeToken},
    {Fault::kNanDecode,       "nan_decode",        Arg::kOrdinal, "",    -1,         kNoMin, Hook::kLogitCheck},
    {Fault::kWorkerKill9,     "worker_kill9",      Arg::kOrdinal, "at=", -1,         kNoMin, Hook::kFleetClaim},
    {Fault::kWorkerStall,     "worker_stall",      Arg::kOrdinal, "at=", -1,         kNoMin, Hook::kFleetClaim},
    {Fault::kClaimRace,       "claim_race",        Arg::kFlag,    "",    0,          0,      Hook::kNone},
    {Fault::kOrchCrash,       "orch_crash",        Arg::kOrdinal, "at=", -1,         kNoMin, Hook::kFleetCompletion},
    {Fault::kReplicaFail,     "replica_fail",      Arg::kOrdinal, "at=", -1,         kNoMin, Hook::kReplicaDispatch},
    {Fault::kReplicaFailN,    "replica_fail_n",    Arg::kParam,   "",    6,          1,      Hook::kNone},
    {Fault::kReplicaIdx,      "replica_idx",       Arg::kParam,   "",    0,          0,      Hook::kNone},
    {Fault::kReplicaSlow,     "replica_slow",      Arg::kDelay,   "ms=", 0,          0,      Hook::kNone},
    {Fault::kBreakerFlap,     "breaker_flap",      Arg::kFlag,    "",    0,          0,      Hook::kReplicaDispatch},
    {Fault::kReplicaKill9,    "replica_kill9",     Arg::kOrdinal, "at=", -1,         kNoMin, Hook::kReplicaRequest},
    {Fault::kReplicaWedge,    "replica_wedge",     Arg::kOrdinal, "at=", -1,         kNoMin, Hook::kReplicaRequest},
    {Fault::kIpcTornFrame,    "ipc_torn_frame",    Arg::kFlag,    "",    0,          0,      Hook::kTornFrame},
    {Fault::kSpecRejectStorm, "spec_reject_storm", Arg::kOptProb, "p=",  0,          0,      Hook::kNone},
    {Fault::kDraftNan,        "draft_nan",         Arg::kOrdinal, "",    -1,         kNoMin, Hook::kDraftLogits},
    {Fault::kHangCap,         "hang_cap",          Arg::kParam,   "",    60'000,     kNoMin, Hook::kNone},
    {Fault::kMode,            "mode",              Arg::kMode,    "",    0,          0,      Hook::kNone},
    {Fault::kSeed,            "seed",              Arg::kParam,   "",    0x5DDFA017, kNoMin, Hook::kNone},
}};
// clang-format on

// Every directive's fallback value, indexed by Fault.
inline constexpr std::array<std::int64_t, kFaultCount> kFallbacks = [] {
  std::array<std::int64_t, kFaultCount> fallbacks{};
  for (const Directive& row : kDirectives) {
    fallbacks[static_cast<std::size_t>(row.id)] = row.fallback;
  }
  return fallbacks;
}();

// A parsed spec: one integer slot per directive (flags 0/1, mode a
// CrashMode), a probability slot for the kProb/kOptProb rows, and the
// child-scope directives to forward.
struct FaultConfig {
  std::array<std::int64_t, kFaultCount> value = kFallbacks;
  std::array<double, kFaultCount> prob{};
  std::string child;  // child.* directives, prefix removed, comma-joined

  std::int64_t operator[](Fault f) const {
    return value[static_cast<std::size_t>(f)];
  }
  double probability(Fault f) const { return prob[static_cast<std::size_t>(f)]; }
  // True when `f` fires on its own (kParam and kMode rows never do).
  bool armed(Fault f) const;
  bool any() const;
};

// Parses an SDD_FAULT-style spec; throws std::invalid_argument on malformed
// directives (child.* directives are validated too).
FaultConfig parse_fault_spec(const std::string& spec);

// "valid directives: ..." — the message printed with a malformed SDD_FAULT,
// generated from kDirectives.
std::string usage();

// Arm faults programmatically (overrides any SDD_FAULT value) and reset all
// event counters. Tests should pair this with reset(). The string overload
// parses first and throws std::invalid_argument on a malformed spec.
void configure(const FaultConfig& config);
void configure(const std::string& spec);

// Disarm all faults and reset counters.
void reset();

// True when any fault is armed (after lazy SDD_FAULT initialization).
bool enabled();

// The armed config (after lazy SDD_FAULT initialization). Spawning code
// reads `child` and replica_idx from it.
FaultConfig active();

// For drivers that need a fault-free setup phase: returns SDD_FAULT (empty
// when unset), exiting 64 right away when it is malformed, and disarms
// lazy SDD_FAULT initialization. The caller arms the spec with configure()
// once setup is done.
std::string take_env_spec();

// ---- hook points ----------------------------------------------------------

// Called by training loops once per completed optimizer step, after any
// checkpoint write for that step. Handles crash_at_step and hang_at_step
// (the hang parks in supervisor::wait_for_cancellation and throws
// Error{timeout} when the watchdog fires or the safety cap expires).
void on_train_step();

// Called by training loops on every computed loss value, before it is used.
// Returns NaN on the armed nan_at_step call (its own counter, incremented
// every call), the input unchanged otherwise.
float poison_loss(float loss);

// Called at the start of an artifact commit. Returns true when the commit
// must fail; the caller throws SerializeError.
bool should_fail_io(const std::filesystem::path& path);

// Returns true when the caller must simulate a torn, non-atomic write.
bool should_truncate_write(const std::filesystem::path& path);

// Called mid-commit, after the temp file is durable but before the rename.
// Handles crash_at_io.
void on_io_commit(const std::filesystem::path& path);

// Called at the start of an artifact commit; sleeps slow_io ms when armed.
void io_delay(const std::filesystem::path& path);

// Called by guarded allocation sites (Tensor construction, decode KV-cache
// slots) with the requested byte count. Throws Error{resource_exhausted} on
// the armed alloc_fail call (its own counter, one count per call).
void on_alloc(std::size_t bytes);

// Called once per decode token by nn::generate and the serving decode loop.
// Handles hang_decode exactly like on_train_step handles hang_at_step.
void on_decode_token();

// Called once per decode token on the freshly computed logits. Returns true
// on the armed nan_decode call (its own counter); the caller poisons its
// logits with NaN so the serving NaN guard can be exercised end to end.
bool should_poison_logits();

// Called by a fleet worker immediately after it wins a claim, with the fleet
// run directory (per-process claim counter). worker_kill9 raises SIGKILL —
// the truly unhandleable death — and worker_stall parks silently (no lease
// renewal) until the orchestrator kills the process or hang_cap expires
// (then _Exit(137)). Both fire at most once per fleet run: the first worker
// to reach its Nth claim wins an O_EXCL marker file under `fleet_dir`, so
// respawned workers with the same SDD_FAULT environment still make progress.
// Under mode:throw both throw FaultCrash instead (in-process tests).
void on_fleet_claim(const std::filesystem::path& fleet_dir);

// True when claim_race is armed: the work queue scans tasks in identical
// order across workers and widens the scan-to-claim window so concurrent
// workers contend for the same claim file.
bool claim_race_armed();

// Called by the fleet orchestrator each time it observes a newly completed
// task (per-process counter). Handles orch_crash.
void on_fleet_completion();

// Called by the variant router just before submitting to replica `index`.
// Returns true when the dispatch must be treated as a replica failure
// (replica_fail window or breaker_flap burst on the target replica); the
// router records a breaker failure and fails the request over. The dispatch
// ordinal counter only advances for the target replica.
bool should_fail_replica(std::int64_t index);

// Transit delay for a router dispatch to replica `index`: replica_slow ms
// for the target replica, 0 otherwise. Stateless; the router applies it as
// a non-blocking not_before gate (one delay per request).
std::int64_t replica_dispatch_delay_ms(std::int64_t index);

// Called by a cross-process replica worker once per REQUEST frame it receives
// (per-process counter). replica_kill9 raises SIGKILL on the armed frame —
// the parent supervisor observes a reaped pid and torn stream. replica_wedge
// sets the wedged flag (the worker's heartbeat thread checks replica_wedged()
// and stops beating) and parks the request loop until the supervisor's lease
// expires and it is SIGKILLed, with a hang_cap safety exit 137. Under
// mode:throw both throw FaultCrash instead (in-process tests).
void on_replica_request();

// True once replica_wedge has fired: the worker's heartbeat thread must go
// silent so the supervisor's liveness lease — not the request path — detects
// the wedge.
bool replica_wedged();

// True exactly once per process when ipc_torn_frame is armed: the replica
// worker writes a deliberately torn RESPONSE frame and dies, so the parent
// exercises the torn-frame → worker_lost classification end to end.
bool should_tear_frame();

// Called by the speculative decoder on every draft proposal. With
// spec_reject_storm armed, returns a corrupted token (shifted by one, mod
// `vocab`) with probability P so the target rejects the draft; returns
// `token` unchanged otherwise. Corruption must never change output bytes —
// only the acceptance telemetry.
std::int32_t corrupt_draft_token(std::int32_t token, std::int32_t vocab);

// Called by the speculative decoder on every freshly computed draft-model
// logits row (own counter). Returns true on the armed draft_nan call; the
// caller poisons the draft logits and the round degrades to a target-only
// step instead of failing the request.
bool should_poison_draft_logits();

}  // namespace sdd::fault
