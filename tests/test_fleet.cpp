// The crash-tolerant fleet work queue (fleet/queue) and worker loop
// (fleet/orchestrator): atomic O_EXCL claims (exactly one racer wins), lease
// renewal vs. expiry, orphan reclaim after a simulated kill -9, poison-task
// quarantine, result-validation requeue, and the fleet-level fault hooks'
// once-per-run marker semantics. Suite names all start with "Fleet" so the
// TSan CI job picks them up (tests that fork are compiled out under TSan —
// fork+threads is outside TSan's model — while the thread-based races stay).
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <csignal>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "fleet/orchestrator.hpp"
#include "fleet/queue.hpp"
#include "util/error.hpp"
#include "util/fault.hpp"
#include "util/proc.hpp"
#include "util/signals.hpp"

#if defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define SDD_TSAN 1
#endif
#elif defined(__SANITIZE_THREAD__)
#define SDD_TSAN 1
#endif

namespace sdd::fleet {
namespace {

using fault::Fault;

namespace fs = std::filesystem;

class TempDir {
 public:
  TempDir() {
    path_ = fs::temp_directory_path() /
            ("sdd_fleet_test_" + std::to_string(::getpid()) + "_" +
             std::to_string(counter_++));
    fs::create_directories(path_);
  }
  ~TempDir() {
    std::error_code ec;
    fs::remove_all(path_, ec);
  }
  const fs::path& path() const { return path_; }

 private:
  static inline std::atomic<int> counter_{0};
  fs::path path_;
};

TaskSpec make_task(const std::string& id) {
  TaskSpec task;
  task.id = id;
  task.fields["kind"] = "test";
  task.fields["payload"] = id + "-payload";
  return task;
}

TEST(FleetTaskSpec, SerializeParseRoundTrip) {
  TaskSpec task;
  task.id = "cell_3";
  task.fields["kind"] = "eval_cell";
  task.fields["task"] = "gsm8k";
  task.fields["size"] = "800";
  const TaskSpec parsed = TaskSpec::parse(task.id, task.serialize());
  EXPECT_EQ(parsed.id, "cell_3");
  EXPECT_EQ(parsed.fields, task.fields);
  EXPECT_EQ(parsed.field("task"), "gsm8k");
  EXPECT_EQ(parsed.field_int("size"), 800);
  EXPECT_THROW(parsed.field("missing"), Error);
  TaskSpec bad = parsed;
  bad.fields["size"] = "not-a-number";
  EXPECT_THROW(bad.field_int("size"), Error);
}

TEST(FleetQueue, LifecycleCountsAndIdempotentEnqueue) {
  TempDir tmp;
  WorkQueue queue{tmp.path()};
  EXPECT_TRUE(queue.enqueue(make_task("a")));
  EXPECT_TRUE(queue.enqueue(make_task("b")));
  EXPECT_FALSE(queue.enqueue(make_task("a")));  // duplicate is a no-op
  EXPECT_FALSE(queue.all_terminal());

  auto claim = queue.try_claim("w0");
  ASSERT_TRUE(claim.has_value());
  EXPECT_EQ(queue.counts().claimed, 1);
  queue.complete(claim->id, "w0");
  EXPECT_TRUE(queue.is_done(claim->id));
  EXPECT_EQ(queue.counts().claimed, 0);
  EXPECT_FALSE(queue.enqueue(make_task(claim->id)));  // done: resume reuses

  auto second = queue.try_claim("w0");
  ASSERT_TRUE(second.has_value());
  EXPECT_NE(second->id, claim->id);
  queue.complete(second->id, "w0");
  EXPECT_TRUE(queue.all_terminal());
  EXPECT_FALSE(queue.try_claim("w0").has_value());
  const QueueCounts counts = queue.counts();
  EXPECT_EQ(counts.tasks, 2);
  EXPECT_EQ(counts.done, 2);
  EXPECT_EQ(counts.dead, 0);
}

TEST(FleetQueue, InvalidTaskIdRejected) {
  TempDir tmp;
  WorkQueue queue{tmp.path()};
  EXPECT_THROW(queue.enqueue(make_task("../escape")), Error);
  EXPECT_THROW(queue.enqueue(make_task("")), Error);
}

// Many threads race one claim through O_CREAT|O_EXCL: exactly one wins.
TEST(FleetQueue, ConcurrentClaimExactlyOneWinner) {
  TempDir tmp;
  WorkQueue queue{tmp.path()};
  ASSERT_TRUE(queue.enqueue(make_task("contested")));

  constexpr int kRacers = 8;
  std::atomic<int> winners{0};
  std::atomic<int> ready{0};
  std::atomic<bool> go{false};
  std::vector<std::thread> racers;
  racers.reserve(kRacers);
  for (int i = 0; i < kRacers; ++i) {
    racers.emplace_back([&, i] {
      WorkQueue local{tmp.path()};
      ready.fetch_add(1);
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      if (local.try_claim("w" + std::to_string(i)).has_value()) {
        winners.fetch_add(1);
      }
    });
  }
  while (ready.load() < kRacers) std::this_thread::yield();
  go.store(true, std::memory_order_release);
  for (std::thread& t : racers) t.join();
  EXPECT_EQ(winners.load(), 1);
  EXPECT_EQ(queue.counts().claimed, 1);
}

// Same race with the claim_race fault armed: every scanner targets the same
// task and pauses in the widened scan-to-claim window; still one winner.
TEST(FleetQueue, ClaimRaceFaultStillElectsOneWinner) {
  TempDir tmp;
  WorkQueue queue{tmp.path()};
  ASSERT_TRUE(queue.enqueue(make_task("contested")));

  fault::configure("claim_race");
  ASSERT_TRUE(fault::claim_race_armed());

  constexpr int kRacers = 6;
  std::atomic<int> winners{0};
  std::vector<std::thread> racers;
  for (int i = 0; i < kRacers; ++i) {
    racers.emplace_back([&, i] {
      WorkQueue local{tmp.path()};
      if (local.try_claim("w" + std::to_string(i)).has_value()) {
        winners.fetch_add(1);
      }
    });
  }
  for (std::thread& t : racers) t.join();
  fault::reset();
  EXPECT_EQ(winners.load(), 1);
}

// A lease whose renewal straddles the expiry window: a freshly renewed claim
// must survive reclaim, and the same claim left silent must be reclaimed
// (counting one failure against the task).
TEST(FleetQueue, LeaseRenewalStraddlesExpiry) {
  TempDir tmp;
  WorkQueue queue{tmp.path()};
  ASSERT_TRUE(queue.enqueue(make_task("leased")));
  auto claim = queue.try_claim("w0");
  ASSERT_TRUE(claim.has_value());

  // Fabricate an old beat, then renew: the beat must be fresh again and the
  // lease must survive a reclaim pass.
  auto info = queue.read_claim("leased");
  ASSERT_TRUE(info.has_value());
  std::ofstream out{queue.claim_path("leased")};
  out << "pid=" << info->pid << "\nworker=w0\nbeat=" << (info->beat_ms - 10'000)
      << "\n";
  out.close();
  queue.renew("leased", "w0");
  info = queue.read_claim("leased");
  ASSERT_TRUE(info.has_value());
  EXPECT_GT(info->beat_ms, proc::monotonic_ms() - 5'000);
  EXPECT_TRUE(queue.reclaim_stale(/*lease_ms=*/60'000, /*retry_budget=*/3)
                  .empty());
  EXPECT_EQ(queue.attempts("leased"), 0);

  // Now let the lease go stale: reclaim must break it and count a failure.
  std::ofstream stale{queue.claim_path("leased")};
  stale << "pid=" << info->pid << "\nworker=w0\nbeat="
        << (proc::monotonic_ms() - 10'000) << "\n";
  stale.close();
  const auto reclaimed = queue.reclaim_stale(/*lease_ms=*/1'000, 3);
  ASSERT_EQ(reclaimed.size(), 1U);
  EXPECT_EQ(reclaimed[0].id, "leased");
  EXPECT_EQ(reclaimed[0].claim.worker, "w0");
  EXPECT_FALSE(reclaimed[0].quarantined);
  EXPECT_EQ(queue.attempts("leased"), 1);
  EXPECT_FALSE(queue.read_claim("leased").has_value());

  // A renewal from the evicted owner must not resurrect the claim, and the
  // task must be claimable again.
  queue.renew("leased", "w0");
  EXPECT_FALSE(queue.read_claim("leased").has_value());
  EXPECT_TRUE(queue.try_claim("w1").has_value());
}

// A claim on a task that is already done (crash between the done marker and
// the claim release) is dropped without counting a failure.
TEST(FleetQueue, ReclaimOfDoneTaskDropsClaimSilently) {
  TempDir tmp;
  WorkQueue queue{tmp.path()};
  ASSERT_TRUE(queue.enqueue(make_task("t")));
  ASSERT_TRUE(queue.try_claim("w0").has_value());
  // Simulate the crash window: done marker published, claim never released.
  std::ofstream out{queue.done_path("t")};
  out << "worker=w0\n";
  out.close();
  std::ofstream stale{queue.claim_path("t")};
  stale << "pid=1\nworker=w0\nbeat=0\n";
  stale.close();
  EXPECT_TRUE(queue.reclaim_stale(/*lease_ms=*/1, 3).empty());
  EXPECT_FALSE(queue.read_claim("t").has_value());
  EXPECT_EQ(queue.attempts("t"), 0);
  EXPECT_TRUE(queue.all_terminal());
}

TEST(FleetQueue, PoisonTaskQuarantinesAfterBudget) {
  TempDir tmp;
  WorkQueue queue{tmp.path()};
  ASSERT_TRUE(queue.enqueue(make_task("poison")));
  for (int attempt = 1; attempt <= 3; ++attempt) {
    auto claim = queue.try_claim("w0");
    ASSERT_TRUE(claim.has_value()) << "attempt " << attempt;
    const bool dead =
        queue.release_failed("poison", /*retry_budget=*/3, "synthetic failure");
    EXPECT_EQ(dead, attempt == 3);
  }
  const QueueCounts counts = queue.counts();
  EXPECT_EQ(counts.tasks, 0);
  EXPECT_EQ(counts.dead, 1);
  EXPECT_TRUE(fs::exists(queue.dead_path("poison")));
  EXPECT_TRUE(fs::exists(tmp.path() / "dead" / "poison.reason"));
  EXPECT_FALSE(queue.try_claim("w0").has_value());
  EXPECT_TRUE(queue.all_terminal());  // dead tasks left the live queue
  EXPECT_FALSE(queue.enqueue(make_task("poison")));  // stays quarantined
}

TEST(FleetQueue, RequeueDoneRejectsPublishedResult) {
  TempDir tmp;
  WorkQueue queue{tmp.path()};
  ASSERT_TRUE(queue.enqueue(make_task("t")));
  auto claim = queue.try_claim("w0");
  ASSERT_TRUE(claim.has_value());
  queue.complete("t", "w0");
  ASSERT_TRUE(queue.is_done("t"));
  EXPECT_FALSE(queue.requeue_done("t", /*retry_budget=*/3, "bad checksum"));
  EXPECT_FALSE(queue.is_done("t"));
  EXPECT_EQ(queue.attempts("t"), 1);
  EXPECT_TRUE(queue.try_claim("w1").has_value());  // claimable again
}

// In-process worker loop with an injected executor: drains the queue, counts
// failures, quarantines a poison task, and completes the rest.
TEST(FleetWorker, DrainsQueueAndQuarantinesPoison) {
  TempDir tmp;
  WorkQueue queue{tmp.path()};
  for (const char* id : {"good_a", "good_b", "bad"}) {
    ASSERT_TRUE(queue.enqueue(make_task(id)));
  }
  FleetConfig config;
  config.workers = 1;
  config.lease_ms = 200;
  config.task_retry = 2;
  config.poll_ms = 5;

  std::atomic<int> executed{0};
  const int rc = worker_main(tmp.path(), "w0", config, [&](const TaskSpec& t) {
    executed.fetch_add(1);
    if (t.id == "bad") throw Error(ErrorKind::kFatal, "poison");
  });
  EXPECT_EQ(rc, 0);
  const QueueCounts counts = queue.counts();
  EXPECT_EQ(counts.done, 2);
  EXPECT_EQ(counts.dead, 1);
  EXPECT_EQ(counts.claimed, 0);
  // good_a + good_b once each, bad twice (retry budget 2).
  EXPECT_EQ(executed.load(), 4);
  EXPECT_TRUE(queue.is_done("good_a"));
  EXPECT_TRUE(queue.is_done("good_b"));
  EXPECT_TRUE(fs::exists(queue.dead_path("bad")));
}

// Two in-process workers share one queue; every task is executed exactly
// once (claims are exclusive) and both exit once the queue is terminal.
TEST(FleetWorker, TwoWorkersPartitionTheQueue) {
  TempDir tmp;
  WorkQueue queue{tmp.path()};
  constexpr int kTasks = 12;
  for (int i = 0; i < kTasks; ++i) {
    ASSERT_TRUE(queue.enqueue(make_task("t" + std::to_string(i))));
  }
  FleetConfig config;
  config.workers = 2;
  config.lease_ms = 500;
  config.poll_ms = 5;

  std::atomic<int> executions{0};
  const auto executor = [&](const TaskSpec&) {
    executions.fetch_add(1);
    std::this_thread::sleep_for(std::chrono::milliseconds{2});
  };
  std::thread other{[&] { worker_main(tmp.path(), "w1", config, executor); }};
  const int rc = worker_main(tmp.path(), "w0", config, executor);
  other.join();
  EXPECT_EQ(rc, 0);
  EXPECT_EQ(executions.load(), kTasks);
  EXPECT_EQ(queue.counts().done, kTasks);
}

TEST(FleetWorker, GracefulShutdownReleasesClaimWithoutFailure) {
  TempDir tmp;
  WorkQueue queue{tmp.path()};
  ASSERT_TRUE(queue.enqueue(make_task("t")));
  FleetConfig config;
  config.workers = 1;
  config.poll_ms = 5;

  // Install the graceful handler (flag-setting, idempotent) so the raised
  // SIGTERM below doesn't tear the test binary down with the default
  // disposition.
  signals::install_graceful_shutdown();
  signals::reset_interrupt_for_test();
  bool interrupted = false;
  try {
    worker_main(tmp.path(), "w0", config, [&](const TaskSpec&) {
      // Simulate SIGTERM arriving mid-execution; the worker observes it via
      // the supervisor heartbeat and unwinds with kInterrupted.
      ::raise(SIGTERM);
      throw Error(ErrorKind::kInterrupted, "shutdown requested by signal 15");
    });
  } catch (const Error& e) {
    interrupted = e.kind() == ErrorKind::kInterrupted;
  }
  signals::reset_interrupt_for_test();
  EXPECT_TRUE(interrupted);
  // The claim was released and no failure was counted: a respawned worker
  // can pick the task right back up.
  EXPECT_EQ(queue.counts().claimed, 0);
  EXPECT_EQ(queue.attempts("t"), 0);
  EXPECT_FALSE(queue.is_done("t"));
}

// The worker_kill9 marker fires at most once per fleet run even when several
// workers reach the armed claim count (mode:throw keeps it in-process).
TEST(FleetFaults, WorkerKill9FiresOncePerRun) {
  TempDir tmp;
  int fired = 0;
  for (int attempt = 0; attempt < 3; ++attempt) {
    // Each loop simulates a freshly respawned worker process: reset re-arms
    // the per-process claim counter, but the on-disk marker persists.
    fault::configure("worker_kill9:0,mode:throw");
    try {
      fault::on_fleet_claim(tmp.path());
    } catch (const fault::FaultCrash&) {
      ++fired;
    }
  }
  fault::reset();
  EXPECT_EQ(fired, 1);
  EXPECT_TRUE(fs::exists(tmp.path() / ".fault_worker_kill9"));
}

TEST(FleetFaults, FaultSpecParsesFleetDirectives) {
  const fault::FaultConfig config = fault::parse_fault_spec(
      "worker_kill9:at=2,worker_stall:1,claim_race,orch_crash:4,mode:throw");
  EXPECT_EQ(config[Fault::kWorkerKill9], 2);
  EXPECT_EQ(config[Fault::kWorkerStall], 1);
  EXPECT_TRUE(config.armed(Fault::kClaimRace));
  EXPECT_EQ(config[Fault::kOrchCrash], 4);
  EXPECT_TRUE(config.any());
  EXPECT_EQ(fault::parse_fault_spec("worker_kill9:1")[Fault::kWorkerKill9], 1);
  EXPECT_THROW(fault::parse_fault_spec("worker_kill9:at=x"),
               std::invalid_argument);
}

TEST(FleetFaults, OrchCrashFiresAtNthCompletion) {
  fault::configure("orch_crash:2,mode:throw");
  fault::on_fleet_completion();  // #0
  fault::on_fleet_completion();  // #1
  EXPECT_THROW(fault::on_fleet_completion(), fault::FaultCrash);  // #2
  fault::reset();
}

TEST(FleetErrorTaxonomy, NewKindsAreWired) {
  EXPECT_EQ(error_kind_name(ErrorKind::kWorkerLost), "worker_lost");
  EXPECT_EQ(error_kind_name(ErrorKind::kInterrupted), "interrupted");
  EXPECT_TRUE(error_kind_retryable(ErrorKind::kWorkerLost));
  EXPECT_FALSE(error_kind_retryable(ErrorKind::kInterrupted));
  EXPECT_EQ(error_kind_exit_code(ErrorKind::kWorkerLost), 71);
  EXPECT_EQ(error_kind_exit_code(ErrorKind::kInterrupted), 72);
}

#if !defined(SDD_TSAN)
// Orphan reclaim after a real kill -9: a forked child claims the task and
// dies without releasing; the parent reclaims the stale lease and re-runs
// the task. (fork + threads is outside TSan's model, so TSan builds skip
// this one; the lease logic itself is covered thread-only above.)
TEST(FleetOrphan, ReclaimAfterKill9) {
  TempDir tmp;
  WorkQueue queue{tmp.path()};
  ASSERT_TRUE(queue.enqueue(make_task("orphaned")));

  const pid_t child = ::fork();
  ASSERT_GE(child, 0);
  if (child == 0) {
    // Child: claim, then die like SIGKILL — no release, no unwind.
    WorkQueue mine{tmp.path()};
    const auto claim = mine.try_claim("doomed");
    ::_exit(claim.has_value() ? 0 : 3);
  }
  int status = 0;
  ASSERT_EQ(::waitpid(child, &status, 0), child);
  ASSERT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0);

  // The orphaned lease is held by a dead pid and never renews.
  auto info = queue.read_claim("orphaned");
  ASSERT_TRUE(info.has_value());
  EXPECT_EQ(info->worker, "doomed");
  EXPECT_FALSE(queue.try_claim("w1").has_value());  // still locked out

  // Wait out the (tiny) lease, then reclaim and finish the task.
  std::this_thread::sleep_for(std::chrono::milliseconds{30});
  const auto reclaimed = queue.reclaim_stale(/*lease_ms=*/10, 3);
  ASSERT_EQ(reclaimed.size(), 1U);
  EXPECT_EQ(reclaimed[0].id, "orphaned");
  EXPECT_EQ(reclaimed[0].claim.pid, static_cast<std::int64_t>(child));
  EXPECT_EQ(queue.attempts("orphaned"), 1);

  auto claim = queue.try_claim("w1");
  ASSERT_TRUE(claim.has_value());
  queue.complete(claim->id, "w1");
  EXPECT_TRUE(queue.all_terminal());
}

// proc helpers against a real child process.
TEST(FleetProc, SpawnReapAndTerminate) {
  const std::int64_t pid =
      proc::spawn({"/bin/sh", "-c", "exit 7"});
  const auto status = proc::wait_reap(pid, 5'000);
  ASSERT_TRUE(status.has_value());
  EXPECT_EQ(status->exit_code, 7);
  EXPECT_EQ(status->term_signal, 0);
  EXPECT_FALSE(status->clean());

  const std::int64_t sleeper =
      proc::spawn({"/bin/sh", "-c", "sleep 30"});
  EXPECT_TRUE(proc::alive(sleeper));
  const auto killed = proc::terminate(sleeper, /*grace_ms=*/200);
  EXPECT_TRUE(killed.term_signal == SIGTERM || killed.term_signal == SIGKILL);
  EXPECT_FALSE(proc::alive(sleeper));
}
#endif  // !SDD_TSAN

}  // namespace
}  // namespace sdd::fleet
