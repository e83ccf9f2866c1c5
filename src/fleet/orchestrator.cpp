#include "fleet/orchestrator.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <csignal>
#include <set>
#include <thread>

#include "util/env.hpp"
#include "util/error.hpp"
#include "util/fault.hpp"
#include "util/log.hpp"
#include "util/proc.hpp"
#include "util/signals.hpp"
#include "util/supervisor.hpp"

namespace sdd::fleet {

namespace fs = std::filesystem;

FleetConfig FleetConfig::from_env() {
  FleetConfig config;
  config.workers = env_int("SDD_FLEET_WORKERS", config.workers);
  config.lease_ms = env_int("SDD_FLEET_LEASE_MS", config.lease_ms);
  config.task_retry = env_int("SDD_FLEET_TASK_RETRY", config.task_retry);
  config.respawn_max = env_int("SDD_FLEET_RESPAWN_MAX", config.respawn_max);
  config.poll_ms = env_int("SDD_FLEET_POLL_MS", config.poll_ms);
  config.dir_override = env_string("SDD_FLEET_DIR", "");
  return config;
}

std::string FleetStats::to_string() const {
  return "enqueued=" + std::to_string(enqueued) +
         " reused=" + std::to_string(reused) +
         " completed=" + std::to_string(completed) +
         " rejected=" + std::to_string(rejected) +
         " reclaimed=" + std::to_string(reclaimed) +
         " respawned=" + std::to_string(respawned) +
         " dead=" + std::to_string(dead);
}

namespace {

struct WorkerSlot {
  std::int64_t pid = -1;  // -1 = no live process
};

// SIGTERM then SIGKILL every live child; used on every exit path so an
// orchestrator failure never leaks worker processes it owns. (Workers
// orphaned by a SIGKILLed orchestrator are a different story: their leases
// either complete or go stale and get reclaimed by the next run.)
void shutdown_workers(std::vector<WorkerSlot>& slots, std::int64_t grace_ms) {
  for (WorkerSlot& slot : slots) {
    if (slot.pid < 0) continue;
    try {
      proc::terminate(slot.pid, grace_ms);
    } catch (const std::exception&) {
      // Reaping can legitimately fail if the child was already collected.
    }
    slot.pid = -1;
  }
}

std::int64_t spawn_worker(const fs::path& dir, const FleetConfig& config,
                          std::int64_t slot, std::int64_t generation) {
  const std::string worker_id =
      "w" + std::to_string(slot) + "-g" + std::to_string(generation);
  std::vector<std::string> argv = {
      proc::self_exe().string(), "fleet-worker",
      "--dir",    dir.string(),
      "--worker", worker_id,
      "--lease",  std::to_string(config.lease_ms),
      "--retry",  std::to_string(config.task_retry),
      "--poll",   std::to_string(config.poll_ms),
  };
  // Workers get only the child.* directives of the orchestrator's SDD_FAULT,
  // so the orchestrator's own process (and any model construction done
  // before orchestrate()) stays fault-free.
  return proc::spawn(argv, {"SDD_FAULT=" + fault::active().child});
}

}  // namespace

FleetStats orchestrate(const fs::path& dir, const std::vector<TaskSpec>& tasks,
                       const FleetConfig& config, const ValidateFn& validate) {
  if (!config.enabled()) {
    throw Error(ErrorKind::kFatal,
                "orchestrate() called with fleet disabled (workers=0)");
  }
  WorkQueue queue{dir};
  FleetStats stats;
  for (const TaskSpec& task : tasks) {
    if (queue.enqueue(task)) {
      ++stats.enqueued;
    } else if (queue.is_done(task.id)) {
      ++stats.reused;  // completed by a previous run; skipped bit-identically
    }
  }
  log_info("fleet: orchestrating ", tasks.size(), " task(s) in ", dir.string(),
           " (", stats.reused, " already done) with ", config.workers,
           " worker(s), lease ", config.lease_ms, " ms");

  std::vector<WorkerSlot> slots{static_cast<std::size_t>(config.workers)};
  std::int64_t generation = 0;
  std::set<std::string> validated;  // done markers already accepted this run

  try {
    while (true) {
      supervisor::heartbeat();  // graceful shutdown + watchdog liveness

      // Reap exited workers without blocking.
      for (WorkerSlot& slot : slots) {
        if (slot.pid < 0) continue;
        if (const auto status = proc::try_reap(slot.pid)) {
          if (!status->clean()) {
            log_warn("fleet: worker pid ", slot.pid, " died (exit ",
                     status->exit_code, ", signal ", status->term_signal, ")");
          }
          slot.pid = -1;
        }
      }

      // Break stale leases; SIGKILL stalled-but-alive owners we spawned so
      // the slot frees up (a worker that still renews is never stale).
      for (const ReclaimedLease& lease :
           queue.reclaim_stale(config.lease_ms, config.task_retry)) {
        ++stats.reclaimed;
        for (WorkerSlot& slot : slots) {
          if (slot.pid == lease.claim.pid) {
            log_warn("fleet: SIGKILLing stalled worker pid ", slot.pid);
            proc::send_signal(slot.pid, SIGKILL);
          }
        }
      }

      // Validate newly published results before they count as complete.
      for (const std::string& id : queue.task_ids()) {
        if (!queue.is_done(id) || validated.count(id) > 0) continue;
        const TaskSpec task = queue.read_task(id);
        if (validate && !validate(task)) {
          ++stats.rejected;
          log_warn("fleet: rejected result for '", id,
                   "' (validation failed); requeueing");
          queue.requeue_done(id, config.task_retry, "result failed validation");
          continue;
        }
        validated.insert(id);
        ++stats.completed;
        fault::on_fleet_completion();
      }

      const QueueCounts counts = queue.counts();
      if (queue.all_terminal() &&
          static_cast<std::int64_t>(validated.size()) == counts.done) {
        break;
      }

      // Refill empty slots while work remains, under the respawn budget.
      // The initial spawns are "free"; only restarts after the first
      // generation count against the budget.
      for (std::size_t i = 0; i < slots.size(); ++i) {
        if (slots[i].pid >= 0) continue;
        const bool is_respawn = generation >= config.workers;
        if (is_respawn && stats.respawned >= config.respawn_max) continue;
        slots[i].pid = spawn_worker(dir, config, static_cast<std::int64_t>(i),
                                    generation++);
        if (is_respawn) ++stats.respawned;
      }

      bool any_live = false;
      for (const WorkerSlot& slot : slots) any_live |= slot.pid >= 0;
      if (!any_live) {
        throw Error(ErrorKind::kWorkerLost,
                    "fleet: all workers gone, respawn budget (" +
                        std::to_string(config.respawn_max) +
                        ") exhausted with work remaining in " + dir.string());
      }

      std::this_thread::sleep_for(std::chrono::milliseconds{config.poll_ms});
    }
  } catch (...) {
    shutdown_workers(slots, config.lease_ms);
    throw;
  }
  shutdown_workers(slots, config.lease_ms);
  stats.dead = queue.counts().dead;
  log_info("fleet: run finished: ", stats.to_string());
  return stats;
}

int worker_main(const fs::path& dir, const std::string& worker_id,
                const FleetConfig& config, const ExecuteFn& execute) {
  WorkQueue queue{dir};
  const std::int64_t renew_ms = std::max<std::int64_t>(config.lease_ms / 4, 10);
  while (true) {
    supervisor::heartbeat();  // throws Error{kInterrupted} on SIGTERM/SIGINT
    // Leaderless recovery: any worker may break a stale lease; the O_EXCL
    // re-claim race elects exactly one new owner.
    queue.reclaim_stale(config.lease_ms, config.task_retry);
    const auto task = queue.try_claim(worker_id);
    if (!task) {
      if (queue.all_terminal()) return 0;
      std::this_thread::sleep_for(std::chrono::milliseconds{config.poll_ms});
      continue;
    }
    log_info("fleet[", worker_id, "]: claimed '", task->id, "'");
    fault::on_fleet_claim(dir);  // worker_kill9 / worker_stall fire here

    // Renew the lease on a background thread so a long task execution never
    // goes stale. Renewal failures are swallowed: a missed beat risks a
    // benign duplicate execution, never a wrong result.
    std::atomic<bool> running{true};
    std::thread renewer{[&] {
      std::int64_t slept = 0;
      while (running.load(std::memory_order_acquire)) {
        std::this_thread::sleep_for(std::chrono::milliseconds{5});
        slept += 5;
        if (slept < renew_ms) continue;
        slept = 0;
        try {
          queue.renew(task->id, worker_id);
        } catch (const std::exception&) {
        }
      }
    }};
    const auto stop_renewer = [&] {
      running.store(false, std::memory_order_release);
      renewer.join();
    };

    try {
      execute(*task);
      stop_renewer();
      queue.complete(task->id, worker_id);
      log_info("fleet[", worker_id, "]: completed '", task->id, "'");
    } catch (const Error& e) {
      stop_renewer();
      if (e.kind() == ErrorKind::kInterrupted) {
        queue.release(task->id);  // graceful stop: no failure counted
        throw;
      }
      queue.release_failed(task->id, config.task_retry, e.what());
    } catch (const std::exception& e) {
      stop_renewer();
      queue.release_failed(task->id, config.task_retry, e.what());
    }
  }
}

}  // namespace sdd::fleet
