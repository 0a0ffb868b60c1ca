// The supervisor core behind `hydra_swarm sweep`: child lifecycle,
// synchronous reaping, stall detection, and a bounded-retry exponential
// backoff policy — all expressed against the ProcessBackend interface and an
// injected clock, so every edge (crash, stall, retry exhaustion) is unit
// testable without spawning a real process or sleeping real time
// (tests/test_swarm_supervisor.cpp drives a fake backend through a fake
// clock).
//
// The supervisor is deliberately policy-only: it does not know what a shard
// or a checkpoint is.  The sweep runner feeds it progress observations
// (checkpoint byte growth) and reads task states back.  Time is a
// caller-supplied monotone seconds value — the supervisor never reads a
// clock of its own.
#pragma once

#include <cstddef>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "swarm/events.h"
#include "swarm/process.h"

namespace hydra::swarm {

struct SupervisorPolicy {
  /// Total launches allowed per task (first launch included): 3 means one
  /// start plus two restarts.  Must be >= 1.
  int max_attempts = 3;
  double backoff_initial_s = 0.5;  ///< delay before the first restart
  double backoff_factor = 2.0;     ///< growth per subsequent restart
  double backoff_max_s = 30.0;     ///< backoff ceiling
  /// A running task whose progress value has not CHANGED for this long is
  /// presumed wedged: it is killed and the death handled like any crash
  /// (counts against the retry budget).  0 disables stall detection.
  double stall_timeout_s = 0.0;
};

enum class TaskState {
  kPending,  ///< waiting for its (re)start time
  kRunning,
  kDone,     ///< worker exited 0
  kFailed,   ///< retry budget exhausted (or shutdown) — terminal
};

struct TaskStatus {
  std::string name;
  TaskState state = TaskState::kPending;
  int attempts = 0;               ///< launches so far
  double progress = 0.0;          ///< last reported progress value
  double next_start_t = 0.0;      ///< when kPending becomes eligible to launch
  std::optional<ExitStatus> last_exit;
  std::string failure;            ///< terminal failure description (kFailed)
  WorkerId worker = 0;            ///< backend handle while kRunning
};

class Supervisor {
 public:
  using Clock = std::function<double()>;  ///< monotone seconds

  /// `backend` and `log` are borrowed and must outlive the supervisor.
  /// Throws std::invalid_argument on a nonsensical policy.
  Supervisor(ProcessBackend& backend, SupervisorPolicy policy, EventLog& log,
             Clock clock);

  /// Registers a task (does not launch it — tick() does).  Returns its index.
  std::size_t add_task(std::string name, WorkerSpec spec);

  /// One scheduling pass at the current clock value: launches eligible
  /// pending tasks, reaps exited workers, fires stall kills, schedules
  /// restarts with backoff, marks exhausted tasks failed.  Call repeatedly
  /// from the orchestration loop.
  void tick();

  /// Feeds an external progress observation (e.g. checkpoint size).  The
  /// stall timer resets whenever the value CHANGES — not only when it grows,
  /// because a restarted worker legitimately rewrites its checkpoint from
  /// the resume splice, shrinking then regrowing it.
  void report_progress(std::size_t task, double progress);

  /// SIGKILLs the task's current worker (chaos injection, shutdown).  The
  /// death is observed by a later tick() and handled per policy — i.e. a
  /// killed task is retried like a crashed one unless the budget is gone.
  void kill(std::size_t task, const std::string& reason);

  /// Kills every live worker and marks every unfinished task failed.  Used
  /// on orchestrator abort so no worker outlives its swarm.
  void shutdown(const std::string& reason);

  bool all_done() const;    ///< every task kDone
  bool any_failed() const;
  /// True when no task can make further progress (each is kDone or kFailed).
  bool finished() const;
  /// Sum over tasks of (attempts - 1): how many restarts the swarm absorbed.
  std::size_t restarts() const;

  const TaskStatus& status(std::size_t task) const { return tasks_.at(task).status; }
  std::size_t size() const { return tasks_.size(); }

 private:
  struct Task {
    TaskStatus status;
    WorkerSpec spec;
    double last_progress_change_t = 0.0;
    bool kill_requested = false;     ///< stop() sent, death not yet reaped
    std::string kill_reason;
  };

  void launch(std::size_t index);
  void handle_death(std::size_t index, const ExitStatus& exit);
  double backoff_delay(int attempts) const;

  ProcessBackend& backend_;
  SupervisorPolicy policy_;
  EventLog& log_;
  Clock clock_;
  std::vector<Task> tasks_;
};

}  // namespace hydra::swarm
