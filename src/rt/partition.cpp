#include "rt/partition.h"

#include <algorithm>
#include <numeric>
#include <string>

#include "rt/analysis.h"
#include "util/contracts.h"

namespace hydra::rt {

std::vector<RtTask> Partition::tasks_on_core(const std::vector<RtTask>& tasks,
                                             std::size_t core) const {
  HYDRA_REQUIRE(tasks.size() == core_of.size(), "partition does not match task set");
  HYDRA_REQUIRE(core < num_cores, "core index out of range");
  std::vector<RtTask> out;
  for (std::size_t i = 0; i < tasks.size(); ++i) {
    if (core_of[i] == core) out.push_back(tasks[i]);
  }
  return out;
}

std::vector<double> Partition::core_utilizations(const std::vector<RtTask>& tasks) const {
  HYDRA_REQUIRE(tasks.size() == core_of.size(), "partition does not match task set");
  std::vector<double> u(num_cores, 0.0);
  for (std::size_t i = 0; i < tasks.size(); ++i) u[core_of[i]] += tasks[i].utilization();
  return u;
}

namespace {

/// Feasibility of adding `candidate` to a core currently holding `resident`
/// (kept in RM priority order): the whole core must remain RM-schedulable by
/// exact RTA.  core_admits_rm re-analyzes only the candidate and the
/// residents it preempts — placements are identical to rebuilding the trial
/// set and running the full per-core test.
bool fits(const std::vector<RtTask>& resident_by_priority, const RtTask& candidate) {
  return core_admits_rm(resident_by_priority, candidate);
}

/// Inserts `task` after every resident with period <= its own, mirroring
/// where rm_priority_order's stable sort places a last-appended task.
void insert_by_priority(std::vector<RtTask>& resident_by_priority, const RtTask& task) {
  auto it = std::upper_bound(
      resident_by_priority.begin(), resident_by_priority.end(), task,
      [](const RtTask& a, const RtTask& b) { return a.period < b.period; });
  resident_by_priority.insert(it, task);
}

/// The heuristic itself, on a validated task set.
std::optional<Partition> partition_uncached(const std::vector<RtTask>& tasks,
                                            std::size_t num_cores,
                                            const PartitionOptions& options) {
  std::vector<std::size_t> order(tasks.size());
  std::iota(order.begin(), order.end(), 0);
  if (options.decreasing_utilization) {
    std::stable_sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
      return tasks[a].utilization() > tasks[b].utilization();
    });
  }

  Partition partition;
  partition.num_cores = num_cores;
  partition.core_of.assign(tasks.size(), 0);

  std::vector<std::vector<RtTask>> residents(num_cores);
  std::vector<double> load(num_cores, 0.0);
  std::size_t next_fit_cursor = 0;

  for (const std::size_t ti : order) {
    const RtTask& task = tasks[ti];
    std::optional<std::size_t> chosen;

    switch (options.strategy) {
      case FitStrategy::kFirstFit: {
        for (std::size_t c = 0; c < num_cores; ++c) {
          if (fits(residents[c], task)) {
            chosen = c;
            break;
          }
        }
        break;
      }
      case FitStrategy::kBestFit: {
        double best_load = -1.0;
        for (std::size_t c = 0; c < num_cores; ++c) {
          if (fits(residents[c], task) && load[c] > best_load) {
            best_load = load[c];
            chosen = c;
          }
        }
        break;
      }
      case FitStrategy::kWorstFit: {
        double best_load = 2.0;  // any utilization is < 2
        for (std::size_t c = 0; c < num_cores; ++c) {
          if (fits(residents[c], task) && load[c] < best_load) {
            best_load = load[c];
            chosen = c;
          }
        }
        break;
      }
      case FitStrategy::kNextFit: {
        for (std::size_t probe = 0; probe < num_cores; ++probe) {
          const std::size_t c = (next_fit_cursor + probe) % num_cores;
          if (fits(residents[c], task)) {
            chosen = c;
            next_fit_cursor = c;
            break;
          }
        }
        break;
      }
    }

    if (!chosen.has_value()) return std::nullopt;
    insert_by_priority(residents[*chosen], task);
    load[*chosen] += task.utilization();
    partition.core_of[ti] = *chosen;
  }
  return partition;
}

/// The exact bytes of every input a placement depends on, except the core
/// count: each task's (wcet, period, deadline) and the options.  Task names
/// do not affect placement.
std::string partition_key(const std::vector<RtTask>& tasks, const PartitionOptions& options) {
  std::string key;
  key.reserve(tasks.size() * 3 * sizeof(double) + 2);
  const auto append = [&key](double v) {
    key.append(reinterpret_cast<const char*>(&v), sizeof v);
  };
  for (const auto& task : tasks) {
    append(task.wcet);
    append(task.period);
    append(task.deadline);
  }
  key.push_back(static_cast<char>(options.strategy));
  key.push_back(options.decreasing_utilization ? '1' : '0');
  return key;
}

/// The last partition computed on this thread, with its key and core count.
struct PartitionMemo {
  std::string key;
  std::size_t num_cores = 0;
  std::optional<Partition> result;
};

/// Answers a `num_cores` call from a memo with the same key, or returns
/// false.  Beyond exact hits, first-fit and best-fit answer the neighboring
/// core count.  Both break ties toward the lowest index, and an empty core
/// (load 0) never beats a feasible lower one, so runs on M and M−1 cores make
/// identical choices until the M-core run first picks core M−1, which it does
/// only when no lower core fits.  Hence the (M−1)-core run succeeds iff the
/// M-core run succeeds without core M−1, and then with the same assignment.
bool answer_from_memo(const PartitionMemo& memo, std::size_t num_cores,
                      const PartitionOptions& options, std::optional<Partition>& out) {
  if (memo.num_cores == num_cores) {
    out = memo.result;
    return true;
  }
  if (options.strategy != FitStrategy::kFirstFit && options.strategy != FitStrategy::kBestFit) {
    return false;
  }
  if (memo.num_cores == num_cores + 1) {
    // The memoized run's last core has index num_cores.
    const bool uses_last_core =
        memo.result.has_value() &&
        std::find(memo.result->core_of.begin(), memo.result->core_of.end(), num_cores) !=
            memo.result->core_of.end();
    out = uses_last_core ? std::nullopt : memo.result;
  } else if (memo.num_cores + 1 == num_cores && memo.result.has_value()) {
    out = memo.result;
  } else {
    return false;
  }
  if (out.has_value()) out->num_cores = num_cores;
  return true;
}

}  // namespace

std::optional<Partition> partition_rt_tasks(const std::vector<RtTask>& tasks,
                                            std::size_t num_cores,
                                            const PartitionOptions& options) {
  HYDRA_REQUIRE(num_cores >= 1, "need at least one core");
  validate(tasks);

  // Size-1 per-thread memo: a sweep cell's schemes partition the same RT
  // tasks back to back on the worker that owns the cell, so consecutive calls
  // hit while concurrent workers never contend.  Results are pure functions
  // of the key, so the memo cannot perturb determinism.
  thread_local PartitionMemo memo;
  std::string key = partition_key(tasks, options);
  std::optional<Partition> result;
  if (key == memo.key && answer_from_memo(memo, num_cores, options, result)) return result;

  result = partition_uncached(tasks, num_cores, options);
  memo.key = std::move(key);
  memo.num_cores = num_cores;
  memo.result = result;
  return result;
}

}  // namespace hydra::rt
