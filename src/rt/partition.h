// Partitioned multiprocessor assignment of RT tasks (Davis & Burns survey
// [13]).  The paper assumes the RT tasks are already partitioned; its
// synthetic evaluation (§IV-B) uses best-fit, and the SingleCore comparator
// packs RT tasks on M−1 cores.  Admission on each core uses exact RTA under
// rate-monotonic priorities, not just a utilization bound.
#pragma once

#include <cstddef>
#include <optional>
#include <vector>

#include "rt/task.h"

namespace hydra::rt {

enum class FitStrategy {
  kFirstFit,  ///< lowest-index feasible core
  kBestFit,   ///< feasible core left with the least spare utilization
  kWorstFit,  ///< feasible core left with the most spare utilization
  kNextFit,   ///< rotating cursor, advance on failure
};

struct PartitionOptions {
  FitStrategy strategy = FitStrategy::kBestFit;
  /// Sort tasks by decreasing utilization before placing (the classic
  /// "-decreasing" bin-packing variants); improves packing quality.
  bool decreasing_utilization = true;
};

/// A completed RT partition: core_of[i] is the core (0-based) of task i.
struct Partition {
  std::size_t num_cores = 0;
  std::vector<std::size_t> core_of;

  /// Tasks assigned to a given core, in input order.
  std::vector<RtTask> tasks_on_core(const std::vector<RtTask>& tasks, std::size_t core) const;

  /// Per-core total utilization.
  std::vector<double> core_utilizations(const std::vector<RtTask>& tasks) const;
};

/// Partitions `tasks` over `num_cores` cores; returns nullopt when the chosen
/// heuristic cannot place some task such that every core stays RM-schedulable
/// (exact RTA admission).
///
/// Each thread remembers its last result, so the schemes of one sweep cell
/// share one partition: a repeated call returns it, and for first-fit and
/// best-fit an M-core result also answers the (M−1)-core call (and a
/// successful (M−1)-core result the M-core call).  Every answer is the one a
/// fresh run would give.
std::optional<Partition> partition_rt_tasks(const std::vector<RtTask>& tasks,
                                            std::size_t num_cores,
                                            const PartitionOptions& options = {});

}  // namespace hydra::rt
