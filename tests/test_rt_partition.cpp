// Tests for the partitioning heuristics: correctness invariants (every core
// RM-schedulable, all tasks placed), strategy-specific behaviours, and
// failure cases.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <optional>
#include <thread>
#include <vector>

#include "rt/analysis.h"
#include "rt/partition.h"
#include "util/rng.h"

namespace rt = hydra::rt;

namespace {

std::vector<rt::RtTask> uniform_tasks(int n, double util_each, double period) {
  std::vector<rt::RtTask> tasks;
  for (int i = 0; i < n; ++i) {
    tasks.push_back(rt::make_rt_task("t" + std::to_string(i), util_each * period, period));
  }
  return tasks;
}

}  // namespace

TEST(Partition, SingleTaskGoesToCoreZeroFirstFit) {
  const auto tasks = uniform_tasks(1, 0.5, 10.0);
  rt::PartitionOptions opts;
  opts.strategy = rt::FitStrategy::kFirstFit;
  const auto p = rt::partition_rt_tasks(tasks, 4, opts);
  ASSERT_TRUE(p.has_value());
  EXPECT_EQ(p->core_of[0], 0u);
}

TEST(Partition, EveryCoreRemainsSchedulable) {
  hydra::util::Xoshiro256 rng(42);
  for (const auto strategy :
       {rt::FitStrategy::kFirstFit, rt::FitStrategy::kBestFit, rt::FitStrategy::kWorstFit,
        rt::FitStrategy::kNextFit}) {
    std::vector<rt::RtTask> tasks;
    for (int i = 0; i < 16; ++i) {
      const double period = rng.uniform(10.0, 200.0);
      tasks.push_back(
          rt::make_rt_task("t" + std::to_string(i), rng.uniform(0.05, 0.2) * period, period));
    }
    rt::PartitionOptions opts;
    opts.strategy = strategy;
    const auto p = rt::partition_rt_tasks(tasks, 4, opts);
    ASSERT_TRUE(p.has_value());
    ASSERT_EQ(p->core_of.size(), tasks.size());
    for (std::size_t c = 0; c < 4; ++c) {
      EXPECT_TRUE(rt::core_schedulable_rm(p->tasks_on_core(tasks, c)))
          << "strategy " << static_cast<int>(strategy) << " core " << c;
    }
  }
}

TEST(Partition, WorstFitSpreadsLoad) {
  // Four identical tasks on four cores: worst-fit puts one per core.
  const auto tasks = uniform_tasks(4, 0.4, 10.0);
  rt::PartitionOptions opts;
  opts.strategy = rt::FitStrategy::kWorstFit;
  const auto p = rt::partition_rt_tasks(tasks, 4, opts);
  ASSERT_TRUE(p.has_value());
  const auto util = p->core_utilizations(tasks);
  for (const double u : util) EXPECT_NEAR(u, 0.4, 1e-12);
}

TEST(Partition, BestFitPacksTightly) {
  // Two tasks of 0.3 plus one of 0.6 on two cores.  Best-fit (decreasing)
  // places big on core 0, then packs s1 next to it (core 0 is the most
  // loaded feasible core, 0.9 total); s2 no longer fits there and opens
  // core 1.
  std::vector<rt::RtTask> tasks{rt::make_rt_task("big", 6.0, 10.0),
                                rt::make_rt_task("s1", 3.0, 10.0),
                                rt::make_rt_task("s2", 3.0, 10.0)};
  rt::PartitionOptions opts;
  opts.strategy = rt::FitStrategy::kBestFit;
  const auto p = rt::partition_rt_tasks(tasks, 2, opts);
  ASSERT_TRUE(p.has_value());
  EXPECT_EQ(p->core_of[0], p->core_of[1]);  // big + s1 share the packed core
  EXPECT_NE(p->core_of[2], p->core_of[0]);
  const auto util = p->core_utilizations(tasks);
  EXPECT_NEAR(util[p->core_of[0]], 0.9, 1e-12);
}

TEST(Partition, InfeasibleReturnsNullopt) {
  // Three tasks of 0.8 cannot fit on two cores.
  const auto tasks = uniform_tasks(3, 0.8, 10.0);
  for (const auto strategy :
       {rt::FitStrategy::kFirstFit, rt::FitStrategy::kBestFit, rt::FitStrategy::kWorstFit,
        rt::FitStrategy::kNextFit}) {
    rt::PartitionOptions opts;
    opts.strategy = strategy;
    EXPECT_FALSE(rt::partition_rt_tasks(tasks, 2, opts).has_value());
  }
}

TEST(Partition, DecreasingUtilizationHelpsPacking) {
  // 2 cores; tasks 0.55, 0.55, 0.35, 0.35, 0.2 (harmonic periods).  In input
  // order first-fit places 0.55+0.35 on core0, 0.55+0.35 on core1, then 0.2
  // fails on both.  Decreasing order packs 0.55/0.35 pairs plus 0.2 → fits.
  std::vector<rt::RtTask> tasks{
      rt::make_rt_task("a", 5.5, 10.0), rt::make_rt_task("b", 5.5, 10.0),
      rt::make_rt_task("c", 3.5, 10.0), rt::make_rt_task("d", 3.5, 10.0),
      rt::make_rt_task("e", 2.0, 20.0)};
  rt::PartitionOptions sorted;
  sorted.strategy = rt::FitStrategy::kFirstFit;
  sorted.decreasing_utilization = true;
  EXPECT_TRUE(rt::partition_rt_tasks(tasks, 2, sorted).has_value());
}

TEST(Partition, CoreUtilizationsSumToTotal) {
  hydra::util::Xoshiro256 rng(7);
  std::vector<rt::RtTask> tasks;
  double total = 0.0;
  for (int i = 0; i < 12; ++i) {
    const double period = rng.uniform(20.0, 100.0);
    const double u = rng.uniform(0.02, 0.12);
    total += u;
    tasks.push_back(rt::make_rt_task("t" + std::to_string(i), u * period, period));
  }
  const auto p = rt::partition_rt_tasks(tasks, 3);
  ASSERT_TRUE(p.has_value());
  const auto util = p->core_utilizations(tasks);
  double sum = 0.0;
  for (const double u : util) sum += u;
  EXPECT_NEAR(sum, total, 1e-9);
}

TEST(Partition, TasksOnCoreRoundTrips) {
  const auto tasks = uniform_tasks(6, 0.1, 30.0);
  const auto p = rt::partition_rt_tasks(tasks, 2);
  ASSERT_TRUE(p.has_value());
  std::size_t covered = 0;
  for (std::size_t c = 0; c < 2; ++c) covered += p->tasks_on_core(tasks, c).size();
  EXPECT_EQ(covered, tasks.size());
  EXPECT_THROW(p->tasks_on_core(tasks, 5), std::invalid_argument);
}

TEST(Partition, ZeroCoresRejected) {
  EXPECT_THROW(rt::partition_rt_tasks({}, 0), std::invalid_argument);
}

TEST(Partition, EmptyTaskSetTrivial) {
  const auto p = rt::partition_rt_tasks({}, 3);
  ASSERT_TRUE(p.has_value());
  EXPECT_TRUE(p->core_of.empty());
}

// Property sweep: whenever a partition is returned, it is valid; whenever the
// total utilization is <= 50% of capacity with small tasks, it must succeed.
class PartitionProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(PartitionProperty, LowLoadAlwaysPlaceable) {
  hydra::util::Xoshiro256 rng(GetParam());
  const std::size_t cores = 2 + static_cast<std::size_t>(rng.uniform_int(0, 2));
  std::vector<rt::RtTask> tasks;
  double budget = 0.5 * static_cast<double>(cores);
  int i = 0;
  while (budget > 0.05) {
    const double u = std::min(budget, rng.uniform(0.02, 0.2));
    const double period = rng.uniform(10.0, 1000.0);
    tasks.push_back(rt::make_rt_task("t" + std::to_string(i++), u * period, period));
    budget -= u;
  }
  const auto p = rt::partition_rt_tasks(tasks, cores);
  ASSERT_TRUE(p.has_value());
  for (std::size_t c = 0; c < cores; ++c) {
    EXPECT_TRUE(rt::core_schedulable_rm(p->tasks_on_core(tasks, c)));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PartitionProperty,
                         ::testing::Values(11, 22, 33, 44, 55, 66, 77, 88));

// ---------------------------------------------------------------------------
// The per-thread partition memo: every answer it gives (exact hits and the
// neighboring-core-count answers for first-fit and best-fit) must equal a
// fresh run of the heuristic.
// ---------------------------------------------------------------------------

namespace {

bool same_result(const std::optional<rt::Partition>& a, const std::optional<rt::Partition>& b) {
  if (a.has_value() != b.has_value()) return false;
  return !a.has_value() || (a->num_cores == b->num_cores && a->core_of == b->core_of);
}

/// A partition computed with the memo flushed first: the memo holds one
/// result per thread, so partitioning an unrelated set evicts it.
std::optional<rt::Partition> fresh_partition(const std::vector<rt::RtTask>& tasks,
                                             std::size_t cores,
                                             const rt::PartitionOptions& options) {
  rt::partition_rt_tasks({rt::make_rt_task("flush", 0.123, 7777.0)}, 1);
  return rt::partition_rt_tasks(tasks, cores, options);
}

/// A random RT set with total utilization spread so that small core counts
/// fail and large ones succeed.
std::vector<rt::RtTask> memo_task_set(hydra::util::Xoshiro256& rng) {
  std::vector<rt::RtTask> tasks;
  const std::size_t n = 3 + static_cast<std::size_t>(rng.uniform_int(0, 17));
  const double u_max = rng.uniform(0.15, 0.7);
  for (std::size_t i = 0; i < n; ++i) {
    const double period = rng.uniform(10.0, 200.0);
    tasks.push_back(rt::make_rt_task("t" + std::to_string(i),
                                     rng.uniform(0.02, u_max) * period, period));
  }
  return tasks;
}

std::vector<rt::PartitionOptions> all_partition_options() {
  std::vector<rt::PartitionOptions> all;
  for (const auto strategy :
       {rt::FitStrategy::kFirstFit, rt::FitStrategy::kBestFit, rt::FitStrategy::kWorstFit,
        rt::FitStrategy::kNextFit}) {
    for (const bool decreasing : {true, false}) {
      rt::PartitionOptions options;
      options.strategy = strategy;
      options.decreasing_utilization = decreasing;
      all.push_back(options);
    }
  }
  return all;
}

constexpr std::size_t kMaxCores = 8;

}  // namespace

TEST(PartitionMemo, HitsAndNeighborAnswersEqualFreshRuns) {
  hydra::util::Xoshiro256 rng(31337);
  int derived_nullopt = 0, derived_value = 0;
  for (int rep = 0; rep < 40; ++rep) {
    const auto tasks = memo_task_set(rng);
    for (const auto& options : all_partition_options()) {
      // fresh[m] for m = 1..8, each with the memo flushed.
      std::vector<std::optional<rt::Partition>> fresh(kMaxCores + 1);
      for (std::size_t m = 1; m <= kMaxCores; ++m) {
        fresh[m] = fresh_partition(tasks, m, options);
        // The call right after a fresh one is an exact hit.
        EXPECT_TRUE(same_result(rt::partition_rt_tasks(tasks, m, options), fresh[m]));
      }
      for (std::size_t m = 2; m <= kMaxCores; ++m) {
        // (M−1) answered from a memoized M ...
        fresh_partition(tasks, m, options);
        const auto down = rt::partition_rt_tasks(tasks, m - 1, options);
        EXPECT_TRUE(same_result(down, fresh[m - 1]))
            << "rep " << rep << " strategy " << static_cast<int>(options.strategy) << " m " << m;
        // ... and M answered from a memoized M−1.
        fresh_partition(tasks, m - 1, options);
        const auto up = rt::partition_rt_tasks(tasks, m, options);
        EXPECT_TRUE(same_result(up, fresh[m]))
            << "rep " << rep << " strategy " << static_cast<int>(options.strategy) << " m " << m;
        ++(down.has_value() ? derived_value : derived_nullopt);
      }
    }
  }
  // Both outcomes of the derived answers are exercised.
  EXPECT_GT(derived_nullopt, 100);
  EXPECT_GT(derived_value, 100);
}

TEST(PartitionMemo, KeyCoversNumbersAndOptionsButNotNames) {
  auto tasks = uniform_tasks(6, 0.3, 10.0);
  const auto before = fresh_partition(tasks, 3, {});
  for (auto& task : tasks) task.name += "-renamed";
  EXPECT_TRUE(same_result(rt::partition_rt_tasks(tasks, 3, {}), before));
  // One ulp more WCET is a different task set.
  tasks[0].wcet = std::nextafter(tasks[0].wcet, 10.0);
  EXPECT_TRUE(same_result(rt::partition_rt_tasks(tasks, 3, {}), fresh_partition(tasks, 3, {})));

  // Switching between any two options back to back on one set never reuses
  // the other option's partition.
  hydra::util::Xoshiro256 rng(8080);
  const auto options = all_partition_options();
  int differing = 0;
  for (int rep = 0; rep < 20; ++rep) {
    const auto set = memo_task_set(rng);
    for (std::size_t m = 1; m <= kMaxCores; ++m) {
      std::vector<std::optional<rt::Partition>> fresh;
      for (const auto& o : options) fresh.push_back(fresh_partition(set, m, o));
      for (std::size_t a = 0; a < options.size(); ++a) {
        for (std::size_t b = 0; b < options.size(); ++b) {
          rt::partition_rt_tasks(set, m, options[a]);
          EXPECT_TRUE(same_result(rt::partition_rt_tasks(set, m, options[b]), fresh[b]));
          differing += same_result(fresh[a], fresh[b]) ? 0 : 1;
        }
      }
    }
  }
  EXPECT_GT(differing, 100);
}

TEST(PartitionMemo, ThreadsInterleavingSetsReproduceSerialResults) {
  hydra::util::Xoshiro256 rng(4242);
  std::vector<std::vector<rt::RtTask>> sets;
  for (int i = 0; i < 12; ++i) sets.push_back(memo_task_set(rng));
  const auto options = all_partition_options();

  // serial[s][o][m]
  std::vector<std::vector<std::vector<std::optional<rt::Partition>>>> serial(sets.size());
  for (std::size_t s = 0; s < sets.size(); ++s) {
    serial[s].resize(options.size());
    for (std::size_t o = 0; o < options.size(); ++o) {
      serial[s][o].resize(kMaxCores + 1);
      for (std::size_t m = 1; m <= kMaxCores; ++m) {
        serial[s][o][m] = fresh_partition(sets[s], m, options[o]);
      }
    }
  }

  std::vector<int> mismatches(4, 0);
  std::atomic<int> started{0};
  std::vector<std::thread> threads;
  for (std::size_t w = 0; w < 4; ++w) {
    threads.emplace_back([&, w] {
      // Start together so the workers' calls overlap in time.
      ++started;
      while (started.load() < 4) std::this_thread::yield();
      // Each worker walks the sets in its own order and repeats calls, so
      // exact hits, neighbor answers and misses all interleave across threads.
      for (int round = 0; round < 6; ++round) {
        for (std::size_t k = 0; k < sets.size(); ++k) {
          const std::size_t s = (k * (w + 1) + w + static_cast<std::size_t>(round)) % sets.size();
          for (std::size_t o = 0; o < options.size(); ++o) {
            for (std::size_t step = 0; step < 2 * kMaxCores; ++step) {
              const std::size_t m =
                  1 + (step * (w + 3) + static_cast<std::size_t>(round)) % kMaxCores;
              if (!same_result(rt::partition_rt_tasks(sets[s], m, options[o]), serial[s][o][m])) {
                ++mismatches[w];
              }
            }
          }
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  for (std::size_t w = 0; w < 4; ++w) EXPECT_EQ(mismatches[w], 0) << "worker " << w;
}

TEST(PartitionMemo, MalformedInputStillThrowsWhereTheMemoCouldAnswer) {
  const auto tasks = uniform_tasks(3, 0.3, 10.0);
  ASSERT_TRUE(rt::partition_rt_tasks(tasks, 1, {}).has_value());
  // 0 cores would be the (M−1) neighbor of the memoized 1-core result.
  EXPECT_THROW(rt::partition_rt_tasks(tasks, 0, {}), std::invalid_argument);

  // A malformed set throws every time: validation runs before the lookup,
  // so a rejected set is never memoized.
  auto bad = tasks;
  bad[2].deadline = bad[2].period * 2.0;  // D > T is outside the model
  EXPECT_THROW(rt::partition_rt_tasks(bad, 2, {}), std::invalid_argument);
  EXPECT_THROW(rt::partition_rt_tasks(bad, 2, {}), std::invalid_argument);
  EXPECT_THROW(rt::partition_rt_tasks(bad, 3, {}), std::invalid_argument);

  // The memo still answers the valid set afterwards.
  EXPECT_TRUE(same_result(rt::partition_rt_tasks(tasks, 2, {}), fresh_partition(tasks, 2, {})));
}
