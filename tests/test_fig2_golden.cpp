// Synthetic golden rows: a thinned Fig. 2 sweep (hydra, single-core over
// M = 2, 4, 8, every third point of the 39-point utilization axis, two task
// sets per point) whose raw JSONL row stream is diffed byte for byte against
// a committed golden.  The corpus golden (test_sweep_golden) covers file
// instances, mostly on two cores; this one pins the synthetic generator, the
// Eq. (1) screen and the RT partitioning on wider platforms.
//
// After an INTENTIONAL behaviour change, regenerate the golden file with
//
//     HYDRA_UPDATE_GOLDEN=1 ./build/test_fig2_golden
//
// and review the diff like any other code change.
#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>

#include "exp/sweep.h"

namespace hexp = hydra::exp;

namespace {

const std::string kGoldenPath =
    std::string(HYDRA_SOURCE_DIR) + "/tests/golden/fig2_synthetic_rows.jsonl";

hexp::SweepSpec thinned_fig2_spec(std::size_t jobs) {
  hexp::SweepSpec spec;
  spec.schemes = {"hydra", "single-core"};
  spec.replications = 2;
  spec.base_seed = 7;
  spec.jobs = jobs;
  for (const std::size_t m : {2, 4, 8}) {
    hydra::gen::SyntheticConfig config;
    config.num_cores = m;
    const auto axis = hexp::utilization_axis(m);
    std::vector<double> every_third;
    for (std::size_t i = 0; i < axis.size(); i += 3) every_third.push_back(axis[i]);
    spec.add_utilization_grid(config, every_third);
  }
  return spec;
}

std::string run_rows(std::size_t jobs) {
  std::ostringstream os;
  hexp::JsonlSink sink(os);
  hexp::Sweep(thinned_fig2_spec(jobs)).run({&sink});
  return os.str();
}

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

}  // namespace

TEST(Fig2Golden, RowsMatchCommittedGolden) {
  const std::string actual = run_rows(1);
  ASSERT_FALSE(actual.empty());

  if (std::getenv("HYDRA_UPDATE_GOLDEN") != nullptr) {
    std::ofstream out(kGoldenPath);
    out << actual;
    GTEST_SKIP() << "golden file regenerated at " << kGoldenPath;
  }

  const std::string expected = read_file(kGoldenPath);
  ASSERT_FALSE(expected.empty()) << "missing golden file " << kGoldenPath
                                 << " — run with HYDRA_UPDATE_GOLDEN=1 to create it";
  EXPECT_EQ(actual, expected)
      << "thinned Fig. 2 sweep diverged from the committed golden JSONL; if the "
         "change is intentional, regenerate with HYDRA_UPDATE_GOLDEN=1 and review "
         "the diff";
}

TEST(Fig2Golden, RowsAreIndependentOfJobCount) {
  // Workers carry per-thread memos; the row stream must not notice them.
  EXPECT_EQ(run_rows(1), run_rows(4));
}
