// Synthetic golden rows: thinned synthetic sweeps whose raw JSONL row streams
// are diffed byte for byte against committed goldens.  The corpus golden
// (test_sweep_golden) covers file instances, mostly on two cores; these pin
// the synthetic generator, the Eq. (1) screen, the RT partitioning and the GP
// period solves.  Two cases:
//
//   Fig2   hydra, single-core over M = 2, 4, 8 (every third point of each
//          utilization axis, two task sets per point, seed 7)
//   GpJoint hydra/gp, period-adapt/gp, single-core/joint at M = 2 (every third
//          point, two task sets per point, seed 15, SCP warm starts at their
//          default) — the only golden whose rows run through the GP solvers
//
// After an INTENTIONAL behaviour change, regenerate the golden files with
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

struct GoldenCase {
  std::string name;
  std::string file;  ///< under tests/golden/
  std::vector<std::string> schemes;
  std::vector<std::size_t> cores;
  std::uint64_t seed;
};

const std::vector<GoldenCase>& golden_cases() {
  static const std::vector<GoldenCase> cases = {
      {"Fig2", "fig2_synthetic_rows.jsonl", {"hydra", "single-core"}, {2, 4, 8}, 7},
      {"GpJoint",
       "gp_joint_rows.jsonl",
       {"hydra/gp", "period-adapt/gp", "single-core/joint"},
       {2},
       15},
  };
  return cases;
}

std::string golden_path(const GoldenCase& c) {
  return std::string(HYDRA_SOURCE_DIR) + "/tests/golden/" + c.file;
}

hexp::SweepSpec thinned_spec(const GoldenCase& c, std::size_t jobs) {
  hexp::SweepSpec spec;
  spec.schemes = c.schemes;
  spec.replications = 2;
  spec.base_seed = c.seed;
  spec.jobs = jobs;
  for (const std::size_t m : c.cores) {
    hydra::gen::SyntheticConfig config;
    config.num_cores = m;
    const auto axis = hexp::utilization_axis(m);
    std::vector<double> every_third;
    for (std::size_t i = 0; i < axis.size(); i += 3) every_third.push_back(axis[i]);
    spec.add_utilization_grid(config, every_third);
  }
  return spec;
}

std::string run_rows(const GoldenCase& c, std::size_t jobs) {
  std::ostringstream os;
  hexp::JsonlSink sink(os);
  hexp::Sweep(thinned_spec(c, jobs)).run({&sink});
  return os.str();
}

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

class GoldenRows : public ::testing::TestWithParam<GoldenCase> {};

}  // namespace

TEST_P(GoldenRows, RowsMatchCommittedGolden) {
  const GoldenCase& c = GetParam();
  const std::string actual = run_rows(c, 1);
  ASSERT_FALSE(actual.empty());

  if (std::getenv("HYDRA_UPDATE_GOLDEN") != nullptr) {
    std::ofstream out(golden_path(c));
    out << actual;
    GTEST_SKIP() << "golden file regenerated at " << golden_path(c);
  }

  const std::string expected = read_file(golden_path(c));
  ASSERT_FALSE(expected.empty()) << "missing golden file " << golden_path(c)
                                 << " — run with HYDRA_UPDATE_GOLDEN=1 to create it";
  EXPECT_EQ(actual, expected)
      << "thinned " << c.name << " sweep diverged from the committed golden JSONL; if the "
      << "change is intentional, regenerate with HYDRA_UPDATE_GOLDEN=1 and review the diff";
}

TEST_P(GoldenRows, RowsAreIndependentOfJobCount) {
  // Workers carry per-thread memos; the row stream must not notice them.
  const GoldenCase& c = GetParam();
  EXPECT_EQ(run_rows(c, 1), run_rows(c, 4));
}

INSTANTIATE_TEST_SUITE_P(Synthetic, GoldenRows, ::testing::ValuesIn(golden_cases()),
                         [](const ::testing::TestParamInfo<GoldenCase>& info) {
                           return info.param.name;
                         });
