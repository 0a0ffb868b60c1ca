// Unit tests for src/util: contracts, time units, RNG, CLI parsing.
#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <stdexcept>
#include <string>

#include "util/cli.h"
#include "util/contracts.h"
#include "util/rng.h"
#include "util/units.h"

namespace hu = hydra::util;

TEST(Contracts, RequireThrowsInvalidArgument) {
  EXPECT_THROW(HYDRA_REQUIRE(false, "boom"), std::invalid_argument);
  EXPECT_NO_THROW(HYDRA_REQUIRE(true, "fine"));
}

TEST(Contracts, AssertThrowsLogicError) {
  EXPECT_THROW(HYDRA_ASSERT(false, "bug"), std::logic_error);
  EXPECT_NO_THROW(HYDRA_ASSERT(true, "fine"));
}

TEST(Contracts, MessageNamesExpressionAndLocation) {
  try {
    HYDRA_REQUIRE(1 == 2, "custom detail");
    FAIL() << "should have thrown";
  } catch (const std::invalid_argument& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("1 == 2"), std::string::npos);
    EXPECT_NE(msg.find("custom detail"), std::string::npos);
    EXPECT_NE(msg.find("test_util.cpp"), std::string::npos);
  }
}

TEST(Contracts, LocationIsRelativeToTheSourceRoot) {
  // Error-row notes carry this text, so it must not depend on where the
  // checkout lives.
  const int line = __LINE__ + 2;
  try {
    HYDRA_REQUIRE(false, "");
    FAIL() << "should have thrown";
  } catch (const std::invalid_argument& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find(" at tests/test_util.cpp:" + std::to_string(line)),
              std::string::npos)
        << msg;
  }
}

TEST(Units, MillisToTicksRoundTrip) {
  EXPECT_EQ(hu::to_ticks(1.0), 1000u);
  EXPECT_EQ(hu::to_ticks(0.0), 0u);
  EXPECT_EQ(hu::to_ticks(2.5), 2500u);
  EXPECT_DOUBLE_EQ(hu::to_millis(2500), 2.5);
  EXPECT_DOUBLE_EQ(hu::to_millis(hu::to_ticks(123.456)), 123.456);
}

TEST(Units, TicksRoundToNearestMicrosecond) {
  EXPECT_EQ(hu::to_ticks(0.0004), 0u);   // 0.4 us rounds down
  EXPECT_EQ(hu::to_ticks(0.0006), 1u);   // 0.6 us rounds up
}

TEST(Units, NegativeAndNonFiniteRejected) {
  EXPECT_THROW(hu::to_ticks(-1.0), std::invalid_argument);
  EXPECT_THROW(hu::to_ticks(std::nan("")), std::invalid_argument);
  EXPECT_THROW(hu::to_ticks(std::numeric_limits<double>::infinity()), std::invalid_argument);
}

TEST(Units, ToleranceComparisons) {
  EXPECT_TRUE(hu::leq_tol(1.0, 1.0));
  EXPECT_TRUE(hu::leq_tol(1.0 + 1e-9, 1.0));
  EXPECT_FALSE(hu::leq_tol(1.0 + 1e-3, 1.0));
  EXPECT_TRUE(hu::approx_equal(1.0, 1.0 + 1e-12));
  EXPECT_FALSE(hu::approx_equal(1.0, 1.1));
}

TEST(Rng, DeterministicGivenSeed) {
  hu::Xoshiro256 a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiverge) {
  hu::Xoshiro256 a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a() == b()) ++same;
  }
  EXPECT_LT(same, 2);
}

TEST(Rng, Uniform01InRange) {
  hu::Xoshiro256 rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double v = rng.uniform01();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(Rng, Uniform01MeanNearHalf) {
  hu::Xoshiro256 rng(11);
  double sum = 0.0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) sum += rng.uniform01();
  EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(Rng, UniformIntCoversRangeInclusively) {
  hu::Xoshiro256 rng(3);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(rng.uniform_int(5, 8));
  EXPECT_EQ(seen.size(), 4u);
  EXPECT_EQ(*seen.begin(), 5u);
  EXPECT_EQ(*seen.rbegin(), 8u);
}

TEST(Rng, UniformIntSingleton) {
  hu::Xoshiro256 rng(3);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(rng.uniform_int(9, 9), 9u);
}

TEST(Rng, UniformRejectsEmptyRange) {
  hu::Xoshiro256 rng(1);
  EXPECT_THROW(rng.uniform(2.0, 1.0), std::invalid_argument);
  EXPECT_THROW(rng.uniform_int(3, 2), std::invalid_argument);
}

TEST(Rng, ForkProducesIndependentStream) {
  hu::Xoshiro256 parent(5);
  hu::Xoshiro256 child = parent.fork();
  // The child must not replay the parent's continuation.
  hu::Xoshiro256 parent_copy(5);
  (void)parent_copy.fork();
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (child() == parent()) ++same;
  }
  EXPECT_LT(same, 2);
}

namespace {

hu::CliParser parse(std::vector<const char*> argv) {
  return hu::CliParser(static_cast<int>(argv.size()), argv.data());
}

}  // namespace

TEST(Cli, ParsesSpaceAndEqualsForms) {
  const auto cli = parse({"prog", "--alpha", "3", "--beta=4.5", "--flag"});
  EXPECT_EQ(cli.get_int("alpha", 0), 3);
  EXPECT_DOUBLE_EQ(cli.get_double("beta", 0.0), 4.5);
  EXPECT_TRUE(cli.get_bool("flag", false));
  EXPECT_TRUE(cli.has("alpha"));
  EXPECT_FALSE(cli.has("gamma"));
}

TEST(Cli, FallbacksWhenAbsent) {
  const auto cli = parse({"prog"});
  EXPECT_EQ(cli.get_int("n", 17), 17);
  EXPECT_DOUBLE_EQ(cli.get_double("x", 2.5), 2.5);
  EXPECT_EQ(cli.get_string("s", "dflt"), "dflt");
  EXPECT_FALSE(cli.get_bool("b", false));
}

TEST(Cli, IntListParsing) {
  const auto cli = parse({"prog", "--cores", "2,4,8"});
  const auto cores = cli.get_int_list("cores", {});
  ASSERT_EQ(cores.size(), 3u);
  EXPECT_EQ(cores[0], 2);
  EXPECT_EQ(cores[1], 4);
  EXPECT_EQ(cores[2], 8);
}

TEST(Cli, StringListParsing) {
  const auto cli = parse({"prog", "--schemes", "hydra, single-core ,optimal"});
  const auto schemes = cli.get_string_list("schemes", {});
  ASSERT_EQ(schemes.size(), 3u);
  EXPECT_EQ(schemes[0], "hydra");
  EXPECT_EQ(schemes[1], "single-core");  // whitespace trimmed
  EXPECT_EQ(schemes[2], "optimal");
}

TEST(Cli, StringListFallbackAndEmpty) {
  const auto absent = parse({"prog"});
  const auto fallback = absent.get_string_list("schemes", {"hydra"});
  ASSERT_EQ(fallback.size(), 1u);
  EXPECT_EQ(fallback[0], "hydra");
  const auto empty = parse({"prog", "--schemes", ","});
  EXPECT_THROW(empty.get_string_list("schemes", {}), std::invalid_argument);
}

TEST(Cli, RejectsPositionalAndMalformed) {
  EXPECT_THROW(parse({"prog", "positional"}), std::invalid_argument);
  const auto cli = parse({"prog", "--n", "notanint"});
  EXPECT_THROW(cli.get_int("n", 0), std::invalid_argument);
  EXPECT_THROW(cli.get_bool("n", false), std::invalid_argument);
}

TEST(Cli, BooleanSpellings) {
  const auto cli = parse({"prog", "--a", "yes", "--b", "off", "--c", "1"});
  EXPECT_TRUE(cli.get_bool("a", false));
  EXPECT_FALSE(cli.get_bool("b", true));
  EXPECT_TRUE(cli.get_bool("c", false));
}

TEST(Cli, PositionalsAreCollectedWhenOptedIn) {
  const std::vector<const char*> argv = {"prog", "a.jsonl", "--out",
                                         "m.jsonl", "b.jsonl"};
  const hu::CliParser cli(static_cast<int>(argv.size()), argv.data(),
                          /*allow_positionals=*/true);
  EXPECT_EQ(cli.get_string("out", ""), "m.jsonl");
  ASSERT_EQ(cli.positionals().size(), 2u);
  EXPECT_EQ(cli.positionals()[0], "a.jsonl");
  EXPECT_EQ(cli.positionals()[1], "b.jsonl");
}

TEST(Cli, ValueLessFlagsDoNotSwallowPositionals) {
  // Regression: a bare boolean flag in front of a positional used to eat it
  // as its "value" — `hydra_merge --allow-partial s0.jsonl s1.jsonl` lost
  // its first shard file and then rejected "s0.jsonl" as a boolean.
  const std::vector<const char*> argv = {"prog", "--allow-partial", "s0.jsonl",
                                         "s1.jsonl"};
  const hu::CliParser cli(static_cast<int>(argv.size()), argv.data(),
                          /*allow_positionals=*/true,
                          /*value_less_flags=*/{"allow-partial"});
  EXPECT_TRUE(cli.get_bool("allow-partial", false));
  ASSERT_EQ(cli.positionals().size(), 2u);
  EXPECT_EQ(cli.positionals()[0], "s0.jsonl");
  // The explicit `=` form still overrides a value-less flag.
  const std::vector<const char*> eq = {"prog", "--allow-partial=false", "x"};
  const hu::CliParser eq_cli(static_cast<int>(eq.size()), eq.data(), true,
                             {"allow-partial"});
  EXPECT_FALSE(eq_cli.get_bool("allow-partial", true));
  ASSERT_EQ(eq_cli.positionals().size(), 1u);
}
