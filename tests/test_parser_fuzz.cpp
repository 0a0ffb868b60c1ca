// Seeded byte-level fuzz of the parsers that read bytes a run did not write
// itself: workload files (io::instance_from_text), checkpoint rows
// (exp::parse_jsonl_row) and shard headers (exp::parse_shard_header).
//
// Committed seeds are mutated by bit flips, byte overwrites, inserts,
// deletes, truncation and splices under a fixed seed, so any failure replays
// exactly.  The contract: a parser never crashes and never throws anything
// but its documented rejection, and whatever it accepts survives a round
// trip through the matching writer.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <fstream>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <tuple>
#include <vector>

#include "exp/batch.h"
#include "exp/sinks.h"
#include "exp/sweep.h"
#include "io/taskset_io.h"
#include "util/rng.h"

namespace hexp = hydra::exp;
namespace io = hydra::io;

namespace {

constexpr int kMutations = 20000;
const std::string kSourceDir = HYDRA_SOURCE_DIR;

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

/// Bytes the grammars give meaning to, so mutations reach past the first
/// character check more often than uniform random bytes would.
constexpr char kInteresting[] = {'"', '\\', ',', ':', '{', '}', '[', ']', '\n', '#',
                                 ' ', '-', '+', '.', 'e', '0', '9', 'u', '\0', '\x7f'};

/// Applies one to four random edits to a seed; `pool` supplies splice donors.
class Mutator {
 public:
  Mutator(std::uint64_t seed, const std::vector<std::string>& pool)
      : rng_(seed), pool_(pool) {}

  std::string next() {
    std::string text = pool_[pick(pool_.size())];
    for (std::size_t edits = 1 + pick(4); edits > 0; --edits) edit(text);
    return text;
  }

 private:
  std::size_t pick(std::size_t n) {
    return static_cast<std::size_t>(rng_.uniform_int(0, n - 1));
  }
  char byte() {
    if (rng_.uniform_int(0, 1) == 0) {
      return kInteresting[pick(sizeof(kInteresting))];
    }
    return static_cast<char>(rng_.uniform_int(0, 255));
  }

  void edit(std::string& text) {
    const std::size_t at = pick(text.size() + 1);
    switch (pick(6)) {
      case 0:  // bit flip
        if (at < text.size()) text[at] = static_cast<char>(text[at] ^ (1 << pick(8)));
        break;
      case 1:  // overwrite
        if (at < text.size()) text[at] = byte();
        break;
      case 2:  // insert
        text.insert(at, 1, byte());
        break;
      case 3:  // delete a short run
        text.erase(at, 1 + pick(8));
        break;
      case 4:  // truncate
        text.resize(at);
        break;
      default: {  // splice: this prefix, another seed's suffix
        const std::string& donor = pool_[pick(pool_.size())];
        text = text.substr(0, at) + donor.substr(pick(donor.size() + 1));
      }
    }
  }

  hydra::util::Xoshiro256 rng_;
  const std::vector<std::string>& pool_;
};

/// The bytes a checkpoint holds for `row`, without the trailing newline.
std::string jsonl_line(const hexp::BatchRow& row) {
  std::ostringstream out;
  hexp::JsonlSink(out).row(row);
  std::string line = out.str();
  line.pop_back();
  return line;
}

/// Field-by-field equality, doubles compared exactly.
bool same_instance(const hydra::core::Instance& a, const hydra::core::Instance& b) {
  const auto same_rt = [](const hydra::rt::RtTask& x, const hydra::rt::RtTask& y) {
    return std::tie(x.name, x.wcet, x.period, x.deadline) ==
           std::tie(y.name, y.wcet, y.period, y.deadline);
  };
  const auto same_sec = [](const hydra::rt::SecurityTask& x,
                           const hydra::rt::SecurityTask& y) {
    return std::tie(x.name, x.wcet, x.period_des, x.period_max, x.weight) ==
           std::tie(y.name, y.wcet, y.period_des, y.period_max, y.weight);
  };
  return a.num_cores == b.num_cores &&
         std::equal(a.rt_tasks.begin(), a.rt_tasks.end(), b.rt_tasks.begin(),
                    b.rt_tasks.end(), same_rt) &&
         std::equal(a.security_tasks.begin(), a.security_tasks.end(),
                    b.security_tasks.begin(), b.security_tasks.end(), same_sec);
}

/// Feeds kMutations mutants of `seeds` to `check`, which returns whether the
/// parser accepted its input.  Stops at the first failure or stray throw and
/// names the input that caused it.  Returns the number accepted.
template <typename Check>
int fuzz(std::uint64_t seed, const std::vector<std::string>& seeds, Check check) {
  Mutator mutate(seed, seeds);
  int accepted = 0;
  for (int i = 0; i < kMutations; ++i) {
    const std::string input = mutate.next();
    try {
      accepted += check(input) ? 1 : 0;
    } catch (const std::exception& error) {
      ADD_FAILURE() << "threw " << error.what();
    }
    if (::testing::Test::HasFailure()) {
      ADD_FAILURE() << "input: \"" << hexp::json_escape(input) << "\"";
      break;
    }
  }
  return accepted;
}

}  // namespace

TEST(ParserFuzz, TasksetRejectsOnlyWithInvalidArgumentAndRoundTrips) {
  std::vector<std::string> seeds;
  for (const auto& path : hexp::expand_workload_files(kSourceDir + "/tests/corpus")) {
    seeds.push_back(slurp(path));
  }
  // The corpus has only short decimals; one seed needs all 17 digits.
  seeds.push_back(
      "cores 2\nrt r0 0.33333333333333331 7\n"
      "sec s0 1.4142135623730951 100 1000.0000000000001 0.70710678118654757\n");
  ASSERT_GE(seeds.size(), 9u);

  const int accepted = fuzz(0x7A5C5E7, seeds, [](const std::string& input) {
    hydra::core::Instance parsed;
    try {
      parsed = io::instance_from_text(input);
    } catch (const std::invalid_argument&) {
      return false;
    }
    EXPECT_TRUE(same_instance(io::instance_from_text(io::to_text(parsed)), parsed));
    return true;
  });
  // The mutator must not be so destructive that nothing parses.
  EXPECT_GT(accepted, kMutations / 50);
}

TEST(ParserFuzz, JsonlRowNeverThrowsAndAcceptedRowsReserializeStably) {
  std::vector<std::string> seeds;
  for (const char* golden : {"fig2_synthetic_rows.jsonl", "gp_joint_rows.jsonl"}) {
    std::istringstream lines(slurp(kSourceDir + "/tests/golden/" + golden));
    for (std::string line; std::getline(lines, line);) seeds.push_back(line);
  }
  // The goldens carry no metrics object and no escapes; one row that does.
  // A line the writer produced must come back byte for byte.
  const std::string rich =
      R"({"cell":"p1:m=2 u=0.9:i3","point":1,"point_label":"m=2 u=0.9",)"
      R"("target_utilization":0.9,"instance":3,"label":"seed=42","seed":42,)"
      R"("scheme":"hydra/gp","status":"error","feasible":false,"validated":false,)"
      R"("cumulative_tightness":0,"normalized_tightness":0,"rt_utilization":0.5,)"
      R"("sec_utilization":0.25,"metrics":{"mean_ms":12.5,"nan_metric":null},)"
      R"("note":"quote \" backslash \\ tab \t newline \n bell \u0007"})";
  const auto rich_row = hexp::parse_jsonl_row(rich);
  ASSERT_TRUE(rich_row.has_value());
  ASSERT_EQ(jsonl_line(*rich_row), rich);
  seeds.push_back(rich);
  ASSERT_GE(seeds.size(), 200u);

  const int accepted = fuzz(0x50E5, seeds, [](const std::string& input) {
    const auto row = hexp::parse_jsonl_row(input);
    if (!row) return false;
    const std::string line = jsonl_line(*row);
    const auto again = hexp::parse_jsonl_row(line);
    EXPECT_TRUE(again.has_value() && jsonl_line(*again) == line) << line;
    return true;
  });
  EXPECT_GT(accepted, kMutations / 50);
}

TEST(ParserFuzz, ShardHeaderNeverThrowsAndAcceptedHeadersReformatStably) {
  hexp::SweepShardHeader header;
  header.fingerprint = "0123456789abcdef";
  header.shard = 1;
  header.shards = 3;
  header.cells = 117;
  header.schemes = {"hydra", "single-core", "period-adapt/gp"};
  const std::string full = hexp::format_shard_header(header);
  header.schemes.clear();
  const std::vector<std::string> seeds = {full, hexp::format_shard_header(header)};

  const int accepted = fuzz(0x5A4D, seeds, [](const std::string& input) {
    const auto parsed = hexp::parse_shard_header(input);
    if (!parsed) return false;
    EXPECT_LT(parsed->shard, parsed->shards);
    const std::string line = hexp::format_shard_header(*parsed);
    const auto again = hexp::parse_shard_header(line);
    EXPECT_TRUE(again.has_value() && hexp::format_shard_header(*again) == line) << line;
    return true;
  });
  EXPECT_GT(accepted, kMutations / 100);
}
