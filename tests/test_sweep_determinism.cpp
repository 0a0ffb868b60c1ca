// Determinism and resume tests for the sweep layer:
//   * --jobs 1 and --jobs 8 produce byte-identical row and aggregate JSONL;
//   * resuming from a truncated checkpoint (a run killed mid-write)
//     reproduces the uninterrupted output byte for byte;
//   * a checkpoint from a different spec is rejected, never spliced — and a
//     checkpoint that provably belongs to a DIFFERENT grid (cell keys
//     outside the spec, or a shard header with a foreign fingerprint/shard
//     position) throws instead of silently recomputing;
//   * JSONL rows round-trip exactly through parse_jsonl_row.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>

#include "exp/aggregate.h"
#include "exp/sweep.h"
#include "gp/solver_registry.h"

namespace hexp = hydra::exp;

namespace {

/// A small but non-trivial grid: 3 utilization points × 4 instances ×
/// 3 schemes (including the exhaustive optimal, whose uneven per-cell cost
/// is what would expose ordering races under work stealing).
hexp::SweepSpec small_grid() {
  hexp::SweepSpec spec;
  spec.schemes = {"hydra", "single-core", "optimal"};
  hydra::gen::SyntheticConfig config;
  config.num_cores = 2;
  config.min_sec_per_core = 1;
  config.max_sec_per_core = 2;
  spec.add_utilization_grid(config, {0.8, 1.4, 1.9});
  spec.replications = 4;
  spec.base_seed = 77;
  return spec;
}

std::string run_rows(hexp::SweepSpec spec) {
  std::ostringstream os;
  hexp::JsonlSink sink(os);
  hexp::Sweep(std::move(spec)).run({&sink});
  return os.str();
}

std::string run_aggregate(hexp::SweepSpec spec) {
  hexp::Aggregator aggregator;
  hexp::Sweep(std::move(spec)).run({&aggregator});
  std::ostringstream os;
  aggregator.write_jsonl(os);
  return os.str();
}

/// RAII temp file holding a (possibly truncated) checkpoint.
struct TempCheckpoint {
  std::string path;
  explicit TempCheckpoint(const std::string& content)
      : path(::testing::TempDir() + "hydra_sweep_checkpoint.jsonl") {
    std::ofstream out(path, std::ios::trunc | std::ios::binary);
    out << content;
  }
  ~TempCheckpoint() { std::remove(path.c_str()); }
};

}  // namespace

TEST(SweepDeterminism, RowsAreByteIdenticalAcrossJobCounts) {
  auto serial = small_grid();
  serial.jobs = 1;
  auto parallel = small_grid();
  parallel.jobs = 8;
  const auto rows1 = run_rows(serial);
  const auto rows8 = run_rows(parallel);
  EXPECT_FALSE(rows1.empty());
  EXPECT_EQ(rows1, rows8);
}

TEST(SweepDeterminism, AggregatesAreByteIdenticalAcrossJobCounts) {
  auto serial = small_grid();
  serial.jobs = 1;
  auto parallel = small_grid();
  parallel.jobs = 8;
  const auto agg1 = run_aggregate(serial);
  const auto agg8 = run_aggregate(parallel);
  EXPECT_FALSE(agg1.empty());
  EXPECT_EQ(agg1, agg8);
}

TEST(SweepDeterminism, WarmStartsDoNotChangeRowBytes) {
  // The grid above includes the `optimal` scheme (which solves kSignomialScp
  // per assignment code); on it the warm-vs-cold tie rule keeps every row
  // byte-identical whether warm starts are on, off, or racing across 8
  // workers.  That holds for this grid, not in general: the test below says
  // why the flag is still a fingerprint input.
  auto cold = small_grid();
  cold.scp_warm_start = false;
  auto warm = small_grid();
  warm.scp_warm_start = true;
  warm.jobs = 1;
  auto warm_parallel = small_grid();
  warm_parallel.scp_warm_start = true;
  warm_parallel.jobs = 8;

  const auto rows_cold = run_rows(cold);
  const auto rows_warm = run_rows(warm);
  const auto rows_warm8 = run_rows(warm_parallel);
  EXPECT_FALSE(rows_cold.empty());
  EXPECT_EQ(rows_cold, rows_warm);
  EXPECT_EQ(rows_warm, rows_warm8);
}

TEST(SweepDeterminism, WarmStartFlagIsARowByteInput) {
  // Warm starts can move a GP row (docs/architecture.md, "SCP warm starts",
  // has a measured cell), so checkpoints written with the flag on and off
  // must not merge.  The default (on) adds nothing to the fingerprint, which
  // keeps every default-spec checkpoint valid.
  auto on = small_grid();
  on.scp_warm_start = true;
  auto off = small_grid();
  off.scp_warm_start = false;
  EXPECT_NE(hexp::sweep_fingerprint(on), hexp::sweep_fingerprint(off));
  EXPECT_EQ(hexp::sweep_fingerprint(on), hexp::sweep_fingerprint(small_grid()));
}

TEST(SweepDeterminism, GpBackendIsARowByteInput) {
  // The GP backend changes the numbers a sweep can produce, so it IS part of
  // the fingerprint — unlike jobs, which is plumbing.
  // The empty spelling and the explicit default name are the same
  // configuration and must collide (the fingerprint stamps the resolved
  // name), so upgrading old specs to name the backend never orphans
  // checkpoints.
  const auto fp_default = hexp::sweep_fingerprint(small_grid());
  auto named = small_grid();
  named.gp_backend = hydra::gp::kDefaultGpBackend;
  EXPECT_EQ(hexp::sweep_fingerprint(named), fp_default);

  auto ipm = small_grid();
  ipm.gp_backend = "ipm/filter";
  EXPECT_NE(hexp::sweep_fingerprint(ipm), fp_default);

  auto best = small_grid();
  best.gp_backend = "pick-best";
  EXPECT_NE(hexp::sweep_fingerprint(best), fp_default);
  EXPECT_NE(hexp::sweep_fingerprint(best), hexp::sweep_fingerprint(ipm));
}

TEST(SweepDeterminism, UnknownGpBackendIsRejectedAtConstruction) {
  // Typos fail fast with the catalog in the message, not mid-sweep.
  auto spec = small_grid();
  spec.gp_backend = "no-such-backend";
  try {
    const hexp::Sweep sweep(std::move(spec));
    FAIL() << "unknown gp_backend accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("no-such-backend"), std::string::npos);
  }
}

TEST(SweepDeterminism, RowsRoundTripThroughParser) {
  const auto rows = run_rows(small_grid());
  std::ostringstream reserialized;
  hexp::JsonlSink sink(reserialized);
  std::istringstream in(rows);
  std::string line;
  std::size_t parsed = 0;
  while (std::getline(in, line)) {
    const auto row = hexp::parse_jsonl_row(line);
    ASSERT_TRUE(row.has_value()) << line;
    sink.row(*row);
    ++parsed;
  }
  EXPECT_GT(parsed, 0u);
  EXPECT_EQ(reserialized.str(), rows);
}

TEST(SweepResume, TruncatedCheckpointReproducesUninterruptedRunExactly) {
  const auto full = run_rows(small_grid());
  ASSERT_FALSE(full.empty());

  // Simulate a run killed mid-write: keep roughly 40% of the stream and cut
  // in the MIDDLE of the next line — the torn line must be discarded, its
  // cell re-evaluated.
  const std::size_t cut = full.find('\n', full.size() * 2 / 5);
  ASSERT_NE(cut, std::string::npos);
  const std::string truncated = full.substr(0, cut + 1 + 25);
  const TempCheckpoint checkpoint(truncated);

  auto resumed_spec = small_grid();
  resumed_spec.jobs = 4;
  resumed_spec.resume_path = checkpoint.path;
  std::ostringstream os;
  hexp::JsonlSink sink(os);
  const auto summary = hexp::Sweep(std::move(resumed_spec)).run({&sink});

  EXPECT_GT(summary.resumed_cells, 0u);
  EXPECT_LT(summary.resumed_cells, summary.cells);
  EXPECT_EQ(os.str(), full);
}

TEST(SweepResume, CompleteCheckpointSkipsEveryCell) {
  const auto full = run_rows(small_grid());
  const TempCheckpoint checkpoint(full);

  auto resumed_spec = small_grid();
  resumed_spec.resume_path = checkpoint.path;
  std::ostringstream os;
  hexp::JsonlSink sink(os);
  const auto summary = hexp::Sweep(std::move(resumed_spec)).run({&sink});
  EXPECT_EQ(summary.resumed_cells, summary.cells);
  EXPECT_EQ(os.str(), full);
}

TEST(SweepResume, CheckpointFromDifferentSeedIsRejected) {
  const auto full = run_rows(small_grid());
  const TempCheckpoint checkpoint(full);

  auto other = small_grid();
  other.base_seed = 78;  // different instances ⇒ every cached cell is stale
  other.resume_path = checkpoint.path;
  const auto summary = hexp::Sweep(std::move(other)).run();
  EXPECT_EQ(summary.resumed_cells, 0u);
}

TEST(SweepResume, CheckpointWithFewerSchemesIsRejected) {
  auto partial_spec = small_grid();
  partial_spec.schemes = {"hydra", "single-core"};  // no optimal rows
  const auto partial = run_rows(partial_spec);
  const TempCheckpoint checkpoint(partial);

  auto resumed_spec = small_grid();  // wants hydra, single-core AND optimal
  resumed_spec.resume_path = checkpoint.path;
  std::ostringstream os;
  hexp::JsonlSink sink(os);
  const auto summary = hexp::Sweep(std::move(resumed_spec)).run({&sink});
  EXPECT_EQ(summary.resumed_cells, 0u);
  EXPECT_EQ(os.str(), run_rows(small_grid()));
}

TEST(SweepResume, MissingCheckpointIsAColdStart) {
  auto spec = small_grid();
  spec.resume_path = ::testing::TempDir() + "does_not_exist_hydra.jsonl";
  const auto summary = hexp::Sweep(std::move(spec)).run();
  EXPECT_EQ(summary.resumed_cells, 0u);
  EXPECT_EQ(summary.cells, 12u);  // 3 points × 4 replications
}

TEST(SweepResume, ForeignCellKeysAreALoudErrorNotASilentRecompute) {
  // Regression: a checkpoint whose cells are not even part of this spec's
  // grid means the caller resumed the wrong file (or edited the grid).  That
  // used to fall through to "0 cells resumed, recompute everything" —
  // indistinguishable from a cold start.  It must throw, naming the key.
  auto full = run_rows(small_grid());
  const auto at = full.find("\"cell\":\"p0:");
  ASSERT_NE(at, std::string::npos);
  full.replace(at, std::string("\"cell\":\"p0:").size(), "\"cell\":\"p9:");
  const TempCheckpoint checkpoint(full);

  auto spec = small_grid();
  spec.resume_path = checkpoint.path;
  try {
    hexp::Sweep sweep(std::move(spec));
    FAIL() << "should have thrown";
  } catch (const std::runtime_error& error) {
    EXPECT_NE(std::string(error.what()).find("p9:"), std::string::npos)
        << error.what();
    EXPECT_NE(std::string(error.what()).find("outside"), std::string::npos);
  }
}

TEST(SweepResume, ShardHeaderFromDifferentSpecIsRejected) {
  // The shard header pins the spec fingerprint; resuming a checkpoint whose
  // header disagrees (here: a different base seed) must throw up front.
  auto other = small_grid();
  other.base_seed = 123;
  other.shard_count = 2;
  const auto foreign_header =
      hexp::format_shard_header(hexp::Sweep(std::move(other)).shard_header());
  const TempCheckpoint checkpoint(foreign_header + "\n");

  auto spec = small_grid();
  spec.shard_count = 2;
  spec.resume_path = checkpoint.path;
  try {
    hexp::Sweep sweep(std::move(spec));
    FAIL() << "should have thrown";
  } catch (const std::runtime_error& error) {
    EXPECT_NE(std::string(error.what()).find("fingerprint"), std::string::npos)
        << error.what();
  }
}

TEST(SweepResume, ShardHeaderFromWrongShardPositionIsRejected) {
  // Same sweep, wrong shard: shard 1's checkpoint must not seed shard 0 (its
  // cells would all be foreign) nor an unsharded run pretending to be whole.
  auto shard1 = small_grid();
  shard1.shard_index = 1;
  shard1.shard_count = 2;
  const auto header =
      hexp::format_shard_header(hexp::Sweep(std::move(shard1)).shard_header());
  const TempCheckpoint checkpoint(header + "\n");

  auto shard0 = small_grid();
  shard0.shard_count = 2;  // shard 0 of 2
  shard0.resume_path = checkpoint.path;
  try {
    hexp::Sweep sweep(std::move(shard0));
    FAIL() << "should have thrown";
  } catch (const std::runtime_error& error) {
    EXPECT_NE(std::string(error.what()).find("shard"), std::string::npos)
        << error.what();
  }

  auto unsharded = small_grid();
  unsharded.resume_path = checkpoint.path;
  EXPECT_THROW(hexp::Sweep(std::move(unsharded)), std::runtime_error);
}

TEST(SweepResume, OwnShardCheckpointStillResumesExactly) {
  // The happy sharded path: a shard writes header + rows, dies, and its own
  // resume reproduces the uninterrupted shard output byte for byte.
  auto spec = small_grid();
  spec.shard_index = 1;
  spec.shard_count = 2;
  const hexp::Sweep sweep(spec);
  const auto header_line = hexp::format_shard_header(sweep.shard_header());
  std::ostringstream os;
  hexp::JsonlSink sink(os);
  sweep.run({&sink});
  const auto full = os.str();
  ASSERT_FALSE(full.empty());

  // Keep the first complete cell: one row per scheme, emitted contiguously.
  std::size_t cut = std::string::npos;
  for (std::size_t line = 0, pos = 0; line < 3; ++line) {
    cut = full.find('\n', pos);
    ASSERT_NE(cut, std::string::npos);
    pos = cut + 1;
  }
  const TempCheckpoint checkpoint(header_line + "\n" + full.substr(0, cut + 1));

  auto resumed_spec = spec;
  resumed_spec.resume_path = checkpoint.path;
  std::ostringstream resumed;
  hexp::JsonlSink resumed_sink(resumed);
  const auto summary = hexp::Sweep(std::move(resumed_spec)).run({&resumed_sink});
  EXPECT_GT(summary.resumed_cells, 0u);
  EXPECT_EQ(resumed.str(), full);
}
