// Result sinks for the sweep layer: each evaluated (instance, scheme)
// pair becomes one BatchRow, streamed — in stable batch order, regardless of
// worker completion order — to every attached sink.
//
// Built-in sinks:
//   * TableSink — buffers rows and renders a column-aligned io::Table;
//   * CsvSink   — streams RFC-4180 CSV (header first);
//   * JsonlSink — streams one JSON object per line, the machine-readable
//     format downstream tooling and the determinism tests consume.
//
// Rows deliberately carry no timing fields: the byte-identical-across-jobs
// guarantee (same BatchSpec ⇒ same JSONL for --jobs 1 and --jobs 8) would not
// survive wall-clock noise.  Timing lives in exp::SweepSummary.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

namespace hydra::exp {

/// One evaluated (instance, scheme) result.
struct BatchRow {
  // Sweep context.  evaluate_batch_item leaves these defaulted; the exp::Sweep
  // layer stamps every row with its grid cell so downstream tooling (and the
  // --resume checkpoint loader) can regroup a flat JSONL stream.
  std::string cell;                ///< deterministic cell key; "" outside sweeps
  std::size_t point_index = 0;     ///< sweep-point position in SweepSpec::points
  std::string point_label;         ///< e.g. "m=4 u=1.2"; "" outside sweeps
  double target_utilization = 0.0; ///< the point's requested total utilization

  std::size_t instance_index = 0;
  std::string instance_label;      ///< "seed=..." or the source file path
  std::uint64_t seed = 0;          ///< 0 for file-sourced instances
  std::string scheme;              ///< registry name, e.g. "hydra/exact-rta"
  /// "ok" (evaluated), "skipped" (e.g. optimal over budget), "no-instance"
  /// (the draw/load produced nothing), or "error" (the scheme threw).
  std::string status = "ok";
  std::string note;                ///< skip/error detail or validation problem
  bool feasible = false;
  bool validated = false;
  double cumulative_tightness = 0.0;
  double normalized_tightness = 0.0;
  double rt_utilization = 0.0;     ///< instance context (0 when unknown)
  double sec_utilization = 0.0;

  /// Extra per-row metrics a sweep's RowMetric hooks computed (e.g. mean
  /// detection latency from the attack simulator).  Emitted as a nested JSON
  /// object; the table/CSV sinks omit them (their schema is fixed).
  std::vector<std::pair<std::string, double>> metrics;
};

/// Parses one line previously produced by JsonlSink back into a BatchRow.
/// Returns nullopt for anything malformed or truncated (the resume loader
/// treats such lines as "cell not completed").  A line JsonlSink wrote
/// round-trips exactly: re-serializing the parsed row yields the same bytes,
/// which is what lets --resume splice checkpointed rows into a fresh run.
/// The parser is looser than the writer (keys may be missing or reordered,
/// numbers may carry extra digits, strings may hold raw control bytes), so
/// for any other accepted line only the re-serialized form is canonical: it
/// parses back to a row that re-serializes to the same bytes
/// (test_parser_fuzz).
std::optional<BatchRow> parse_jsonl_row(const std::string& line);

/// Sinks are re-usable across several sweep runs (a bench may pass the same
/// file sink to one run per platform), so begin() must be idempotent and
/// end() must leave the sink ready for more rows.
class ResultSink {
 public:
  virtual ~ResultSink() = default;
  virtual void begin() {}
  virtual void row(const BatchRow& row) = 0;
  virtual void end() {}
};

/// Buffers rows and prints a column-aligned io::Table on end().
class TableSink : public ResultSink {
 public:
  explicit TableSink(std::ostream& os);
  ~TableSink() override;
  void row(const BatchRow& row) override;
  void end() override;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

/// Streams RFC-4180 CSV; the header is written once, on the first begin().
class CsvSink : public ResultSink {
 public:
  explicit CsvSink(std::ostream& os) : os_(os) {}
  void begin() override;
  void row(const BatchRow& row) override;

 private:
  std::ostream& os_;
  bool header_written_ = false;
};

/// Streams one JSON object per line (JSON Lines).
class JsonlSink : public ResultSink {
 public:
  explicit JsonlSink(std::ostream& os) : os_(os) {}
  void row(const BatchRow& row) override;

 private:
  std::ostream& os_;
};

/// JSON string escaping (quotes, backslashes, control characters).
std::string json_escape(const std::string& text);

/// Locale-independent shortest-round-trip double formatting (std::to_chars),
/// so JSONL/CSV output is byte-stable across runs and platforms.  NaN and
/// infinities render as "nan"/"inf"/"-inf" — visible, not fake zeros.
std::string format_double(double value);

/// format_double for JSON number positions: non-finite values become "null"
/// so every emitted line stays parseable.
std::string json_number(double value);

/// A sink that owns its output file stream.  The format follows the
/// extension: ".jsonl"/".json" ⇒ JSONL, ".csv" ⇒ CSV; anything else throws
/// std::invalid_argument.  Throws std::runtime_error when the file cannot be
/// opened; flushes on destruction.
///
/// A non-empty `header_line` (e.g. a formatted exp::SweepShardHeader) is
/// written verbatim as the file's first line before any row — JSONL only;
/// CSV has its own header row, so combining the two throws.
std::unique_ptr<ResultSink> make_file_sink(const std::string& path,
                                           const std::string& header_line = "");

}  // namespace hydra::exp
