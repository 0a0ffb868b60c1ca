#include "exp/sweep.h"

#include <algorithm>
#include <atomic>
#include <charconv>
#include <chrono>
#include <condition_variable>
#include <fstream>
#include <memory>
#include <mutex>
#include <set>
#include <stdexcept>
#include <thread>
#include <utility>

#include "core/registry.h"
#include "core/scp_warm.h"
#include "exp/scp_warm.h"
#include "gp/solver_registry.h"
#include "sim/controller.h"

namespace hydra::exp {

void SweepSpec::add_utilization_grid(const gen::SyntheticConfig& config,
                                     const std::vector<double>& utilizations) {
  for (const double u : utilizations) {
    SweepPoint point;
    point.synthetic = config;
    point.total_utilization = u;
    points.push_back(std::move(point));
  }
}

void SweepSpec::add_corpus_point(const std::string& path_or_glob, std::string label) {
  SweepPoint point;
  point.files = expand_workload_files(path_or_glob);
  point.label = label.empty() ? path_or_glob : std::move(label);
  points.push_back(std::move(point));
}

std::vector<double> utilization_axis(std::size_t num_cores, std::size_t steps,
                                     double increment) {
  std::vector<double> axis;
  axis.reserve(steps);
  for (std::size_t step = 1; step <= steps; ++step) {
    axis.push_back(increment * static_cast<double>(step) * static_cast<double>(num_cores));
  }
  return axis;
}

std::uint64_t sweep_point_seed(std::uint64_t base_seed, std::size_t point_index) {
  // A distinct splitmix64 domain (the XOR constant) keeps a sweep's point-p
  // stream disjoint from a plain BatchSpec run using the same base seed.
  return instance_seed(base_seed ^ 0xC2B2AE3D27D4EB4FULL, point_index);
}

std::string sweep_cell_key(std::size_t point_index, const std::string& point_label,
                           std::size_t instance_index) {
  return "p" + std::to_string(point_index) + ":" + point_label + ":i" +
         std::to_string(instance_index);
}

namespace {

/// FNV-1a over a byte string — the shard partition and the spec fingerprint
/// both need a hash that is bit-stable across platforms and standard-library
/// versions, which rules out std::hash.
std::uint64_t fnv1a64(const char* data, std::size_t size,
                      std::uint64_t seed = 1469598103934665603ULL) {
  std::uint64_t hash = seed;
  for (std::size_t i = 0; i < size; ++i) {
    hash ^= static_cast<unsigned char>(data[i]);
    hash *= 1099511628211ULL;
  }
  return hash;
}

std::uint64_t fnv1a64(const std::string& bytes,
                      std::uint64_t seed = 1469598103934665603ULL) {
  return fnv1a64(bytes.data(), bytes.size(), seed);
}

std::string hex64(std::uint64_t value) {
  static const char* digits = "0123456789abcdef";
  std::string out(16, '0');
  for (int i = 15; i >= 0; --i) {
    out[static_cast<std::size_t>(i)] = digits[value & 0xF];
    value >>= 4;
  }
  return out;
}

}  // namespace

std::size_t sweep_shard_of(const std::string& cell_key, std::size_t shard_count) {
  if (shard_count <= 1) return 0;
  return static_cast<std::size_t>(fnv1a64(cell_key) % shard_count);
}

ShardRef parse_shard_spec(const std::string& text) {
  const auto fail = [&text]() -> ShardRef {
    throw std::invalid_argument("--shard expects 'i/N' with 0 <= i < N, got '" +
                                text + "'");
  };
  const auto slash = text.find('/');
  if (slash == std::string::npos || slash == 0 || slash + 1 >= text.size()) {
    return fail();
  }
  ShardRef shard;
  const char* begin = text.data();
  auto result = std::from_chars(begin, begin + slash, shard.index);
  if (result.ec != std::errc() || result.ptr != begin + slash) return fail();
  result = std::from_chars(begin + slash + 1, begin + text.size(), shard.count);
  if (result.ec != std::errc() || result.ptr != begin + text.size()) return fail();
  if (shard.count == 0 || shard.index >= shard.count) return fail();
  return shard;
}

std::string sweep_fingerprint(const SweepSpec& spec) {
  // Canonical serialization of the row-byte-determining spec fields.  Fields
  // are length-delimited by '\x1f' separators (never produced by
  // format_double or registry names) so adjacent values cannot alias.
  std::string canon = "hydra-sweep-v1";
  const auto put = [&canon](const std::string& field) {
    canon += '\x1f';
    canon += field;
  };
  for (const auto& scheme : spec.schemes) put("s=" + scheme);
  put("seed=" + std::to_string(spec.base_seed));
  put("reps=" + std::to_string(spec.replications));
  put("attempts=" + std::to_string(spec.max_attempts));
  put("budget=" + std::to_string(spec.optimal_budget));
  // The resolved backend name, so "" and an explicit "scp/barrier" agree —
  // they run the same arithmetic — while any other backend disagrees loudly.
  // Resolved against the registry DEFAULT, never the thread-local scope: the
  // fingerprint must stay a pure function of the spec.
  put("gp-backend=" +
      (spec.gp_backend.empty() ? std::string(gp::kDefaultGpBackend) : spec.gp_backend));
  // Same resolution rule for the runtime controller policy the adaptive
  // metrics simulate under.
  put("controller-policy=" + (spec.controller_policy.empty()
                                  ? std::string(sim::kDefaultControllerPolicy)
                                  : spec.controller_policy));
  // Warm starts can move a GP row, so a run without them is a different
  // sweep.  Stamped only when off: every default-spec fingerprint, and every
  // checkpoint written under one, stays valid.
  if (!spec.scp_warm_start) put("scp-warm=off");
  // Name AND identity: two metric families sharing names but baked with
  // different parameters (trials, horizons, thresholds) yield different row
  // bytes, and only the identity string reveals that.
  for (const auto& metric : spec.metrics) {
    put("metric=" + metric.name + "#" + metric.identity);
  }
  for (const auto& point : spec.points) {
    put("point=" + point.label);
    if (point.instance.has_value()) {
      // The full task parameters, not just counts: editing one WCET between
      // shard runs must change the fingerprint, or the merge would silently
      // mix rows computed from different instances.
      put("preset-cores=" + std::to_string(point.instance->num_cores));
      for (const auto& task : point.instance->rt_tasks) {
        put("rt-task=" + task.name + "," + format_double(task.wcet) + "," +
            format_double(task.period) + "," + format_double(task.deadline));
      }
      for (const auto& task : point.instance->security_tasks) {
        put("sec-task=" + task.name + "," + format_double(task.wcet) + "," +
            format_double(task.period_des) + "," + format_double(task.period_max) +
            "," + format_double(task.weight));
      }
      continue;
    }
    if (!point.files.empty()) {
      // Path AND content: a workload file edited between shard runs yields
      // different rows for the same cell keys, which only the bytes reveal.
      // An unreadable file hashes as such — shards on a machine missing the
      // corpus then disagree loudly instead of merging garbage.
      for (const auto& file : point.files) {
        put("file=" + file);
        std::ifstream in(file, std::ios::binary);
        if (!in) {
          put("file-content=unreadable");
          continue;
        }
        std::uint64_t content_hash = 1469598103934665603ULL;
        char buffer[4096];
        while (in.read(buffer, sizeof(buffer)) || in.gcount() > 0) {
          content_hash =
              fnv1a64(buffer, static_cast<std::size_t>(in.gcount()), content_hash);
        }
        put("file-content=" + hex64(content_hash));
      }
      continue;
    }
    const auto& synth = point.synthetic;
    put("u=" + format_double(point.total_utilization));
    put("m=" + std::to_string(synth.num_cores));
    put("gen=" + std::to_string(static_cast<int>(synth.util_generator)));
    put("rt=" + std::to_string(synth.min_rt_per_core) + ".." +
        std::to_string(synth.max_rt_per_core));
    put("sec=" + std::to_string(synth.min_sec_per_core) + ".." +
        std::to_string(synth.max_sec_per_core));
    put("rtT=" + format_double(synth.rt_period_lo) + ".." +
        format_double(synth.rt_period_hi));
    put("secT=" + format_double(synth.sec_period_des_lo) + ".." +
        format_double(synth.sec_period_des_hi));
    put("tmaxf=" + format_double(synth.sec_period_max_factor));
    put("ratio=" + format_double(synth.sec_util_ratio));
    put("taskcap=" + format_double(synth.max_task_utilization));
  }
  return hex64(fnv1a64(canon));
}

std::string format_shard_header(const SweepShardHeader& header) {
  std::string out = "{\"hydra_sweep_shard\":{\"fingerprint\":\"" +
                    json_escape(header.fingerprint) +
                    "\",\"shard\":" + std::to_string(header.shard) +
                    ",\"shards\":" + std::to_string(header.shards) +
                    ",\"cells\":" + std::to_string(header.cells) + ",\"schemes\":[";
  bool first = true;
  for (const auto& scheme : header.schemes) {
    if (!first) out += ',';
    out += '"' + json_escape(scheme) + '"';
    first = false;
  }
  out += "]}}";
  return out;
}

namespace {

/// Mini-cursor for the strict shard-header grammar (exactly what
/// format_shard_header emits — we are the only producer, so any deviation
/// means "not a header").
struct HeaderCursor {
  const std::string& text;
  std::size_t pos = 0;

  bool literal(const char* word) {
    const std::size_t len = std::char_traits<char>::length(word);
    if (text.compare(pos, len, word) != 0) return false;
    pos += len;
    return true;
  }
  bool quoted(std::string& out) {
    if (pos >= text.size() || text[pos] != '"') return false;
    ++pos;
    out.clear();
    while (pos < text.size()) {
      const char c = text[pos++];
      if (c == '"') return true;
      // json_escape writes control bytes as \u00xx, which no header string
      // needs; a raw one could not survive a re-format.
      if (static_cast<unsigned char>(c) < 0x20) return false;
      if (c != '\\') {
        out += c;
        continue;
      }
      if (pos >= text.size()) return false;
      const char esc = text[pos++];
      if (esc == '"' || esc == '\\') out += esc;
      else return false;  // json_escape never hits other escapes for our names
    }
    return false;
  }
  bool uint(std::size_t& out) {
    const char* begin = text.data() + pos;
    const char* end = text.data() + text.size();
    const auto result = std::from_chars(begin, end, out);
    if (result.ec != std::errc()) return false;
    pos += static_cast<std::size_t>(result.ptr - begin);
    return true;
  }
};

}  // namespace

std::optional<SweepShardHeader> parse_shard_header(const std::string& line) {
  HeaderCursor cur{line};
  SweepShardHeader header;
  if (!cur.literal("{\"hydra_sweep_shard\":{\"fingerprint\":")) return std::nullopt;
  if (!cur.quoted(header.fingerprint)) return std::nullopt;
  if (!cur.literal(",\"shard\":") || !cur.uint(header.shard)) return std::nullopt;
  if (!cur.literal(",\"shards\":") || !cur.uint(header.shards)) return std::nullopt;
  if (!cur.literal(",\"cells\":") || !cur.uint(header.cells)) return std::nullopt;
  if (!cur.literal(",\"schemes\":[")) return std::nullopt;
  if (!cur.literal("]")) {
    do {
      std::string scheme;
      if (!cur.quoted(scheme)) return std::nullopt;
      header.schemes.push_back(std::move(scheme));
    } while (cur.literal(","));
    if (!cur.literal("]")) return std::nullopt;
  }
  if (!cur.literal("}}") || cur.pos != line.size()) return std::nullopt;
  if (header.shards == 0 || header.shard >= header.shards) return std::nullopt;
  return header;
}

std::optional<SweepShardHeader> read_shard_header(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return std::nullopt;
  std::string line;
  if (!std::getline(in, line)) return std::nullopt;
  return parse_shard_header(line);
}

std::map<std::string, std::vector<BatchRow>> load_sweep_checkpoint(
    const std::string& path) {
  std::map<std::string, std::vector<BatchRow>> cells;
  std::ifstream in(path);
  if (!in) return cells;  // cold start
  std::string line;
  while (std::getline(in, line)) {
    auto row = parse_jsonl_row(line);
    // Unparseable lines (typically the truncated tail of a killed run) just
    // leave their cell incomplete — it is re-evaluated, not trusted.
    if (!row.has_value() || row->cell.empty()) continue;
    cells[row->cell].push_back(std::move(*row));
  }
  return cells;
}

namespace {

using SchemeSet = std::vector<std::unique_ptr<core::Allocator>>;

/// One (point, instance) unit of the flattened grid — the granularity of
/// work stealing and of resume.
struct SweepUnit {
  std::size_t point = 0;
  BatchItem item;
  const BatchSpec* point_spec = nullptr;       // synthetic/file source
  const core::Instance* preloaded = nullptr;   // preset-instance source
  std::string cell;
  double target_utilization = 0.0;
};

/// Stamps the sweep context onto freshly evaluated (or re-validated cached)
/// rows, so every emission path produces identical bytes.
void stamp_rows(std::vector<BatchRow>& rows, const SweepUnit& unit,
                const std::string& point_label) {
  for (auto& row : rows) {
    row.cell = unit.cell;
    row.point_index = unit.point;
    row.point_label = point_label;
    row.target_utilization = unit.target_utilization;
    row.instance_index = unit.item.index;
    row.instance_label = unit.item.label;
    row.seed = unit.item.seed;
  }
}

/// A checkpointed cell is only spliced in when it provably matches what the
/// current spec would compute: same scheme list in order, same per-instance
/// seed and label, and the full metric set on every validated row.  Anything
/// else (edited spec, different seed, added metric) silently falls back to
/// re-evaluation — resume must never resurrect stale results.
bool cached_cell_matches(const std::vector<BatchRow>& rows, const SweepUnit& unit,
                         const SweepSpec& spec) {
  if (rows.size() != spec.schemes.size()) return false;
  for (std::size_t j = 0; j < rows.size(); ++j) {
    const auto& row = rows[j];
    if (row.scheme != spec.schemes[j]) return false;
    if (row.seed != unit.item.seed || row.instance_label != unit.item.label) return false;
    if (row.instance_index != unit.item.index) return false;
    if (row.status == "ok" && row.feasible && row.validated) {
      if (row.metrics.size() != spec.metrics.size()) return false;
      for (std::size_t k = 0; k < spec.metrics.size(); ++k) {
        if (row.metrics[k].first != spec.metrics[k].name) return false;
      }
    } else if (!row.metrics.empty()) {
      return false;
    }
  }
  return true;
}

struct JoinGuard {
  std::vector<std::thread>& workers;
  ~JoinGuard() {
    for (auto& worker : workers) {
      if (worker.joinable()) worker.join();
    }
  }
};

}  // namespace

Sweep::Sweep(SweepSpec spec) : spec_(std::move(spec)) {
  if (spec_.schemes.empty()) {
    throw std::invalid_argument("sweep needs at least one scheme");
  }
  for (const auto& scheme : spec_.schemes) {
    core::AllocatorRegistry::global().require(scheme);
  }
  if (!spec_.gp_backend.empty()) {
    gp::SolverRegistry::global().require(spec_.gp_backend);
  }
  if (!spec_.controller_policy.empty()) {
    sim::ControllerRegistry::global().require(spec_.controller_policy);
  }
  if (spec_.points.empty()) {
    throw std::invalid_argument("sweep needs at least one point");
  }
  if (spec_.replications == 0) {
    throw std::invalid_argument("sweep needs at least one replication per point");
  }
  if (spec_.shard_count == 0) {
    throw std::invalid_argument("sweep shard_count must be at least 1");
  }
  if (spec_.shard_index >= spec_.shard_count) {
    throw std::invalid_argument(
        "sweep shard_index " + std::to_string(spec_.shard_index) +
        " out of range for shard_count " + std::to_string(spec_.shard_count));
  }
  // Fix the default labels now: cell keys (and hence resume identity) must
  // not depend on when a caller happens to read them.
  for (auto& point : spec_.points) {
    if (!point.label.empty()) continue;
    if (point.instance.has_value()) {
      point.label = "m=" + std::to_string(point.instance->num_cores) + " case-study";
    } else if (!point.files.empty()) {
      point.label = "files";
    } else {
      point.label = "m=" + std::to_string(point.synthetic.num_cores) +
                    " u=" + format_double(point.total_utilization);
    }
  }
  // Read the checkpoint now so callers can reuse the same path for the
  // (truncating) output sink they open between construction and run().
  if (!spec_.resume_path.empty()) {
    // A shard header in the checkpoint must describe THIS run: same spec
    // fingerprint and the same shard position.  (A merged or unsharded
    // checkpoint carries no header and is welcome for any shard — the cell
    // splice below simply uses the subset this shard owns.)
    if (const auto header = read_shard_header(spec_.resume_path)) {
      const std::string fingerprint = sweep_fingerprint(spec_);
      if (header->fingerprint != fingerprint) {
        throw std::runtime_error(
            "resume checkpoint " + spec_.resume_path +
            " was written by a different sweep spec (fingerprint " +
            header->fingerprint + ", this spec is " + fingerprint + ")");
      }
      if (header->shard != spec_.shard_index || header->shards != spec_.shard_count) {
        throw std::runtime_error(
            "resume checkpoint " + spec_.resume_path + " belongs to shard " +
            std::to_string(header->shard) + "/" + std::to_string(header->shards) +
            ", but this run is shard " + std::to_string(spec_.shard_index) + "/" +
            std::to_string(spec_.shard_count));
      }
    }
    checkpoint_ = load_sweep_checkpoint(spec_.resume_path);
    // A checkpoint whose cells do not even belong to this spec's grid is a
    // misconfiguration (wrong file, edited grid): fail loudly instead of
    // silently recomputing everything.
    if (!checkpoint_.empty()) {
      const auto keys = all_cell_keys();
      const std::set<std::string> valid(keys.begin(), keys.end());
      for (const auto& [cell, rows] : checkpoint_) {
        (void)rows;
        if (valid.count(cell) == 0) {
          throw std::runtime_error(
              "resume checkpoint " + spec_.resume_path + " contains cell '" +
              cell + "', which is outside this sweep's grid — refusing to "
              "resume from a checkpoint of a different spec");
        }
      }
    }
  }
}

std::vector<std::string> Sweep::all_cell_keys() const {
  // Mirrors run()'s unit expansion: one unit per preset instance, per corpus
  // file, or per synthetic replication, indexed exactly like enumerate().
  std::vector<std::string> keys;
  for (std::size_t p = 0; p < spec_.points.size(); ++p) {
    const auto& point = spec_.points[p];
    const std::size_t count = point.instance.has_value() ? 1
                              : !point.files.empty()     ? point.files.size()
                                                         : spec_.replications;
    for (std::size_t i = 0; i < count; ++i) {
      keys.push_back(sweep_cell_key(p, point.label, i));
    }
  }
  return keys;
}

SweepShardHeader Sweep::shard_header() const {
  SweepShardHeader header;
  header.fingerprint = sweep_fingerprint(spec_);
  header.shard = spec_.shard_index;
  header.shards = spec_.shard_count;
  header.schemes = spec_.schemes;
  for (const auto& key : all_cell_keys()) {
    if (sweep_shard_of(key, spec_.shard_count) == spec_.shard_index) ++header.cells;
  }
  return header;
}

SweepSummary Sweep::run(const std::vector<ResultSink*>& sinks) const {
  const auto started = std::chrono::steady_clock::now();

  // Expand the grid into per-point BatchSpecs and the flat unit list.
  std::vector<BatchSpec> point_specs(spec_.points.size());
  std::vector<SweepUnit> units;
  for (std::size_t p = 0; p < spec_.points.size(); ++p) {
    const auto& point = spec_.points[p];
    auto& point_spec = point_specs[p];
    point_spec.synthetic = point.synthetic;
    point_spec.total_utilization = point.total_utilization;
    point_spec.base_seed = sweep_point_seed(spec_.base_seed, p);
    point_spec.max_attempts = spec_.max_attempts;
    if (point.instance.has_value()) {
      SweepUnit unit;
      unit.point = p;
      unit.item.index = 0;
      unit.item.label = "instance";
      unit.preloaded = &*point.instance;
      unit.cell = sweep_cell_key(p, point.label, 0);
      units.push_back(std::move(unit));
      continue;
    }
    if (!point.files.empty()) {
      point_spec.files = point.files;
    } else {
      point_spec.count = spec_.replications;
    }
    for (auto& item : enumerate(point_spec)) {
      SweepUnit unit;
      unit.point = p;
      unit.cell = sweep_cell_key(p, point.label, item.index);
      unit.target_utilization = point.files.empty() ? point.total_utilization : 0.0;
      unit.item = std::move(item);
      unit.point_spec = &point_specs[p];
      units.push_back(std::move(unit));
    }
  }

  // Sharded run: keep only the units the cell-key partition assigns to this
  // shard.  Dropping units here — after keys are fixed, before any queue or
  // checkpoint work — is what keeps the surviving cells byte-identical to
  // their single-process counterparts.
  if (spec_.shard_count > 1) {
    std::vector<SweepUnit> mine;
    mine.reserve(units.size() / spec_.shard_count + 1);
    for (auto& unit : units) {
      if (sweep_shard_of(unit.cell, spec_.shard_count) == spec_.shard_index) {
        mine.push_back(std::move(unit));
      }
    }
    units = std::move(mine);
  }

  SweepSummary summary;
  summary.points = spec_.points.size();
  summary.cells = units.size();

  // Splice in checkpointed cells before any worker starts: resumed units are
  // pre-completed slots in the reorder buffer, not queue entries.
  std::vector<std::vector<BatchRow>> results(units.size());
  std::vector<char> done(units.size(), 0);
  for (std::size_t i = 0; i < units.size() && !checkpoint_.empty(); ++i) {
    const auto found = checkpoint_.find(units[i].cell);
    if (found == checkpoint_.end()) continue;
    if (!cached_cell_matches(found->second, units[i], spec_)) continue;
    results[i] = found->second;
    stamp_rows(results[i], units[i], spec_.points[units[i].point].label);
    done[i] = 1;
    ++summary.resumed_cells;
  }

  std::vector<std::size_t> pending;
  pending.reserve(units.size());
  for (std::size_t i = 0; i < units.size(); ++i) {
    if (!done[i]) pending.push_back(i);
  }

  for (auto* sink : sinks) sink->begin();
  const auto emit = [&](std::vector<BatchRow> rows) {
    for (auto& row : rows) {
      if (row.status == "ok") {
        ++summary.evaluated;
        if (row.feasible && row.validated) ++summary.feasible;
      } else if (row.status == "skipped") {
        ++summary.skipped;
      } else {
        ++summary.errors;
      }
      for (auto* sink : sinks) sink->row(row);
      summary.rows.push_back(std::move(row));
    }
  };

  // Warm-start neighbor of one unit: the nearest preceding synthetic point
  // with the same core count, read at the same instance index.  A pure
  // function of the spec — preset/file points neither seed nor get seeded.
  const auto warm_neighbor =
      [this, &point_specs](
          const SweepUnit& unit) -> std::optional<std::pair<const BatchSpec*, BatchItem>> {
    if (!spec_.scp_warm_start) return std::nullopt;
    const auto& point = spec_.points[unit.point];
    if (point.instance.has_value() || !point.files.empty()) return std::nullopt;
    for (std::size_t q = unit.point; q-- > 0;) {
      const auto& other = spec_.points[q];
      if (other.instance.has_value() || !other.files.empty()) continue;
      if (other.synthetic.num_cores != point.synthetic.num_cores) continue;
      BatchItem item;
      item.index = unit.item.index;
      item.seed = instance_seed(point_specs[q].base_seed, item.index);
      item.label = "seed=" + std::to_string(item.seed);
      return std::make_pair(&point_specs[q], std::move(item));
    }
    return std::nullopt;
  };

  const auto evaluate_unit = [this, &warm_neighbor](const SweepUnit& unit,
                                                    const SchemeSet& schemes) {
    static const BatchSpec kEmptySpec;
    // Pin every GP solve of this unit to the spec's backend ("" pins the
    // registry default).  Installed unconditionally so a stray outer scope
    // on a worker thread can never leak into row bytes.
    const gp::GpBackendScope backend_scope(spec_.gp_backend);
    // Likewise for the runtime controller policy the unit's adaptive metrics
    // resolve ("" pins the registry default).
    const sim::ControllerScope controller_scope(spec_.controller_policy);
    // Install the warm-start scope for the whole unit.  The neighbor's
    // canonical solve is paid lazily on the FIRST signomial solve of the
    // unit (memoized process-wide after that), so cells whose schemes never
    // reach the SCP path never pay for it.
    std::optional<core::ScpWarmStartScope> scope;
    if (const auto neighbor = warm_neighbor(unit)) {
      auto cache = std::make_shared<std::optional<std::vector<std::vector<double>>>>();
      core::ScpWarmStartHooks hooks;
      hooks.source = [cache, neighbor](std::size_t) {
        if (!cache->has_value()) {
          cache->emplace();
          if (auto warm = sweep_warm_periods(*neighbor->first, neighbor->second)) {
            (*cache)->push_back(std::move(*warm));
          }
        }
        return **cache;
      };
      scope.emplace(std::move(hooks));
    }
    auto rows = evaluate_batch_item(unit.point_spec ? *unit.point_spec : kEmptySpec,
                                    unit.item, unit.preloaded, schemes,
                                    spec_.optimal_budget, spec_.metrics);
    stamp_rows(rows, unit, spec_.points[unit.point].label);
    return rows;
  };

  std::size_t jobs = spec_.jobs;
  if (jobs == 0) jobs = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  jobs = std::min(jobs, std::max<std::size_t>(1, pending.size()));

  if (jobs <= 1) {
    const auto schemes = core::AllocatorRegistry::global().make_all(spec_.schemes);
    for (std::size_t i = 0; i < units.size(); ++i) {
      if (!done[i]) results[i] = evaluate_unit(units[i], schemes);
      emit(std::move(results[i]));
    }
  } else {
    // One queue across every point: `pending` is the work-stealing job list,
    // `results`/`done` the reorder buffer the coordinator drains in grid
    // order — no barrier between utilization points anywhere.
    std::atomic<std::size_t> next{0};
    std::mutex mutex;
    std::condition_variable ready;

    std::vector<std::thread> workers;
    workers.reserve(jobs);
    JoinGuard join_guard{workers};
    for (std::size_t w = 0; w < jobs; ++w) {
      workers.emplace_back([&] {
        const auto schemes = core::AllocatorRegistry::global().make_all(spec_.schemes);
        for (std::size_t q = next.fetch_add(1); q < pending.size();
             q = next.fetch_add(1)) {
          const std::size_t i = pending[q];
          auto rows = evaluate_unit(units[i], schemes);
          {
            std::lock_guard<std::mutex> lock(mutex);
            results[i] = std::move(rows);
            done[i] = 1;
          }
          ready.notify_one();
        }
      });
    }

    for (std::size_t i = 0; i < units.size(); ++i) {
      std::unique_lock<std::mutex> lock(mutex);
      ready.wait(lock, [&] { return done[i] != 0; });
      auto rows = std::move(results[i]);
      lock.unlock();
      emit(std::move(rows));
    }
  }

  for (auto* sink : sinks) sink->end();
  summary.wall_ms = std::chrono::duration<double, std::milli>(
                        std::chrono::steady_clock::now() - started)
                        .count();
  return summary;
}

}  // namespace hydra::exp
