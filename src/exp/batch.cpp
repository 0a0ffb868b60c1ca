#include "exp/batch.h"

#include <algorithm>
#include <exception>
#include <filesystem>
#include <stdexcept>

#include "io/taskset_io.h"

namespace hydra::exp {

namespace {

namespace fs = std::filesystem;

bool has_workload_extension(const fs::path& path) {
  const auto ext = path.extension().string();
  return ext == ".txt" || ext == ".taskset" || ext == ".workload";
}

/// Shell-style match supporting '*' (any run) and '?' (any one char), the two
/// metacharacters corpus specs need; backtracking over the single trailing
/// star position keeps it linear in practice.
bool glob_match(const std::string& pattern, const std::string& text) {
  std::size_t p = 0, t = 0;
  std::size_t star = std::string::npos, star_t = 0;
  while (t < text.size()) {
    if (p < pattern.size() && (pattern[p] == '?' || pattern[p] == text[t])) {
      ++p;
      ++t;
    } else if (p < pattern.size() && pattern[p] == '*') {
      star = p++;
      star_t = t;
    } else if (star != std::string::npos) {
      p = star + 1;
      t = ++star_t;
    } else {
      return false;
    }
  }
  while (p < pattern.size() && pattern[p] == '*') ++p;
  return p == pattern.size();
}

using SchemeSet = std::vector<std::unique_ptr<core::Allocator>>;

/// Evaluates every scheme on one batch item.  Pure function of the item (and
/// the spec), which is what makes the sweep's output independent of worker
/// count and scheduling order.
std::vector<BatchRow> evaluate_item(const BatchSpec& spec, const BatchItem& item,
                                    const core::Instance* preloaded,
                                    const SchemeSet& schemes,
                                    std::size_t optimal_budget,
                                    const std::vector<RowMetric>& metrics) {
  std::vector<BatchRow> rows;
  rows.reserve(schemes.size());

  BatchRow base;
  base.instance_index = item.index;
  base.instance_label = item.label;
  base.seed = item.seed;

  MaterializedItem materialized;
  const core::Instance* instance = preloaded;
  if (instance == nullptr) {
    materialized = materialize(spec, item);
    if (materialized.instance.has_value()) instance = &*materialized.instance;
    base.rt_utilization = materialized.rt_utilization;
    base.sec_utilization = materialized.sec_utilization;
  }

  if (instance == nullptr) {
    for (const auto& scheme : schemes) {
      BatchRow row = base;
      row.scheme = scheme->name();
      row.status = "no-instance";
      row.note = materialized.error;
      rows.push_back(std::move(row));
    }
    return rows;
  }

  // Cheap schemes report search_space 1, so a budget of 0 (or 1) still runs
  // them while skipping every exhaustive scheme.
  const double budget = static_cast<double>(std::max<std::size_t>(optimal_budget, 1));
  for (const auto& scheme : schemes) {
    BatchRow row = base;
    row.scheme = scheme->name();
    if (scheme->search_space(*instance) > budget) {
      row.status = "skipped";
      row.note = "search space exceeds the engine budget of " +
                 std::to_string(optimal_budget);
      rows.push_back(std::move(row));
      continue;
    }
    try {
      const auto point = core::evaluate_scheme(*scheme, *instance);
      row.feasible = point.allocation.feasible;
      row.validated = point.validated;
      row.cumulative_tightness = point.cumulative_tightness;
      row.normalized_tightness = point.normalized_tightness;
      if (!point.allocation.feasible) {
        row.note = point.allocation.failure_reason;
      } else if (!point.validated) {
        row.note = point.validation_problem;
      } else {
        // Metric hooks only see results that passed independent validation —
        // a metric over an invalid allocation would measure a fiction.
        for (const auto& metric : metrics) {
          row.metrics.emplace_back(metric.name, metric.compute(*instance, point));
        }
      }
    } catch (const std::exception& e) {
      row.status = "error";
      row.note = e.what();
      row.metrics.clear();  // no partial metric lists on error rows
    }
    rows.push_back(std::move(row));
  }
  return rows;
}

}  // namespace

std::vector<std::string> expand_workload_files(const std::string& spec) {
  std::vector<std::string> files;
  const fs::path path(spec);

  if (fs::is_directory(path)) {
    for (const auto& entry : fs::recursive_directory_iterator(path)) {
      if (entry.is_regular_file() && has_workload_extension(entry.path())) {
        files.push_back(entry.path().string());
      }
    }
    if (files.empty()) {
      throw std::runtime_error("no workload files (*.txt, *.taskset, *.workload) under " +
                               spec);
    }
  } else {
    const std::string name = path.filename().string();
    if (name.find('*') == std::string::npos && name.find('?') == std::string::npos) {
      return {spec};  // plain path; materialize reports load failures per item
    }
    const fs::path dir = path.parent_path().empty() ? fs::path(".") : path.parent_path();
    if (fs::is_directory(dir)) {
      for (const auto& entry : fs::directory_iterator(dir)) {
        if (entry.is_regular_file() && glob_match(name, entry.path().filename().string())) {
          files.push_back(entry.path().string());
        }
      }
    }
    if (files.empty()) throw std::runtime_error("no files match " + spec);
  }
  std::sort(files.begin(), files.end());
  return files;
}

std::uint64_t instance_seed(std::uint64_t base_seed, std::size_t index) {
  // splitmix64 over the pair: decorrelates adjacent indices so instance k is
  // a fixed function of (base_seed, k) alone — the property the determinism
  // guarantee (jobs=1 ≡ jobs=N) rests on.
  std::uint64_t x = base_seed + 0x9E3779B97F4A7C15ULL * (static_cast<std::uint64_t>(index) + 1);
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

std::vector<BatchItem> enumerate(const BatchSpec& spec) {
  std::vector<BatchItem> items;
  if (!spec.files.empty()) {
    items.reserve(spec.files.size());
    for (std::size_t i = 0; i < spec.files.size(); ++i) {
      BatchItem item;
      item.index = i;
      item.label = spec.files[i];
      item.file = spec.files[i];
      items.push_back(std::move(item));
    }
    return items;
  }
  items.reserve(spec.count);
  for (std::size_t i = 0; i < spec.count; ++i) {
    BatchItem item;
    item.index = i;
    item.seed = instance_seed(spec.base_seed, i);
    item.label = "seed=" + std::to_string(item.seed);
    items.push_back(std::move(item));
  }
  return items;
}

MaterializedItem materialize(const BatchSpec& spec, const BatchItem& item) {
  MaterializedItem out;
  if (!item.file.empty()) {
    try {
      out.instance = io::load_instance(item.file);
      for (const auto& t : out.instance->rt_tasks) {
        out.rt_utilization += t.wcet / t.period;
      }
      for (const auto& t : out.instance->security_tasks) {
        out.sec_utilization += t.wcet / t.period_des;
      }
    } catch (const std::exception& e) {
      out.error = e.what();
    }
    return out;
  }
  util::Xoshiro256 rng(item.seed);
  const auto drawn = gen::generate_filtered_instance(spec.synthetic, spec.total_utilization,
                                                     rng, spec.max_attempts);
  if (!drawn.has_value()) {
    out.error = "no Eq.(1)-satisfying task set at utilization " +
                std::to_string(spec.total_utilization);
    return out;
  }
  out.instance = drawn->instance;
  out.rt_utilization = drawn->rt_utilization;
  out.sec_utilization = drawn->sec_utilization;
  return out;
}

// evaluate_item with a last-resort catch: a throw outside the per-scheme try
// (materialization preconditions, allocation failure) becomes one "error"
// row per scheme instead of escaping — essential on worker threads, where an
// escaped exception would terminate the process.
std::vector<BatchRow> evaluate_batch_item(const BatchSpec& spec, const BatchItem& item,
                                          const core::Instance* preloaded,
                                          const SchemeSet& schemes,
                                          std::size_t optimal_budget,
                                          const std::vector<RowMetric>& metrics) {
  try {
    return evaluate_item(spec, item, preloaded, schemes, optimal_budget, metrics);
  } catch (const std::exception& e) {
    std::vector<BatchRow> rows;
    rows.reserve(schemes.size());
    for (const auto& scheme : schemes) {
      BatchRow row;
      row.instance_index = item.index;
      row.instance_label = item.label;
      row.seed = item.seed;
      row.scheme = scheme->name();
      row.status = "error";
      row.note = e.what();
      rows.push_back(std::move(row));
    }
    return rows;
  }
}

}  // namespace hydra::exp
