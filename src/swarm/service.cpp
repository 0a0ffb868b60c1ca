#include "swarm/service.h"

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <stdexcept>
#include <utility>

#include "core/mode_table.h"
#include "core/registry.h"
#include "exp/sinks.h"
#include "exp/sweep.h"
#include "io/taskset_io.h"
#include "swarm/proto.h"

namespace hydra::swarm {

namespace {

std::string error_response(const std::string& message) {
  return "{\"ok\":false,\"error\":\"" + exp::json_escape(message) + "\"}";
}

/// One allocate request after validation, before evaluation.
struct PendingRequest {
  std::string key;                  ///< spec fingerprint (the cache key)
  std::vector<std::string> schemes;
  core::Instance instance;
  std::string instance_text;        ///< io::to_text canonical form
  std::vector<std::size_t> slots;   ///< batch lines awaiting this response
};

/// The canonical single-request spec whose exp::sweep_fingerprint is the
/// cache key.  Every field that can change the response is in here (schemes,
/// full task parameters via the preset instance, optimal_budget); every
/// execution knob that cannot (jobs, sharding, resume) is excluded by
/// sweep_fingerprint itself.
exp::SweepSpec canonical_spec(const std::vector<std::string>& schemes,
                              const core::Instance& instance,
                              std::size_t optimal_budget) {
  exp::SweepSpec spec;
  spec.schemes = schemes;
  exp::SweepPoint point;
  point.label = "request";
  point.instance = instance;
  spec.points.push_back(std::move(point));
  spec.replications = 1;
  spec.base_seed = 1;
  spec.optimal_budget = optimal_budget;
  return spec;
}

}  // namespace

AllocationService::AllocationService(ServiceOptions options)
    : options_(std::move(options)) {
  if (options_.default_schemes.empty()) {
    throw std::invalid_argument("service needs at least one default scheme");
  }
  if (options_.journal_compact_factor < 2) {
    throw std::invalid_argument("journal_compact_factor must be >= 2");
  }
  // Validate the defaults now, not on the first request.
  for (const auto& scheme : options_.default_schemes) {
    core::AllocatorRegistry::global().require(scheme);
  }

  if (!options_.cache_journal_path.empty()) {
    journal_replay();
    // Startup compaction: drop every dead append accumulated across prior
    // daemon lifetimes, and leave the journal exactly mirroring the live
    // cache.  Also (re)creates the file and opens the append stream.
    journal_compact();
  }
}

/// One journal record.  The response is itself a JSON line, so it rides as
/// an escaped string through the same flat-JSON grammar the request
/// protocol uses — parse_flat_json replays it exactly.
static std::string journal_record(const std::string& key,
                                  const std::string& response) {
  return "{\"fingerprint\":\"" + exp::json_escape(key) + "\",\"response\":\"" +
         exp::json_escape(response) + "\"}";
}

void AllocationService::journal_replay() {
  std::ifstream in(options_.cache_journal_path, std::ios::binary);
  if (!in) return;  // first boot: no journal yet
  replaying_ = true;
  std::string line;
  while (std::getline(in, line)) {
    if (!in.eof() && in.fail()) break;
    // A torn final record (crash mid-append) has no terminating newline;
    // getline still returns it, so require a parse to accept anything.  A
    // record that fails to parse ends the replay — everything after a
    // corrupt region is suspect, and the startup compaction rewrites the
    // file from what WAS restored.
    const auto fields = parse_flat_json(line);
    if (!fields.has_value()) break;
    const auto key_it = fields->find("fingerprint");
    const auto response_it = fields->find("response");
    if (key_it == fields->end() || !key_it->second.string_value.has_value() ||
        response_it == fields->end() ||
        !response_it->second.string_value.has_value()) {
      break;
    }
    cache_insert(*key_it->second.string_value, *response_it->second.string_value);
    ++stats_.journal_replayed;
  }
  replaying_ = false;
}

void AllocationService::journal_append(const std::string& key,
                                       const std::string& response) {
  if (!journal_.is_open()) return;
  const std::string record = journal_record(key, response) + "\n";
  journal_ << record;
  journal_.flush();  // a served response must be durable before the next poll
  journal_bytes_ += record.size();
  if (journal_bytes_ >
      options_.journal_compact_factor * std::max<std::size_t>(stats_.cache_bytes, 1)) {
    journal_compact();
  }
}

void AllocationService::journal_compact() {
  const std::string& path = options_.cache_journal_path;
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) throw std::runtime_error("cannot open journal tmp: " + tmp);
    // Least-recent first, so a sequential replay reconstructs the same LRU
    // recency order this daemon is holding now.
    std::size_t bytes = 0;
    for (auto it = lru_.rbegin(); it != lru_.rend(); ++it) {
      const auto entry = cache_.find(*it);
      const std::string record = journal_record(*it, entry->second.response) + "\n";
      out << record;
      bytes += record.size();
    }
    out.flush();
    if (!out) throw std::runtime_error("cannot write journal tmp: " + tmp);
    journal_bytes_ = bytes;
  }
  if (journal_.is_open()) journal_.close();
  std::filesystem::rename(tmp, path);
  journal_.open(path, std::ios::binary | std::ios::app);
  if (!journal_) throw std::runtime_error("cannot reopen journal: " + path);
  ++stats_.journal_compactions;
}

std::string AllocationService::cache_lookup(const std::string& key) {
  const auto it = cache_.find(key);
  if (it == cache_.end()) return "";
  lru_.splice(lru_.begin(), lru_, it->second.lru_position);
  return it->second.response;
}

void AllocationService::cache_insert(const std::string& key,
                                     const std::string& response) {
  const std::size_t entry_bytes = key.size() + response.size();
  if (entry_bytes > options_.cache_budget_bytes) {
    ++stats_.uncacheable;
    return;
  }
  // A key can legitimately re-insert (journal replay after an eviction wrote
  // the same fingerprint twice); the old entry's bytes and LRU node must go
  // first, or cache_bytes drifts upward and the orphaned stale node later
  // "evicts" the live entry.
  const auto existing = cache_.find(key);
  if (existing != cache_.end()) {
    stats_.cache_bytes -= key.size() + existing->second.response.size();
    lru_.erase(existing->second.lru_position);
    cache_.erase(existing);
  }
  lru_.push_front(key);
  cache_[key] = CacheEntry{response, lru_.begin()};
  stats_.cache_bytes += entry_bytes;
  while (stats_.cache_bytes > options_.cache_budget_bytes && !lru_.empty()) {
    const std::string& victim = lru_.back();
    const auto vit = cache_.find(victim);
    stats_.cache_bytes -= victim.size() + vit->second.response.size();
    cache_.erase(vit);
    lru_.pop_back();
    ++stats_.evictions;
  }
  stats_.cache_entries = cache_.size();
  // Journal only entries that survived their own insertion (a tiny budget
  // can evict the newcomer immediately) — and never during replay, which
  // would double every record it reads.
  if (!replaying_ && cache_.count(key) != 0) journal_append(key, response);
}

std::string AllocationService::stats_response() const {
  std::string out = "{\"ok\":true,\"op\":\"stats\"";
  const auto put = [&out](const char* name, std::uint64_t value) {
    out += ",\"";
    out += name;
    out += "\":" + std::to_string(value);
  };
  put("requests", stats_.requests);
  put("allocate_requests", stats_.allocate_requests);
  put("hits", stats_.hits);
  put("misses", stats_.misses);
  put("coalesced", stats_.coalesced);
  put("errors", stats_.errors);
  put("evictions", stats_.evictions);
  put("uncacheable", stats_.uncacheable);
  put("engine_batches", stats_.engine_batches);
  put("engine_rows", stats_.engine_rows);
  put("journal_replayed", stats_.journal_replayed);
  put("journal_compactions", stats_.journal_compactions);
  put("cache_entries", stats_.cache_entries);
  put("cache_bytes", stats_.cache_bytes);
  put("cache_budget_bytes", options_.cache_budget_bytes);
  out += "}";
  return out;
}

std::vector<std::string> AllocationService::handle_batch(
    const std::vector<std::string>& lines) {
  std::vector<std::string> responses(lines.size());
  std::vector<std::size_t> stats_slots;  // answered AFTER the batch computes
  std::vector<PendingRequest> pending;
  std::map<std::string, std::size_t> pending_by_key;

  for (std::size_t slot = 0; slot < lines.size(); ++slot) {
    ++stats_.requests;
    const auto fields = parse_flat_json(lines[slot]);
    if (!fields.has_value()) {
      ++stats_.errors;
      responses[slot] = error_response("malformed request line (not a flat JSON object)");
      continue;
    }
    const auto op_it = fields->find("op");
    if (op_it == fields->end() || !op_it->second.string_value.has_value()) {
      ++stats_.errors;
      responses[slot] = error_response("request needs a string \"op\" field");
      continue;
    }
    const std::string& op = *op_it->second.string_value;

    if (op == "ping") {
      responses[slot] = "{\"ok\":true,\"op\":\"ping\"}";
      continue;
    }
    if (op == "shutdown") {
      shutdown_ = true;
      responses[slot] = "{\"ok\":true,\"op\":\"shutdown\"}";
      continue;
    }
    if (op == "stats") {
      stats_slots.push_back(slot);
      continue;
    }
    if (op != "allocate") {
      ++stats_.errors;
      responses[slot] = error_response("unknown op \"" + op + "\"");
      continue;
    }

    ++stats_.allocate_requests;
    try {
      std::vector<std::string> schemes = options_.default_schemes;
      const auto schemes_it = fields->find("schemes");
      if (schemes_it != fields->end()) {
        if (!schemes_it->second.string_array.has_value() ||
            schemes_it->second.string_array->empty()) {
          throw std::invalid_argument("\"schemes\" must be a non-empty string array");
        }
        schemes = *schemes_it->second.string_array;
      }

      core::Instance instance;
      const auto text_it = fields->find("taskset_text");
      const auto file_it = fields->find("taskset_file");
      if (text_it != fields->end() && text_it->second.string_value.has_value()) {
        instance = io::instance_from_text(*text_it->second.string_value);
      } else if (file_it != fields->end() && file_it->second.string_value.has_value()) {
        instance = io::load_instance(*file_it->second.string_value);
      } else {
        throw std::invalid_argument(
            "allocate needs \"taskset_text\" or \"taskset_file\"");
      }

      // Constructing the Sweep validates the schemes against the registry
      // and pins the labels the fingerprint expects.
      const exp::Sweep key_sweep(
          canonical_spec(schemes, instance, options_.optimal_budget));
      const std::string key = key_sweep.fingerprint();

      const std::string cached = cache_lookup(key);
      if (!cached.empty()) {
        ++stats_.hits;
        responses[slot] = cached;
        continue;
      }
      const auto dup = pending_by_key.find(key);
      if (dup != pending_by_key.end()) {
        ++stats_.coalesced;
        pending[dup->second].slots.push_back(slot);
        continue;
      }
      ++stats_.misses;
      PendingRequest request;
      request.key = key;
      request.schemes = std::move(schemes);
      request.instance_text = io::to_text(instance);
      request.instance = std::move(instance);
      request.slots.push_back(slot);
      pending_by_key.emplace(request.key, pending.size());
      pending.push_back(std::move(request));
    } catch (const std::exception& error) {
      ++stats_.errors;
      responses[slot] = error_response(error.what());
    }
  }

  // Group unique uncached requests by scheme list and run ONE engine pass
  // (a multi-point preset-instance sweep) per group.
  std::map<std::string, std::vector<std::size_t>> groups;
  for (std::size_t i = 0; i < pending.size(); ++i) {
    std::string group_key;
    for (const auto& scheme : pending[i].schemes) group_key += scheme + "\x1f";
    groups[group_key].push_back(i);
  }

  for (const auto& [group_key, members] : groups) {
    (void)group_key;
    // A group that throws mid-evaluation must not take the daemon (and every
    // other group's responses) down with it: each member slot gets an error
    // response instead.
    try {
      // Captured DesignPoints keyed by (canonical instance text, scheme): the
      // metric hook sees the instance but not the point index, and identical
      // instances yield identical design points, so content keying is exact.
      std::mutex capture_mutex;
      std::map<std::pair<std::string, std::string>, core::DesignPoint> captured;

      exp::SweepSpec spec;
      spec.schemes = pending[members.front()].schemes;
      for (const std::size_t member : members) {
        exp::SweepPoint point;
        point.label = "req" + std::to_string(member);
        point.instance = pending[member].instance;
        spec.points.push_back(std::move(point));
      }
      spec.replications = 1;
      spec.base_seed = 1;
      spec.jobs = options_.jobs;
      spec.optimal_budget = options_.optimal_budget;
      spec.metrics.push_back(
          {"swarm_capture",
           [&capture_mutex, &captured](const core::Instance& instance,
                                       const core::DesignPoint& point) {
             std::lock_guard<std::mutex> lock(capture_mutex);
             captured[{io::to_text(instance), point.scheme}] = point;
             return point.normalized_tightness;
           },
           ""});

      const exp::Sweep sweep(std::move(spec));
      const auto summary = sweep.run();
      ++stats_.engine_batches;
      stats_.engine_rows += summary.rows.size();

      for (std::size_t position = 0; position < members.size(); ++position) {
        const PendingRequest& request = pending[members[position]];
        std::string response = "{\"ok\":true,\"op\":\"allocate\",\"fingerprint\":\"" +
                               exp::json_escape(request.key) + "\",\"results\":[";
        bool first = true;
        for (const auto& row : summary.rows) {
          if (row.point_index != position) continue;
          if (!first) response += ",";
          first = false;
          response += "{\"scheme\":\"" + exp::json_escape(row.scheme) + "\"";
          response += ",\"status\":\"" + exp::json_escape(row.status) + "\"";
          response += ",\"feasible\":" + std::string(row.feasible ? "true" : "false");
          response += ",\"validated\":" + std::string(row.validated ? "true" : "false");
          response += ",\"cumulative_tightness\":" + exp::json_number(row.cumulative_tightness);
          response += ",\"normalized_tightness\":" + exp::json_number(row.normalized_tightness);
          if (!row.note.empty()) {
            response += ",\"note\":\"" + exp::json_escape(row.note) + "\"";
          }
          const auto captured_it =
              captured.find({request.instance_text, row.scheme});
          if (captured_it != captured.end() && row.feasible) {
            const auto& allocation = captured_it->second.allocation;
            response += ",\"placements\":[";
            for (std::size_t s = 0; s < allocation.placements.size(); ++s) {
              const auto& placement = allocation.placements[s];
              if (s > 0) response += ",";
              response += "{\"task\":\"" +
                          exp::json_escape(request.instance.security_tasks[s].name) +
                          "\",\"core\":" + std::to_string(placement.core) +
                          ",\"period_ms\":" + exp::json_number(placement.period) +
                          ",\"tightness\":" + exp::json_number(placement.tightness) + "}";
            }
            response += "]";
            // The runtime mode table the Contego-style controller consumes:
            // minimum mode (Tmax fallback) + the adapted periods committed here.
            const auto modes =
                core::build_mode_table(request.instance, allocation);
            response += ",\"modes\":[";
            for (std::size_t s = 0; s < modes.modes.size(); ++s) {
              const auto& mode = modes.modes[s];
              if (s > 0) response += ",";
              response += "{\"task\":\"" +
                          exp::json_escape(request.instance.security_tasks[s].name) +
                          "\",\"core\":" + std::to_string(mode.core) +
                          ",\"min_period_ms\":" + exp::json_number(mode.min_period) +
                          ",\"adapted_period_ms\":" + exp::json_number(mode.adapted_period) +
                          "}";
            }
            response += "]";
          }
          response += "}";
        }
        response += "]}";

        cache_insert(request.key, response);
        for (const std::size_t slot : request.slots) responses[slot] = response;
      }
    } catch (const std::exception& error) {
      const std::string response = error_response(error.what());
      for (const std::size_t member : members) {
        for (const std::size_t slot : pending[member].slots) {
          ++stats_.errors;
          responses[slot] = response;
        }
      }
    }
  }

  // Stats are answered after the batch's engine work so a stats op riding a
  // batch observes that batch, not the state before it.
  for (const std::size_t slot : stats_slots) responses[slot] = stats_response();
  return responses;
}

std::string AllocationService::handle_line(const std::string& line) {
  return handle_batch({line}).front();
}

}  // namespace hydra::swarm
