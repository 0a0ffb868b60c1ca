// Structured event log of `hydra_swarm sweep`: every lifecycle decision the
// supervisor or the sweep runner makes (worker started, died, restarted,
// gave up; partial merged; swarm complete) becomes one line-delimited JSON
// record, so an orchestrated run can be audited — and
// its restart story asserted by tests and CI — without scraping free-form
// stderr.
//
// Events are operational telemetry, not result data: they carry wall-clock
// timestamps and are deliberately kept OUT of the row streams whose
// byte-identity the sweep layer guarantees.
#pragma once

#include <cstddef>
#include <iosfwd>
#include <mutex>
#include <string>
#include <vector>

namespace hydra::swarm {

struct Event {
  std::size_t seq = 0;   ///< monotone per-log sequence number
  double t = 0.0;        ///< seconds on the emitter's clock (supervisor time)
  std::string kind;      ///< e.g. "worker-started", "worker-gave-up"
  std::string subject;   ///< which worker or shard, "" for global
  std::string detail;    ///< human-readable specifics (attempt, exit status)
};

/// One JSON line: {"seq":0,"t":1.5,"kind":"...","subject":"...","detail":"..."}
std::string format_event(const Event& event);

/// Thread-safe append-only log.  Events are kept in memory (tests assert on
/// them) and, when a sink stream is attached, also written out line by line
/// as they happen (flushed per event — the log must survive a crash of the
/// process it describes).
class EventLog {
 public:
  /// `sink` may be nullptr (in-memory only); not owned, must outlive the log.
  explicit EventLog(std::ostream* sink = nullptr) : sink_(sink) {}

  void emit(double t, std::string kind, std::string subject = "",
            std::string detail = "");

  /// Copy of every event so far, in emission order.
  std::vector<Event> snapshot() const;

  /// Number of events with exactly this kind.
  std::size_t count(const std::string& kind) const;

 private:
  mutable std::mutex mutex_;
  std::ostream* sink_;
  std::vector<Event> events_;
};

}  // namespace hydra::swarm
