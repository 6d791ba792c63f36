#pragma once
// Per-flow flight recorder: a bounded, lock-cheap ring of structured events
// (retries, breaker trips, frame NACKs/spills, progress markers) attached to
// every flow run. When a run fails, falls back, or misses its deadline the
// ring is dumped as JSON — the black box a postmortem replays instead of a
// Chrome trace.
//
// Subjects are free-form strings: flow run ids for orchestrated work,
// "campaign" / "chaos" / "scrubber" for facility-level actors. Services never
// name a run: each telemetry::Tracer span owns its subject (inherited from
// the flow run span down to the service task opened under an attempt), and
// Tracer::event / Tracer::note append here through the span. record() stays
// public for the actor rings that have no owning run, and for the health
// monitor's watchdog notes.
//
// Built on util/log.hpp: every event carries a LogLevel, and events at
// dump_level or above mark the ring dump-worthy.
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "sim/time.hpp"
#include "util/json.hpp"
#include "util/log.hpp"

namespace pico::telemetry::health {

/// One structured entry in a flight ring.
struct FlightEvent {
  uint64_t seq = 0;  ///< per-ring monotonic sequence (survives eviction)
  sim::SimTime at;
  util::LogLevel level = util::LogLevel::Info;
  std::string component;  ///< producing layer: "flow", "stream", "transfer"...
  std::string name;       ///< e.g. "dispatch", "retry", "frame-nack", "spill"
  util::Json attrs;
};

/// Bounded ring of FlightEvents for one subject. Appends are O(1); when full
/// the oldest event is evicted (dropped_ keeps the honest total).
class FlightRecord {
 public:
  explicit FlightRecord(std::string subject, size_t capacity,
                        sim::SimTime opened)
      : subject_(std::move(subject)), capacity_(capacity), opened_(opened),
        last_event_(opened) {}

  void record(FlightEvent event);

  const std::string& subject() const { return subject_; }
  sim::SimTime opened() const { return opened_; }
  sim::SimTime last_event() const { return last_event_; }
  bool closed() const { return closed_; }
  void close(sim::SimTime at) { closed_ = true; last_event_ = at; }
  void reopen() { closed_ = false; }
  /// A Warn+ event or an explicit request marked this ring dump-worthy.
  bool dump_requested() const { return dump_requested_; }
  void request_dump(const std::string& reason) {
    dump_requested_ = true;
    if (dump_reason_.empty()) dump_reason_ = reason;
  }
  const std::string& dump_reason() const { return dump_reason_; }
  /// The dump already reached the recorder's sink (delivered at most once).
  bool dumped() const { return dumped_; }
  void mark_dumped() { dumped_ = true; }

  uint64_t total() const { return total_; }
  uint64_t dropped() const { return total_ - events_.size(); }
  const std::deque<FlightEvent>& events() const { return events_; }

  /// Full flight record as JSON (oldest surviving event first).
  util::Json to_json() const;

 private:
  std::string subject_;
  size_t capacity_;
  sim::SimTime opened_;
  sim::SimTime last_event_;
  bool closed_ = false;
  bool dump_requested_ = false;
  bool dumped_ = false;
  std::string dump_reason_;
  uint64_t total_ = 0;
  std::deque<FlightEvent> events_;
};

struct FlightRecorderConfig {
  bool enabled = true;
  size_t ring_capacity = 256;
  /// Events at or above this level mark the ring dump-worthy on their own.
  util::LogLevel dump_level = util::LogLevel::Error;
};

/// Registry of flight rings. One mutex guards the maps; ring appends are
/// O(1) under it (the sim engine is the only steady-state writer, so the lock
/// is uncontended in practice). Rings never go away, so the open ones are
/// also kept in their own subject-sorted map: the watchdog scan costs
/// O(open rings), not O(rings ever opened).
class FlightRecorder {
 public:
  FlightRecorder() = default;
  explicit FlightRecorder(FlightRecorderConfig config)
      : config_(config) {}

  void configure(const FlightRecorderConfig& config) { config_ = config; }
  bool enabled() const { return config_.enabled; }

  /// Open a ring for `subject` (find-or-create; reopening a closed ring
  /// keeps its history and clears the closed flag).
  void open(const std::string& subject, sim::SimTime at);

  /// Append an event. Auto-opens the ring. No-op when disabled or `subject`
  /// is empty.
  void record(const std::string& subject, util::LogLevel level,
              std::string component, std::string name, sim::SimTime at,
              util::Json attrs = {});

  /// Mark a ring dump-worthy (deadline miss, watchdog flag, explicit ask).
  void request_dump(const std::string& subject, const std::string& reason,
                    sim::SimTime at);

  /// Settle a ring: no more activity expected. If it was marked dump-worthy
  /// and a dump sink is installed, the sink fires here with the full JSON.
  void close(const std::string& subject, sim::SimTime at);

  /// Dump sink: fired at close() for dump-worthy rings (and by flush_dumps
  /// for rings still open). Campaign drivers install a file writer.
  using DumpSink =
      std::function<void(const std::string& subject, const util::Json& dump)>;
  void set_dump_sink(DumpSink sink);

  /// On-demand dump of one ring (portal / debugging). Null when absent.
  util::Json dump(const std::string& subject) const;
  /// All dump-worthy rings (closed or not) as {subject -> record JSON};
  /// fires the sink for any that have not reached it yet.
  std::vector<std::pair<std::string, util::Json>> flush_dumps();

  /// Subjects with rings still open (watchdog scan surface), with their
  /// opened / last-activity timestamps, sorted by subject.
  struct OpenFlow {
    std::string subject;
    sim::SimTime opened;
    sim::SimTime last_event;
  };
  std::vector<OpenFlow> open_flows() const;

  size_t ring_count() const;
  uint64_t events_recorded() const;
  uint64_t dump_worthy_count() const;

 private:
  FlightRecord& ring_for(const std::string& subject, sim::SimTime at);

  mutable std::mutex mu_;
  FlightRecorderConfig config_;
  std::map<std::string, std::unique_ptr<FlightRecord>> rings_;
  /// The rings not closed: inserted by ring_for, erased by close.
  std::map<std::string, FlightRecord*> open_;
  DumpSink sink_;
  uint64_t events_recorded_ = 0;
};

}  // namespace pico::telemetry::health
