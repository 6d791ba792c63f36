#include "telemetry/health/flight_recorder.hpp"

#include <algorithm>
#include <utility>

namespace pico::telemetry::health {

namespace {

util::Logger& flight_logger() {
  static util::Logger logger("flight");
  return logger;
}

}  // namespace

void FlightRecord::record(FlightEvent event) {
  event.seq = total_++;
  // Health-plane annotations (watchdog flags) are observations about the
  // flow, not progress by it — they must not reset the stall-quiet timer.
  // An event may carry a stamp earlier than one already recorded (a breaker
  // half-open lands at its cooldown expiry, observed later), so the timer
  // never runs backwards.
  if (event.component != "health") {
    last_event_ = std::max(last_event_, event.at);
  }
  events_.push_back(std::move(event));
  while (events_.size() > capacity_) events_.pop_front();
}

util::Json FlightRecord::to_json() const {
  util::Json doc = util::Json::object();
  doc["subject"] = subject_;
  doc["opened_s"] = opened_.seconds();
  doc["last_event_s"] = last_event_.seconds();
  doc["closed"] = closed_;
  doc["dump_reason"] = dump_reason_;
  doc["events_total"] = total_;
  doc["events_dropped"] = dropped();
  util::Json events = util::Json::array();
  for (const auto& e : events_) {
    util::Json row = util::Json::object();
    row["seq"] = e.seq;
    row["t_s"] = e.at.seconds();
    row["level"] = std::string(util::log_level_name(e.level));
    row["component"] = e.component;
    row["name"] = e.name;
    if (!e.attrs.is_null()) row["attrs"] = e.attrs;
    events.push_back(std::move(row));
  }
  doc["events"] = std::move(events);
  return doc;
}

void FlightRecorder::open(const std::string& subject, sim::SimTime at) {
  if (!config_.enabled || subject.empty()) return;
  std::lock_guard<std::mutex> lock(mu_);
  ring_for(subject, at);
}

void FlightRecorder::record(const std::string& subject, util::LogLevel level,
                            std::string component, std::string name,
                            sim::SimTime at, util::Json attrs) {
  if (!config_.enabled || subject.empty()) return;
  std::lock_guard<std::mutex> lock(mu_);
  FlightRecord& ring = ring_for(subject, at);
  if (level >= config_.dump_level) ring.request_dump(name);
  FlightEvent event;
  event.at = at;
  event.level = level;
  event.component = std::move(component);
  event.name = std::move(name);
  event.attrs = std::move(attrs);
  ring.record(std::move(event));
  ++events_recorded_;
}

void FlightRecorder::request_dump(const std::string& subject,
                                  const std::string& reason, sim::SimTime at) {
  if (!config_.enabled || subject.empty()) return;
  std::lock_guard<std::mutex> lock(mu_);
  FlightRecord& ring = ring_for(subject, at);
  ring.request_dump(reason);
  flight_logger().warn("dump requested for %s: %s", subject.c_str(),
                       reason.c_str());
}

void FlightRecorder::close(const std::string& subject, sim::SimTime at) {
  if (!config_.enabled || subject.empty()) return;
  DumpSink sink;
  util::Json dump_doc;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = rings_.find(subject);
    if (it == rings_.end()) return;
    FlightRecord& ring = *it->second;
    ring.close(at);
    open_.erase(subject);
    if (ring.dump_requested() && sink_ && !ring.dumped()) {
      ring.mark_dumped();
      sink = sink_;
      dump_doc = ring.to_json();
    }
  }
  if (sink) sink(subject, dump_doc);
}

void FlightRecorder::set_dump_sink(DumpSink sink) {
  std::lock_guard<std::mutex> lock(mu_);
  sink_ = std::move(sink);
}

util::Json FlightRecorder::dump(const std::string& subject) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = rings_.find(subject);
  if (it == rings_.end()) return util::Json();
  return it->second->to_json();
}

std::vector<std::pair<std::string, util::Json>> FlightRecorder::flush_dumps() {
  std::vector<std::pair<std::string, util::Json>> out;
  DumpSink sink;
  std::vector<std::pair<std::string, util::Json>> unsent;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (const auto& [subject, ring] : rings_) {
      if (!ring->dump_requested()) continue;
      util::Json doc = ring->to_json();
      if (!ring->dumped()) {
        ring->mark_dumped();
        unsent.emplace_back(subject, doc);
      }
      out.emplace_back(subject, std::move(doc));
    }
    sink = sink_;
  }
  if (sink) {
    for (const auto& [subject, doc] : unsent) sink(subject, doc);
  }
  return out;
}

std::vector<FlightRecorder::OpenFlow> FlightRecorder::open_flows() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<OpenFlow> out;
  out.reserve(open_.size());
  for (const auto& [subject, ring] : open_) {
    out.push_back({subject, ring->opened(), ring->last_event()});
  }
  return out;
}

size_t FlightRecorder::ring_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return rings_.size();
}

uint64_t FlightRecorder::events_recorded() const {
  std::lock_guard<std::mutex> lock(mu_);
  return events_recorded_;
}

uint64_t FlightRecorder::dump_worthy_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  uint64_t n = 0;
  for (const auto& [subject, ring] : rings_) {
    if (ring->dump_requested()) ++n;
  }
  return n;
}

FlightRecord& FlightRecorder::ring_for(const std::string& subject,
                                       sim::SimTime at) {
  auto it = rings_.find(subject);
  if (it == rings_.end()) {
    it = rings_
             .emplace(subject, std::make_unique<FlightRecord>(
                                   subject, config_.ring_capacity, at))
             .first;
    open_.emplace(subject, it->second.get());
  } else if (it->second->closed()) {
    // Reopened (e.g. dead-letter resubmission touching the old run id).
    it->second->reopen();
    open_.emplace(subject, it->second.get());
    FlightEvent event;
    event.at = at;
    event.level = util::LogLevel::Info;
    event.component = "flight";
    event.name = "reopened";
    it->second->record(std::move(event));
  }
  return *it->second;
}

}  // namespace pico::telemetry::health
