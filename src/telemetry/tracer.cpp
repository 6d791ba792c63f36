#include "telemetry/tracer.hpp"

#include <utility>

#include "telemetry/health/flight_recorder.hpp"

namespace pico::telemetry {

uint64_t Tracer::open(std::string component, std::string label,
                      uint64_t parent, std::string subject) {
  std::lock_guard lock(mu_);
  uint64_t id = next_span_++;
  Pending p;
  p.component = std::move(component);
  p.label = std::move(label);
  p.parent = parent == kUseContext
                 ? (context_.empty() ? 0 : context_.back())
                 : parent;
  if (subject.empty()) {
    auto it = open_.find(p.parent);
    if (it != open_.end()) subject = it->second.subject;
  }
  p.subject = std::move(subject);
  open_.emplace(id, std::move(p));
  return id;
}

void Tracer::event(uint64_t span, std::string name, sim::SimTime at,
                   util::Json attrs, util::LogLevel level) {
  std::lock_guard lock(mu_);
  auto it = open_.find(span);
  if (it == open_.end()) return;
  Pending& p = it->second;
  if (flight_ && flight_->enabled() && !p.subject.empty()) {
    p.events.push_back(sim::SpanEvent{name, at, attrs});
    flight_->record(p.subject, level, p.component, std::move(name), at,
                    std::move(attrs));
    return;
  }
  p.events.push_back(sim::SpanEvent{std::move(name), at, std::move(attrs)});
}

void Tracer::note(uint64_t span, util::LogLevel level, std::string name,
                  sim::SimTime at, util::Json attrs) {
  if (!flight_) return;
  std::lock_guard lock(mu_);
  auto it = open_.find(span);
  if (it == open_.end()) return;
  const Pending& p = it->second;
  flight_->record(p.subject, level, p.component, std::move(name), at,
                  std::move(attrs));
}

void Tracer::close(uint64_t span, std::string category, sim::SimTime start,
                   sim::SimTime end, util::Json attrs) {
  Pending p;
  {
    std::lock_guard lock(mu_);
    auto it = open_.find(span);
    if (it == open_.end()) return;
    p = std::move(it->second);
    open_.erase(it);
  }
  sim::Span s;
  s.component = std::move(p.component);
  s.category = std::move(category);
  s.label = std::move(p.label);
  s.start = start;
  s.end = end;
  s.attrs = std::move(attrs);
  s.trace_id = trace_id_;
  s.span_id = span;
  s.parent_id = p.parent;
  s.events = std::move(p.events);
  if (sink_) sink_->add(std::move(s));
}

uint64_t Tracer::current() const {
  std::lock_guard lock(mu_);
  return context_.empty() ? 0 : context_.back();
}

size_t Tracer::open_count() const {
  std::lock_guard lock(mu_);
  return open_.size();
}

void Tracer::push(uint64_t span) {
  std::lock_guard lock(mu_);
  context_.push_back(span);
}

void Tracer::pop() {
  std::lock_guard lock(mu_);
  if (!context_.empty()) context_.pop_back();
}

}  // namespace pico::telemetry
