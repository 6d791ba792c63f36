#pragma once
// Hierarchical causal tracing over sim::Trace, and the single entry point a
// service uses to record what happened to a flow. Services open a span when
// work begins, attach point events (retries, breaker transitions, spills)
// while it is in flight, and close it with its final category, interval, and
// attributes — the closed sim::Span lands in the shared Trace with trace_id /
// span_id / parent_id filled in.
//
// Parenting works two ways:
//  - explicitly, by passing the parent span id (a flow run parents its steps);
//  - implicitly, through the context stack: a Scope pushed around a
//    synchronous call (the flow engine around provider->start()) makes that
//    span the default parent for any span opened underneath. The sim engine
//    is single-threaded, so one stack suffices; the mutex covers bookkeeping
//    so pool workers may open/close profiling spans too.
//
// Every span also carries a flight subject, fixed when it opens: the flow run
// span is given its run id, and every other span inherits its parent's. So a
// transfer task opened under a flow attempt belongs to that run, and its
// chunk retries landing seconds later reach the run's flight ring without the
// service ever naming the run. event() writes one record to both the span and
// that ring; note() writes progress markers (dispatch, step-complete) to the
// ring only, keeping the span tree small.
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "sim/trace.hpp"
#include "util/log.hpp"

namespace pico::telemetry {

namespace health {
class FlightRecorder;
}

class Tracer {
 public:
  /// Sentinel for "parent = whatever the context stack says".
  static constexpr uint64_t kUseContext = ~0ull;

  /// `flight` (optional) receives event() and note() records for spans that
  /// carry a subject.
  explicit Tracer(sim::Trace* sink, health::FlightRecorder* flight = nullptr,
                  uint64_t trace_id = 1)
      : sink_(sink), flight_(flight), trace_id_(trace_id) {}

  /// Open a span. Only identity is fixed here; interval, category, and attrs
  /// arrive at close(). An empty `subject` inherits the parent's.
  uint64_t open(std::string component, std::string label,
                uint64_t parent = kUseContext, std::string subject = {});

  /// Attach a point event to an open span, and append the same record (the
  /// span's component, `level`) to the flight ring of the span's subject.
  /// No-op for unknown/closed ids.
  void event(uint64_t span, std::string name, sim::SimTime at,
             util::Json attrs = {},
             util::LogLevel level = util::LogLevel::Info);

  /// Append a record to the flight ring of an open span's subject only; the
  /// span itself is untouched. No-op for unknown/closed ids or no subject.
  void note(uint64_t span, util::LogLevel level, std::string name,
            sim::SimTime at, util::Json attrs = {});

  /// Close an open span into the sink trace. No-op for unknown ids (so
  /// callers may close defensively on every exit path).
  void close(uint64_t span, std::string category, sim::SimTime start,
             sim::SimTime end, util::Json attrs = {});

  /// Current implicit parent (0 = root).
  uint64_t current() const;

  uint64_t trace_id() const { return trace_id_; }
  size_t open_count() const;

  /// RAII context frame: spans opened while alive default-parent to `span`.
  class Scope {
   public:
    Scope(Tracer& tracer, uint64_t span) : tracer_(&tracer) {
      tracer_->push(span);
    }
    ~Scope() { tracer_->pop(); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* tracer_;
  };

 private:
  friend class Scope;
  void push(uint64_t span);
  void pop();

  struct Pending {
    std::string component;
    std::string label;
    std::string subject;
    uint64_t parent = 0;
    std::vector<sim::SpanEvent> events;
  };

  mutable std::mutex mu_;
  sim::Trace* sink_;
  health::FlightRecorder* flight_;
  uint64_t trace_id_;
  uint64_t next_span_ = 1;
  std::map<uint64_t, Pending> open_;
  std::vector<uint64_t> context_;
};

}  // namespace pico::telemetry
