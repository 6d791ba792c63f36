#pragma once
// Hierarchical causal tracing over sim::Trace. Services open a span when work
// begins, attach point events (fault injections, breaker transitions, retry
// decisions) while it is in flight, and close it with its final category,
// interval, and attributes — the closed sim::Span lands in the shared Trace
// with trace_id / span_id / parent_id filled in.
//
// Parenting works two ways:
//  - explicitly, by passing the parent span id (a flow run parents its steps);
//  - implicitly, through the context stack: a Scope pushed around a
//    synchronous call (the flow engine around provider->start()) makes that
//    span the default parent for any span opened underneath. The sim engine
//    is single-threaded, so one stack suffices; the mutex covers bookkeeping
//    so pool workers may open/close profiling spans too.
//
// Each context frame also names the flight-recorder subject (the flow run
// id) its work belongs to, so a service that captures context() at submit
// time parents its span and routes its async flight events (frame NACKs,
// chunk retries landing seconds later) from the same frame.
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "sim/trace.hpp"

namespace pico::telemetry {

class Tracer {
 public:
  /// Sentinel for "parent = whatever the context stack says".
  static constexpr uint64_t kUseContext = ~0ull;

  explicit Tracer(sim::Trace* sink, uint64_t trace_id = 1)
      : sink_(sink), trace_id_(trace_id) {}

  /// Open a span. Only identity is fixed here; interval, category, and attrs
  /// arrive at close().
  uint64_t open(std::string component, std::string label,
                uint64_t parent = kUseContext);

  /// Attach a point event to an open span. No-op for unknown/closed ids.
  void event(uint64_t span, std::string name, sim::SimTime at,
             util::Json attrs = {});

  /// Close an open span into the sink trace. No-op for unknown ids (so
  /// callers may close defensively on every exit path).
  void close(uint64_t span, std::string category, sim::SimTime start,
             sim::SimTime end, util::Json attrs = {});

  /// One context frame: the implicit parent span plus the flight-recorder
  /// subject of the work running under it ("" = none).
  struct Context {
    uint64_t span = 0;
    std::string subject;
  };

  /// Current implicit parent (0 = root).
  uint64_t current() const;
  /// Current context frame ({0, ""} when the stack is empty).
  Context context() const;

  uint64_t trace_id() const { return trace_id_; }
  size_t open_count() const;

  /// RAII context frame: spans opened while alive default-parent to `span`,
  /// and context() reports `subject` as the flight subject.
  class Scope {
   public:
    Scope(Tracer& tracer, uint64_t span, std::string subject = {})
        : tracer_(&tracer) {
      tracer_->push({span, std::move(subject)});
    }
    ~Scope() { tracer_->pop(); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* tracer_;
  };

 private:
  friend class Scope;
  void push(Context frame);
  void pop();

  struct Pending {
    std::string component;
    std::string label;
    uint64_t parent = 0;
    std::vector<sim::SpanEvent> events;
  };

  mutable std::mutex mu_;
  sim::Trace* sink_;
  uint64_t trace_id_;
  uint64_t next_span_ = 1;
  std::map<uint64_t, Pending> open_;
  std::vector<Context> context_;
};

}  // namespace pico::telemetry
