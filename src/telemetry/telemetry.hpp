#pragma once
// Facility telemetry bundle: one Tracer (causal span tree into the facility
// trace, wired to the flight recorder it feeds) plus one MetricsRegistry
// (Prometheus-style instrument families).
// The Facility owns a Telemetry and hands pointers to every service; a null
// Telemetry pointer disables instrumentation at the call site, so unit tests
// that build services directly need no setup.
#include "telemetry/export.hpp"
#include "telemetry/health/flight_recorder.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/tracer.hpp"

namespace pico::telemetry {

struct Telemetry {
  explicit Telemetry(sim::Trace* sink) : tracer(sink, &flight) {}

  health::FlightRecorder flight;
  Tracer tracer;
  MetricsRegistry metrics;

  TelemetrySummary summarize(const sim::Trace& trace) const {
    return telemetry::summarize(trace, metrics);
  }
};

}  // namespace pico::telemetry
