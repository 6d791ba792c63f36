#pragma once
// Shared assertion for the one-call flight contract: an event a service
// records through telemetry::Tracer::event lands exactly once on a span and
// exactly once in the owning run's flight ring, as the same record.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "sim/trace.hpp"
#include "telemetry/health/flight_recorder.hpp"

namespace pico::test {

/// Expect exactly one span event named `name` across `trace` and exactly one
/// ring event of that name for `subject`, with equal component, time and
/// attrs. Spans still open are not in the trace, so close them first.
inline void expect_recorded_once(const sim::Trace& trace,
                                 const telemetry::health::FlightRecorder& rec,
                                 const std::string& subject,
                                 const std::string& name) {
  SCOPED_TRACE(subject + " / " + name);
  std::vector<std::pair<const sim::Span*, const sim::SpanEvent*>> on_spans;
  for (const sim::Span& s : trace.spans()) {
    for (const sim::SpanEvent& e : s.events) {
      if (e.name == name) on_spans.emplace_back(&s, &e);
    }
  }
  const util::Json dump = rec.dump(subject);
  ASSERT_FALSE(dump.is_null()) << "no flight ring";
  std::vector<const util::Json*> in_ring;
  for (const util::Json& row : dump.at("events").as_array()) {
    if (row.at("name").as_string() == name) in_ring.push_back(&row);
  }
  ASSERT_EQ(on_spans.size(), 1u) << "span events";
  ASSERT_EQ(in_ring.size(), 1u) << "ring events";
  const auto& [span, event] = on_spans[0];
  const util::Json& row = *in_ring[0];
  EXPECT_EQ(row.at("component").as_string(), span->component);
  EXPECT_EQ(row.at("t_s").as_double(), event->at.seconds());
  EXPECT_FALSE(event->attrs.is_null());
  EXPECT_EQ(row.at("attrs"), event->attrs);
}

}  // namespace pico::test
