// Telemetry subsystem tests: metrics registry semantics and Prometheus
// exposition, causal tracer parenting/events, the trace's find/children_of
// indexes against a brute-force scan, Chrome trace_event export,
// circuit-breaker state transitions as timestamped span events under injected
// faults, each flow event being one record on its span and in its run's
// flight ring, and the guarantee the refactor rests on — campaign reports
// rebuilt from the span tree are byte-identical to the flow service's
// bookkeeping.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <future>
#include <memory>
#include <set>
#include <tuple>

#include "core/campaign.hpp"
#include "core/facility.hpp"
#include "core/report.hpp"
#include "flow/service.hpp"
#include "telemetry/export.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/telemetry.hpp"
#include "telemetry/tracer.hpp"
#include "util/rng.hpp"
#include "util/threadpool.hpp"
#include "recorded_once.hpp"

namespace pico::telemetry {
namespace {

using util::Json;

sim::SimTime t(double s) { return sim::SimTime::from_seconds(s); }

// ------------------------------------------------------------- metrics ----

TEST(Metrics, CountersAndGaugesByLabels) {
  MetricsRegistry reg;
  reg.counter("jobs_total", "jobs", {{"state", "ok"}}).inc();
  reg.counter("jobs_total", "jobs", {{"state", "ok"}}).inc(2);
  reg.counter("jobs_total", "jobs", {{"state", "failed"}}).inc();
  reg.gauge("depth", "queue depth").set(7);
  EXPECT_EQ(reg.family_count(), 2u);

  auto snap = reg.snapshot();
  ASSERT_EQ(snap.size(), 3u);
  // Deterministic order: families by name, series by label set.
  EXPECT_EQ(snap[0].name, "depth");
  EXPECT_EQ(snap[0].value, 7);
  EXPECT_EQ(snap[1].labels.at("state"), "failed");
  EXPECT_EQ(snap[1].value, 1);
  EXPECT_EQ(snap[2].labels.at("state"), "ok");
  EXPECT_EQ(snap[2].value, 3);
}

TEST(Metrics, InstrumentReferencesAreStable) {
  MetricsRegistry reg;
  Counter& a = reg.counter("x_total", "x");
  Counter& b = reg.counter("x_total", "x");
  EXPECT_EQ(&a, &b);
  a.inc(5);
  EXPECT_EQ(b.value(), 5);
}

TEST(Metrics, HistogramQuantileEstimates) {
  MetricsRegistry reg;
  FixedHistogram& h =
      reg.histogram("lat_seconds", "latency", {}, {1, 2, 4, 8, 16});
  for (int i = 0; i < 100; ++i) h.observe(1.5);  // all inside (1, 2]
  EXPECT_EQ(h.count(), 100u);
  EXPECT_DOUBLE_EQ(h.sum(), 150.0);
  double p50 = h.quantile(0.5);
  EXPECT_GT(p50, 1.0);
  EXPECT_LE(p50, 2.0);
  util::Quantiles q = h.quantiles();
  EXPECT_EQ(q.count, 100u);
  EXPECT_LE(q.p50, q.p90);
  EXPECT_LE(q.p90, q.p99);
  // The tracked max clamps the tail estimate below the bucket bound.
  EXPECT_LE(q.p99, h.max() + 1e-12);
  // Overflow observations land in the +Inf bucket but keep max exact.
  h.observe(100.0);
  EXPECT_DOUBLE_EQ(h.max(), 100.0);
  EXPECT_EQ(h.count(), 101u);
}

TEST(Metrics, PrometheusExposition) {
  MetricsRegistry reg;
  reg.counter("events_total", "events seen", {{"kind", "a"}}).inc(3);
  reg.gauge("width", "pool width").set(4);
  reg.histogram("dur_seconds", "duration", {}, {0.5, 1.0}).observe(0.7);
  std::string text = reg.to_prometheus();

  EXPECT_NE(text.find("# HELP events_total events seen"), std::string::npos);
  EXPECT_NE(text.find("# TYPE events_total counter"), std::string::npos);
  EXPECT_NE(text.find("events_total{kind=\"a\"} 3\n"), std::string::npos);
  EXPECT_NE(text.find("# TYPE width gauge"), std::string::npos);
  EXPECT_NE(text.find("# TYPE dur_seconds histogram"), std::string::npos);
  EXPECT_NE(text.find("dur_seconds_bucket{le=\"0.5\"} 0"), std::string::npos);
  EXPECT_NE(text.find("dur_seconds_bucket{le=\"1\"} 1"), std::string::npos);
  EXPECT_NE(text.find("dur_seconds_bucket{le=\"+Inf\"} 1"),
            std::string::npos);
  EXPECT_NE(text.find("dur_seconds_count 1"), std::string::npos);
  // Byte-stable: two renders of the same registry are identical.
  EXPECT_EQ(text, reg.to_prometheus());
}

TEST(Metrics, PrometheusEscapesHostileLabelValuesAndHelp) {
  MetricsRegistry reg;
  // Every character class the exposition-format spec requires escaping in
  // quoted label values: backslash, double quote, line feed.
  reg.counter("hostile_total", "first line\nsecond \\ line",
              {{"path", "C:\\tmp\\\"quoted\"\nnext"}})
      .inc();
  std::string text = reg.to_prometheus();

  // Label value: \ -> \\, " -> \", newline -> \n.
  EXPECT_NE(
      text.find(
          "hostile_total{path=\"C:\\\\tmp\\\\\\\"quoted\\\"\\nnext\"} 1\n"),
      std::string::npos);
  // HELP text: \ -> \\ and newline -> \n (quotes stay literal).
  EXPECT_NE(text.find("# HELP hostile_total first line\\nsecond \\\\ line\n"),
            std::string::npos);
  // No raw newline may survive inside any exposition line.
  for (size_t pos = text.find('{'); pos != std::string::npos;
       pos = text.find('{', pos + 1)) {
    size_t close = text.find('}', pos);
    ASSERT_NE(close, std::string::npos);
    EXPECT_EQ(text.substr(pos, close - pos).find('\n'), std::string::npos);
  }
}

TEST(Metrics, HistogramQuantileEmptyAndOverflowEdgeCases) {
  FixedHistogram empty({1.0, 2.0});
  EXPECT_EQ(empty.count(), 0u);
  EXPECT_DOUBLE_EQ(empty.quantile(0.5), 0.0);
  EXPECT_DOUBLE_EQ(empty.quantile(0.0), 0.0);
  EXPECT_DOUBLE_EQ(empty.quantile(1.0), 0.0);
  util::Quantiles q = empty.quantiles();
  EXPECT_DOUBLE_EQ(q.p50, 0.0);
  EXPECT_DOUBLE_EQ(q.p99, 0.0);

  // Every observation above the last bound: estimates clamp to the tracked
  // max instead of inventing an infinite bucket midpoint.
  FixedHistogram overflow({1.0, 2.0});
  overflow.observe(50.0);
  overflow.observe(75.0);
  overflow.observe(100.0);
  EXPECT_DOUBLE_EQ(overflow.quantile(0.5), 100.0);
  EXPECT_DOUBLE_EQ(overflow.quantile(0.99), 100.0);
  EXPECT_DOUBLE_EQ(overflow.max(), 100.0);

  // Out-of-range and NaN quantile requests stay finite and clamped.
  FixedHistogram h({1.0, 2.0});
  h.observe(1.5);
  EXPECT_DOUBLE_EQ(h.quantile(-3.0), h.quantile(0.0));
  EXPECT_DOUBLE_EQ(h.quantile(7.0), h.quantile(1.0));
  double nan_q = h.quantile(std::nan(""));
  EXPECT_FALSE(std::isnan(nan_q));
  EXPECT_DOUBLE_EQ(nan_q, h.quantile(1.0));
}

TEST(Metrics, KindConflictNeverCrashesExport) {
  MetricsRegistry reg;
  reg.histogram("x_seconds", "x", {{"a", "1"}}, {1, 2}).observe(1.5);
  // The same family asked for as a counter, on a new series and on the
  // histogram's own series: both calls still hand back working instruments.
  Counter& fresh = reg.counter("x_seconds", "x", {{"a", "2"}});
  Counter& shared = reg.counter("x_seconds", "x", {{"a", "1"}});
  fresh.inc(3);
  shared.inc(4);
  EXPECT_EQ(fresh.value(), 3);
  EXPECT_EQ(shared.value(), 4);
  // And the reverse: a histogram asked for on a counter family.
  reg.counter("y_total", "y").inc();
  reg.histogram("y_total", "y", {{"b", "1"}}).observe(2.0);
  EXPECT_EQ(reg.kind_conflicts(), 3u);

  // Export and the view show each family only in its first-registered kind.
  auto snap = reg.snapshot();
  ASSERT_EQ(snap.size(), 2u);
  EXPECT_EQ(snap[0].name, "x_seconds");
  EXPECT_EQ(snap[0].kind, MetricKind::Histogram);
  EXPECT_EQ(snap[0].labels.at("a"), "1");
  EXPECT_DOUBLE_EQ(snap[0].value, 1.5);
  EXPECT_EQ(snap[1].name, "y_total");
  EXPECT_EQ(snap[1].kind, MetricKind::Counter);
  EXPECT_TRUE(snap[1].labels.empty());

  std::vector<SeriesRef> view;
  reg.view(&view);
  ASSERT_EQ(view.size(), 2u);
  EXPECT_DOUBLE_EQ(view[0].value, 1.5);
  EXPECT_DOUBLE_EQ(view[1].value, 1.0);

  const std::string text = reg.to_prometheus();
  EXPECT_NE(text.find("# TYPE x_seconds histogram\n"), std::string::npos);
  EXPECT_NE(text.find("x_seconds_sum{a=\"1\"} 1.5\n"), std::string::npos);
  EXPECT_EQ(text.find("a=\"2\""), std::string::npos);
  EXPECT_NE(text.find("y_total 1\n"), std::string::npos);
  EXPECT_EQ(text.find("b=\"1\""), std::string::npos);
}

TEST(Metrics, LabelSetsThatJoinAlikeStayDistinctSeries) {
  MetricsRegistry reg;
  // Joined as "k=v," without escaping, each pair below would be one key.
  Counter& joined = reg.counter("c_total", "c", {{"a", "1,b=2"}});
  Counter& split = reg.counter("c_total", "c", {{"a", "1"}, {"b", "2"}});
  Counter& key_eq = reg.counter("c_total", "c", {{"k=v", "1"}});
  Counter& value_eq = reg.counter("c_total", "c", {{"k", "v=1"}});
  Counter& slash = reg.counter("c_total", "c", {{"s", "x\\"}, {"t", "y"}});
  Counter& slash_split = reg.counter("c_total", "c", {{"s", "x\\,t=y"}});
  const std::set<const Counter*> distinct = {&joined, &split,  &key_eq,
                                             &value_eq, &slash, &slash_split};
  EXPECT_EQ(distinct.size(), 6u);
  joined.inc(2);
  split.inc(4);
  EXPECT_EQ(reg.snapshot().size(), 6u);

  const std::string text = reg.to_prometheus();
  EXPECT_NE(text.find("c_total{a=\"1,b=2\"} 2\n"), std::string::npos);
  EXPECT_NE(text.find("c_total{a=\"1\",b=\"2\"} 4\n"), std::string::npos);
  // Re-registering a label set still finds its own series.
  EXPECT_EQ(&reg.counter("c_total", "c", {{"a", "1,b=2"}}), &joined);
  EXPECT_EQ(&reg.counter("c_total", "c", {{"a", "1"}, {"b", "2"}}), &split);
}

TEST(Metrics, ViewMatchesSnapshot) {
  MetricsRegistry reg;
  reg.counter("jobs_total", "jobs", {{"state", "ok"}}).inc(3);     // index 0
  reg.counter("jobs_total", "jobs", {{"state", "failed"}}).inc();  // 1
  reg.gauge("depth", "queue depth").set(7);                        // 2
  FixedHistogram& lat =
      reg.histogram("lat_seconds", "latency", {{"step", "a"}}, {1, 2});  // 3
  lat.observe(1.5);
  lat.observe(0.25);

  std::vector<SeriesRef> view;
  auto expect_view_matches_snapshot = [&] {
    reg.view(&view);
    const auto snap = reg.snapshot();
    ASSERT_EQ(view.size(), snap.size());
    for (size_t i = 0; i < snap.size(); ++i) {
      EXPECT_EQ(*view[i].name, snap[i].name) << i;
      EXPECT_EQ(*view[i].labels, snap[i].labels) << i;
      EXPECT_EQ(view[i].kind, snap[i].kind) << i;
      EXPECT_DOUBLE_EQ(view[i].value, snap[i].value) << i;  // histogram: sum
    }
  };
  expect_view_matches_snapshot();
  std::vector<uint32_t> indices;
  for (const SeriesRef& s : view) indices.push_back(s.index);
  EXPECT_EQ(indices, (std::vector<uint32_t>{2, 1, 0, 3}));
  EXPECT_DOUBLE_EQ(view[3].value, 1.75);

  // A series registered after one view appears in the next at its sorted
  // position, with the next dense index; earlier pointers stay valid.
  const std::string* depth_name = view[0].name;
  reg.counter("jobs_total", "jobs", {{"state", "aborted"}}).inc(2);
  lat.observe(1.0);
  expect_view_matches_snapshot();
  ASSERT_EQ(view.size(), 5u);
  EXPECT_EQ(view[0].name, depth_name);
  EXPECT_EQ(*view[1].name, "jobs_total");
  EXPECT_EQ(view[1].labels->at("state"), "aborted");
  EXPECT_EQ(view[1].index, 4u);
  EXPECT_DOUBLE_EQ(view[1].value, 2.0);
  EXPECT_DOUBLE_EQ(view[4].value, 2.75);
}

TEST(Metrics, ViewStressConcurrentRegistration) {
  MetricsRegistry reg;
  constexpr size_t kTasks = 64;
  constexpr size_t kSeriesPerTask = 48;
  std::vector<std::future<void>> done;
  for (size_t task = 0; task < kTasks; ++task) {
    done.push_back(util::shared_pool().submit([&reg, task] {
      for (size_t i = 0; i < kSeriesPerTask; ++i) {
        reg.counter("stress_total", "per-task series",
                    {{"task", std::to_string(task)}, {"i", std::to_string(i)}})
            .inc();
        reg.counter("stress_bumps_total", "shared counter").inc();
      }
    }));
  }
  // Meanwhile the caller keeps taking views and reads every name and label
  // set through the view's pointers.
  auto all_done = [&] {
    for (auto& f : done) {
      if (f.wait_for(std::chrono::seconds(0)) != std::future_status::ready) {
        return false;
      }
    }
    return true;
  };
  std::vector<SeriesRef> view;
  size_t views = 0;
  size_t bytes_read = 0;
  do {
    reg.view(&view);
    ++views;
    for (const SeriesRef& s : view) {
      bytes_read += s.name->size();
      for (const auto& [k, v] : *s.labels) bytes_read += k.size() + v.size();
    }
  } while (!all_done());
  for (auto& f : done) f.get();
  EXPECT_GT(views, 0u);
  EXPECT_GT(bytes_read, 0u);

  reg.view(&view);
  ASSERT_EQ(view.size(), kTasks * kSeriesPerTask + 1);
  std::set<uint32_t> indices;
  for (const SeriesRef& s : view) indices.insert(s.index);
  EXPECT_EQ(indices.size(), view.size());
  EXPECT_EQ(*indices.rbegin(), view.size() - 1);  // dense
  EXPECT_EQ(*view[0].name, "stress_bumps_total");
  EXPECT_DOUBLE_EQ(view[0].value, static_cast<double>(kTasks * kSeriesPerTask));
}

// -------------------------------------------------------------- tracer ----

TEST(Tracer, ContextStackParentsSpans) {
  sim::Trace trace;
  Tracer tracer(&trace);
  uint64_t root = tracer.open("campaign", "c");
  {
    Tracer::Scope scope(tracer, root);
    EXPECT_EQ(tracer.current(), root);
    uint64_t child = tracer.open("flow", "run-1");  // parent from context
    uint64_t sibling = tracer.open("flow", "run-2", root);  // explicit
    tracer.event(child, "note", t(1), Json::object({{"k", "v"}}));
    tracer.close(child, "run", t(0), t(2), {});
    tracer.close(sibling, "run", t(0), t(3), {});
  }
  EXPECT_EQ(tracer.current(), 0u);
  tracer.close(root, "campaign", t(0), t(4), {});
  EXPECT_EQ(tracer.open_count(), 0u);

  ASSERT_EQ(trace.spans().size(), 3u);
  const sim::Span* c = trace.find("campaign", "campaign", "c");
  ASSERT_NE(c, nullptr);
  EXPECT_EQ(c->parent_id, 0u);
  auto children = trace.children_of(c->span_id);
  ASSERT_EQ(children.size(), 2u);
  EXPECT_EQ(children[0]->label, "run-1");
  ASSERT_EQ(children[0]->events.size(), 1u);
  EXPECT_EQ(children[0]->events[0].name, "note");
  EXPECT_EQ(children[0]->events[0].at.ns, t(1).ns);
  EXPECT_EQ(children[0]->events[0].attrs.at("k").as_string(), "v");
}

TEST(Tracer, EventOnUnknownSpanIsNoOp) {
  sim::Trace trace;
  Tracer tracer(&trace);
  tracer.event(42, "ghost", t(1));  // must not crash or record anything
  tracer.close(42, "x", t(0), t(1));
  EXPECT_TRUE(trace.spans().empty());
}

// --------------------------------------------------------- trace index ----

sim::Span span(std::string component, std::string category, std::string label,
               uint64_t span_id = 0, uint64_t parent_id = 0) {
  sim::Span s;
  s.component = std::move(component);
  s.category = std::move(category);
  s.label = std::move(label);
  s.span_id = span_id;
  s.parent_id = parent_id;
  return s;
}

TEST(TraceIndex, FindReturnsFirstRecordedOfDuplicateKeys) {
  sim::Trace trace;
  trace.add(span("flow", "run", "run-1", 1));
  trace.add(span("flow", "run", "run-1", 2));
  trace.add(span("flow", "run", "run-2", 3));
  const sim::Span* hit = trace.find("flow", "run", "run-1");
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->span_id, 1u);
  EXPECT_EQ(hit, &trace.spans()[0]);
  // Every field of the key counts, including the boundaries between them.
  EXPECT_EQ(trace.find("flow", "run-", "1"), nullptr);
  EXPECT_EQ(trace.find("flow", "step", "run-1"), nullptr);
  EXPECT_EQ(trace.find("", "", ""), nullptr);
}

TEST(TraceIndex, ChildrenKeepRecordingOrderAcrossInterleavedParents) {
  sim::Trace trace;
  trace.add(span("flow", "step", "a1", 10, 1));
  trace.add(span("flow", "step", "b1", 20, 2));
  trace.add(span("flow", "untraced", "a-", 0, 1));  // span_id 0: excluded
  trace.add(span("flow", "step", "a2", 11, 1));
  trace.add(span("flow", "step", "b2", 21, 2));
  trace.add(span("flow", "step", "a3", 12, 1));
  trace.add(span("flow", "run", "root", 1, 0));

  auto labels = [&](uint64_t parent) {
    std::vector<std::string> out;
    for (const sim::Span* s : trace.children_of(parent)) {
      out.push_back(s->label);
    }
    return out;
  };
  EXPECT_EQ(labels(1), (std::vector<std::string>{"a1", "a2", "a3"}));
  EXPECT_EQ(labels(2), (std::vector<std::string>{"b1", "b2"}));
  EXPECT_EQ(labels(0), (std::vector<std::string>{"root"}));
  EXPECT_TRUE(labels(99).empty());
}

TEST(TraceIndex, ClearEmptiesTheIndexes) {
  sim::Trace trace;
  trace.add(span("flow", "run", "run-1", 1));
  trace.add(span("flow", "step", "run-1/a", 2, 1));
  trace.clear();
  EXPECT_EQ(trace.find("flow", "run", "run-1"), nullptr);
  EXPECT_TRUE(trace.children_of(1).empty());

  // Re-recording after clear indexes the new spans, not the old ones.
  trace.add(span("flow", "step", "run-1/b", 3, 1));
  trace.add(span("flow", "run", "run-1", 4));
  const sim::Span* run = trace.find("flow", "run", "run-1");
  ASSERT_NE(run, nullptr);
  EXPECT_EQ(run->span_id, 4u);
  auto kids = trace.children_of(1);
  ASSERT_EQ(kids.size(), 1u);
  EXPECT_EQ(kids[0]->label, "run-1/b");
}

TEST(TraceIndex, RandomizedParityWithBruteForceScan) {
  // Oracles: the linear scans the indexes replace.
  auto scan_find = [](const sim::Trace& trace, const std::string& component,
                      const std::string& category,
                      const std::string& label) -> const sim::Span* {
    for (const auto& s : trace.spans()) {
      if (s.component == component && s.category == category &&
          s.label == label) {
        return &s;
      }
    }
    return nullptr;
  };
  auto scan_children = [](const sim::Trace& trace, uint64_t parent) {
    std::vector<const sim::Span*> out;
    for (const auto& s : trace.spans()) {
      if (s.parent_id == parent && s.span_id != 0) out.push_back(&s);
    }
    return out;
  };

  const std::vector<std::string> components = {"flow", "transfer", "compute"};
  const std::vector<std::string> categories = {"run", "step", "active", ""};
  util::Rng rng(12);
  auto random_key = [&] {
    return std::make_tuple(
        components[rng.uniform_int(0, components.size() - 1)],
        categories[rng.uniform_int(0, categories.size() - 1)],
        "task-" + std::to_string(rng.uniform_int(0, 2999)));
  };

  sim::Trace trace;
  const int kSpans = 10'000;
  for (int i = 0; i < kSpans; ++i) {
    auto [component, category, label] = random_key();
    const uint64_t id = rng.chance(0.1) ? 0 : static_cast<uint64_t>(i + 1);
    const uint64_t parent = rng.chance(0.2) ? 0 : rng.uniform_int(1, 500);
    trace.add(span(component, category, label, id, parent));
  }
  ASSERT_EQ(trace.spans().size(), static_cast<size_t>(kSpans));

  for (int q = 0; q < 2000; ++q) {
    auto [component, category, label] = random_key();
    EXPECT_EQ(trace.find(component, category, label),
              scan_find(trace, component, category, label));
  }
  for (size_t i = 0; i < trace.spans().size(); i += 7) {
    const sim::Span& s = trace.spans()[i];
    ASSERT_EQ(trace.find(s.component, s.category, s.label),
              scan_find(trace, s.component, s.category, s.label));
  }
  for (uint64_t parent = 0; parent <= 510; ++parent) {
    ASSERT_EQ(trace.children_of(parent), scan_children(trace, parent))
        << "parent " << parent;
  }
}

// ----------------------------------------------------------- exporters ----

TEST(Export, ChromeTraceIsWellFormedAndCausal) {
  sim::Trace trace;
  Tracer tracer(&trace);
  uint64_t parent = tracer.open("flow", "run-1");
  uint64_t child = tracer.open("transfer", "task-1", parent);
  tracer.event(child, "stalled", t(1), Json::object({{"why", "rate"}}));
  tracer.close(child, "active", t(0), t(2), {});
  tracer.close(parent, "run", t(0), t(3), {});

  auto doc = Json::parse(to_chrome_trace(trace));
  ASSERT_TRUE(doc) << doc.error().message;
  const Json& events = doc.value().at("traceEvents");
  ASSERT_TRUE(events.is_array());

  size_t complete = 0, instants = 0, meta = 0;
  uint64_t parent_of_child = 0;
  for (const auto& ev : events.as_array()) {
    const std::string ph = ev.at("ph").as_string();
    if (ph == "M") { ++meta; continue; }
    if (ph == "i") { ++instants; continue; }
    ASSERT_EQ(ph, "X");
    ++complete;
    EXPECT_GE(ev.at("dur").as_double(-1), 0.0);
    if (ev.at("name").as_string() == "task-1") {
      parent_of_child =
          static_cast<uint64_t>(ev.at_path("args.parent_id").as_int());
      EXPECT_EQ(ev.at("ts").as_double(-1), 0.0);
      EXPECT_EQ(ev.at("dur").as_double(), 2e6);  // 2 s in microseconds
    }
  }
  EXPECT_EQ(complete, 2u);
  EXPECT_EQ(instants, 1u);
  EXPECT_GE(meta, 2u);  // process name + one thread per component
  const sim::Span* p = trace.find("flow", "run", "run-1");
  ASSERT_NE(p, nullptr);
  EXPECT_EQ(parent_of_child, p->span_id);
}

TEST(Export, IdenticalTimestampsSerializeInStableOrder) {
  // Two traces holding the same spans recorded in opposite orders — as
  // parallel data-plane workers racing Trace::add would produce. All spans
  // share one integer-ns start; the sort key (start, span_id, seq) must make
  // both serializations identical.
  auto build = [](bool reversed) {
    auto trace = std::make_unique<sim::Trace>();
    std::vector<sim::Span> spans;
    for (uint64_t id = 1; id <= 4; ++id) {
      sim::Span s;
      s.component = "compute";
      s.category = "active";
      s.label = "worker-" + std::to_string(id);
      s.start = t(1);
      s.end = t(2);
      s.trace_id = 7;
      s.span_id = id;
      spans.push_back(std::move(s));
    }
    if (reversed) std::reverse(spans.begin(), spans.end());
    for (auto& s : spans) trace->add(std::move(s));
    return trace;
  };
  auto forward = build(false);
  auto reverse = build(true);
  EXPECT_EQ(forward->to_jsonl(), reverse->to_jsonl());
  EXPECT_EQ(to_chrome_trace(*forward), to_chrome_trace(*reverse));

  // Untraced spans (span_id 0) with equal stamps fall back to recording seq:
  // output preserves add() order and stays byte-stable across renders.
  sim::Trace ties;
  for (const char* label : {"first", "second"}) {
    sim::Span s;
    s.component = "flow";
    s.category = "overhead";
    s.label = label;
    s.start = t(3);
    s.end = t(4);
    ties.add(std::move(s));
  }
  std::string jsonl = ties.to_jsonl();
  EXPECT_LT(jsonl.find("first"), jsonl.find("second"));
  EXPECT_EQ(jsonl, ties.to_jsonl());
}

TEST(Export, SameStampSpanEventsKeepAppendOrder) {
  sim::Trace trace;
  Tracer tracer(&trace);
  uint64_t span = tracer.open("flow", "run-1");
  tracer.event(span, "breaker-open", t(5));
  tracer.event(span, "retry", t(5));      // same integer-ns stamp
  tracer.event(span, "earlier", t(2));    // out-of-order arrival
  tracer.close(span, "run", t(0), t(6), {});

  std::string jsonl = trace.to_jsonl();
  size_t early = jsonl.find("earlier");
  size_t breaker = jsonl.find("breaker-open");
  size_t retry = jsonl.find("retry");
  ASSERT_NE(early, std::string::npos);
  // Events sort by timestamp; the t(5) tie keeps append order.
  EXPECT_LT(early, breaker);
  EXPECT_LT(breaker, retry);

  std::string chrome = to_chrome_trace(trace);
  EXPECT_LT(chrome.find("earlier"), chrome.find("breaker-open"));
  EXPECT_LT(chrome.find("breaker-open"), chrome.find("\"retry\""));
}

TEST(Export, SummaryDecomposesStepsAndProviders) {
  sim::Trace trace;
  MetricsRegistry metrics;
  Tracer tracer(&trace);
  uint64_t run = tracer.open("flow", "run-1");
  uint64_t step = tracer.open("flow", "run-1/Transfer", run);
  tracer.close(step, "step", t(0), t(10),
               Json::object({{"active_s", 6.0}, {"step", "Transfer"}}));
  tracer.close(run, "run", t(0), t(11), {});
  metrics
      .counter("flow_breaker_transitions_total", "transitions",
               {{"provider", "transfer"}, {"to", "open"}})
      .inc(2);
  metrics
      .counter("flow_retries_total", "retries", {{"provider", "transfer"}})
      .inc(5);

  TelemetrySummary summary = summarize(trace, metrics);
  ASSERT_EQ(summary.steps.size(), 1u);
  EXPECT_EQ(summary.steps[0].step, "Transfer");
  EXPECT_DOUBLE_EQ(summary.steps[0].active.median, 6.0);
  EXPECT_DOUBLE_EQ(summary.steps[0].overhead.median, 4.0);
  ASSERT_EQ(summary.providers.size(), 1u);
  EXPECT_EQ(summary.providers[0].provider, "transfer");
  EXPECT_EQ(summary.providers[0].to_open, 2u);
  EXPECT_EQ(summary.providers[0].retries, 5u);
  EXPECT_EQ(summary.span_count, 2u);
  EXPECT_EQ(summary.traced_span_count, 2u);
}

// ------------------------------------------- breaker transition events ----

TEST(BreakerTelemetry, ObserverStampsTransitionTimes) {
  flow::BreakerConfig cfg;
  cfg.failure_threshold = 2;
  cfg.cooldown_s = 30;
  flow::CircuitBreaker b(cfg);

  using State = flow::CircuitBreaker::State;
  struct Transition {
    State from, to;
    sim::SimTime at;
  };
  std::vector<Transition> seen;
  b.set_observer([&](State from, State to, sim::SimTime at) {
    seen.push_back({from, to, at});
  });

  b.record_failure(t(5));
  EXPECT_TRUE(seen.empty());  // below threshold: no transition yet
  b.record_failure(t(7));     // trips
  ASSERT_EQ(seen.size(), 1u);
  EXPECT_EQ(seen[0].from, State::Closed);
  EXPECT_EQ(seen[0].to, State::Open);
  EXPECT_EQ(seen[0].at.ns, t(7).ns);

  // The Open -> HalfOpen decay is lazy, but the observer timestamp must be
  // the moment the cooldown elapsed — not the later call that observed it.
  EXPECT_EQ(b.retry_after_s(t(100)), 0.0);  // claims the half-open probe
  ASSERT_EQ(seen.size(), 2u);
  EXPECT_EQ(seen[1].from, State::Open);
  EXPECT_EQ(seen[1].to, State::HalfOpen);
  EXPECT_EQ(seen[1].at.ns, t(37).ns);  // open at 7 + 30 s cooldown

  b.record_success(t(101));
  ASSERT_EQ(seen.size(), 3u);
  EXPECT_EQ(seen[2].from, State::HalfOpen);
  EXPECT_EQ(seen[2].to, State::Closed);
  EXPECT_EQ(seen[2].at.ns, t(101).ns);
}

/// Provider that refuses its first N starts (a service outage, as the fault
/// injector produces), then completes instantly.
class RefusingProvider final : public flow::ActionProvider {
 public:
  RefusingProvider(sim::Engine* engine, int refusals)
      : engine_(engine), refusals_(refusals) {}
  std::string name() const override { return "fake"; }

  util::Result<flow::ActionHandle> start(const Json&,
                                         const auth::Token&) override {
    if (refusals_ > 0) {
      --refusals_;
      return util::Result<flow::ActionHandle>::err("outage", "unavailable");
    }
    started_ = engine_->now();
    return util::Result<flow::ActionHandle>::ok("act-1");
  }

  flow::ActionPollResult poll(const flow::ActionHandle&) override {
    flow::ActionPollResult out;
    out.status = flow::ActionStatus::Succeeded;
    out.service_started = started_;
    out.service_completed = engine_->now();
    return out;
  }

 private:
  sim::Engine* engine_;
  int refusals_;
  sim::SimTime started_;
};

TEST(BreakerTelemetry, TransitionsBecomeSpanEventsUnderInjectedFaults) {
  sim::Engine engine;
  auth::AuthService auth;
  sim::Trace trace;
  Telemetry telemetry(&trace);

  flow::FlowServiceConfig cfg;
  cfg.latency_jitter_frac = 0.0;
  cfg.breaker.failure_threshold = 2;
  cfg.breaker.cooldown_s = 20;
  flow::FlowService service(&engine, &auth, cfg, /*seed=*/3);
  service.set_telemetry(&telemetry);
  RefusingProvider provider(&engine, /*refusals=*/2);
  service.register_provider(&provider);
  auth::Token token = auth.issue("user@anl.gov", {"flows"});

  flow::ActionState step;
  step.name = "A";
  step.provider = "fake";
  step.max_retries = 5;
  step.params = Json::object();
  auto run = service.start(flow::FlowDefinition{"f", {step}}, Json(), token);
  ASSERT_TRUE(run) << run.error().message;
  engine.run();
  EXPECT_EQ(service.info(run.value()).state, flow::RunState::Succeeded);

  const sim::Span* span =
      trace.find("flow", "step", run.value() + "/A");
  ASSERT_NE(span, nullptr);
  auto event_at = [&](const std::string& name) {
    auto it = std::find_if(span->events.begin(), span->events.end(),
                           [&](const sim::SpanEvent& e) {
                             return e.name == name;
                           });
    return it == span->events.end() ? sim::SimTime{-1} : it->at;
  };

  sim::SimTime opened = event_at("breaker-open");
  sim::SimTime half = event_at("breaker-half_open");
  sim::SimTime closed = event_at("breaker-closed");
  ASSERT_GE(opened.ns, 0);
  ASSERT_GE(half.ns, 0);
  ASSERT_GE(closed.ns, 0);
  // The trip lands on the second refused start; the half-open probe window
  // opens exactly one cooldown later; recovery closes it when the probe's
  // dispatch succeeds.
  EXPECT_EQ(half.ns, opened.ns + sim::Duration::from_seconds(20).ns);
  EXPECT_GE(closed.ns, half.ns);
  // Deferral while open is also recorded, between the trip and the probe.
  sim::SimTime deferred = event_at("breaker-deferred");
  ASSERT_GE(deferred.ns, 0);
  EXPECT_GE(deferred.ns, opened.ns);
  EXPECT_LE(deferred.ns, half.ns);

  // The same transitions are counted per provider in the metrics registry.
  auto count = [&](const char* to) {
    return telemetry.metrics
        .counter("flow_breaker_transitions_total",
                 "Breaker state transitions, by provider and target state",
                 {{"provider", "fake"}, {"to", to}})
        .value();
  };
  EXPECT_EQ(count("open"), 1);
  EXPECT_EQ(count("half_open"), 1);
  EXPECT_EQ(count("closed"), 1);
}

// ---------------------------------------- one record, span and ring ----

/// Provider whose first action hangs (never completes); later attempts
/// succeed on their first poll.
class HangOnceProvider final : public flow::ActionProvider {
 public:
  explicit HangOnceProvider(sim::Engine* engine) : engine_(engine) {}
  std::string name() const override { return "fake"; }

  util::Result<flow::ActionHandle> start(const Json&,
                                         const auth::Token&) override {
    started_ = engine_->now();
    return util::Result<flow::ActionHandle>::ok(
        "act-" + std::to_string(starts_++));
  }

  flow::ActionPollResult poll(const flow::ActionHandle& handle) override {
    flow::ActionPollResult out;
    out.status = handle == "act-0" ? flow::ActionStatus::Active
                                   : flow::ActionStatus::Succeeded;
    out.service_started = started_;
    out.service_completed = engine_->now();
    return out;
  }

 private:
  sim::Engine* engine_;
  int starts_ = 0;
  sim::SimTime started_;
};

/// Runs one single-step flow against `provider` with telemetry attached and
/// returns its run id.
std::string run_one_step(sim::Engine& engine, Telemetry& telemetry,
                         flow::FlowServiceConfig cfg,
                         flow::ActionProvider& provider, double timeout_s) {
  auth::AuthService auth;
  cfg.latency_jitter_frac = 0.0;
  flow::FlowService service(&engine, &auth, cfg, /*seed=*/3);
  service.set_telemetry(&telemetry);
  service.register_provider(&provider);
  flow::ActionState step;
  step.name = "A";
  step.provider = "fake";
  step.max_retries = 5;
  step.timeout_s = timeout_s;
  step.params = Json::object();
  auto run = service.start(flow::FlowDefinition{"f", {step}}, Json(),
                           auth.issue("user@anl.gov", {"flows"}));
  if (!run) {
    ADD_FAILURE() << run.error().message;
    return {};
  }
  engine.run();
  EXPECT_EQ(service.info(run.value()).state, flow::RunState::Succeeded);
  return run.value();
}

TEST(RecordedOnce, FlowTimeoutAndRetry) {
  sim::Engine engine;
  sim::Trace trace;
  Telemetry telemetry(&trace);
  HangOnceProvider provider(&engine);
  std::string run = run_one_step(engine, telemetry, {}, provider,
                                 /*timeout_s=*/30);
  test::expect_recorded_once(trace, telemetry.flight, run, "timeout");
  test::expect_recorded_once(trace, telemetry.flight, run, "retry");
}

TEST(RecordedOnce, FlowBreakerOpenHalfOpenAndDeferral) {
  sim::Engine engine;
  sim::Trace trace;
  Telemetry telemetry(&trace);
  flow::FlowServiceConfig cfg;
  cfg.breaker.failure_threshold = 2;
  cfg.breaker.cooldown_s = 20;
  RefusingProvider provider(&engine, /*refusals=*/2);
  std::string run = run_one_step(engine, telemetry, cfg, provider,
                                 /*timeout_s=*/0);
  for (const char* name :
       {"breaker-open", "breaker-half_open", "breaker-deferred"}) {
    test::expect_recorded_once(trace, telemetry.flight, run, name);
  }
}

// -------------------------------------- report-from-spans equivalence ----

core::FacilityConfig fast_config(const std::string& tag) {
  core::FacilityConfig fc;
  fc.artifact_dir = testing::TempDir() + "/telemetry_test_" + tag;
  fc.seed = 1234;
  fc.cost.provision_delay_s = 5.0;
  fc.cost.provision_jitter_s = 0.0;
  fc.cost.env_warmup_s = 1.0;
  fc.cost.env_warmup_jitter_s = 0.0;
  return fc;
}

TEST(ReportFromSpans, RunTimingRebuiltBitIdentical) {
  core::Facility facility(fast_config("rebuild"));
  core::CampaignConfig cfg;
  cfg.use_case = core::UseCase::Hyperspectral;
  cfg.duration_s = 400;
  cfg.file_bytes = 91'000'000;
  core::CampaignResult result = core::run_campaign(facility, cfg);
  ASSERT_FALSE(result.in_window.empty());

  size_t checked = 0;
  for (const flow::RunId& id : facility.flows().all_runs()) {
    const flow::RunTiming& svc = facility.flows().timing(id);
    flow::RunTiming rebuilt;
    ASSERT_TRUE(flow::timing_from_spans(facility.trace(), id, &rebuilt)) << id;
    EXPECT_EQ(rebuilt.submitted.ns, svc.submitted.ns) << id;
    EXPECT_EQ(rebuilt.finished.ns, svc.finished.ns) << id;
    ASSERT_EQ(rebuilt.steps.size(), svc.steps.size()) << id;
    for (size_t i = 0; i < svc.steps.size(); ++i) {
      const flow::StepTiming& a = rebuilt.steps[i];
      const flow::StepTiming& b = svc.steps[i];
      EXPECT_EQ(a.name, b.name);
      EXPECT_EQ(a.dispatched.ns, b.dispatched.ns);
      EXPECT_EQ(a.service_started.ns, b.service_started.ns);
      EXPECT_EQ(a.service_completed.ns, b.service_completed.ns);
      EXPECT_EQ(a.discovered.ns, b.discovered.ns);
      EXPECT_EQ(a.polls, b.polls);
      EXPECT_EQ(a.retries, b.retries);
      EXPECT_EQ(a.timeouts, b.timeouts);
      ++checked;
    }
  }
  EXPECT_GE(checked, 3u * result.in_window.size());
}

TEST(ReportFromSpans, RenderedReportsByteIdenticalToServiceTimings) {
  core::Facility facility(fast_config("render"));
  core::CampaignConfig cfg;
  cfg.use_case = core::UseCase::Hyperspectral;
  cfg.duration_s = 400;
  cfg.file_bytes = 91'000'000;
  // run_campaign fills CompletedFlow timings from the span tree; rebuild the
  // same result from the service's own bookkeeping and compare the reports.
  core::CampaignResult from_spans = core::run_campaign(facility, cfg);
  ASSERT_FALSE(from_spans.in_window.empty());
  core::CampaignResult from_service = from_spans;
  for (auto& f : from_service.in_window) {
    if (!f.id.empty()) f.timing = facility.flows().timing(f.id);
  }
  for (auto& f : from_service.late) {
    if (!f.id.empty()) f.timing = facility.flows().timing(f.id);
  }
  EXPECT_EQ(core::render_fig4(from_spans), core::render_fig4(from_service));
  EXPECT_EQ(core::flows_csv(from_spans), core::flows_csv(from_service));
  EXPECT_EQ(core::render_table1(from_spans, from_spans),
            core::render_table1(from_service, from_service));
}

TEST(ReportFromSpans, CampaignRootSpanEnclosesRuns) {
  core::Facility facility(fast_config("root"));
  core::CampaignConfig cfg;
  cfg.use_case = core::UseCase::Hyperspectral;
  cfg.duration_s = 300;
  cfg.file_bytes = 91'000'000;
  core::run_campaign(facility, cfg);

  const sim::Span* root =
      facility.trace().find("campaign", "campaign", "campaign");
  ASSERT_NE(root, nullptr);
  auto runs = facility.trace().select("flow", "run");
  ASSERT_FALSE(runs.empty());
  for (const sim::Span* run : runs) {
    EXPECT_EQ(run->parent_id, root->span_id);
    EXPECT_GE(run->start.ns, root->start.ns);
    EXPECT_LE(run->end.ns, root->end.ns);
  }
}

}  // namespace
}  // namespace pico::telemetry
