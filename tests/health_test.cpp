// Health-plane tests: flight-recorder ring semantics (bounded eviction, dump
// marking, span-owned subject attribution, sink delivery), SLO multi-window
// burn math and episode edge-triggering, EWMA/z-score anomaly detection, and
// the HealthMonitor's watchdogs + provider/link scoring driven by a sim
// engine.
#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "sim/engine.hpp"
#include "sim/trace.hpp"
#include "telemetry/health/anomaly.hpp"
#include "telemetry/health/flight_recorder.hpp"
#include "telemetry/health/monitor.hpp"
#include "telemetry/health/slo.hpp"
#include "telemetry/telemetry.hpp"
#include "util/rng.hpp"

namespace pico::telemetry::health {
namespace {

using util::Json;
using util::LogLevel;

sim::SimTime t(double s) { return sim::SimTime::from_seconds(s); }

// ------------------------------------------------------ flight recorder ----

TEST(FlightRecord, RingEvictsOldestAndKeepsHonestTotals) {
  FlightRecord ring("run-1", /*capacity=*/4, t(0));
  for (int i = 0; i < 10; ++i) {
    FlightEvent e;
    e.at = t(i);
    e.name = "e" + std::to_string(i);
    ring.record(std::move(e));
  }
  EXPECT_EQ(ring.events().size(), 4u);
  EXPECT_EQ(ring.total(), 10u);
  EXPECT_EQ(ring.dropped(), 6u);
  // Oldest surviving event is #6 and seq numbers survive eviction.
  EXPECT_EQ(ring.events().front().name, "e6");
  EXPECT_EQ(ring.events().front().seq, 6u);
  EXPECT_EQ(ring.events().back().seq, 9u);
  EXPECT_EQ(ring.last_event(), t(9));

  Json doc = ring.to_json();
  EXPECT_EQ(doc.at("events_total").as_int(), 10);
  EXPECT_EQ(doc.at("events_dropped").as_int(), 6);
  EXPECT_EQ(doc.at("events").as_array().size(), 4u);
}

TEST(FlightRecorder, ErrorLevelEventMarksRingDumpWorthy) {
  FlightRecorder rec;
  rec.record("run-1", LogLevel::Info, "flow", "submitted", t(0));
  rec.record("run-2", LogLevel::Info, "flow", "submitted", t(0));
  rec.record("run-2", LogLevel::Error, "flow", "run-failed", t(5));
  EXPECT_EQ(rec.ring_count(), 2u);
  EXPECT_EQ(rec.dump_worthy_count(), 1u);
  // Warn stays below the default dump level.
  rec.record("run-1", LogLevel::Warn, "flow", "retry", t(6));
  EXPECT_EQ(rec.dump_worthy_count(), 1u);
}

TEST(FlightRecorder, CloseDeliversDumpExactlyOnceForDumpWorthyRings) {
  FlightRecorder rec;
  std::vector<std::string> delivered;
  rec.set_dump_sink(
      [&](const std::string& subject, const Json&) {
        delivered.push_back(subject);
      });
  rec.record("ok-run", LogLevel::Info, "flow", "submitted", t(0));
  rec.record("bad-run", LogLevel::Error, "flow", "run-failed", t(1));
  rec.close("ok-run", t(2));
  rec.close("bad-run", t(2));
  ASSERT_EQ(delivered.size(), 1u);
  EXPECT_EQ(delivered[0], "bad-run");
  // flush_dumps still returns the record but never re-fires the sink.
  auto dumps = rec.flush_dumps();
  ASSERT_EQ(dumps.size(), 1u);
  EXPECT_EQ(dumps[0].first, "bad-run");
  EXPECT_EQ(delivered.size(), 1u);
}

TEST(FlightRecorder, FlushDumpsFiresSinkForStillOpenRings) {
  FlightRecorder rec;
  std::vector<std::string> delivered;
  rec.set_dump_sink(
      [&](const std::string& subject, const Json&) {
        delivered.push_back(subject);
      });
  rec.record("stuck-run", LogLevel::Info, "flow", "submitted", t(0));
  rec.request_dump("stuck-run", "watchdog-stall", t(100));
  auto dumps = rec.flush_dumps();
  ASSERT_EQ(dumps.size(), 1u);
  EXPECT_EQ(dumps[0].second.at("dump_reason").as_string(), "watchdog-stall");
  EXPECT_EQ(delivered, std::vector<std::string>{"stuck-run"});
}

TEST(FlightRecorder, ContextStackAttributesAsyncWork) {
  // Flight subjects are owned by spans: the run span names its run, and any
  // span opened beneath it inherits that subject, whether its parent came
  // explicitly or from the tracer's context stack.
  sim::Trace trace;
  FlightRecorder rec;
  Tracer tracer(&trace, &rec);
  uint64_t campaign = tracer.open("campaign", "c", /*parent=*/0);
  uint64_t run1 = tracer.open("flow", "run-1", campaign, "run-1");
  uint64_t run2 = tracer.open("flow", "run-2", campaign, "run-2");
  // Explicit parents: step and attempt inherit the run's subject.
  uint64_t step2 = tracer.open("flow", "run-2/Transfer", run2);
  uint64_t attempt2 = tracer.open("flow", "run-2/Transfer#0", step2);
  uint64_t attempt1 = tracer.open("flow", "run-1/Transfer#0", run1);
  uint64_t task = 0;
  {
    Tracer::Scope root(tracer, campaign);
    Tracer::Scope outer(tracer, attempt1);
    {
      Tracer::Scope inner(tracer, attempt2);
      // A service opens its task under the current frame, naming no run.
      task = tracer.open("transfer", "task-1");
    }
    EXPECT_EQ(tracer.current(), attempt1);
  }
  EXPECT_EQ(tracer.current(), 0u);
  // The attempt settles first; the task's retry lands later and still
  // reaches run-2's ring, long after the frame is gone.
  tracer.close(attempt2, "attempt", t(0), t(1));
  tracer.event(task, "transfer-retry", t(2), Json::object({{"attempt", 1}}),
               LogLevel::Warn);
  tracer.event(step2, "retry", t(3), Json::object({{"retry", 1}}));
  // The campaign span names no subject: its events reach no ring.
  tracer.event(campaign, "fault-begin", t(4), Json::object({{"kind", "x"}}));
  tracer.note(campaign, LogLevel::Error, "x", t(4));
  for (uint64_t span : {task, step2, attempt1, run1, run2, campaign}) {
    tracer.close(span, "done", t(0), t(5));
  }
  EXPECT_EQ(tracer.open_count(), 0u);

  ASSERT_NE(trace.find("transfer", "done", "task-1"), nullptr);
  EXPECT_EQ(trace.find("transfer", "done", "task-1")->parent_id, attempt2);
  EXPECT_EQ(trace.find("transfer", "done", "task-1")->events.size(), 1u);
  EXPECT_EQ(trace.find("campaign", "done", "c")->events.size(), 1u);
  EXPECT_EQ(rec.ring_count(), 1u);
  EXPECT_EQ(rec.dump_worthy_count(), 0u);
  Json dump = rec.dump("run-2");
  const auto& ring = dump.at("events").as_array();
  ASSERT_EQ(ring.size(), 2u);
  EXPECT_EQ(ring[0].at("component").as_string(), "transfer");
  EXPECT_EQ(ring[0].at("name").as_string(), "transfer-retry");
  EXPECT_EQ(ring[0].at("level").as_string(), "WARN");
  EXPECT_EQ(ring[1].at("component").as_string(), "flow");
  EXPECT_EQ(ring[1].at("name").as_string(), "retry");
}

TEST(FlightRecorder, EmptySubjectAndDisabledAreNoOps) {
  FlightRecorder rec;
  rec.record("", LogLevel::Error, "flow", "orphan", t(0));
  EXPECT_EQ(rec.ring_count(), 0u);
  EXPECT_TRUE(rec.dump("missing").is_null());

  FlightRecorderConfig off;
  off.enabled = false;
  FlightRecorder disabled(off);
  disabled.record("run-1", LogLevel::Error, "flow", "failed", t(0));
  EXPECT_EQ(disabled.ring_count(), 0u);
}

TEST(FlightRecorder, ClosedRingReopensOnNewActivity) {
  FlightRecorder rec;
  rec.record("run-1", LogLevel::Info, "flow", "submitted", t(0));
  rec.close("run-1", t(10));
  EXPECT_TRUE(rec.open_flows().empty());
  // Dead-letter resubmission touches the old subject again.
  rec.record("run-1", LogLevel::Info, "flow", "resubmitted", t(20));
  ASSERT_EQ(rec.open_flows().size(), 1u);
  Json doc = rec.dump("run-1");
  const auto& events = doc.at("events").as_array();
  ASSERT_EQ(events.size(), 3u);  // submitted, reopened, resubmitted
  EXPECT_EQ(events[1].at("name").as_string(), "reopened");
}

TEST(FlightRecorder, OpenSetMatchesRingStatesUnderRandomOps) {
  FlightRecorderConfig cfg;
  cfg.ring_capacity = 4;  // keeps the per-step reference dumps cheap
  FlightRecorder rec(cfg);
  int delivered = 0;
  rec.set_dump_sink([&](const std::string&, const Json&) { ++delivered; });
  std::set<std::string> subjects;
  for (int i = 0; i < 50; ++i) subjects.insert("run-" + std::to_string(i));
  const std::vector<std::string> pool(subjects.begin(), subjects.end());

  util::Rng rng(7);
  for (int step = 0; step < 4000; ++step) {
    const std::string& subject = pool[rng.uniform_int(0, pool.size() - 1)];
    const sim::SimTime at = t(step);
    switch (rng.uniform_int(0, 4)) {
      case 0: rec.open(subject, at); break;
      case 1:  // reopens the ring when it was closed
        rec.record(subject, LogLevel::Info, "flow", "state", at);
        break;
      case 2: rec.record(subject, LogLevel::Info, "health", "note", at); break;
      case 3: rec.close(subject, at); break;
      case 4: rec.request_dump(subject, "ask", at); break;
    }

    // Reference: every ring's own closed flag, in subject order.
    std::vector<FlightRecorder::OpenFlow> expected;
    for (const auto& s : subjects) {
      Json doc = rec.dump(s);
      if (doc.is_null() || doc.at("closed").as_bool()) continue;
      expected.push_back({s, t(doc.at("opened_s").as_double()),
                          t(doc.at("last_event_s").as_double())});
    }
    const auto open = rec.open_flows();
    ASSERT_EQ(open.size(), expected.size()) << "step " << step;
    for (size_t i = 0; i < open.size(); ++i) {
      ASSERT_EQ(open[i].subject, expected[i].subject) << "step " << step;
      ASSERT_EQ(open[i].opened, expected[i].opened) << "step " << step;
      ASSERT_EQ(open[i].last_event, expected[i].last_event) << "step " << step;
    }
  }
  // Each dump-worthy ring reached the sink once, whatever its reopenings.
  EXPECT_LE(static_cast<uint64_t>(delivered), rec.dump_worthy_count());
  rec.flush_dumps();
  EXPECT_EQ(static_cast<uint64_t>(delivered), rec.dump_worthy_count());
}

// ------------------------------------------------------------ SLO engine ----

SloConfig tight_slo() {
  SloConfig cfg;
  cfg.spec.error_budget = 0.05;
  cfg.spec.latency_budget = 0.10;
  cfg.spec.completion_latency_s = 60;
  cfg.spec.time_to_first_result_s = 300;
  cfg.fast = {60.0, 6.0};
  cfg.slow = {300.0, 2.0};
  return cfg;
}

SloInput in(double at_s, uint64_t ok, uint64_t bad, uint64_t slow = 0) {
  SloInput i;
  i.at = t(at_s);
  i.succeeded = ok;
  i.failed = bad;
  i.slow = slow;
  i.started = ok + bad;
  return i;
}

TEST(SloEngine, ErrorBurnFiresWhenBothWindowsExceedThresholds) {
  SloEngine slo(tight_slo());
  EXPECT_TRUE(slo.feed(in(0, 0, 0)).empty());  // no history yet
  // Half of 20 runs failed over 400s: rate 0.5 / budget 0.05 = burn 10 on
  // both windows (the only baseline is the t=0 sample).
  auto alerts = slo.feed(in(400, 10, 10));
  ASSERT_EQ(alerts.size(), 1u);
  EXPECT_EQ(alerts[0].kind, "slo-burn");
  EXPECT_EQ(alerts[0].subject, "error_rate");
  EXPECT_EQ(alerts[0].severity, "critical");
  ASSERT_EQ(slo.status().size(), 3u);
  EXPECT_DOUBLE_EQ(slo.status()[0].fast_burn, 10.0);
  EXPECT_TRUE(slo.status()[0].alerting);

  // Still burning: the episode is edge-triggered, no duplicate alert.
  EXPECT_TRUE(slo.feed(in(410, 10, 10)).empty());

  // Quiet stretch: deltas go to zero, burn resets, episode re-arms...
  EXPECT_TRUE(slo.feed(in(900, 10, 10)).empty());
  EXPECT_TRUE(slo.feed(in(1300, 10, 10)).empty());
  EXPECT_FALSE(slo.status()[0].alerting);
  // ...so a second failure wave fires a second alert.
  auto again = slo.feed(in(1360, 10, 20));
  ASSERT_EQ(again.size(), 1u);
  EXPECT_EQ(again[0].subject, "error_rate");
}

TEST(SloEngine, LatencyBurnUsesSlowRunCounter) {
  SloEngine slo(tight_slo());
  slo.feed(in(0, 0, 0));
  // 6 of 12 completed runs blew the latency objective: rate 0.5 / 0.10 = 5.0
  // burn — above the slow threshold (2) but below the fast one (6): silent.
  EXPECT_TRUE(slo.feed(in(400, 12, 0, 6)).empty());
  ASSERT_EQ(slo.status().size(), 3u);
  EXPECT_DOUBLE_EQ(slo.status()[1].fast_burn, 5.0);
  EXPECT_FALSE(slo.status()[1].alerting);

  SloEngine hot(tight_slo());
  hot.feed(in(0, 0, 0));
  // 8 of 10: rate 0.8 / 0.10 = burn 8 >= both thresholds.
  auto alerts = hot.feed(in(400, 10, 0, 8));
  ASSERT_EQ(alerts.size(), 1u);
  EXPECT_EQ(alerts[0].subject, "latency");
}

TEST(SloEngine, TimeToFirstResultFiresOnceAndOnlyWhenStarted) {
  SloEngine slo(tight_slo());
  // Idle facility past the objective: not a violation.
  SloInput idle = in(400, 0, 0);
  idle.started = 0;
  EXPECT_TRUE(slo.feed(idle).empty());
  // Started flows but nothing succeeded past 300s: warn once.
  SloInput late = in(500, 0, 0);
  late.started = 3;
  auto alerts = slo.feed(late);
  ASSERT_EQ(alerts.size(), 1u);
  EXPECT_EQ(alerts[0].kind, "slo-ttfr");
  EXPECT_EQ(alerts[0].severity, "warn");
  late.at = t(600);
  EXPECT_TRUE(slo.feed(late).empty());
}

// ------------------------------------------------------ anomaly detector ----

/// Feeds the detector one view of `reg`, as HealthMonitor::tick() does.
std::vector<HealthAlert> observe(AnomalyDetector& det,
                                 const MetricsRegistry& reg, double at_s) {
  std::vector<SeriesRef> view;
  reg.view(&view);
  return det.observe(t(at_s), view);
}

AnomalyConfig tight_anomaly() {
  AnomalyConfig cfg;
  cfg.warmup_ticks = 3;
  cfg.min_delta = 2.0;
  cfg.z_threshold = 4.0;
  cfg.families = {"frames_dropped_total", "stream_spills_total"};
  return cfg;
}

TEST(Anomaly, SpikeAfterWarmupAlertsOncePerEpisode) {
  AnomalyDetector det(tight_anomaly());
  MetricsRegistry reg;
  Counter& dropped = reg.counter("frames_dropped_total", "dropped frames");
  // Steady trickle of 1/tick through warmup.
  for (int i = 0; i < 6; ++i) {
    dropped.inc(1);
    auto alerts = observe(det, reg, i * 15.0);
    EXPECT_TRUE(alerts.empty()) << "tick " << i;
  }
  // 80-frame spike: far above the learned ~1/tick baseline.
  dropped.inc(80);
  auto alerts = observe(det, reg, 90);
  ASSERT_EQ(alerts.size(), 1u);
  EXPECT_EQ(alerts[0].kind, "anomaly");
  EXPECT_EQ(alerts[0].subject, "frames_dropped_total");
  // Sustained spike: the hot flag dedups the episode.
  dropped.inc(80);
  EXPECT_TRUE(observe(det, reg, 105).empty());
  // Back to the trickle, then a fresh spike re-alerts.
  for (int i = 0; i < 4; ++i) {
    dropped.inc(1);
    observe(det, reg, 120 + i * 15.0);
  }
  dropped.inc(400);
  EXPECT_EQ(observe(det, reg, 200).size(), 1u);
  EXPECT_EQ(det.alerts_fired(), 2u);
}

TEST(Anomaly, SeriesBornAfterQuietWarmupIsItselfAnomalous) {
  AnomalyDetector det(tight_anomaly());
  MetricsRegistry reg;
  // The facility ticks quietly with no watched series at all.
  for (int i = 0; i < 5; ++i) observe(det, reg, i * 15.0);
  // First spill counter ever — born mid-campaign, clearly chaos.
  reg.counter("stream_spills_total", "spills").inc(5);
  auto alerts = observe(det, reg, 90);
  ASSERT_EQ(alerts.size(), 1u);
  EXPECT_EQ(alerts[0].subject, "stream_spills_total");
}

TEST(Anomaly, SeriesPresentFromStartSeedsBaselineSilently) {
  AnomalyDetector det(tight_anomaly());
  MetricsRegistry reg;
  reg.counter("frames_dropped_total", "dropped frames").inc(100);
  EXPECT_TRUE(observe(det, reg, 0).empty());
}

TEST(Anomaly, UnwatchedFamiliesAndGaugesAreIgnored) {
  AnomalyDetector det(tight_anomaly());
  MetricsRegistry reg;
  // Watched name but gauge kind.
  reg.gauge("frames_dropped_total", "not a counter").set(1000);
  Counter& polls = reg.counter("flow_polls_total", "unwatched");
  for (int i = 0; i < 8; ++i) {
    EXPECT_TRUE(observe(det, reg, i * 15.0).empty());
    polls.inc(1000);
  }
  EXPECT_EQ(det.series_tracked(), 0u);
}

TEST(Anomaly, SubjectCarriesLabelsAndEachSeriesKeepsItsOwnBaseline) {
  AnomalyDetector det(tight_anomaly());
  MetricsRegistry reg;
  Counter& east = reg.counter("frames_dropped_total", "d", {{"site", "east"}});
  Counter& west = reg.counter("frames_dropped_total", "d", {{"site", "west"}});
  for (int i = 0; i < 6; ++i) {
    east.inc(1);
    west.inc(1);
    EXPECT_TRUE(observe(det, reg, i * 15.0).empty());
  }
  west.inc(80);
  auto alerts = observe(det, reg, 90);
  ASSERT_EQ(alerts.size(), 1u);
  EXPECT_EQ(alerts[0].subject, "frames_dropped_total,site=west");
  EXPECT_EQ(det.series_tracked(), 2u);
}

// --------------------------------------------------------- health monitor ----

struct MonitorHarness {
  sim::Engine engine;
  sim::Trace trace;
  Telemetry telemetry{&trace};

  HealthMonitor make(HealthConfig cfg) {
    return HealthMonitor(engine, telemetry, cfg);
  }
};

TEST(HealthMonitor, WatchdogsFlagStalledAndOverdueFlows) {
  MonitorHarness h;
  HealthConfig cfg;
  cfg.snapshot_interval_s = 10;
  cfg.stall_after_s = 30;
  cfg.flow_deadline_s = 100;
  HealthMonitor monitor(h.engine, h.telemetry, cfg);

  // One run goes silent immediately; chaos/scrubber rings are exempt.
  h.telemetry.flight.record("run-1", LogLevel::Info, "flow", "submitted",
                            t(0));
  h.telemetry.flight.record("chaos", LogLevel::Info, "fault", "fault-begin",
                            t(0));
  monitor.start(/*horizon_s=*/200);
  h.engine.run();

  // Stall fired once (edge) and the deadline fired once.
  EXPECT_EQ(monitor.watchdog_flags(), 2u);
  bool saw_stall = false, saw_deadline = false;
  for (const auto& a : monitor.alerts()) {
    if (a.kind == "watchdog-stall") {
      saw_stall = true;
      EXPECT_EQ(a.subject, "run-1");
    }
    if (a.kind == "watchdog-deadline") {
      saw_deadline = true;
      EXPECT_EQ(a.subject, "run-1");
    }
  }
  EXPECT_TRUE(saw_stall);
  EXPECT_TRUE(saw_deadline);

  // Both watchdogs requested a dump of the stuck flow.
  Json dump = h.telemetry.flight.dump("run-1");
  ASSERT_FALSE(dump.is_null());
  EXPECT_FALSE(dump.at("dump_reason").as_string().empty());

  HealthReport report = monitor.report();
  EXPECT_EQ(report.open_flows, 1u);  // chaos ring not counted
  EXPECT_EQ(report.stalled_flows, 1u);
  EXPECT_GT(monitor.ticks(), 0u);
}

TEST(HealthMonitor, MultiFlowStallAlertsFollowSubjectOrder) {
  MonitorHarness h;
  HealthConfig cfg;
  cfg.stall_after_s = 30;
  cfg.flow_deadline_s = 1e9;
  HealthMonitor monitor(h.engine, h.telemetry, cfg);
  auto& flight = h.telemetry.flight;

  // Opened out of subject order; run-b closes and reopens, run-d settles.
  for (const char* subject : {"run-e", "run-b", "scrubber", "run-d", "run-a",
                              "run-c"}) {
    flight.record(subject, LogLevel::Info, "flow", "submitted", t(0));
  }
  flight.close("run-b", t(1));
  flight.close("run-d", t(1));
  flight.record("run-b", LogLevel::Info, "flow", "resubmitted", t(2));

  h.engine.schedule_at(t(100), [&] { monitor.tick(); });
  h.engine.run();

  std::vector<std::string> stalled;
  for (const auto& a : monitor.alerts()) {
    if (a.kind == "watchdog-stall") stalled.push_back(a.subject);
  }
  EXPECT_EQ(stalled,
            (std::vector<std::string>{"run-a", "run-b", "run-c", "run-e"}));
  HealthReport report = monitor.report();
  EXPECT_EQ(report.open_flows, 4u);  // scrubber is exempt
  EXPECT_EQ(report.stalled_flows, 4u);
}

TEST(HealthMonitor, ProviderScoresDegradeWithBreakerAndRetries) {
  MonitorHarness h;
  HealthConfig cfg;
  cfg.snapshot_interval_s = 15;
  HealthMonitor monitor(h.engine, h.telemetry, cfg);

  auto& metrics = h.telemetry.metrics;
  metrics.counter("flow_polls_total", "p", {{"provider", "compute"}}).inc();
  metrics.counter("flow_polls_total", "p", {{"provider", "transfer"}}).inc();
  monitor.tick();  // baseline

  metrics.gauge("flow_breaker_open", "b", {{"provider", "transfer"}}).set(1);
  metrics.counter("flow_retries_total", "r", {{"provider", "transfer"}})
      .inc(2);
  monitor.tick();

  HealthReport report = monitor.report();
  ASSERT_EQ(report.providers.size(), 2u);
  const ProviderScore* compute = nullptr;
  const ProviderScore* transfer = nullptr;
  for (const auto& p : report.providers) {
    if (p.provider == "compute") compute = &p;
    if (p.provider == "transfer") transfer = &p;
  }
  ASSERT_TRUE(compute && transfer);
  EXPECT_DOUBLE_EQ(compute->score, 100.0);
  // Breaker open alone costs 50; retry rate pushes it further down.
  EXPECT_LE(transfer->score, 50.0);
  EXPECT_DOUBLE_EQ(transfer->breaker_open, 1.0);
  EXPECT_GT(transfer->retries_per_min, 0.0);

  // Scores are republished as gauges for the Prometheus exposition.
  std::string prom = metrics.to_prometheus();
  EXPECT_NE(prom.find("health_provider_score{provider=\"transfer\"}"),
            std::string::npos);
}

TEST(HealthMonitor, LinkProbeScoresUtilizationAndPartitions) {
  MonitorHarness h;
  HealthMonitor monitor(h.engine, h.telemetry, HealthConfig{});
  monitor.set_link_probe([](std::vector<LinkProbe>& probes) {
    probes = {
        {"user-switch", true, 0.5},
        {"backbone-eagle", false, 0.0},
    };
  });
  monitor.tick();
  HealthReport report = monitor.report();
  ASSERT_EQ(report.links.size(), 2u);
  EXPECT_DOUBLE_EQ(report.links[0].score, 85.0);  // 100 - 30 * 0.5
  EXPECT_DOUBLE_EQ(report.links[1].score, 0.0);   // down link
}

TEST(HealthMonitor, ReportSerializesToJson) {
  MonitorHarness h;
  HealthMonitor monitor(h.engine, h.telemetry, HealthConfig{});
  h.telemetry.flight.record("run-1", LogLevel::Error, "flow", "run-failed",
                            t(1));
  monitor.tick();
  Json doc = monitor.report().to_json();
  EXPECT_TRUE(doc.at("providers").is_array());
  EXPECT_TRUE(doc.at("slos").is_array());
  EXPECT_TRUE(doc.at("alerts").is_array());
  EXPECT_EQ(doc.at_path("flight.rings").as_int(), 1);
  EXPECT_EQ(doc.at_path("flight.dump_worthy").as_int(), 1);
  // The tick itself is visible in the registry.
  std::string prom = h.telemetry.metrics.to_prometheus();
  EXPECT_NE(prom.find("health_ticks_total 1"), std::string::npos);
}

}  // namespace
}  // namespace pico::telemetry::health
