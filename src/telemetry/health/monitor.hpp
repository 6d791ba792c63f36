#pragma once
// The live health plane: a periodic monitor that snapshots the metrics
// registry, evaluates SLO burn rates, runs flow watchdogs over the flight
// recorder, feeds the anomaly detector, and distills per-provider/per-link
// health scores.
//
// Everything the monitor emits goes three ways: a HealthReport (JSON + portal
// page), health_* gauges/counters back into the MetricsRegistry (so the
// Prometheus exposition carries scores and alert counts), and flight-ring
// events + dump requests for flows it flags.
//
// Determinism: the monitor draws no randomness and only adds its own periodic
// events to the engine, so enabling it never perturbs the relative order of
// the simulation it observes.
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "sim/engine.hpp"
#include "telemetry/health/anomaly.hpp"
#include "telemetry/health/flight_recorder.hpp"
#include "telemetry/health/slo.hpp"
#include "telemetry/telemetry.hpp"
#include "util/json.hpp"

namespace pico::telemetry::health {

struct HealthConfig {
  bool enabled = true;
  double snapshot_interval_s = 15.0;
  /// Watchdog: flag a flow whose flight ring shows no progress for this long.
  double stall_after_s = 120.0;
  /// Watchdog: flag (and dump) a flow open longer than this.
  double flow_deadline_s = 900.0;
  /// Facility-scope flight subjects exempt from flow watchdogs.
  std::vector<std::string> watchdog_exempt = {"chaos", "scrubber", "campaign"};
  size_t max_alert_history = 1024;
  FlightRecorderConfig flight;
  SloConfig slo;
  AnomalyConfig anomaly;
};

/// Broker-facing score for one action provider, 0 (dead) .. 100 (healthy).
struct ProviderScore {
  std::string provider;
  double score = 100.0;
  double breaker_open = 0.0;  ///< 0 closed, 0.5 half-open, 1 open
  double retries_per_min = 0.0;
  double timeouts_per_min = 0.0;
  double deferrals_per_min = 0.0;
};

/// What a link probe reports about one network link.
struct LinkProbe {
  std::string link;
  bool up = true;
  double utilization = 0.0;  ///< [0, 1]
};

/// Broker-facing score for one link.
struct LinkScore {
  std::string link;
  bool up = true;
  double utilization = 0.0;
  double score = 100.0;
};

struct HealthReport {
  sim::SimTime at;
  std::vector<ProviderScore> providers;
  std::vector<LinkScore> links;
  std::vector<SloStatus> slos;
  std::vector<HealthAlert> alerts;  ///< bounded history, oldest first
  size_t open_flows = 0;
  size_t stalled_flows = 0;
  size_t flight_rings = 0;
  uint64_t flight_events = 0;
  uint64_t flight_dump_worthy = 0;

  util::Json to_json() const;
};

class HealthMonitor {
 public:
  HealthMonitor(sim::Engine& engine, Telemetry& telemetry,
                HealthConfig config = {});

  const HealthConfig& config() const { return config_; }

  /// Facility installs a probe over its topology/network (the telemetry
  /// library cannot depend on net/).
  void set_link_probe(std::function<std::vector<LinkProbe>()> probe);

  /// Schedule periodic ticks while tick time <= horizon (campaign duration),
  /// so the engine's queue still drains.
  void start(double horizon_s);

  /// One evaluation pass; also callable directly (tests, campaign end).
  void tick();

  /// Current scores and alert history; the open/stalled flow counts are
  /// those of the last tick().
  HealthReport report() const;

  const std::vector<HealthAlert>& alerts() const { return alerts_; }
  uint64_t slo_alerts() const { return slo_alerts_; }
  uint64_t watchdog_flags() const { return watchdog_flags_; }
  uint64_t anomaly_alerts() const { return anomaly_.alerts_fired(); }
  uint64_t ticks() const { return ticks_; }

 private:
  void schedule_next();
  SloInput extract_slo_input(const std::vector<MetricSample>& snapshot,
                             sim::SimTime now) const;
  void run_watchdogs(sim::SimTime now, std::vector<HealthAlert>& out);
  void score_providers(const std::vector<MetricSample>& snapshot,
                       sim::SimTime now);
  void score_links();
  void publish_alert(const HealthAlert& alert);

  sim::Engine* engine_;
  Telemetry* telemetry_;
  HealthConfig config_;
  SloEngine slo_;
  AnomalyDetector anomaly_;
  std::function<std::vector<LinkProbe>()> link_probe_;

  double horizon_s_ = 0.0;
  uint64_t ticks_ = 0;
  uint64_t slo_alerts_ = 0;
  uint64_t watchdog_flags_ = 0;

  std::vector<HealthAlert> alerts_;
  std::set<std::string> exempt_;
  std::set<std::string> deadline_flagged_;
  std::set<std::string> stall_flagged_;
  /// Non-exempt open and stalled flows, as counted by the last watchdog scan.
  size_t open_now_ = 0;
  size_t stalled_now_ = 0;

  /// Per-provider cumulative counters sampled over the fast window.
  struct ProviderCounts {
    double retries = 0, timeouts = 0, deferrals = 0;
  };
  std::deque<std::pair<sim::SimTime, std::map<std::string, ProviderCounts>>>
      provider_history_;
  std::vector<ProviderScore> provider_scores_;
  std::vector<LinkScore> link_scores_;
};

}  // namespace pico::telemetry::health
