#pragma once
// The live health plane: a periodic monitor that reads the metrics registry
// in place (one MetricsRegistry::view per tick), evaluates SLO burn rates,
// runs flow watchdogs over the flight recorder, feeds the anomaly detector,
// and distills per-provider/per-link health scores.
//
// Everything the monitor emits goes three ways: a HealthReport (JSON + portal
// page), health_* gauges/counters back into the MetricsRegistry (so the
// Prometheus exposition carries scores and alert counts), and flight-ring
// events + dump requests for flows it flags.
//
// Determinism: the monitor draws no randomness and only adds its own periodic
// events to the engine, so enabling it never perturbs the relative order of
// the simulation it observes.
#include <array>
#include <cstdint>
#include <deque>
#include <functional>
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

  /// Refreshes one LinkProbe per link in place. The vector persists across
  /// ticks, so a probe over a fixed set of links writes each name once and
  /// afterwards only updates `up` and `utilization`.
  using LinkProbeFn = std::function<void(std::vector<LinkProbe>&)>;

  /// Facility installs a probe over its topology/network (the telemetry
  /// library cannot depend on net/).
  void set_link_probe(LinkProbeFn probe);

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
  /// What one registry series feeds, decided the first time a tick sees it.
  enum class Role : uint8_t {
    Unseen,
    None,
    Succeeded,    ///< flow_runs_total{state="succeeded"}
    Failed,       ///< flow_runs_total{state="failed"}
    Slow,         ///< flow_runs_slow_total
    Active,       ///< flow_active_runs
    Retries,      ///< flow_retries_total{provider}
    Timeouts,     ///< flow_timeouts_total{provider}
    Deferrals,    ///< flow_breaker_deferrals_total{provider}
    BreakerOpen,  ///< flow_breaker_open{provider}
    Discovery,    ///< other provider families: the provider exists
  };
  struct SeriesRole {
    Role role = Role::Unseen;
    uint32_t provider = 0;  ///< slot, for the provider roles
  };
  /// One provider at one tick: cumulative counters (windowed over the fast
  /// SLO window) and the breaker gauge.
  struct ProviderSample {
    double retries = 0, timeouts = 0, deferrals = 0;
    double breaker_open = 0;
  };
  /// One tick's samples, by provider slot. A provider slotted after the row
  /// was taken counts as zero in it.
  struct ProviderRow {
    sim::SimTime at;
    std::vector<ProviderSample> counts;
  };

  void schedule_next();
  void classify_new_series();
  SeriesRole classify(const SeriesRef& ref);
  uint32_t provider_slot(const std::string& provider);
  SloInput extract_slo_input(sim::SimTime now) const;
  void run_watchdogs(sim::SimTime now, std::vector<HealthAlert>& out);
  void score_providers(sim::SimTime now);
  void score_links();
  void publish_alert(const HealthAlert& alert);
  void publish_gauges();

  sim::Engine* engine_;
  Telemetry* telemetry_;
  HealthConfig config_;
  SloEngine slo_;
  AnomalyDetector anomaly_;
  LinkProbeFn link_probe_;

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

  std::vector<SeriesRef> view_;     ///< this tick's registry read
  std::vector<SeriesRole> roles_;   ///< by SeriesRef::index

  /// Providers are slotted in discovery order; provider_scores_ stays in
  /// provider-name order, and score_slot_[i] is the slot of its entry i.
  std::vector<uint32_t> score_slot_;
  std::deque<ProviderRow> provider_history_;
  std::vector<ProviderScore> provider_scores_;

  std::vector<LinkProbe> link_probes_;
  std::vector<LinkScore> link_scores_;

  /// Instruments the tick publishes, resolved on first use and then set
  /// through the registry's stable references.
  std::vector<std::array<Gauge*, 2>> slo_gauges_;  ///< by objective: fast, slow
  std::vector<Gauge*> provider_gauges_;           ///< by provider slot
  std::vector<Gauge*> link_gauges_;               ///< parallel to link_scores_
  Gauge* open_flows_gauge_ = nullptr;
  Gauge* stalled_flows_gauge_ = nullptr;
  Counter* ticks_counter_ = nullptr;
};

}  // namespace pico::telemetry::health
