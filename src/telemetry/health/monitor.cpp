#include "telemetry/health/monitor.hpp"

#include <algorithm>
#include <cmath>

#include "util/log.hpp"

namespace pico::telemetry::health {

namespace {

util::Logger& health_logger() {
  static util::Logger logger("health");
  return logger;
}

double clamp_score(double s) { return std::min(100.0, std::max(0.0, s)); }

}  // namespace

util::Json HealthReport::to_json() const {
  util::Json doc = util::Json::object();
  doc["at_s"] = at.seconds();
  util::Json prov = util::Json::array();
  for (const auto& p : providers) {
    util::Json row = util::Json::object();
    row["provider"] = p.provider;
    row["score"] = p.score;
    row["breaker_open"] = p.breaker_open;
    row["retries_per_min"] = p.retries_per_min;
    row["timeouts_per_min"] = p.timeouts_per_min;
    row["deferrals_per_min"] = p.deferrals_per_min;
    prov.push_back(std::move(row));
  }
  doc["providers"] = std::move(prov);
  util::Json lnk = util::Json::array();
  for (const auto& l : links) {
    util::Json row = util::Json::object();
    row["link"] = l.link;
    row["up"] = l.up;
    row["utilization"] = l.utilization;
    row["score"] = l.score;
    lnk.push_back(std::move(row));
  }
  doc["links"] = std::move(lnk);
  util::Json slo = util::Json::array();
  for (const auto& s : slos) {
    util::Json row = util::Json::object();
    row["objective"] = s.objective;
    row["fast_burn"] = s.fast_burn;
    row["slow_burn"] = s.slow_burn;
    row["alerting"] = s.alerting;
    slo.push_back(std::move(row));
  }
  doc["slos"] = std::move(slo);
  util::Json alrt = util::Json::array();
  for (const auto& a : alerts) {
    util::Json row = util::Json::object();
    row["t_s"] = a.at.seconds();
    row["kind"] = a.kind;
    row["severity"] = a.severity;
    row["subject"] = a.subject;
    row["detail"] = a.detail;
    alrt.push_back(std::move(row));
  }
  doc["alerts"] = std::move(alrt);
  doc["open_flows"] = open_flows;
  doc["stalled_flows"] = stalled_flows;
  util::Json flight = util::Json::object();
  flight["rings"] = flight_rings;
  flight["events"] = flight_events;
  flight["dump_worthy"] = flight_dump_worthy;
  doc["flight"] = std::move(flight);
  return doc;
}

HealthMonitor::HealthMonitor(sim::Engine& engine, Telemetry& telemetry,
                             HealthConfig config)
    : engine_(&engine), telemetry_(&telemetry), config_(std::move(config)),
      slo_(config_.slo), anomaly_(config_.anomaly),
      exempt_(config_.watchdog_exempt.begin(), config_.watchdog_exempt.end()) {}

void HealthMonitor::set_link_probe(
    std::function<std::vector<LinkProbe>()> probe) {
  link_probe_ = std::move(probe);
}

void HealthMonitor::start(double horizon_s) {
  if (!config_.enabled) return;
  horizon_s_ = horizon_s;
  schedule_next();
}

void HealthMonitor::schedule_next() {
  const sim::SimTime next =
      engine_->now() + sim::Duration::from_seconds(config_.snapshot_interval_s);
  if (next.seconds() > horizon_s_) return;
  engine_->schedule_at(next, [this] {
    tick();
    schedule_next();
  });
}

SloInput HealthMonitor::extract_slo_input(
    const std::vector<MetricSample>& snapshot, sim::SimTime now) const {
  SloInput input;
  input.at = now;
  double active = 0.0;
  for (const auto& s : snapshot) {
    if (s.name == "flow_runs_total") {
      auto it = s.labels.find("state");
      if (it == s.labels.end()) continue;
      if (it->second == "succeeded") {
        input.succeeded += static_cast<uint64_t>(s.value);
      } else if (it->second == "failed") {
        input.failed += static_cast<uint64_t>(s.value);
      }
    } else if (s.name == "flow_runs_slow_total") {
      input.slow += static_cast<uint64_t>(s.value);
    } else if (s.name == "flow_active_runs") {
      active += s.value;
    }
  }
  input.started =
      input.succeeded + input.failed + static_cast<uint64_t>(active);
  return input;
}

void HealthMonitor::run_watchdogs(sim::SimTime now,
                                  std::vector<HealthAlert>& out) {
  size_t open_count = 0;
  size_t stalled = 0;
  for (const auto& flow : telemetry_->flight.open_flows()) {
    if (exempt_.count(flow.subject)) continue;
    ++open_count;
    const double age_s = (now - flow.opened).seconds();
    const double quiet_s = (now - flow.last_event).seconds();

    if (age_s > config_.flow_deadline_s &&
        !deadline_flagged_.count(flow.subject)) {
      deadline_flagged_.insert(flow.subject);
      ++watchdog_flags_;
      out.push_back({now, "watchdog-deadline", "critical", flow.subject,
                     "open " + std::to_string(age_s) + "s > deadline " +
                         std::to_string(config_.flow_deadline_s) + "s"});
      telemetry_->flight.record(
          flow.subject, util::LogLevel::Warn, "health", "watchdog-deadline",
          now, util::Json::object({{"age_s", age_s}}));
      telemetry_->flight.request_dump(flow.subject, "deadline-miss", now);
    }

    if (quiet_s > config_.stall_after_s) {
      ++stalled;
      if (!stall_flagged_.count(flow.subject)) {
        stall_flagged_.insert(flow.subject);
        ++watchdog_flags_;
        out.push_back({now, "watchdog-stall", "warn", flow.subject,
                       "no flight progress for " + std::to_string(quiet_s) +
                           "s (> " + std::to_string(config_.stall_after_s) +
                           "s)"});
        // Deliberately no ring event here: that would reset the quiet timer
        // the watchdog is measuring.
        telemetry_->flight.request_dump(flow.subject, "watchdog-stall", now);
      }
    } else {
      stall_flagged_.erase(flow.subject);
    }
  }
  open_now_ = open_count;
  stalled_now_ = stalled;
}

void HealthMonitor::score_providers(const std::vector<MetricSample>& snapshot,
                                    sim::SimTime now) {
  std::map<std::string, ProviderCounts> counts;
  std::map<std::string, double> breaker_open;
  for (const auto& s : snapshot) {
    auto it = s.labels.find("provider");
    if (it == s.labels.end()) continue;
    const std::string& provider = it->second;
    if (s.name == "flow_retries_total") {
      counts[provider].retries += s.value;
    } else if (s.name == "flow_timeouts_total") {
      counts[provider].timeouts += s.value;
    } else if (s.name == "flow_breaker_deferrals_total") {
      counts[provider].deferrals += s.value;
    } else if (s.name == "flow_polls_total" ||
               s.name == "flow_breaker_transitions_total") {
      counts[provider];  // provider discovery only
    } else if (s.name == "flow_breaker_open") {
      counts[provider];
      breaker_open[provider] = s.value;
    }
  }

  provider_history_.emplace_back(now, counts);
  const sim::SimTime keep{
      now.ns - static_cast<int64_t>(config_.slo.fast.seconds * 1e9)};
  while (provider_history_.size() > 2 && provider_history_[1].first <= keep) {
    provider_history_.pop_front();
  }
  const auto& base = provider_history_.front();
  const double window_s = std::max((now - base.first).seconds(),
                                   config_.snapshot_interval_s);
  const double per_min = 60.0 / window_s;

  provider_scores_.clear();
  for (const auto& [provider, cur] : counts) {
    ProviderCounts prev;
    auto it = base.second.find(provider);
    if (it != base.second.end()) prev = it->second;
    ProviderScore score;
    score.provider = provider;
    score.breaker_open = breaker_open.count(provider) ? breaker_open[provider]
                                                      : 0.0;
    score.retries_per_min = (cur.retries - prev.retries) * per_min;
    score.timeouts_per_min = (cur.timeouts - prev.timeouts) * per_min;
    score.deferrals_per_min = (cur.deferrals - prev.deferrals) * per_min;
    // Health-score formula (documented in DESIGN.md §15): start from 100,
    // subtract 50 for an open breaker, then windowed instability rates.
    score.score = clamp_score(100.0 - 50.0 * score.breaker_open -
                              15.0 * score.retries_per_min -
                              10.0 * score.timeouts_per_min -
                              10.0 * score.deferrals_per_min);
    provider_scores_.push_back(std::move(score));
  }
}

void HealthMonitor::score_links() {
  link_scores_.clear();
  if (!link_probe_) return;
  for (const auto& probe : link_probe_()) {
    LinkScore score;
    score.link = probe.link;
    score.up = probe.up;
    score.utilization = probe.utilization;
    score.score = probe.up
                      ? clamp_score(100.0 -
                                    30.0 * std::min(1.0, probe.utilization))
                      : 0.0;
    link_scores_.push_back(std::move(score));
  }
}

void HealthMonitor::publish_alert(const HealthAlert& alert) {
  alerts_.push_back(alert);
  if (alerts_.size() > config_.max_alert_history) {
    alerts_.erase(alerts_.begin());
  }
  telemetry_->metrics
      .counter("health_alerts_total", "Health-plane alerts raised, by kind",
               {{"kind", alert.kind}, {"severity", alert.severity}})
      .inc();
  health_logger().warn("[%s/%s] %s: %s", alert.kind.c_str(),
                       alert.severity.c_str(), alert.subject.c_str(),
                       alert.detail.c_str());
}

void HealthMonitor::tick() {
  if (!config_.enabled) return;
  const sim::SimTime now = engine_->now();
  ++ticks_;
  const auto snapshot = telemetry_->metrics.snapshot();

  std::vector<HealthAlert> fired;

  const SloInput input = extract_slo_input(snapshot, now);
  for (auto& alert : slo_.feed(input)) {
    ++slo_alerts_;
    fired.push_back(std::move(alert));
  }

  for (auto& alert : anomaly_.observe(now, snapshot)) {
    fired.push_back(std::move(alert));
  }

  run_watchdogs(now, fired);
  score_providers(snapshot, now);
  score_links();

  for (const auto& alert : fired) publish_alert(alert);

  auto& metrics = telemetry_->metrics;
  for (const auto& s : slo_.status()) {
    metrics
        .gauge("slo_burn_rate", "Error-budget burn rate by objective/window",
               {{"objective", s.objective}, {"window", "fast"}})
        .set(s.fast_burn);
    metrics
        .gauge("slo_burn_rate", "Error-budget burn rate by objective/window",
               {{"objective", s.objective}, {"window", "slow"}})
        .set(s.slow_burn);
  }
  for (const auto& p : provider_scores_) {
    metrics
        .gauge("health_provider_score",
               "Broker-facing provider health score (0-100)",
               {{"provider", p.provider}})
        .set(p.score);
  }
  for (const auto& l : link_scores_) {
    metrics
        .gauge("health_link_score", "Broker-facing link health score (0-100)",
               {{"link", l.link}})
        .set(l.score);
  }
  metrics.gauge("health_open_flows", "Flows with open flight rings")
      .set(static_cast<double>(open_now_));
  metrics
      .gauge("health_stalled_flows",
             "Open flows past the stall watchdog threshold")
      .set(static_cast<double>(stalled_now_));
  metrics.counter("health_ticks_total", "Health monitor evaluation passes")
      .inc();
}

HealthReport HealthMonitor::report() const {
  HealthReport report;
  report.at = engine_->now();
  report.providers = provider_scores_;
  report.links = link_scores_;
  report.slos = slo_.status();
  report.alerts = alerts_;
  report.open_flows = open_now_;
  report.stalled_flows = stalled_now_;
  report.flight_rings = telemetry_->flight.ring_count();
  report.flight_events = telemetry_->flight.events_recorded();
  report.flight_dump_worthy = telemetry_->flight.dump_worthy_count();
  return report;
}

}  // namespace pico::telemetry::health
