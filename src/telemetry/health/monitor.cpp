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

void HealthMonitor::set_link_probe(LinkProbeFn probe) {
  link_probe_ = std::move(probe);
  link_probes_.clear();
  link_scores_.clear();
  link_gauges_.clear();
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

uint32_t HealthMonitor::provider_slot(const std::string& provider) {
  // provider_scores_ stays in name order; a new provider's entry is filled
  // in by this tick's score_providers().
  auto pos = std::lower_bound(
      provider_scores_.begin(), provider_scores_.end(), provider,
      [](const ProviderScore& p, const std::string& name) {
        return p.provider < name;
      });
  const auto at = pos - provider_scores_.begin();
  if (pos != provider_scores_.end() && pos->provider == provider) {
    return score_slot_[at];
  }
  const auto slot = static_cast<uint32_t>(score_slot_.size());
  ProviderScore score;
  score.provider = provider;
  provider_scores_.insert(pos, std::move(score));
  score_slot_.insert(score_slot_.begin() + at, slot);
  provider_gauges_.push_back(nullptr);
  return slot;
}

HealthMonitor::SeriesRole HealthMonitor::classify(const SeriesRef& ref) {
  const std::string& name = *ref.name;
  const Labels& labels = *ref.labels;
  if (name == "flow_runs_total") {
    auto it = labels.find("state");
    if (it == labels.end()) return {Role::None};
    if (it->second == "succeeded") return {Role::Succeeded};
    if (it->second == "failed") return {Role::Failed};
    return {Role::None};
  }
  if (name == "flow_runs_slow_total") return {Role::Slow};
  if (name == "flow_active_runs") return {Role::Active};

  Role role = Role::None;
  if (name == "flow_retries_total") {
    role = Role::Retries;
  } else if (name == "flow_timeouts_total") {
    role = Role::Timeouts;
  } else if (name == "flow_breaker_deferrals_total") {
    role = Role::Deferrals;
  } else if (name == "flow_breaker_open") {
    role = Role::BreakerOpen;
  } else if (name == "flow_polls_total" ||
             name == "flow_breaker_transitions_total") {
    role = Role::Discovery;
  }
  if (role == Role::None) return {Role::None};
  auto it = labels.find("provider");
  if (it == labels.end()) return {Role::None};
  return {role, provider_slot(it->second)};
}

void HealthMonitor::classify_new_series() {
  for (const SeriesRef& ref : view_) {
    if (ref.index >= roles_.size()) roles_.resize(ref.index + 1);
    SeriesRole& r = roles_[ref.index];
    if (r.role == Role::Unseen) r = classify(ref);
  }
}

SloInput HealthMonitor::extract_slo_input(sim::SimTime now) const {
  SloInput input;
  input.at = now;
  double active = 0.0;
  for (const SeriesRef& s : view_) {
    switch (roles_[s.index].role) {
      case Role::Succeeded:
        input.succeeded += static_cast<uint64_t>(s.value);
        break;
      case Role::Failed:
        input.failed += static_cast<uint64_t>(s.value);
        break;
      case Role::Slow: input.slow += static_cast<uint64_t>(s.value); break;
      case Role::Active: active += s.value; break;
      default: break;
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

void HealthMonitor::score_providers(sim::SimTime now) {
  std::vector<ProviderSample> counts(score_slot_.size());
  for (const SeriesRef& s : view_) {
    const SeriesRole& r = roles_[s.index];
    switch (r.role) {
      case Role::Retries: counts[r.provider].retries += s.value; break;
      case Role::Timeouts: counts[r.provider].timeouts += s.value; break;
      case Role::Deferrals: counts[r.provider].deferrals += s.value; break;
      case Role::BreakerOpen: counts[r.provider].breaker_open = s.value; break;
      default: break;
    }
  }

  provider_history_.push_back({now, std::move(counts)});
  const sim::SimTime keep{
      now.ns - static_cast<int64_t>(config_.slo.fast.seconds * 1e9)};
  while (provider_history_.size() > 2 && provider_history_[1].at <= keep) {
    provider_history_.pop_front();
  }
  const ProviderRow& base = provider_history_.front();
  const ProviderRow& cur = provider_history_.back();
  const double window_s =
      std::max((now - base.at).seconds(), config_.snapshot_interval_s);
  const double per_min = 60.0 / window_s;

  for (size_t i = 0; i < provider_scores_.size(); ++i) {
    const uint32_t slot = score_slot_[i];
    const ProviderSample& c = cur.counts[slot];
    const ProviderSample prev =
        slot < base.counts.size() ? base.counts[slot] : ProviderSample{};
    ProviderScore& score = provider_scores_[i];
    score.breaker_open = c.breaker_open;
    score.retries_per_min = (c.retries - prev.retries) * per_min;
    score.timeouts_per_min = (c.timeouts - prev.timeouts) * per_min;
    score.deferrals_per_min = (c.deferrals - prev.deferrals) * per_min;
    // Health-score formula (documented in DESIGN.md §15): start from 100,
    // subtract 50 for an open breaker, then windowed instability rates.
    score.score = clamp_score(100.0 - 50.0 * score.breaker_open -
                              15.0 * score.retries_per_min -
                              10.0 * score.timeouts_per_min -
                              10.0 * score.deferrals_per_min);
  }
}

void HealthMonitor::score_links() {
  if (!link_probe_) return;
  link_probe_(link_probes_);
  link_scores_.resize(link_probes_.size());
  link_gauges_.resize(link_probes_.size(), nullptr);
  for (size_t i = 0; i < link_probes_.size(); ++i) {
    const LinkProbe& probe = link_probes_[i];
    LinkScore& score = link_scores_[i];
    if (score.link != probe.link) {
      score.link = probe.link;
      link_gauges_[i] = nullptr;
    }
    score.up = probe.up;
    score.utilization = probe.utilization;
    score.score = probe.up
                      ? clamp_score(100.0 -
                                    30.0 * std::min(1.0, probe.utilization))
                      : 0.0;
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

void HealthMonitor::publish_gauges() {
  auto& metrics = telemetry_->metrics;
  const auto& slos = slo_.status();
  for (size_t i = 0; i < slos.size(); ++i) {
    if (i == slo_gauges_.size()) {
      const char* help = "Error-budget burn rate by objective/window";
      const std::string& objective = slos[i].objective;
      slo_gauges_.push_back(
          {&metrics.gauge("slo_burn_rate", help,
                          {{"objective", objective}, {"window", "fast"}}),
           &metrics.gauge("slo_burn_rate", help,
                          {{"objective", objective}, {"window", "slow"}})});
    }
    slo_gauges_[i][0]->set(slos[i].fast_burn);
    slo_gauges_[i][1]->set(slos[i].slow_burn);
  }
  for (size_t i = 0; i < provider_scores_.size(); ++i) {
    Gauge*& gauge = provider_gauges_[score_slot_[i]];
    if (!gauge) {
      gauge = &metrics.gauge("health_provider_score",
                             "Broker-facing provider health score (0-100)",
                             {{"provider", provider_scores_[i].provider}});
    }
    gauge->set(provider_scores_[i].score);
  }
  for (size_t i = 0; i < link_scores_.size(); ++i) {
    if (!link_gauges_[i]) {
      link_gauges_[i] = &metrics.gauge(
          "health_link_score", "Broker-facing link health score (0-100)",
          {{"link", link_scores_[i].link}});
    }
    link_gauges_[i]->set(link_scores_[i].score);
  }
  if (!ticks_counter_) {
    open_flows_gauge_ =
        &metrics.gauge("health_open_flows", "Flows with open flight rings");
    stalled_flows_gauge_ =
        &metrics.gauge("health_stalled_flows",
                       "Open flows past the stall watchdog threshold");
    ticks_counter_ = &metrics.counter("health_ticks_total",
                                      "Health monitor evaluation passes");
  }
  open_flows_gauge_->set(static_cast<double>(open_now_));
  stalled_flows_gauge_->set(static_cast<double>(stalled_now_));
  ticks_counter_->inc();
}

void HealthMonitor::tick() {
  if (!config_.enabled) return;
  const sim::SimTime now = engine_->now();
  ++ticks_;
  telemetry_->metrics.view(&view_);
  classify_new_series();

  std::vector<HealthAlert> fired;

  const SloInput input = extract_slo_input(now);
  for (auto& alert : slo_.feed(input)) {
    ++slo_alerts_;
    fired.push_back(std::move(alert));
  }

  for (auto& alert : anomaly_.observe(now, view_)) {
    fired.push_back(std::move(alert));
  }

  run_watchdogs(now, fired);
  score_providers(now);
  score_links();

  for (const auto& alert : fired) publish_alert(alert);
  publish_gauges();
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
