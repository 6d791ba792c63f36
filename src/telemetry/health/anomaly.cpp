#include "telemetry/health/anomaly.hpp"

#include <cmath>
#include <cstdio>

namespace pico::telemetry::health {

AnomalyDetector::AnomalyDetector(AnomalyConfig config)
    : config_(std::move(config)),
      watched_(config_.families.begin(), config_.families.end()) {}

void AnomalyDetector::first_sight(sim::SimTime at, const SeriesRef& ref,
                                  SeriesState& s,
                                  std::vector<HealthAlert>& alerts) {
  // Histograms participate through their cumulative sum (e.g.
  // stream_degraded_seconds); gauges are point-in-time and skipped.
  if (ref.kind == MetricKind::Gauge ||
      (!watched_.empty() && !watched_.count(*ref.name))) {
    s.watch = SeriesState::Watch::Ignored;
    return;
  }
  s.watch = SeriesState::Watch::Watched;
  ++tracked_;
  s.subject = *ref.name;
  for (const auto& [k, v] : *ref.labels) s.subject += "," + k + "=" + v;
  s.last = ref.value;
  if (config_.alert_on_birth &&
      global_ticks_ >= static_cast<uint64_t>(config_.warmup_ticks) &&
      ref.value >= config_.min_delta) {
    // A watched series born after warmup means the bad thing just started
    // happening; series present from tick zero only seed state.
    char detail[96];
    std::snprintf(detail, sizeof(detail), "series appeared, value=%.1f",
                  ref.value);
    alerts.push_back({at, "anomaly", "warn", s.subject, detail});
    ++alerts_fired_;
    s.hot = true;
  }
}

std::vector<HealthAlert> AnomalyDetector::observe(
    sim::SimTime at, const std::vector<SeriesRef>& view) {
  std::vector<HealthAlert> alerts;
  for (const SeriesRef& ref : view) {
    if (ref.index >= series_.size()) series_.resize(ref.index + 1);
    SeriesState& s = series_[ref.index];
    if (s.watch == SeriesState::Watch::Unseen) {
      first_sight(at, ref, s, alerts);
      continue;
    }
    if (s.watch == SeriesState::Watch::Ignored) continue;

    const double delta = ref.value - s.last;
    s.last = ref.value;

    const double sigma = std::sqrt(s.var);
    const bool warm = s.ticks >= config_.warmup_ticks;
    if (warm && delta >= config_.min_delta) {
      const double z = (delta - s.mean) / (sigma > 1e-9 ? sigma : 1e-9);
      if (z >= config_.z_threshold) {
        if (!s.hot) {
          char detail[160];
          std::snprintf(detail, sizeof(detail),
                        "delta=%.1f ewma=%.2f sigma=%.2f z=%.1f", delta,
                        s.mean, sigma, z);
          alerts.push_back({at, "anomaly", "warn", s.subject, detail});
          ++alerts_fired_;
        }
        s.hot = true;
        // Do not fold the spike into the baseline: a sustained incident keeps
        // alerting state hot instead of teaching the detector it's normal.
        ++s.ticks;
        continue;
      }
    }
    s.hot = false;
    const double dev = delta - s.mean;
    s.mean += config_.alpha * dev;
    s.var = (1.0 - config_.alpha) * (s.var + config_.alpha * dev * dev);
    ++s.ticks;
  }
  ++global_ticks_;
  return alerts;
}

}  // namespace pico::telemetry::health
