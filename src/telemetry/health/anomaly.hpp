#pragma once
// EWMA + z-score anomaly detection over metric snapshot deltas.
//
// For each watched counter series the detector tracks an exponentially
// weighted mean and variance of the per-tick delta. A tick whose delta sits
// more than z_threshold standard deviations above the learned mean (after a
// warmup period, and above an absolute floor so a first retry in an idle
// facility doesn't page) raises an "anomaly" alert. Deterministic: no clock,
// no RNG — state advances only on observe().
//
// State is kept by SeriesRef::index: whether a series is watched, and its
// alert subject, are decided once, the first time a view shows it. One
// detector therefore reads views of one registry only.
#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include "sim/time.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/health/slo.hpp"

namespace pico::telemetry::health {

struct AnomalyConfig {
  double alpha = 0.3;        ///< EWMA smoothing factor for mean and variance
  double z_threshold = 4.0;  ///< alert when (delta - mean) / sigma exceeds this
  int warmup_ticks = 5;      ///< ticks observed before a series may alert
  double min_delta = 2.0;    ///< absolute floor: smaller deltas never alert
  /// A watched series first appearing after the facility has been quiet for
  /// warmup_ticks is itself anomalous (spill/corruption counters only exist
  /// once the bad thing happens); series present from the start just seed
  /// their baseline.
  bool alert_on_birth = true;
  /// Counter families watched; empty watches every counter family.
  std::vector<std::string> families = {
      "frames_dropped_total",     "stream_degraded_seconds",
      "stream_spills_total",      "stream_fallbacks_total",
      "corruption_detected_total", "flow_retries_total",
      "flow_timeouts_total",       "flow_notifications_lost_total",
  };
};

class AnomalyDetector {
 public:
  explicit AnomalyDetector(AnomalyConfig config = {});

  /// Ingest one registry view; returns alerts for series spiking this tick.
  std::vector<HealthAlert> observe(sim::SimTime at,
                                   const std::vector<SeriesRef>& view);

  uint64_t alerts_fired() const { return alerts_fired_; }
  size_t series_tracked() const { return tracked_; }

 private:
  struct SeriesState {
    enum class Watch : uint8_t { Unseen, Ignored, Watched };
    Watch watch = Watch::Unseen;
    bool hot = false;     ///< currently in a spike episode (dedups alerts)
    int ticks = 0;
    double last = 0.0;    ///< last cumulative value
    double mean = 0.0;    ///< EWMA of deltas
    double var = 0.0;     ///< EWMA of squared deviation
    std::string subject;  ///< "name,k=v,..." for alerts
  };

  /// First sighting of a series: decide whether it is watched, and if so
  /// seed its state (and raise a birth alert past warmup).
  void first_sight(sim::SimTime at, const SeriesRef& ref, SeriesState& s,
                   std::vector<HealthAlert>& alerts);

  AnomalyConfig config_;
  std::set<std::string> watched_;    ///< families (empty = every counter)
  std::vector<SeriesState> series_;  ///< by SeriesRef::index
  size_t tracked_ = 0;
  uint64_t alerts_fired_ = 0;
  uint64_t global_ticks_ = 0;  ///< observe() calls (series-birth warmup)
};

}  // namespace pico::telemetry::health
