#pragma once
// Facility-wide metrics registry. Services register counters, gauges, and
// fixed-bucket histograms by name + labels (Prometheus-style families, e.g.
// transfer_bytes_total{src="picoprobe-user",dst="alcf-eagle"}) and the
// registry snapshots them deterministically — families sorted by name, series
// sorted by label set — so Prometheus text exposition is byte-stable across
// runs with the same seed. Periodic readers (the health plane) take a view()
// instead: the same order, no copies, one scalar per series.
//
// Thread safety: registration takes the registry mutex; increments on an
// already-registered instrument are lock-free (atomic CAS), so data-plane
// workers may bump counters concurrently with the sim engine.
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "util/stats.hpp"

namespace pico::telemetry {

using Labels = std::map<std::string, std::string>;

namespace detail {
/// Lock-free add for pre-C++20-fetch_add portability on atomic<double>.
inline void atomic_add(std::atomic<double>& a, double v) {
  double cur = a.load(std::memory_order_relaxed);
  while (!a.compare_exchange_weak(cur, cur + v, std::memory_order_relaxed)) {
  }
}
inline void atomic_max(std::atomic<double>& a, double v) {
  double cur = a.load(std::memory_order_relaxed);
  while (cur < v &&
         !a.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
}
}  // namespace detail

/// Monotonically increasing value (events, bytes, retries).
class Counter {
 public:
  void inc(double v = 1.0) { detail::atomic_add(value_, v); }
  double value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

/// Point-in-time value (queue depth, utilization, pool width).
class Gauge {
 public:
  void set(double v) { value_.store(v, std::memory_order_relaxed); }
  void add(double v) { detail::atomic_add(value_, v); }
  double value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

/// Fixed-bucket histogram: cumulative bucket counts over caller-supplied
/// upper bounds, plus sum/count/max. Quantiles (p50/p90/...) are estimated by
/// linear interpolation inside the containing bucket — the standard
/// Prometheus histogram_quantile technique — with the tracked max as the
/// upper clamp so "+Inf bucket" estimates stay finite.
class FixedHistogram {
 public:
  explicit FixedHistogram(std::vector<double> upper_bounds);

  void observe(double v);

  /// Exponential default buckets for second-scale latencies: 0.01s .. ~655s.
  static std::vector<double> latency_buckets_s();
  /// Default buckets for byte volumes: 1 KiB .. 64 GiB.
  static std::vector<double> byte_buckets();

  double quantile(double q) const;  ///< q in [0, 1]
  /// p50/p90/p99 estimates in the reporter's shared Quantiles vocabulary.
  util::Quantiles quantiles() const;
  double sum() const { return sum_.load(std::memory_order_relaxed); }
  uint64_t count() const { return count_.load(std::memory_order_relaxed); }
  double max() const { return max_.load(std::memory_order_relaxed); }
  const std::vector<double>& upper_bounds() const { return bounds_; }
  /// Cumulative count of observations <= bounds()[i].
  uint64_t cumulative(size_t i) const;

 private:
  std::vector<double> bounds_;
  std::vector<std::atomic<uint64_t>> counts_;  ///< per-bucket (not cumulative)
  std::atomic<uint64_t> overflow_{0};          ///< observations > bounds.back()
  std::atomic<double> sum_{0.0};
  std::atomic<uint64_t> count_{0};
  std::atomic<double> max_{0.0};
};

enum class MetricKind { Counter, Gauge, Histogram };

std::string metric_kind_name(MetricKind k);

/// One series in a snapshot: resolved family + labels + current value(s).
struct MetricSample {
  std::string name;
  MetricKind kind = MetricKind::Counter;
  std::string help;
  Labels labels;
  double value = 0;  ///< counter/gauge value; histogram sum
  // Histogram-only fields.
  uint64_t count = 0;
  double p50 = 0, p90 = 0, max = 0;
  std::vector<std::pair<double, uint64_t>> buckets;  ///< (le, cumulative)
};

/// One series in a view(): pointers into the registry plus its live scalar.
/// `name` and `labels` are written once, when the series is created, and
/// stay valid (and unchanged) for the registry's lifetime.
struct SeriesRef {
  const std::string* name = nullptr;
  const Labels* labels = nullptr;
  MetricKind kind = MetricKind::Counter;
  uint32_t index = 0;  ///< dense, assigned at creation; series are never removed
  double value = 0;    ///< counter/gauge value; histogram sum
};

class MetricsRegistry {
 public:
  /// Find-or-create. The returned reference is stable for the registry's
  /// lifetime, so callers may resolve an instrument once and keep the
  /// reference. Asking for a family under another kind than its first
  /// registration counts a kind_conflicts() and still returns a working
  /// instrument, but export and view() show only the family's own kind.
  Counter& counter(const std::string& name, const std::string& help,
                   const Labels& labels = {});
  Gauge& gauge(const std::string& name, const std::string& help,
               const Labels& labels = {});
  FixedHistogram& histogram(const std::string& name, const std::string& help,
                            const Labels& labels = {},
                            std::vector<double> upper_bounds = {});

  /// Deterministic snapshot: families sorted by name, series by label set.
  /// A deep copy for export (Prometheus, telemetry bundles, reports).
  std::vector<MetricSample> snapshot() const;

  /// Zero-copy read in snapshot() order: clears `out` (keeping its capacity)
  /// and fills one SeriesRef per series.
  void view(std::vector<SeriesRef>* out) const;

  /// Registrations that named a family under a different kind.
  uint64_t kind_conflicts() const;

  /// Prometheus text exposition format (counters rendered as their family
  /// name verbatim — callers follow the *_total convention when naming).
  std::string to_prometheus() const;

  /// Number of distinct metric families registered.
  size_t family_count() const;

 private:
  struct Series {
    Labels labels;
    uint32_t index = 0;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<FixedHistogram> histogram;
  };
  struct Family {
    MetricKind kind = MetricKind::Counter;
    std::string help;
    std::map<std::string, Series> series;  ///< keyed by serialized labels
  };

  static std::string label_key(const Labels& labels);
  Series& series_for(const std::string& name, const std::string& help,
                     MetricKind kind, const Labels& labels);
  /// The one traversal behind snapshot() and view(): families by name, then
  /// series by label key, skipping a series that lacks its family's
  /// instrument (a kind conflict). Caller holds mu_.
  template <typename Fn>
  void for_each_series(Fn&& fn) const;

  mutable std::mutex mu_;
  std::map<std::string, Family> families_;
  uint32_t next_index_ = 0;
  uint64_t kind_conflicts_ = 0;
};

}  // namespace pico::telemetry
