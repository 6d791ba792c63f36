#include "telemetry/metrics.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "util/strings.hpp"

namespace pico::telemetry {

using util::format;

std::string metric_kind_name(MetricKind k) {
  switch (k) {
    case MetricKind::Counter: return "counter";
    case MetricKind::Gauge: return "gauge";
    case MetricKind::Histogram: return "histogram";
  }
  return "?";
}

FixedHistogram::FixedHistogram(std::vector<double> upper_bounds)
    : bounds_(std::move(upper_bounds)), counts_(bounds_.size()) {
  assert(std::is_sorted(bounds_.begin(), bounds_.end()));
  for (auto& c : counts_) c.store(0, std::memory_order_relaxed);
}

std::vector<double> FixedHistogram::latency_buckets_s() {
  // 0.01 * 4^k: 10ms, 40ms, 160ms, 640ms, 2.56s, 10.2s, 41s, 164s, 655s.
  std::vector<double> b;
  for (double v = 0.01; v < 1000.0; v *= 4.0) b.push_back(v);
  return b;
}

std::vector<double> FixedHistogram::byte_buckets() {
  // 1 KiB * 16^k: 1 KiB, 16 KiB, 256 KiB, 4 MiB, 64 MiB, 1 GiB, 16 GiB.
  std::vector<double> b;
  for (double v = 1024.0; v <= 68719476736.0; v *= 16.0) b.push_back(v);
  return b;
}

void FixedHistogram::observe(double v) {
  size_t i = static_cast<size_t>(
      std::lower_bound(bounds_.begin(), bounds_.end(), v) - bounds_.begin());
  if (i < counts_.size()) {
    counts_[i].fetch_add(1, std::memory_order_relaxed);
  } else {
    overflow_.fetch_add(1, std::memory_order_relaxed);
  }
  detail::atomic_add(sum_, v);
  count_.fetch_add(1, std::memory_order_relaxed);
  detail::atomic_max(max_, v);
}

uint64_t FixedHistogram::cumulative(size_t i) const {
  uint64_t total = 0;
  for (size_t b = 0; b <= i && b < counts_.size(); ++b) {
    total += counts_[b].load(std::memory_order_relaxed);
  }
  return total;
}

double FixedHistogram::quantile(double q) const {
  uint64_t n = count();
  // Empty histogram: no sample to estimate from. 0 keeps summary tables and
  // JSON stable instead of propagating NaN into reports.
  if (n == 0) return 0.0;
  // A NaN rank would make the ceil/cast below undefined; treat it as p100.
  if (std::isnan(q)) q = 1.0;
  q = std::clamp(q, 0.0, 1.0);
  uint64_t rank = static_cast<uint64_t>(std::ceil(q * static_cast<double>(n)));
  if (rank == 0) rank = 1;
  uint64_t seen = 0;
  for (size_t b = 0; b < counts_.size(); ++b) {
    uint64_t in_bucket = counts_[b].load(std::memory_order_relaxed);
    if (seen + in_bucket >= rank) {
      // Linear interpolation inside the bucket [lo, hi).
      double lo = b == 0 ? 0.0 : bounds_[b - 1];
      double hi = bounds_[b];
      double frac = in_bucket == 0
                        ? 0.0
                        : static_cast<double>(rank - seen) /
                              static_cast<double>(in_bucket);
      return std::min(max(), lo + (hi - lo) * frac);
    }
    seen += in_bucket;
  }
  // Rank falls in the overflow (+Inf) bucket: the tracked max is the best
  // finite estimate.
  return max();
}

util::Quantiles FixedHistogram::quantiles() const {
  util::Quantiles q;
  q.p50 = quantile(0.50);
  q.p90 = quantile(0.90);
  q.p99 = quantile(0.99);
  q.count = static_cast<size_t>(count());
  return q;
}

namespace {

/// Label-key escaping: `\`, `,` and `=` are the key's own separators, so a
/// value containing them cannot pass for a different label set.
void append_key_part(std::string& key, const std::string& part) {
  for (char c : part) {
    if (c == '\\' || c == ',' || c == '=') key.push_back('\\');
    key.push_back(c);
  }
}

}  // namespace

std::string MetricsRegistry::label_key(const Labels& labels) {
  std::string key;
  for (const auto& [k, v] : labels) {
    append_key_part(key, k);
    key.push_back('=');
    append_key_part(key, v);
    key.push_back(',');
  }
  return key;
}

MetricsRegistry::Series& MetricsRegistry::series_for(const std::string& name,
                                                     const std::string& help,
                                                     MetricKind kind,
                                                     const Labels& labels) {
  Family& fam = families_[name];
  if (fam.series.empty()) {
    fam.kind = kind;
    fam.help = help;
  }
  if (fam.kind != kind) ++kind_conflicts_;
  auto [it, created] = fam.series.try_emplace(label_key(labels));
  if (created) {
    it->second.labels = labels;
    it->second.index = next_index_++;
  }
  return it->second;
}

Counter& MetricsRegistry::counter(const std::string& name,
                                  const std::string& help,
                                  const Labels& labels) {
  std::lock_guard lock(mu_);
  Series& s = series_for(name, help, MetricKind::Counter, labels);
  if (!s.counter) s.counter = std::make_unique<Counter>();
  return *s.counter;
}

Gauge& MetricsRegistry::gauge(const std::string& name, const std::string& help,
                              const Labels& labels) {
  std::lock_guard lock(mu_);
  Series& s = series_for(name, help, MetricKind::Gauge, labels);
  if (!s.gauge) s.gauge = std::make_unique<Gauge>();
  return *s.gauge;
}

FixedHistogram& MetricsRegistry::histogram(const std::string& name,
                                           const std::string& help,
                                           const Labels& labels,
                                           std::vector<double> upper_bounds) {
  std::lock_guard lock(mu_);
  Series& s = series_for(name, help, MetricKind::Histogram, labels);
  if (!s.histogram) {
    if (upper_bounds.empty()) upper_bounds = FixedHistogram::latency_buckets_s();
    s.histogram = std::make_unique<FixedHistogram>(std::move(upper_bounds));
  }
  return *s.histogram;
}

template <typename Fn>
void MetricsRegistry::for_each_series(Fn&& fn) const {
  for (const auto& [name, fam] : families_) {
    for (const auto& [key, series] : fam.series) {
      bool has_kind = false;
      switch (fam.kind) {
        case MetricKind::Counter: has_kind = series.counter != nullptr; break;
        case MetricKind::Gauge: has_kind = series.gauge != nullptr; break;
        case MetricKind::Histogram:
          has_kind = series.histogram != nullptr;
          break;
      }
      if (has_kind) fn(name, fam, series);
    }
  }
}

std::vector<MetricSample> MetricsRegistry::snapshot() const {
  std::lock_guard lock(mu_);
  std::vector<MetricSample> out;
  for_each_series([&](const std::string& name, const Family& fam,
                      const Series& series) {
    MetricSample sample;
    sample.name = name;
    sample.kind = fam.kind;
    sample.help = fam.help;
    sample.labels = series.labels;
    switch (fam.kind) {
      case MetricKind::Counter:
        sample.value = series.counter->value();
        break;
      case MetricKind::Gauge:
        sample.value = series.gauge->value();
        break;
      case MetricKind::Histogram: {
        const FixedHistogram& h = *series.histogram;
        sample.value = h.sum();
        sample.count = h.count();
        sample.p50 = h.quantile(0.50);
        sample.p90 = h.quantile(0.90);
        sample.max = h.max();
        for (size_t i = 0; i < h.upper_bounds().size(); ++i) {
          sample.buckets.emplace_back(h.upper_bounds()[i], h.cumulative(i));
        }
        break;
      }
    }
    out.push_back(std::move(sample));
  });
  return out;
}

void MetricsRegistry::view(std::vector<SeriesRef>* out) const {
  out->clear();
  std::lock_guard lock(mu_);
  for_each_series([&](const std::string& name, const Family& fam,
                      const Series& series) {
    double value = 0;
    switch (fam.kind) {
      case MetricKind::Counter: value = series.counter->value(); break;
      case MetricKind::Gauge: value = series.gauge->value(); break;
      case MetricKind::Histogram: value = series.histogram->sum(); break;
    }
    out->push_back({&name, &series.labels, fam.kind, series.index, value});
  });
}

uint64_t MetricsRegistry::kind_conflicts() const {
  std::lock_guard lock(mu_);
  return kind_conflicts_;
}

size_t MetricsRegistry::family_count() const {
  std::lock_guard lock(mu_);
  return families_.size();
}

namespace {

/// Prometheus value formatting: integers render bare, reals with enough
/// digits to round-trip campaign-scale magnitudes deterministically.
std::string prom_value(double v) {
  if (v == static_cast<double>(static_cast<int64_t>(v)) &&
      std::abs(v) < 1e15) {
    return format("%lld", static_cast<long long>(v));
  }
  return format("%.10g", v);
}

/// Label-value escaping per the Prometheus text exposition spec: backslash,
/// double quote, and line feed must be escaped inside quoted label values.
std::string prom_escape_label(const std::string& v) {
  std::string out;
  out.reserve(v.size());
  for (char c : v) {
    switch (c) {
      case '\\': out += "\\\\"; break;
      case '"': out += "\\\""; break;
      case '\n': out += "\\n"; break;
      default: out.push_back(c);
    }
  }
  return out;
}

/// HELP text escaping: only backslash and line feed (quotes stay literal).
std::string prom_escape_help(const std::string& v) {
  std::string out;
  out.reserve(v.size());
  for (char c : v) {
    switch (c) {
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      default: out.push_back(c);
    }
  }
  return out;
}

std::string prom_labels(const Labels& labels) {
  if (labels.empty()) return "";
  std::string out = "{";
  bool first = true;
  for (const auto& [k, v] : labels) {
    if (!first) out.push_back(',');
    first = false;
    out += k + "=\"" + prom_escape_label(v) + "\"";
  }
  out.push_back('}');
  return out;
}

std::string prom_labels_with(const Labels& labels, const std::string& extra_key,
                             const std::string& extra_value) {
  Labels with = labels;
  with[extra_key] = extra_value;
  return prom_labels(with);
}

}  // namespace

std::string MetricsRegistry::to_prometheus() const {
  auto samples = snapshot();
  std::string out;
  std::string last_family;
  for (const MetricSample& s : samples) {
    if (s.name != last_family) {
      out += "# HELP " + s.name + " " + prom_escape_help(s.help) + "\n";
      out += "# TYPE " + s.name + " " + metric_kind_name(s.kind) + "\n";
      last_family = s.name;
    }
    switch (s.kind) {
      case MetricKind::Counter:
      case MetricKind::Gauge:
        out += s.name + prom_labels(s.labels) + " " + prom_value(s.value) + "\n";
        break;
      case MetricKind::Histogram: {
        for (const auto& [le, cum] : s.buckets) {
          out += s.name + "_bucket" +
                 prom_labels_with(s.labels, "le", prom_value(le)) + " " +
                 format("%llu", static_cast<unsigned long long>(cum)) + "\n";
        }
        out += s.name + "_bucket" + prom_labels_with(s.labels, "le", "+Inf") +
               " " + format("%llu", static_cast<unsigned long long>(s.count)) +
               "\n";
        out += s.name + "_sum" + prom_labels(s.labels) + " " +
               prom_value(s.value) + "\n";
        out += s.name + "_count" + prom_labels(s.labels) + " " +
               format("%llu", static_cast<unsigned long long>(s.count)) + "\n";
        break;
      }
    }
  }
  return out;
}

}  // namespace pico::telemetry
