#include "obs/metrics.h"

#include <algorithm>

#include "util/str.h"

namespace xprs {

Histogram::Histogram(std::vector<double> bounds)
    : bounds_(std::move(bounds)), buckets_(bounds_.size() + 1, 0) {}

void Histogram::Observe(double x) {
  std::lock_guard<std::mutex> lock(mutex_);
  size_t b = 0;
  while (b < bounds_.size() && x > bounds_[b]) ++b;
  ++buckets_[b];
  if (count_ == 0) {
    min_ = max_ = x;
  } else {
    if (x < min_) min_ = x;
    if (x > max_) max_ = x;
  }
  ++count_;
  sum_ += x;
}

uint64_t Histogram::count() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return count_;
}

double Histogram::sum() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return sum_;
}

double Histogram::min() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return min_;
}

double Histogram::max() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return max_;
}

std::vector<uint64_t> Histogram::bucket_counts() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return buckets_;
}

HistogramSnapshot Histogram::Snapshot() const {
  std::lock_guard<std::mutex> lock(mutex_);
  HistogramSnapshot snap;
  snap.count = count_;
  snap.sum = sum_;
  snap.min = min_;
  snap.max = max_;
  snap.bounds = bounds_;
  snap.buckets = buckets_;
  return snap;
}

double HistogramSnapshot::Percentile(double q) const {
  if (count == 0) return 0.0;
  if (q <= 0.0) return min;
  if (q >= 1.0) return max;
  // Find the bucket holding the q-th sample, then interpolate linearly
  // between its bounds by the rank's position within the bucket.
  const double rank = q * static_cast<double>(count);
  // q * count can land a hair above an exact integer cumulative count
  // (e.g. 0.07 * 100 = 7.000000000000001); without a tolerance the
  // comparison below skips the bucket whose last sample *is* the rank.
  const double rank_eps = 1e-9 * static_cast<double>(count);
  uint64_t seen = 0;
  for (size_t b = 0; b < buckets.size(); ++b) {
    if (buckets[b] == 0) continue;
    const double before = static_cast<double>(seen);
    seen += buckets[b];
    if (rank - static_cast<double>(seen) > rank_eps) continue;
    // Bucket b spans (lo, hi]: lo = bounds[b-1] (min for the first),
    // hi = bounds[b] (max for the overflow bucket).
    double lo = b == 0 ? min : bounds[b - 1];
    double hi = b < bounds.size() ? bounds[b] : max;
    lo = std::max(lo, min);
    hi = std::min(hi, max);
    if (hi <= lo) return hi;
    const double frac =
        std::min(1.0, (rank - before) / static_cast<double>(buckets[b]));
    return lo + frac * (hi - lo);
  }
  return max;
}

std::vector<double> MetricsRegistry::DefaultBounds() {
  return {0.001, 0.01, 0.1, 1.0, 10.0, 100.0};
}

Counter* MetricsRegistry::counter(const std::string& name) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto& slot = counters_[name];
  if (slot == nullptr) slot = std::make_unique<Counter>();
  return slot.get();
}

Gauge* MetricsRegistry::gauge(const std::string& name) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto& slot = gauges_[name];
  if (slot == nullptr) slot = std::make_unique<Gauge>();
  return slot.get();
}

Histogram* MetricsRegistry::histogram(const std::string& name,
                                      std::vector<double> bounds) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto& slot = histograms_[name];
  if (slot == nullptr) slot = std::make_unique<Histogram>(std::move(bounds));
  return slot.get();
}

std::map<std::string, uint64_t> MetricsRegistry::CounterValues() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::map<std::string, uint64_t> values;
  for (const auto& [name, c] : counters_) values[name] = c->value();
  return values;
}

std::string MetricsRegistry::DumpJson() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::string out = "{\"counters\":{";
  bool first = true;
  for (const auto& [name, c] : counters_) {
    if (!first) out += ",";
    first = false;
    out += StrFormat("\"%s\":%llu", name.c_str(),
                     static_cast<unsigned long long>(c->value()));
  }
  out += "},\"gauges\":{";
  first = true;
  for (const auto& [name, g] : gauges_) {
    if (!first) out += ",";
    first = false;
    out += StrFormat("\"%s\":%.9g", name.c_str(), g->value());
  }
  out += "},\"histograms\":{";
  first = true;
  for (const auto& [name, h] : histograms_) {
    if (!first) out += ",";
    first = false;
    // One snapshot per histogram: count, buckets and percentiles in the
    // dump describe the same instant even while workers are mid-flight.
    const HistogramSnapshot snap = h->Snapshot();
    out += StrFormat("\"%s\":{\"count\":%llu,\"sum\":%.9g,\"min\":%.9g,"
                     "\"max\":%.9g,\"buckets\":[",
                     name.c_str(),
                     static_cast<unsigned long long>(snap.count), snap.sum,
                     snap.min, snap.max);
    bool first_b = true;
    for (uint64_t b : snap.buckets) {
      if (!first_b) out += ",";
      first_b = false;
      out += StrFormat("%llu", static_cast<unsigned long long>(b));
    }
    out += StrFormat("],\"p50\":%.9g,\"p95\":%.9g,\"p99\":%.9g}",
                     snap.Percentile(0.50), snap.Percentile(0.95),
                     snap.Percentile(0.99));
  }
  out += "}}";
  return out;
}

}  // namespace xprs
