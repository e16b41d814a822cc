// MetricsRegistry: named counters, gauges and histograms shared by all
// subsystems, with a JSON snapshot for bench output and diagnostics.
//
// Registered instruments live for the lifetime of the registry and their
// pointers are stable, so producers resolve a metric once (at attach time)
// and update it lock-free afterwards. Counters are monotonic atomics;
// gauges and histograms take a short mutex — they sit on cold paths
// (per scheduling event, per simulator interval), not per tuple.

#ifndef XPRS_OBS_METRICS_H_
#define XPRS_OBS_METRICS_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace xprs {

/// Monotonically increasing counter. Lock-free.
class Counter {
 public:
  void Increment(uint64_t delta = 1) {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  uint64_t value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> value_{0};
};

/// Last-value gauge with an accumulate helper (utilization integrals).
/// Lock-free: the profiler hits gauges per fragment event, concurrently
/// with the scheduler's own publishing.
class Gauge {
 public:
  void Set(double v) { value_.store(v, std::memory_order_relaxed); }
  void Add(double delta) {
    // atomic<double> has no fetch_add pre-C++20; CAS loop instead.
    double cur = value_.load(std::memory_order_relaxed);
    while (!value_.compare_exchange_weak(cur, cur + delta,
                                         std::memory_order_relaxed)) {
    }
  }
  double value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

/// A consistent point-in-time copy of one histogram: count, sum, extremes
/// and buckets all observed under a single lock acquisition, so
/// `count == sum(buckets)` holds even while writers are mid-flight.
/// Percentiles computed from a snapshot agree with its buckets.
struct HistogramSnapshot {
  uint64_t count = 0;
  double sum = 0.0;
  double min = 0.0;
  double max = 0.0;
  std::vector<double> bounds;
  /// bounds.size() + 1 entries; the last is the overflow bucket.
  std::vector<uint64_t> buckets;

  /// Estimated value at quantile `q` in [0, 1], linearly interpolated
  /// within the containing bucket and clamped to the observed [min, max].
  /// Returns 0 when empty.
  double Percentile(double q) const;
};

/// Fixed-boundary histogram: counts per bucket plus sum/min/max.
/// A sample x lands in the first bucket with x <= bound; samples above the
/// last bound land in the implicit overflow bucket.
class Histogram {
 public:
  explicit Histogram(std::vector<double> bounds);

  void Observe(double x);

  uint64_t count() const;
  double sum() const;
  double min() const;
  double max() const;
  const std::vector<double>& bounds() const { return bounds_; }
  /// bounds().size() + 1 entries; the last is the overflow bucket.
  std::vector<uint64_t> bucket_counts() const;

  /// All fields copied under one lock — the only way to read a histogram
  /// whose parts are mutually consistent while writers are concurrent.
  HistogramSnapshot Snapshot() const;

  /// Percentile of a fresh Snapshot(). Callers needing several quantiles
  /// of the same state should take one Snapshot and query it.
  double Percentile(double q) const { return Snapshot().Percentile(q); }

 private:
  const std::vector<double> bounds_;
  mutable std::mutex mutex_;
  std::vector<uint64_t> buckets_;
  uint64_t count_ = 0;
  double sum_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// Owns named instruments. Thread-safe; returned pointers stay valid for
/// the registry's lifetime. Re-requesting a name returns the same
/// instrument (histogram bounds are fixed by the first request).
class MetricsRegistry {
 public:
  Counter* counter(const std::string& name);
  Gauge* gauge(const std::string& name);
  Histogram* histogram(const std::string& name,
                       std::vector<double> bounds = DefaultBounds());

  /// Seconds-scale buckets suitable for interval / latency observations.
  static std::vector<double> DefaultBounds();

  /// Every counter's current value, by name.
  std::map<std::string, uint64_t> CounterValues() const;

  /// One-line-per-metric JSON snapshot, keys sorted by name:
  ///   {"counters":{...},"gauges":{...},"histograms":{...}}
  std::string DumpJson() const;

 private:
  mutable std::mutex mutex_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

}  // namespace xprs

#endif  // XPRS_OBS_METRICS_H_
