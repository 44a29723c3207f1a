#ifndef STARBURST_COMMON_METRICS_H_
#define STARBURST_COMMON_METRICS_H_

#include <atomic>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace starburst {
namespace metrics {

/// A process-wide metrics registry: named monotonic counters, gauges, and
/// fixed-bucket histograms, designed so the instrumented hot paths cost one
/// relaxed load + branch when collection is off and an uncontended
/// thread-local increment when it is on.
///
/// Concurrency model: counter and histogram cells live in per-thread
/// shards. A cell is written only by its owning thread (relaxed
/// read-modify-write, no RMW contention); Collect() reads every shard with
/// relaxed loads and sums. Totals are therefore exact once the writing
/// threads have quiesced (joined, or synchronized with the collector), and
/// a snapshot taken mid-flight is a consistent-enough monotone lower bound.
/// Gauges are single global atomics (Set/Add/Max), not sharded — they are
/// low-frequency by design.
///
/// Determinism: counters are sums of per-event increments, so any
/// instrumented computation whose *work* is thread-count independent (the
/// work-stealing explorer, the chunked pair sweep) produces byte-identical
/// counter sections in MetricsToJson for any thread count. Latency
/// histograms and wall-time gauges are explicitly excluded from that
/// contract.
///
/// Collection is off by default. It turns on while any ScopedCollect is
/// alive (ExplorerOptions::collect_metrics and AnalyzerOptions::
/// collect_metrics use one), or for the whole process when the
/// STARBURST_METRICS environment variable is set to a non-empty value.
///
/// Compile-time kill switch: building an instrumentation site with
/// -DSTARBURST_NO_METRICS turns the STARBURST_METRIC_* macros below into
/// no-ops (nothing is registered, nothing is counted). The registry API
/// itself stays available so mixed builds still link.

namespace internal {
extern std::atomic<int> g_collect;
}  // namespace internal

/// True while collection is on (any ScopedCollect alive, or the
/// STARBURST_METRICS environment variable set at process start).
inline bool Enabled() {
  return internal::g_collect.load(std::memory_order_relaxed) > 0;
}

/// Turns collection on for the lifetime of the object (refcounted, so
/// nesting and concurrent scopes compose).
class ScopedCollect {
 public:
  ScopedCollect() {
    internal::g_collect.fetch_add(1, std::memory_order_relaxed);
  }
  ~ScopedCollect() {
    internal::g_collect.fetch_sub(1, std::memory_order_relaxed);
  }
  ScopedCollect(const ScopedCollect&) = delete;
  ScopedCollect& operator=(const ScopedCollect&) = delete;
};

/// A named monotonic counter. Handles are registry-owned and stable; cache
/// the pointer at the call site (the STARBURST_METRIC_* macros do).
class Counter {
 public:
  /// Adds `delta` to the calling thread's shard cell. No-op when
  /// collection is off.
  void Add(int64_t delta);
  void Increment() { Add(1); }

  /// The merged total across all shards (Collect()-priced; for tests and
  /// summaries, not hot paths).
  int64_t Value() const;

 private:
  friend class RegistryImpl;
  explicit Counter(uint32_t cell) : cell_(cell) {}
  uint32_t cell_;
};

/// A named gauge: a single global value with last-write-wins Set, Add, and
/// monotonic Max. All operations are no-ops when collection is off.
class Gauge {
 public:
  void Set(int64_t value);
  void Add(int64_t delta);
  /// Raises the gauge to `value` if larger (peak tracking).
  void Max(int64_t value);
  int64_t Value() const;

 private:
  friend class RegistryImpl;
  explicit Gauge(std::atomic<int64_t>* cell) : cell_(cell) {}
  std::atomic<int64_t>* cell_;
};

/// A named fixed-bucket histogram. `bounds` are ascending inclusive upper
/// edges; a value lands in the first bucket whose bound it does not
/// exceed, and values above the last bound land in an implicit overflow
/// bucket (so there are bounds.size() + 1 buckets). The sum of recorded
/// values is kept alongside the bucket counts.
class Histogram {
 public:
  void Record(int64_t value);
  /// Records `count` occurrences of `value` in one shot (bulk flush of a
  /// locally accumulated distribution).
  void RecordMany(int64_t value, int64_t count);

 private:
  friend class RegistryImpl;
  Histogram(uint32_t first_cell, std::vector<int64_t> bounds)
      : first_cell_(first_cell), bounds_(std::move(bounds)) {}
  uint32_t first_cell_;  // bounds.size() + 1 bucket cells, then a sum cell
  std::vector<int64_t> bounds_;
};

/// Finds or registers a metric by name. Pointers are stable for the
/// process lifetime. Re-registering a histogram name ignores the new
/// bounds and returns the existing histogram. When the registry's fixed
/// cell budget is exhausted, every further registration aliases a shared
/// `metrics.dropped` counter so instrumented code keeps working (the
/// dropped counter then over-counts, which the snapshot makes visible).
Counter* GetCounter(std::string_view name);
Gauge* GetGauge(std::string_view name);
Histogram* GetHistogram(std::string_view name, std::vector<int64_t> bounds);

struct HistogramSnapshot {
  std::string name;
  std::vector<int64_t> bounds;  // ascending upper edges
  std::vector<int64_t> counts;  // bounds.size() + 1 (last = overflow)
  int64_t count = 0;            // total recordings
  int64_t sum = 0;              // sum of recorded values
};

/// A merged view of every registered metric, each section sorted by name
/// (so two snapshots of the same totals render byte-identically regardless
/// of registration order).
struct Snapshot {
  std::vector<std::pair<std::string, int64_t>> counters;
  std::vector<std::pair<std::string, int64_t>> gauges;
  std::vector<HistogramSnapshot> histograms;
};

/// Merges all shards into a Snapshot. Safe to call any time; exact once
/// writers have quiesced.
Snapshot Collect();

/// Zeroes every cell and gauge (metric registrations are kept). Meant for
/// tools and tests that want per-run totals; racing writers may leak a
/// few increments into the fresh epoch.
void Reset();

/// Renders a snapshot as JSON:
///   {"counters":{name:value,...},
///    "gauges":{name:value,...},
///    "histograms":{name:{"bounds":[...],"counts":[...],
///                        "count":N,"sum":S},...}}
std::string MetricsToJson(const Snapshot& snapshot);

/// Renders only the counters section ({"name":value,...}) — the
/// thread-count-deterministic slice the determinism tests compare
/// byte-for-byte.
std::string CountersToJson(const Snapshot& snapshot);

}  // namespace metrics
}  // namespace starburst

/// Instrumentation macros. Each caches its handle in a function-local
/// static (registered on first use *while collection is on*, so disabled
/// runs register nothing) and compiles to nothing under
/// -DSTARBURST_NO_METRICS. Name arguments must be string literals or
/// otherwise-stable strings.
#ifndef STARBURST_NO_METRICS

#define STARBURST_METRIC_COUNT(name, delta)                              \
  do {                                                                   \
    if (::starburst::metrics::Enabled()) {                               \
      static ::starburst::metrics::Counter* _starburst_c =               \
          ::starburst::metrics::GetCounter(name);                        \
      _starburst_c->Add(delta);                                          \
    }                                                                    \
  } while (0)

#define STARBURST_METRIC_GAUGE_SET(name, value)                          \
  do {                                                                   \
    if (::starburst::metrics::Enabled()) {                               \
      static ::starburst::metrics::Gauge* _starburst_g =                 \
          ::starburst::metrics::GetGauge(name);                          \
      _starburst_g->Set(value);                                          \
    }                                                                    \
  } while (0)

#define STARBURST_METRIC_GAUGE_MAX(name, value)                          \
  do {                                                                   \
    if (::starburst::metrics::Enabled()) {                               \
      static ::starburst::metrics::Gauge* _starburst_g =                 \
          ::starburst::metrics::GetGauge(name);                          \
      _starburst_g->Max(value);                                          \
    }                                                                    \
  } while (0)

#define STARBURST_METRIC_HISTOGRAM(name, bounds, value)                  \
  do {                                                                   \
    if (::starburst::metrics::Enabled()) {                               \
      static ::starburst::metrics::Histogram* _starburst_h =             \
          ::starburst::metrics::GetHistogram(name, bounds);              \
      _starburst_h->Record(value);                                       \
    }                                                                    \
  } while (0)

#else  // STARBURST_NO_METRICS

#define STARBURST_METRIC_COUNT(name, delta) ((void)0)
#define STARBURST_METRIC_GAUGE_SET(name, value) ((void)0)
#define STARBURST_METRIC_GAUGE_MAX(name, value) ((void)0)
#define STARBURST_METRIC_HISTOGRAM(name, bounds, value) ((void)0)

#endif  // STARBURST_NO_METRICS

#endif  // STARBURST_COMMON_METRICS_H_
