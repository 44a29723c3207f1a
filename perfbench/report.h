#ifndef PERFBENCH_REPORT_H_
#define PERFBENCH_REPORT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "span_log.h"

namespace perfbench {

struct RunOptions {
  uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// What one workload run reports: the correctness tally and its metrics
/// (end-to-end ones untraced, per-layer ones traced), plus free-form
/// context lines printed before the result.
struct WorkloadResult {
  int64_t attempted = 0;
  int64_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<std::string> context;
  /// First few failure descriptions, printed to stderr.
  std::vector<std::string> failures;

  void Add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  /// Counts one checked operation; a false `ok` is one failure.
  void Check(bool ok, const std::string& what) {
    ++attempted;
    if (ok) return;
    ++failed;
    if (failures.size() < 20) failures.push_back(what);
  }
};

/// Adds the workload's headline latencies as the end-to-end metrics
/// latency_1_ms .. latency_4_ms, in the order given. Every workload
/// reports the same metric names, so each maps its own four headline
/// timings onto them; a context line records which figure each one is.
void AddLatencySlots(
    const std::vector<std::pair<std::string, double>>& figures,
    WorkloadResult* result);

/// The per-layer figures the traced run reports besides span shares.
/// Every workload reports all of them; a figure whose layer the workload
/// never calls stays 0.
struct LayerFigures {
  double service_wire_pct = 0;
  double service_queue_depth_mean = 0;
  double service_response_bytes = 0;
  double engine_db_rows = 0;
  double rules_steps = 0;
  double analysis_pairs_computed = 0;
  double analysis_pairs_reused = 0;
  double analysis_pair_reuse_ratio = 0;
  double explorer_states_visited = 0;
  double explorer_steps_taken = 0;
  double explorer_interner_hit_rate = 0;
  double explorer_por_pruned_orders = 0;
  double explorer_dedup_hits = 0;
  double explorer_steals = 0;
  double explorer_parallel_fallbacks = 0;
  double explorer_parallel_states_per_s = 0;
  double explorer_parallel_efficiency = 0;
  double trace_overhead_pct = 0;
  double trace_span_coverage_pct = 0;
  double trace_request_stage_share_pct = 0;
  double trace_dryrun_db_copy_share_pct = 0;
};

/// Adds every per-layer metric: for each stage span the benchmark can
/// open, `<span>_pct`, the share of the traced run's root-span time spent
/// in spans of that name (0 when the workload makes no such call); then
/// `figures` and the pinned pool size. The mean time per call of each
/// stage the workload does call goes to a context line.
void AddLayerMetrics(const SpanLog& log, const LayerFigures& figures,
                     WorkloadResult* result);

/// Nearest-rank percentile (q in [0, 1]) of `values`; sorts a copy.
double Percentile(std::vector<double> values, double q);
double Median(std::vector<double> values);

/// The lower quartile of repeated durations of the same fixed work, for
/// timings that cannot be normalized: other tenants of a shared host only
/// ever slow the work down, in regimes lasting seconds, and the fast
/// quartile tracks the program's own speed while ignoring a lucky outlier.
double FastQuartileMs(std::vector<double> durations);
double Mean(const std::vector<double>& values);

/// Peak resident set size of this process so far, in MiB.
double PeakRssMb();

/// Host context: steal jiffies so far (from /proc/stat), the 1-minute load
/// average and the online CPU count.
int64_t StealJiffies();
double LoadAverage1();
int OnlineCpus();

/// The last stdout line: {"correct":..,"attempted":..,"failed":..,
/// "metrics":{name:{"value":..,"unit":..}}}.
std::string ResultJson(const WorkloadResult& result);

}  // namespace perfbench

#endif  // PERFBENCH_REPORT_H_
