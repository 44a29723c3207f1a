#include "report.h"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "common/thread_pool.h"

namespace perfbench {

namespace {

/// Every stage span either workload opens around a call into a layer.
constexpr const char* kStageSpans[] = {
    "service.http_parse",          "service.http_serialize",
    "service.handle",              "rulelang.parse",
    "rulelang.catalog_parse",      "engine.db_copy",
    "engine.fingerprint",          "rules.execute",
    "rules.assert",                "analysis.create",
    "analysis.termination",        "analysis.confluence",
    "analysis.observable",         "analysis.commutativity",
    "analysis.report_json",        "analysis.incremental_remove",
    "analysis.incremental_add",    "analysis.incremental_analyze",
    "analysis.witness_extract",    "analysis.witness_replay",
};

}  // namespace

void AddLatencySlots(
    const std::vector<std::pair<std::string, double>>& figures,
    WorkloadResult* result) {
  for (size_t i = 0; i < figures.size(); ++i) {
    const std::string slot = "latency_" + std::to_string(i + 1) + "_ms";
    result->Add(slot, figures[i].second, "ms");
    result->context.push_back(slot + " is " + figures[i].first);
  }
}

void AddLayerMetrics(const SpanLog& log, const LayerFigures& f,
                     WorkloadResult* result) {
  const std::map<std::string, SpanLog::Totals> totals = log.Aggregate();
  double root_us = 0;
  for (const SpanLog::Span& s : log.spans()) {
    if (s.parent < 0) {
      root_us += static_cast<double>(s.end_ns - s.start_ns) / 1e3;
    }
  }
  for (const char* name : kStageSpans) {
    auto it = totals.find(name);
    const double us = it == totals.end() ? 0 : it->second.total_us;
    result->Add(std::string(name) + "_pct",
                root_us > 0 ? 100.0 * us / root_us : 0, "%");
    if (it != totals.end()) {
      char line[128];
      std::snprintf(line, sizeof(line), "mean %s_us %.3f over %lld calls",
                    name, log.MeanUs(totals, name),
                    static_cast<long long>(it->second.count));
      result->context.push_back(line);
    }
  }
  const double pool_threads = starburst::ThreadPool::Default().num_threads();
  for (const Metric& m : std::vector<Metric>{
           {"service.wire_pct", f.service_wire_pct, "%"},
           {"service.queue_depth_mean", f.service_queue_depth_mean, "count"},
           {"service.response_bytes", f.service_response_bytes, "bytes"},
           {"engine.db_rows", f.engine_db_rows, "count"},
           {"rules.steps", f.rules_steps, "count"},
           {"analysis.pairs_computed", f.analysis_pairs_computed, "count"},
           {"analysis.pairs_reused", f.analysis_pairs_reused, "count"},
           {"analysis.pair_reuse_ratio", f.analysis_pair_reuse_ratio, "ratio"},
           {"explorer.states_visited", f.explorer_states_visited, "count"},
           {"explorer.steps_taken", f.explorer_steps_taken, "count"},
           {"explorer.interner_hit_rate", f.explorer_interner_hit_rate,
            "ratio"},
           {"explorer.por_pruned_orders", f.explorer_por_pruned_orders,
            "count"},
           {"explorer.dedup_hits", f.explorer_dedup_hits, "count"},
           {"explorer.steals", f.explorer_steals, "count"},
           {"explorer.parallel_fallbacks", f.explorer_parallel_fallbacks,
            "count"},
           {"explorer.parallel_states_per_s", f.explorer_parallel_states_per_s,
            "1/s"},
           {"explorer.parallel_efficiency", f.explorer_parallel_efficiency,
            "ratio"},
           {"common.pool_threads", pool_threads, "count"},
           {"trace.overhead_pct", f.trace_overhead_pct, "%"},
           {"trace.span_coverage_pct", f.trace_span_coverage_pct, "%"},
           {"trace.request_stage_share_pct", f.trace_request_stage_share_pct,
            "%"},
           {"trace.dryrun_db_copy_share_pct",
            f.trace_dryrun_db_copy_share_pct, "%"}}) {
    result->metrics.push_back(m);
  }
}

double Percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  // Nearest rank: the smallest value with at least q of the samples at or
  // below it.
  size_t rank = static_cast<size_t>(
      std::ceil(q * static_cast<double>(values.size())));
  if (rank == 0) rank = 1;
  return values[std::min(rank, values.size()) - 1];
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2;
}

double FastQuartileMs(std::vector<double> durations) {
  return Percentile(std::move(durations), 0.25);
}

double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0;
  double sum = 0;
  for (double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

int64_t StealJiffies() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  int64_t fields[8] = {};
  if (!(in >> cpu) || cpu != "cpu") return -1;
  for (int64_t& f : fields) {
    if (!(in >> f)) return -1;
  }
  return fields[7];  // user nice system idle iowait irq softirq steal
}

double LoadAverage1() {
  double load[1] = {0};
  return getloadavg(load, 1) == 1 ? load[0] : -1;
}

int OnlineCpus() { return static_cast<int>(sysconf(_SC_NPROCESSORS_ONLN)); }

std::string ResultJson(const WorkloadResult& result) {
  std::ostringstream out;
  out << "{\"correct\": " << (result.failed == 0 ? "true" : "false")
      << ", \"attempted\": " << result.attempted
      << ", \"failed\": " << result.failed << ", \"metrics\": {";
  for (size_t i = 0; i < result.metrics.size(); ++i) {
    const Metric& m = result.metrics[i];
    char value[64];
    std::snprintf(value, sizeof(value), "%.9g",
                  std::isfinite(m.value) ? m.value : 0.0);
    if (i > 0) out << ", ";
    out << "\"" << m.name << "\": {\"value\": " << value << ", \"unit\": \""
        << m.unit << "\"}";
  }
  out << "}}";
  return out.str();
}

}  // namespace perfbench
