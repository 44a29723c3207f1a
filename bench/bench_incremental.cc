// bench_incremental: plain-chrono comparison of full re-analysis vs
// incremental re-certification after a single-rule edit on a 10,000-rule
// sparse catalog (workload/random_gen.h GenerateSparseCatalog), with a
// --check mode the CI perf-smoke job runs against the checked-in
// BENCH_incremental.json baseline.
//
// cold: first Analyze() on a freshly registered IncrementalAnalyzer —
//       every overlapping pair's Lemma 6.1 verdict is computed. This is
//       the from-scratch certification cost (registration excluded, which
//       only makes the gate below harder to pass).
// warm: RemoveRule + AddRule of one rule, then Analyze() — only the pairs
//       involving the edited rule recompute; everything else is reused.
//       Edit e takes the rule at position (e · 97) mod n, so the edits
//       rotate through the whole catalog instead of re-editing the rule
//       that the previous edit appended as the last one (which would
//       never touch anything above it). Remove, add and analyze are timed
//       separately and reported next to their sum.
//
// Both paths cap the confluence report at the same violation budget so
// the fixpoint cost is identical and the difference isolates pair-check
// reuse.
//
// Usage:
//   bench_incremental                        print a timing report
//   bench_incremental --json                 print the report as JSON,
//                                            with the date and the host
//   bench_incremental --check FILE [--max-ratio R]
//       re-time both paths and exit 1 when the live warm/cold ratio
//       exceeds R (default R = 0.05: a single-rule edit must re-certify
//       in at most 5% of the full-analysis wall time). The ratio is
//       machine-independent, so the gate holds across CI hardware; FILE
//       is read only to confirm the checked-in baseline exists and has a
//       ratio field.

#include <algorithm>
#include <chrono>
#include <cstddef>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <unistd.h>

#include "analysis/incremental.h"
#include "workload/random_gen.h"

using namespace starburst;  // NOLINT: tool brevity

namespace {

/// Truncating at a small violation cap keeps both paths' confluence
/// fixpoint cost identical and small; the catalogs here are not confluent
/// by design (clusters share tables), so an unlimited report would just
/// enumerate violations.
constexpr int kMaxViolations = 8;

double ElapsedNs(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::nano>(
             std::chrono::steady_clock::now() - start)
      .count();
}

void Die(const Status& status) {
  std::fprintf(stderr, "analysis failed: %s\n", status.ToString().c_str());
  std::exit(2);
}

/// Registers every rule of `set` into a fresh analyzer.
IncrementalAnalyzer Register(const GeneratedRuleSet& set) {
  IncrementalAnalyzer inc(set.schema.get());
  for (const RuleDef& rule : set.rules) {
    Status status = inc.AddRule(rule.Clone());
    if (!status.ok()) Die(status);
  }
  return inc;
}

/// Edit e edits the rule at position (e · kEditStride) mod n. The stride
/// is coprime with the catalog size, so the edits visit every position.
constexpr size_t kEditStride = 97;

struct Measurement {
  double cold_ns = 0;
  double warm_ns = 0;
  double warm_remove_ns = 0;
  double warm_add_ns = 0;
  double warm_analyze_ns = 0;
  long cold_pairs_computed = 0;
  long warm_pairs_computed = 0;
  long warm_pairs_reused = 0;
  long warm_components_reused = 0;
};

double Median(std::vector<double> runs) {
  std::sort(runs.begin(), runs.end());
  return runs[runs.size() / 2];
}

/// Medians over kReps repetitions. The cold path is one big Analyze() per
/// repetition; the warm path loops edits for 0.2s of wall time (each edit
/// removes a rule and adds it back as the last one, so the catalog holds
/// the same rules every iteration). The warm edit time is the wall time of
/// a whole iteration (the rule's Clone(), the result's destruction and
/// the bookkeeping included); the remove, add and analyze timers inside it
/// break it down.
Measurement Measure(const GeneratedRuleSet& set) {
  Measurement m;
  constexpr int kReps = 5;

  std::vector<double> cold_runs;
  for (int rep = 0; rep < kReps; ++rep) {
    IncrementalAnalyzer inc = Register(set);
    auto start = std::chrono::steady_clock::now();
    auto result = inc.Analyze({}, kMaxViolations);
    cold_runs.push_back(ElapsedNs(start));
    if (!result.ok()) Die(result.status());
    m.cold_pairs_computed = result.value().stats.pair_checks_computed;
  }
  m.cold_ns = Median(cold_runs);

  // One long-lived analyzer for the warm path: the first Analyze() above
  // the loop warms it, then every iteration is edit + re-certify.
  IncrementalAnalyzer inc = Register(set);
  if (auto warmup = inc.Analyze({}, kMaxViolations); !warmup.ok()) {
    Die(warmup.status());
  }
  // The rules in the analyzer's positional order, updated outside the
  // timed calls.
  std::vector<const RuleDef*> order;
  for (const RuleDef& rule : set.rules) order.push_back(&rule);
  size_t edit = 0;
  std::vector<double> warm_runs, remove_runs, add_runs, analyze_runs;
  for (int rep = 0; rep < kReps; ++rep) {
    int iters = 0;
    double remove_ns = 0, add_ns = 0, analyze_ns = 0, wall_ns = 0;
    auto wall_start = std::chrono::steady_clock::now();
    // The condition reads the clock after the previous body's locals
    // (the clone and `result`) are destroyed.
    while ((wall_ns = ElapsedNs(wall_start)) < 0.2 * 1e9) {
      size_t position = (edit++ * kEditStride) % order.size();
      const RuleDef* rule = order[position];
      RuleDef clone = rule->Clone();
      auto start = std::chrono::steady_clock::now();
      if (Status s = inc.RemoveRule(rule->name); !s.ok()) Die(s);
      remove_ns += ElapsedNs(start);
      start = std::chrono::steady_clock::now();
      if (Status s = inc.AddRule(std::move(clone)); !s.ok()) Die(s);
      add_ns += ElapsedNs(start);
      start = std::chrono::steady_clock::now();
      auto result = inc.Analyze({}, kMaxViolations);
      analyze_ns += ElapsedNs(start);
      if (!result.ok()) Die(result.status());
      order.erase(order.begin() + static_cast<std::ptrdiff_t>(position));
      order.push_back(rule);
      m.warm_pairs_computed = result.value().stats.pair_checks_computed;
      m.warm_pairs_reused = result.value().stats.pair_checks_reused;
      m.warm_components_reused =
          result.value().stats.termination_components_reused;
      ++iters;
    }
    remove_runs.push_back(remove_ns / iters);
    add_runs.push_back(add_ns / iters);
    analyze_runs.push_back(analyze_ns / iters);
    warm_runs.push_back(wall_ns / iters);
  }
  m.warm_ns = Median(warm_runs);
  m.warm_remove_ns = Median(remove_runs);
  m.warm_add_ns = Median(add_runs);
  m.warm_analyze_ns = Median(analyze_runs);
  return m;
}

#ifndef STARBURST_BUILD_TYPE
#define STARBURST_BUILD_TYPE "unknown"
#endif

/// Today's date as YYYY-MM-DD (UTC).
std::string Today() {
  std::time_t now = std::time(nullptr);
  char buf[16];
  std::strftime(buf, sizeof(buf), "%Y-%m-%d", std::gmtime(&now));
  return buf;
}

/// Minimal extraction of `"key": <number>` from the baseline JSON; good
/// enough for the file this tool writes itself.
double JsonNumber(const std::string& json, const std::string& key) {
  std::string needle = "\"" + key + "\":";
  size_t pos = json.find(needle);
  if (pos == std::string::npos) return -1;
  return std::strtod(json.c_str() + pos + needle.size(), nullptr);
}

}  // namespace

int main(int argc, char** argv) {
  bool as_json = false;
  std::string check_path;
  double max_ratio = 0.05;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--json") {
      as_json = true;
    } else if (arg == "--check" && i + 1 < argc) {
      check_path = argv[++i];
    } else if (arg == "--max-ratio" && i + 1 < argc) {
      max_ratio = std::strtod(argv[++i], nullptr);
    } else {
      std::fprintf(stderr,
                   "usage: bench_incremental [--json] [--check FILE "
                   "[--max-ratio R]]\n");
      return 2;
    }
  }

  SparseCatalogParams params;  // 10k rules, 100 clusters, 5% overlap.
  GeneratedRuleSet set = RandomRuleSetGenerator::GenerateSparseCatalog(params);
  Measurement m = Measure(set);
  double ratio = m.warm_ns / m.cold_ns;

  if (!check_path.empty()) {
    std::ifstream in(check_path);
    if (!in) {
      std::fprintf(stderr, "cannot read baseline %s\n", check_path.c_str());
      return 2;
    }
    std::stringstream buffer;
    buffer << in.rdbuf();
    double baseline_ratio = JsonNumber(buffer.str(), "ratio");
    if (baseline_ratio <= 0) {
      std::fprintf(stderr, "baseline %s has no ratio\n", check_path.c_str());
      return 2;
    }
    std::printf(
        "incremental re-certification: %.2f%% of full analysis "
        "(baseline %.2f%%, limit %.1f%%)\n"
        "  warm edit %.0f ns (of which remove %.0f, add %.0f, analyze "
        "%.0f); cold %.0f ns\n",
        100 * ratio, 100 * baseline_ratio, 100 * max_ratio, m.warm_ns,
        m.warm_remove_ns, m.warm_add_ns, m.warm_analyze_ns, m.cold_ns);
    if (ratio > max_ratio) {
      std::fprintf(stderr, "PERF REGRESSION: %.2f%% > %.1f%%\n", 100 * ratio,
                   100 * max_ratio);
      return 1;
    }
    return 0;
  }

  double speedup = m.cold_ns / m.warm_ns;
  if (as_json) {
    std::printf(
        "{\n"
        "  \"workload\": \"sparse_catalog_n%d_c%d_overlap%.2f\",\n"
        "  \"date\": \"%s\",\n"
        "  \"host\": {\"nproc\": %ld, \"build_type\": \"%s\"},\n"
        "  \"num_rules\": %d,\n"
        "  \"edit_stride\": %zu,\n"
        "  \"cold_ns\": %.0f,\n"
        "  \"warm_ns\": %.0f,\n"
        "  \"warm_remove_ns\": %.0f,\n"
        "  \"warm_add_ns\": %.0f,\n"
        "  \"warm_analyze_ns\": %.0f,\n"
        "  \"ratio\": %.6f,\n"
        "  \"speedup\": %.1f,\n"
        "  \"cold_pairs_computed\": %ld,\n"
        "  \"warm_pairs_computed\": %ld,\n"
        "  \"warm_pairs_reused\": %ld,\n"
        "  \"warm_components_reused\": %ld\n"
        "}\n",
        params.num_rules, params.num_clusters, params.overlap_density,
        Today().c_str(), sysconf(_SC_NPROCESSORS_ONLN), STARBURST_BUILD_TYPE,
        params.num_rules, kEditStride, m.cold_ns, m.warm_ns, m.warm_remove_ns,
        m.warm_add_ns, m.warm_analyze_ns, ratio, speedup,
        m.cold_pairs_computed, m.warm_pairs_computed, m.warm_pairs_reused,
        m.warm_components_reused);
  } else {
    std::printf("workload: %d rules, %d clusters, %.0f%% overlap density\n",
                params.num_rules, params.num_clusters,
                100 * params.overlap_density);
    std::printf("full analysis (cold):          %12.0f ns  (%ld pair checks "
                "computed)\n",
                m.cold_ns, m.cold_pairs_computed);
    std::printf("one-rule re-certify (warm):    %12.0f ns  (%ld computed, "
                "%ld reused, %ld components reused)\n",
                m.warm_ns, m.warm_pairs_computed, m.warm_pairs_reused,
                m.warm_components_reused);
    std::printf("  of which remove %.0f ns, add %.0f ns, analyze %.0f ns\n",
                m.warm_remove_ns, m.warm_add_ns, m.warm_analyze_ns);
    std::printf("warm/cold ratio: %.3f%%  (speedup %.0fx)\n", 100 * ratio,
                speedup);
  }
  return 0;
}
