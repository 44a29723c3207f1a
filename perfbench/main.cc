// perfbench: the repository's end-to-end and per-layer benchmark.
//
//   perfbench --workload tenant_mix|big_tenant|analyst_loop --seed N
//             --seconds S --trace 0|1
//
// Prints host context lines, then, as the last line, one JSON object:
// {"correct", "attempted", "failed", "metrics"}. --trace 0 reports the
// workload's end-to-end metrics; --trace 1 runs the same seed again with
// spans around each call into a layer and reports the per-layer metrics.
// perfbench/run.py builds this binary from the checkout and runs it.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "analyst_workload.h"
#include "common/thread_pool.h"
#include "report.h"
#include "service_workloads.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

int Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "tenant_mix|big_tenant|analyst_loop --seed N --seconds S "
               "--trace 0|1\n",
               why);
  return 2;
}

bool ParseInt(const char* s, long long* out) {
  char* end = nullptr;
  *out = std::strtoll(s, &end, 10);
  return end != s && *end == '\0';
}

}  // namespace

int main(int argc, char** argv) {
  using namespace perfbench;
  std::string workload;
  RunOptions options;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return Usage(("missing value for " + flag).c_str());
    const char* value = argv[++i];
    long long n = 0;
    if (flag == "--workload") {
      workload = value;
    } else if (!ParseInt(value, &n) || n < 0) {
      return Usage(("bad value for " + flag).c_str());
    } else if (flag == "--seed") {
      options.seed = static_cast<uint64_t>(n);
    } else if (flag == "--seconds") {
      options.seconds = static_cast<int>(std::min(n, 3600LL));
    } else if (flag == "--trace") {
      options.trace = n != 0;
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }
  // Settings the program reads from its environment would change the
  // numbers; run.py clears them, and the benchmark refuses to run with any
  // of them set.
  for (const char* env : {"STARBURST_THREADS", "STARBURST_POR",
                          "STARBURST_TRACE", "STARBURST_METRICS"}) {
    const char* v = std::getenv(env);
    if (v != nullptr && *v != '\0') {
      return Usage((std::string(env) + " is set; unset it").c_str());
    }
  }

  const int64_t steal0 = StealJiffies();
  WorkloadResult result;
  if (workload == "tenant_mix") {
    result = RunTenantMix(options);
  } else if (workload == "big_tenant") {
    result = RunBigTenant(options);
  } else if (workload == "analyst_loop") {
    result = RunAnalystLoop(options);
  } else {
    return Usage(("unknown workload '" + workload + "'").c_str());
  }
  const int64_t steal1 = StealJiffies();

  std::printf(
      "{\"context\": {\"workload\": \"%s\", \"seed\": %llu, \"seconds\": %d, "
      "\"trace\": %d, \"build_type\": \"%s\", \"nproc\": %d, "
      "\"pool_threads\": %d, \"explorer_por\": \"set per call: off, "
      "commute for verdicts\", "
      "\"steal_jiffies\": %lld, \"loadavg_1m\": %.2f}}\n",
      workload.c_str(), static_cast<unsigned long long>(options.seed),
      options.seconds, options.trace ? 1 : 0, PERFBENCH_BUILD_TYPE,
      OnlineCpus(), starburst::ThreadPool::Default().num_threads(),
      static_cast<long long>(steal1 - steal0), LoadAverage1());
  for (const std::string& line : result.context) {
    std::printf("# %s\n", line.c_str());
  }
  for (const std::string& f : result.failures) {
    std::fprintf(stderr, "perfbench: FAILED %s\n", f.c_str());
  }
  if (result.attempted < 1) {
    std::fprintf(stderr, "perfbench: nothing was attempted\n");
    return 1;
  }
  std::printf("%s\n", ResultJson(result).c_str());
  return 0;
}
