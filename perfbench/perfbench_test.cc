// Tests of the benchmark itself: seeded inputs are reproducible, a wrong
// expected output is counted as a failure, and the traced run's spans
// account for the share of each round trip it reports.

#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "inputs.h"
#include "report.h"
#include "service/http.h"
#include "service/router.h"
#include "service/tenant.h"
#include "service_workloads.h"
#include "span_log.h"

namespace perfbench {
namespace {

int failures = 0;

#define EXPECT(cond)                                                    \
  do {                                                                  \
    if (!(cond)) {                                                      \
      std::fprintf(stderr, "%s:%d: EXPECT(%s) failed\n", __FILE__,      \
                   __LINE__, #cond);                                    \
      ++failures;                                                       \
    }                                                                   \
  } while (0)

double MetricValue(const WorkloadResult& r, const std::string& name,
                   bool* found) {
  for (const Metric& m : r.metrics) {
    if (m.name == name) {
      *found = true;
      return m.value;
    }
  }
  *found = false;
  return 0;
}

std::vector<std::string> MetricNames(const WorkloadResult& r) {
  std::vector<std::string> names;
  for (const Metric& m : r.metrics) names.push_back(m.name + " " + m.unit);
  return names;
}

void SameSeedSameInputs() {
  EXPECT(Serialize(MakeTenantMix(7, 300)) == Serialize(MakeTenantMix(7, 300)));
  EXPECT(Serialize(MakeTenantMix(7, 300)) != Serialize(MakeTenantMix(8, 300)));
  EXPECT(Serialize(MakeBigTenant(7, 1000, 50)) ==
         Serialize(MakeBigTenant(7, 1000, 50)));
  EXPECT(Serialize(MakeBigTenant(7, 1000, 50)) !=
         Serialize(MakeBigTenant(8, 1000, 50)));

  AnalystSizes small;
  small.cold_rules = 60;
  small.incremental_rules = 200;
  small.edits = 10;
  small.lattice_cases = 4;
  small.cascade_depth = 3;
  auto a = MakeAnalystInput(7, small);
  auto b = MakeAnalystInput(7, small);
  auto c = MakeAnalystInput(8, small);
  EXPECT(a.ok() && b.ok() && c.ok());
  if (a.ok() && b.ok() && c.ok()) {
    EXPECT(a.value().description == b.value().description);
    EXPECT(a.value().description != c.value().description);
    EXPECT(a.value().explore.size() == 4 + 4);
  }
}

/// Sends `input`'s requests through an in-process router and checks them
/// with TenantVerifier; returns the tally. With `corrupt`, the first commit
/// reply's fingerprint and the first analyze reply are altered.
WorkloadResult VerifyInProcess(const ServiceInput& input, bool corrupt) {
  starburst::service::TenantRegistry registry;
  starburst::service::ServiceRouter router(&registry);
  auto send = [&](const std::string& method, const std::string& target,
                  const std::string& body) {
    starburst::service::HttpRequestParser parser;
    const std::string wire =
        starburst::service::SerializeRequest(method, target, body, "test");
    parser.Feed(wire.data(), wire.size());
    return router.Handle(parser.request());
  };
  WorkloadResult result;
  std::vector<std::unique_ptr<TenantVerifier>> verifiers;
  for (const TenantInput& t : input.tenants) {
    EXPECT(send("POST", "/v1/tenants/" + t.name, t.script).status == 201);
    for (const std::string& body : t.preload) {
      EXPECT(send("POST", "/v1/tenants/" + t.name + "/transition?commit=1",
                  body)
                 .status == 200);
    }
    auto v = TenantVerifier::Create(t);
    EXPECT(v.ok());
    verifiers.push_back(std::move(v).value());
  }
  bool corrupted_commit = false;
  bool corrupted_analyze = false;
  for (const auto& seq : input.connections) {
    for (const Request& r : seq) {
      auto response = send(r.method, r.target, r.body);
      if (corrupt && !corrupted_commit && r.kind == RequestKind::kCommit) {
        const size_t at = response.body.find("\"fingerprint\":\"");
        response.body[at + 15] = response.body[at + 15] == '0' ? '1' : '0';
        corrupted_commit = true;
      }
      if (corrupt && !corrupted_analyze && r.kind == RequestKind::kAnalyze) {
        response.body.back() = ' ';
        corrupted_analyze = true;
      }
      if (r.tenant < 0) {
        result.Check(response.status == 200, r.target);
      } else {
        verifiers[static_cast<size_t>(r.tenant)]->Check(
            r, response.status, RetainedBody(r.kind, response.body), &result);
      }
    }
  }
  for (size_t t = 0; t < input.tenants.size(); ++t) {
    CheckFinalFingerprint(
        input.tenants[t].name, verifiers[t]->Fingerprint(),
        HexFingerprint(registry.Find(input.tenants[t].name)->db()), &result);
  }
  return result;
}

void WrongOutputsAreFailures() {
  const ServiceInput input = MakeTenantMix(3, 400);
  WorkloadResult clean = VerifyInProcess(input, false);
  EXPECT(clean.attempted > 800);
  EXPECT(clean.failed == 0);

  WorkloadResult tampered = VerifyInProcess(input, true);
  EXPECT(tampered.attempted == clean.attempted);
  EXPECT(tampered.failed == 2);

  // A deliberately wrong expected final fingerprint is a failure, not a
  // skip.
  WorkloadResult final_check;
  CheckFinalFingerprint("t", "00000000000000000000000000000000",
                        "0123456789abcdef0123456789abcdef", &final_check);
  EXPECT(final_check.attempted == 1);
  EXPECT(final_check.failed == 1);
  EXPECT(ResultJson(final_check).find("\"correct\": false") !=
         std::string::npos);
}

void SelfTimeSubtractsChildren() {
  SpanLog log(true);
  {
    ScopedSpan root(&log, "root", -1, 1);
    { ScopedSpan child(&log, "child", root.id(), 1); }
    { ScopedSpan child(&log, "child", root.id(), 1); }
  }
  auto totals = log.Aggregate();
  EXPECT(totals["child"].count == 2);
  EXPECT(totals["root"].self_us <= totals["root"].total_us);
  EXPECT(totals["root"].total_us + 1e-9 >=
         totals["root"].self_us + totals["child"].total_us);

  SpanLog off(false);
  { ScopedSpan s(&off, "x"); }
  EXPECT(off.spans().empty());
}

/// Adds a span of [start, end) ns under `parent`.
int AddSpan(SpanLog* log, const char* name, int64_t start, int64_t end,
            int parent, int64_t request) {
  return log->Add({name, start, end, parent, request});
}

void TraceSharesFollowSpans() {
  SpanLog log(true);
  // Two requests of 1000 ns: 950 ns and 900 ns inside their stages.
  int r = AddSpan(&log, "request", 0, 1000, -1, 1);
  AddSpan(&log, "service.http_parse", 0, 100, r, 1);
  AddSpan(&log, "service.handle", 100, 900, r, 1);
  AddSpan(&log, "service.http_serialize", 900, 950, r, 1);
  r = AddSpan(&log, "request", 2000, 3000, -1, 2);
  AddSpan(&log, "service.handle", 2000, 2900, r, 2);
  // A dry run of 1000 ns: copy 600, parse 100, assert 200, self 100.
  r = AddSpan(&log, "stages.transition", 4000, 5000, -1, 3);
  AddSpan(&log, "engine.db_copy", 4000, 4600, r, 3);
  AddSpan(&log, "rulelang.parse", 4600, 4700, r, 3);
  AddSpan(&log, "rules.assert", 4700, 4900, r, 3);
  TraceShares shares = ComputeTraceShares(log);
  EXPECT(std::abs(shares.request_stage_pct - 92.5) < 1e-9);
  EXPECT(std::abs(shares.dryrun_db_copy_pct - 60.0) < 1e-9);
  EXPECT(shares.largest_dryrun_stage == "engine.db_copy");

  // Without the copy, the assert stage is the largest.
  SpanLog small(true);
  r = AddSpan(&small, "stages.transition", 0, 1000, -1, 1);
  AddSpan(&small, "engine.db_copy", 0, 100, r, 1);
  AddSpan(&small, "rules.assert", 100, 800, r, 1);
  shares = ComputeTraceShares(small);
  EXPECT(shares.largest_dryrun_stage == "rules.assert");
  EXPECT(std::abs(shares.largest_dryrun_pct - 70.0) < 1e-9);
  EXPECT(shares.request_stage_pct == 0);
}

void TracedRunReportsCoveredShares() {
  RunOptions options;
  options.seed = 5;
  options.trace = true;
  WorkloadResult mix = RunTenantMix(options, 400);
  EXPECT(mix.failed == 0);
  bool found = false;
  // The request span holds little besides its three stages: serializing
  // the request bytes it parses.
  const double share =
      MetricValue(mix, "trace.request_stage_share_pct", &found);
  EXPECT(found && share > 50.0 && share <= 100.0);
  const double coverage = MetricValue(mix, "trace.span_coverage_pct", &found);
  EXPECT(found && coverage > 0 && coverage <= 100.0);
  EXPECT(MetricValue(mix, "analysis.report_json_pct", &found) > 0 && found);

  // Full-size table, few requests: the traced run checks that the copy is
  // the largest dry-run stage and that no analysis or exploration ran.
  WorkloadResult big = RunBigTenant(options, 10000, 40);
  EXPECT(big.failed == 0);
  EXPECT(MetricValue(big, "engine.db_copy_pct", &found) > 0 && found);
  EXPECT(MetricValue(big, "analysis.create_pct", &found) == 0 && found);
  EXPECT(MetricNames(big) == MetricNames(mix));
}

// Every workload reports every metric of the manifest, so the service
// workloads, untraced, report the same names too.
void WorkloadsReportTheSameNames() {
  RunOptions options;
  options.seed = 5;
  const WorkloadResult mix = RunTenantMix(options, 400);
  const WorkloadResult big = RunBigTenant(options, 1000, 40);
  EXPECT(mix.failed == 0 && big.failed == 0);
  EXPECT(MetricNames(mix) == MetricNames(big));
  bool found = false;
  EXPECT(MetricValue(mix, "latency_4_ms", &found) > 0 && found);
}

}  // namespace
}  // namespace perfbench

int main() {
  perfbench::SameSeedSameInputs();
  perfbench::WrongOutputsAreFailures();
  perfbench::SelfTimeSubtractsChildren();
  perfbench::TraceSharesFollowSpans();
  perfbench::TracedRunReportsCoveredShares();
  perfbench::WorkloadsReportTheSameNames();
  if (perfbench::failures != 0) {
    std::fprintf(stderr, "%d expectation(s) failed\n", perfbench::failures);
    return 1;
  }
  std::printf("perfbench_test: all passed\n");
  return 0;
}
