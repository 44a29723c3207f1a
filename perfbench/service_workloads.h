#ifndef PERFBENCH_SERVICE_WORKLOADS_H_
#define PERFBENCH_SERVICE_WORKLOADS_H_

#include <memory>
#include <string>

#include "analysis/analyzer.h"
#include "common/status.h"
#include "engine/database.h"
#include "inputs.h"
#include "report.h"
#include "span_log.h"
#include "workload/random_gen.h"

namespace perfbench {

/// The two `ruled` workloads: an in-process RuledServer driven over
/// loopback by closed-loop HttpClientConnection callers.
WorkloadResult RunTenantMix(const RunOptions& options);
WorkloadResult RunBigTenant(const RunOptions& options);
/// The same workloads at explicit sizes (the tests run them small).
WorkloadResult RunTenantMix(const RunOptions& options,
                            int requests_per_connection);
WorkloadResult RunBigTenant(const RunOptions& options, int rows,
                            int requests_per_kind);

/// What the traced run derives from its spans. A `request` span holds
/// the parse, handle and serialize spans of one request; a
/// `stages.transition` span holds the stages of one dry-run transition.
struct TraceShares {
  /// Share of the `request` spans' time their children cover, in %.
  double request_stage_pct = 0;
  /// Share of the `stages.transition` spans' time in `engine.db_copy`.
  double dryrun_db_copy_pct = 0;
  /// The dry-run stage (or "(self)") with the largest share, and that
  /// share in %.
  std::string largest_dryrun_stage = "none";
  double largest_dryrun_pct = 0;
};
TraceShares ComputeTraceShares(const SpanLog& log);

/// Replays one tenant's requests in process, in the order the tenant saw
/// them, and checks every response against it: HTTP status, the
/// transition fingerprint, the byte-exact `analyze` body, the certify
/// acknowledgement. Each mismatch is one failed operation.
class TenantVerifier {
 public:
  static starburst::Result<std::unique_ptr<TenantVerifier>> Create(
      const TenantInput& tenant);

  /// `body` is RetainedBody() of the response body.
  void Check(const Request& request, int status, const std::string& body,
             WorkloadResult* result);
  /// Hex content fingerprint of the replayed committed state.
  std::string Fingerprint() const;

 private:
  TenantVerifier(starburst::GeneratedRuleSet set,
                 starburst::Analyzer analyzer);
  /// Runs `body`'s statements as one transaction; commits it or reverts
  /// it. Returns the resulting fingerprint (hex) and rule steps.
  starburst::Result<std::string> Run(const std::string& body, bool commit);

  starburst::GeneratedRuleSet set_;  // owns the schema
  starburst::Analyzer analyzer_;
  starburst::Database db_;
  std::string expected_report_;  // cached until the next certification
};

/// Records one end-of-run check: the tenant's fingerprint as the server
/// holds it against the replay's.
void CheckFinalFingerprint(const std::string& tenant,
                           const std::string& expected,
                           const std::string& actual, WorkloadResult* result);

std::string HexFingerprint(const starburst::Database& db);

/// What the benchmark keeps of a response body until it is checked: the
/// body itself, except for `analyze`, whose reports are large — there it
/// keeps the length and the 64-bit FNV-1a hash, so holding every reply
/// does not swell the process's peak memory. TenantVerifier::Check takes
/// this form.
std::string RetainedBody(RequestKind kind, std::string body);

}  // namespace perfbench

#endif  // PERFBENCH_SERVICE_WORKLOADS_H_
