#include "service/router.h"

#include <chrono>
#include <cstdio>
#include <memory>
#include <mutex>
#include <utility>
#include <vector>

#include "analysis/json_report.h"
#include "analysis/witness.h"
#include "rules/processor.h"
#include "service/admin.h"

namespace starburst {
namespace service {
namespace {

/// Latency histogram edges in microseconds (powers-of-ish up to 1s).
const std::vector<int64_t>& LatencyBoundsUs() {
  static const std::vector<int64_t> bounds = {
      100, 250, 500, 1000, 2500, 5000, 10000, 25000, 50000, 100000,
      250000, 500000, 1000000};
  return bounds;
}

/// Splits a request body into statements: one per non-empty line, with
/// `--` comment lines skipped (the same line discipline as the corpus
/// `.rules` data sections).
std::vector<std::string> BodyStatements(const std::string& body) {
  std::vector<std::string> out;
  size_t start = 0;
  while (start <= body.size()) {
    size_t end = body.find('\n', start);
    if (end == std::string::npos) end = body.size();
    std::string line = body.substr(start, end - start);
    start = end + 1;
    while (!line.empty() && (line.back() == '\r' || line.back() == ' '))
      line.pop_back();
    size_t first = line.find_first_not_of(" \t");
    if (first == std::string::npos) continue;
    if (line.compare(first, 2, "--") == 0) continue;
    out.push_back(line.substr(first));
  }
  return out;
}

std::string HexFingerprint(const Hash128& fp) {
  char buf[33];
  std::snprintf(buf, sizeof(buf), "%016llx%016llx",
                static_cast<unsigned long long>(fp.hi),
                static_cast<unsigned long long>(fp.lo));
  return std::string(buf);
}

HttpResponse JsonResponse(int status, std::string body) {
  HttpResponse response;
  response.status = status;
  response.body = std::move(body);
  return response;
}

HttpResponse ErrorResponse(const Status& status) {
  return JsonResponse(HttpStatusFor(status),
                      ErrorJson(ErrorCodeFor(status), status.message()));
}

HttpResponse NotFoundResponse(const std::string& what) {
  return JsonResponse(404, ErrorJson("not_found", what));
}

HttpResponse MethodNotAllowed(const std::string& method,
                              const std::string& path) {
  return JsonResponse(
      405, ErrorJson("method_not_allowed", method + " not allowed on " + path));
}

std::string TenantInfoJson(const TenantInfo& info) {
  return "{\"name\":\"" + JsonEscape(info.name) +
         "\",\"rules\":" + std::to_string(info.num_rules) +
         ",\"tables\":" + std::to_string(info.num_tables) + "}";
}

/// Server maxima for client-supplied budgets: one request may hold its
/// tenant's strand for at most this much rule processing, and witness
/// reconstruction recurses at most kMaxWitnessDepth deep.
constexpr long kMaxTransitionSteps = 100000;
constexpr long kMaxWitnessSteps = 1000000;
constexpr long kMaxWitnessDepth = 256;
/// Upper bound for every other integer query parameter.
constexpr long kMaxIntParam = 1000000000L;

/// Parses a non-negative integer query parameter of at most `max`; falls
/// back to `fallback` when absent, fails on garbage.
Result<long> IntParam(const HttpRequest& request, const char* key,
                      long fallback, long max = kMaxIntParam) {
  const std::string* raw = request.QueryParam(key);
  if (raw == nullptr) return fallback;
  if (raw->empty()) {
    return Status::InvalidArgument(std::string("empty value for ?") + key);
  }
  long value = 0;
  for (char c : *raw) {
    if (c < '0' || c > '9') {
      return Status::InvalidArgument(std::string("bad integer for ?") + key +
                                     ": '" + *raw + "'");
    }
    value = value * 10 + (c - '0');
    if (value > max) {
      return Status::InvalidArgument(std::string("value too large for ?") +
                                     key + " (max " + std::to_string(max) +
                                     ")");
    }
  }
  return value;
}

}  // namespace

int HttpStatusFor(const Status& status) {
  switch (status.code()) {
    case StatusCode::kOk:
      return 200;
    case StatusCode::kInvalidArgument:
      // Duplicate tenant registration is a conflict, not a malformed
      // request (the registry tags it with "already loaded").
      return status.message().find("already loaded") != std::string::npos
                 ? 409
                 : 400;
    case StatusCode::kParseError:
    case StatusCode::kSemanticError:
      return 400;
    case StatusCode::kNotFound:
      return 404;
    case StatusCode::kExecutionError:
    case StatusCode::kLimitExceeded:
      return 422;
    case StatusCode::kInternal:
      return 500;
  }
  return 500;
}

std::string ErrorCodeFor(const Status& status) {
  switch (status.code()) {
    case StatusCode::kOk:
      return "ok";
    case StatusCode::kInvalidArgument:
      return status.message().find("already loaded") != std::string::npos
                 ? "conflict"
                 : "invalid_argument";
    case StatusCode::kParseError:
      return "parse_error";
    case StatusCode::kSemanticError:
      return "semantic_error";
    case StatusCode::kNotFound:
      return "not_found";
    case StatusCode::kExecutionError:
      return "execution_error";
    case StatusCode::kLimitExceeded:
      return "limit_exceeded";
    case StatusCode::kInternal:
      return "internal";
  }
  return "internal";
}

std::string ErrorJson(const std::string& code, const std::string& message) {
  return "{\"error\":{\"code\":\"" + JsonEscape(code) + "\",\"message\":\"" +
         JsonEscape(message) + "\"}}";
}

HttpResponse ServiceRouter::Handle(const HttpRequest& request) {
  const auto start = std::chrono::steady_clock::now();
  metrics::GetCounter("service.requests")->Add(1);
  HttpResponse response = Dispatch(request);
  if (response.status >= 400) {
    metrics::GetCounter("service.errors")->Add(1);
  }
  const auto elapsed = std::chrono::duration_cast<std::chrono::microseconds>(
      std::chrono::steady_clock::now() - start);
  metrics::GetHistogram("service.request_us", LatencyBoundsUs())
      ->Record(elapsed.count());
  return response;
}

HttpResponse ServiceRouter::Dispatch(const HttpRequest& request) {
  const std::string& path = request.path;
  if (path == "/healthz") {
    if (request.method != "GET") return MethodNotAllowed(request.method, path);
    return JsonResponse(200, HealthJson(*registry_));
  }
  if (path == "/stats") {
    if (request.method != "GET") return MethodNotAllowed(request.method, path);
    const std::string* section = request.QueryParam("section");
    return JsonResponse(200, StatsJson(*registry_, section ? *section : ""));
  }
  if (path == "/v1/tenants") return HandleTenantCollection(request);
  const std::string prefix = "/v1/tenants/";
  if (path.compare(0, prefix.size(), prefix) == 0) {
    std::string rest = path.substr(prefix.size());
    size_t slash = rest.find('/');
    if (slash == std::string::npos) return HandleTenant(request, rest);
    std::string name = rest.substr(0, slash);
    std::string verb = rest.substr(slash + 1);
    if (name.empty() || verb.empty() || verb.find('/') != std::string::npos) {
      return NotFoundResponse("no such endpoint: " + path);
    }
    return HandleTenantVerb(request, name, verb);
  }
  return NotFoundResponse("no such endpoint: " + path);
}

HttpResponse ServiceRouter::HandleTenantCollection(const HttpRequest& request) {
  if (request.method != "GET") {
    return MethodNotAllowed(request.method, request.path);
  }
  std::string body = "{\"tenants\":[";
  bool first = true;
  for (const TenantInfo& info : registry_->List()) {
    if (!first) body += ",";
    first = false;
    body += TenantInfoJson(info);
  }
  body += "]}";
  return JsonResponse(200, body);
}

HttpResponse ServiceRouter::HandleTenant(const HttpRequest& request,
                                         const std::string& name) {
  if (request.method == "POST" || request.method == "PUT") {
    Result<TenantInfo> info = registry_->Load(name, request.body);
    if (!info.ok()) return ErrorResponse(info.status());
    return JsonResponse(201, TenantInfoJson(info.value()));
  }
  if (request.method == "DELETE") {
    Status status = registry_->Unload(name);
    if (!status.ok()) return ErrorResponse(status);
    return JsonResponse(200, "{\"unloaded\":\"" + JsonEscape(name) + "\"}");
  }
  if (request.method == "GET") {
    std::shared_ptr<Tenant> tenant = registry_->Find(name);
    if (tenant == nullptr) return NotFoundResponse("no tenant named '" + name +
                                                   "'");
    TenantInfo info;
    info.name = tenant->name();
    info.num_rules = tenant->catalog().num_rules();
    info.num_tables = tenant->catalog().schema().num_tables();
    return JsonResponse(200, TenantInfoJson(info));
  }
  return MethodNotAllowed(request.method, request.path);
}

HttpResponse ServiceRouter::HandleTenantVerb(const HttpRequest& request,
                                             const std::string& name,
                                             const std::string& verb) {
  if (request.method != "POST") {
    return MethodNotAllowed(request.method, request.path);
  }
  std::shared_ptr<Tenant> tenant = registry_->Find(name);
  if (tenant == nullptr) {
    return NotFoundResponse("no tenant named '" + name + "'");
  }

  // Per-tenant serialization: one tenant's requests execute in lock-
  // acquisition order; other tenants' strands are independent. The
  // queue-depth gauge counts requests waiting for (not holding) a strand.
  metrics::Gauge* queue_depth = metrics::GetGauge("service.queue_depth");
  queue_depth->Add(1);
  std::unique_lock<std::mutex> strand(tenant->strand());
  queue_depth->Add(-1);
  tenant->requests()->Add(1);

  if (verb == "analyze") {
    Result<long> max_violations = IntParam(request, "max_violations", -1);
    if (!max_violations.ok()) return ErrorResponse(max_violations.status());
    FullReport report =
        tenant->analyzer().AnalyzeAll(
            static_cast<int>(max_violations.value()));
    // The determinism contract: these are the exact batch-CLI
    // FullReportToJson bytes, independent of concurrent load elsewhere.
    return JsonResponse(200, FullReportToJson(report, tenant->catalog()));
  }

  if (verb == "certify") {
    const std::string* kind = request.QueryParam("kind");
    if (kind == nullptr) {
      return ErrorResponse(Status::InvalidArgument("missing ?kind"));
    }
    if (*kind == "quiescent") {
      const std::string* rule = request.QueryParam("rule");
      if (rule == nullptr) {
        return ErrorResponse(
            Status::InvalidArgument("kind=quiescent needs ?rule"));
      }
      if (tenant->catalog().FindRule(*rule) < 0) {
        return ErrorResponse(Status::NotFound("no rule named '" + *rule +
                                              "'"));
      }
      tenant->analyzer().CertifyQuiescent(*rule);
      return JsonResponse(200, "{\"certified\":\"quiescent\",\"rule\":\"" +
                                   JsonEscape(*rule) + "\"}");
    }
    if (*kind == "commute") {
      const std::string* a = request.QueryParam("a");
      const std::string* b = request.QueryParam("b");
      if (a == nullptr || b == nullptr) {
        return ErrorResponse(
            Status::InvalidArgument("kind=commute needs ?a and ?b"));
      }
      if (tenant->catalog().FindRule(*a) < 0) {
        return ErrorResponse(Status::NotFound("no rule named '" + *a + "'"));
      }
      if (tenant->catalog().FindRule(*b) < 0) {
        return ErrorResponse(Status::NotFound("no rule named '" + *b + "'"));
      }
      tenant->analyzer().CertifyCommute(*a, *b);
      return JsonResponse(200, "{\"certified\":\"commute\",\"a\":\"" +
                                   JsonEscape(*a) + "\",\"b\":\"" +
                                   JsonEscape(*b) + "\"}");
    }
    return ErrorResponse(Status::InvalidArgument(
        "unknown ?kind '" + *kind + "' (quiescent|commute)"));
  }

  if (verb == "transition") {
    std::vector<std::string> statements = BodyStatements(request.body);
    if (statements.empty()) {
      return ErrorResponse(
          Status::InvalidArgument("empty transition body (one SQL statement "
                                  "per line)"));
    }
    Result<long> commit = IntParam(request, "commit", 1);
    if (!commit.ok()) return ErrorResponse(commit.status());
    Result<long> max_steps =
        IntParam(request, "max_steps", 10000, kMaxTransitionSteps);
    if (!max_steps.ok()) return ErrorResponse(max_steps.status());

    // Statements run in the processor's undo-log delta on the tenant
    // database, O(rows touched). The guard is the one non-commit exit:
    // every path but a commit (a dry run, any error, LimitExceeded's open
    // transaction) reverts the delta, after the response is built.
    ProcessorOptions options;
    options.max_steps = static_cast<int>(max_steps.value());
    RuleProcessor processor(&tenant->db(), &tenant->catalog(), options);
    std::unique_ptr<RuleProcessor, void (*)(RuleProcessor*)> abort_on_exit(
        &processor, [](RuleProcessor* p) { p->Abort(); });
    for (const std::string& statement : statements) {
      Result<ExecOutcome> outcome = processor.ExecuteUserStatement(statement);
      if (!outcome.ok()) return ErrorResponse(outcome.status());
    }
    Result<ProcessingResult> asserted = processor.AssertRules();
    if (!asserted.ok()) return ErrorResponse(asserted.status());
    const ProcessingResult& result = asserted.value();
    const bool committed = commit.value() != 0;
    if (committed) processor.Commit();
    std::string body = "{\"terminated\":";
    body += result.terminated ? "true" : "false";
    body += ",\"rolled_back\":";
    body += result.rolled_back ? "true" : "false";
    body += ",\"steps\":" + std::to_string(result.steps);
    body += ",\"fired\":[";
    for (size_t i = 0; i < result.considered.size(); ++i) {
      if (i > 0) body += ",";
      body += "\"" +
              JsonEscape(tenant->catalog().rule(result.considered[i]).name) +
              "\"";
    }
    body += "],\"observables\":" + std::to_string(result.observables.size());
    body += ",\"fingerprint\":\"" +
            HexFingerprint(tenant->db().ContentFingerprint()) + "\"";
    body += ",\"committed\":";
    body += committed ? "true" : "false";
    body += "}";
    return JsonResponse(200, body);
  }

  if (verb == "witness") {
    std::vector<std::string> statements = BodyStatements(request.body);
    if (statements.empty()) {
      return ErrorResponse(
          Status::InvalidArgument("empty witness body (one SQL statement per "
                                  "line)"));
    }
    Result<long> max_depth =
        IntParam(request, "max_depth", 64, kMaxWitnessDepth);
    if (!max_depth.ok()) return ErrorResponse(max_depth.status());
    Result<long> max_steps =
        IntParam(request, "max_steps", 200000, kMaxWitnessSteps);
    if (!max_steps.ok()) return ErrorResponse(max_steps.status());
    ExplorerOptions explorer_options;
    explorer_options.max_depth = static_cast<int>(max_depth.value());
    explorer_options.max_total_steps = max_steps.value();
    WitnessOptions witness_options;
    witness_options.max_depth = static_cast<int>(max_depth.value());
    witness_options.max_total_steps = max_steps.value();
    Result<WitnessExtraction> extraction = ExtractWitnessAfterStatements(
        tenant->catalog(), tenant->db(), statements, explorer_options,
        witness_options);
    if (!extraction.ok()) return ErrorResponse(extraction.status());
    return JsonResponse(
        200, WitnessExtractionToJson(extraction.value(), tenant->catalog()));
  }

  return NotFoundResponse("no such tenant endpoint: " + verb);
}

}  // namespace service
}  // namespace starburst
