// rule_load: load generator for the ruled daemon.
//
//   rule_load --port N [--host ADDR] [--users N] [--connections N]
//             [--duration SECONDS] [--tenants N] [--rows N] [--seed N]
//             [--analyze-fraction F] [--json PATH] [--check]
//             [--max-p99-ms MS] [--no-cleanup]
//
// Multiplexes N simulated users (default 10000), each with its own
// deterministic request stream, over a bounded set of keep-alive
// connections; loads synthetic generated tenants first, then drives a
// transition/analyze/stats mix until the deadline and reports p50/p90/p99
// latency and requests/s (the BENCH_service.json shape). --rows N first
// commits N rows per tenant into a table no rule touches, so transition
// latency can be measured as the tenant database grows.
//
// --check turns the run into a gate: nonzero exit when any HTTP or
// transport error occurred or p99 exceeded --max-p99-ms.
//
// Exit status: 0 on success, 1 when --check fails or the server is
// unreachable, 2 on usage errors.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>

#include "service/load_gen.h"

using namespace starburst;  // NOLINT: tool brevity

namespace {

int Usage() {
  std::fprintf(
      stderr,
      "usage: rule_load --port N [flags]\n"
      "\n"
      "flags:\n"
      "  --port N              ruled port to drive (required)\n"
      "  --host ADDR           ruled host (default 127.0.0.1)\n"
      "  --users N             simulated users (default 10000)\n"
      "  --connections N       driver connections/threads (default 64)\n"
      "  --duration SECONDS    how long to drive load (default 10)\n"
      "  --tenants N           synthetic tenants to load (default 4)\n"
      "  --rows N              rows preloaded per tenant into a table no "
      "rule touches (default 0)\n"
      "  --seed N              stream seed (default 1)\n"
      "  --analyze-fraction F  fraction of requests running full analysis "
      "(default 0.05)\n"
      "  --json PATH           write the report JSON to PATH ('-' = stdout)\n"
      "  --check               exit 1 on any error or a p99 over "
      "--max-p99-ms\n"
      "  --max-p99-ms MS       p99 budget for --check (default 250)\n"
      "  --no-cleanup          leave the synthetic tenants loaded\n");
  return 2;
}

bool ParseLong(const char* text, long* out) {
  char* end = nullptr;
  long value = std::strtol(text, &end, 10);
  if (end == text || *end != '\0') return false;
  *out = value;
  return true;
}

bool ParseDouble(const char* text, double* out) {
  char* end = nullptr;
  double value = std::strtod(text, &end);
  if (end == text || *end != '\0') return false;
  *out = value;
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  service::LoadGenOptions options;
  std::string json_path;
  bool check = false;
  double max_p99_ms = 250.0;

  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    long value = 0;
    double d = 0;
    if (arg == "--help") {
      Usage();
      return 0;
    } else if (arg == "--port") {
      const char* v = next();
      if (v == nullptr || !ParseLong(v, &value) || value < 1 ||
          value > 65535) {
        return Usage();
      }
      options.port = static_cast<int>(value);
    } else if (arg == "--host") {
      const char* v = next();
      if (v == nullptr) return Usage();
      options.host = v;
    } else if (arg == "--users") {
      const char* v = next();
      if (v == nullptr || !ParseLong(v, &value) || value < 1) return Usage();
      options.users = static_cast<int>(value);
    } else if (arg == "--connections") {
      const char* v = next();
      if (v == nullptr || !ParseLong(v, &value) || value < 1) return Usage();
      options.connections = static_cast<int>(value);
    } else if (arg == "--duration") {
      const char* v = next();
      if (v == nullptr || !ParseDouble(v, &d) || d <= 0) return Usage();
      options.duration_seconds = d;
    } else if (arg == "--tenants") {
      const char* v = next();
      if (v == nullptr || !ParseLong(v, &value) || value < 1) return Usage();
      options.tenants = static_cast<int>(value);
    } else if (arg == "--rows") {
      const char* v = next();
      if (v == nullptr || !ParseLong(v, &value) || value < 0 ||
          value > 100000000) {
        return Usage();
      }
      options.rows = static_cast<int>(value);
    } else if (arg == "--seed") {
      const char* v = next();
      if (v == nullptr || !ParseLong(v, &value) || value < 0) return Usage();
      options.seed = static_cast<uint64_t>(value);
    } else if (arg == "--analyze-fraction") {
      const char* v = next();
      if (v == nullptr || !ParseDouble(v, &d) || d < 0 || d > 1) {
        return Usage();
      }
      options.analyze_fraction = d;
    } else if (arg == "--json") {
      const char* v = next();
      if (v == nullptr) return Usage();
      json_path = v;
    } else if (arg == "--check") {
      check = true;
    } else if (arg == "--max-p99-ms") {
      const char* v = next();
      if (v == nullptr || !ParseDouble(v, &d) || d <= 0) return Usage();
      max_p99_ms = d;
    } else if (arg == "--no-cleanup") {
      options.cleanup = false;
    } else {
      std::fprintf(stderr, "rule_load: unknown flag '%s'\n", arg.c_str());
      return Usage();
    }
  }
  if (options.port == 0) {
    std::fprintf(stderr, "rule_load: --port is required\n");
    return Usage();
  }

  Result<service::LoadGenReport> result = service::RunLoadGen(options);
  if (!result.ok()) {
    std::fprintf(stderr, "rule_load: %s\n",
                 result.status().ToString().c_str());
    return 1;
  }
  const service::LoadGenReport& report = result.value();
  std::string json = service::LoadGenReportToJson(report);

  std::fprintf(stderr,
               "rule_load: %lld requests in %.1fs (%.0f req/s), "
               "p50 %.2fms p90 %.2fms p99 %.2fms max %.2fms, "
               "%lld http errors, %lld transport errors\n",
               static_cast<long long>(report.requests), report.seconds,
               report.requests_per_second, report.p50_ms, report.p90_ms,
               report.p99_ms, report.max_ms,
               static_cast<long long>(report.http_errors),
               static_cast<long long>(report.transport_errors));

  if (!json_path.empty()) {
    if (json_path == "-") {
      std::fprintf(stdout, "%s\n", json.c_str());
    } else {
      std::ofstream out(json_path, std::ios::trunc);
      out << json << "\n";
      if (!out) {
        std::fprintf(stderr, "rule_load: cannot write '%s'\n",
                     json_path.c_str());
        return 1;
      }
    }
  }

  if (check) {
    if (report.requests == 0) {
      std::fprintf(stderr, "rule_load: check failed: no requests completed\n");
      return 1;
    }
    if (report.http_errors > 0 || report.transport_errors > 0) {
      std::fprintf(stderr, "rule_load: check failed: errors occurred\n");
      return 1;
    }
    if (report.p99_ms > max_p99_ms) {
      std::fprintf(stderr,
                   "rule_load: check failed: p99 %.2fms > budget %.2fms\n",
                   report.p99_ms, max_p99_ms);
      return 1;
    }
  }
  return 0;
}
