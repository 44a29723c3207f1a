#include "service/load_gen.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <memory>
#include <thread>
#include <vector>

#include "analysis/analyzer.h"
#include "catalog/catalog.h"
#include "service/http.h"
#include "testing/oracles.h"
#include "workload/random_gen.h"

namespace starburst {
namespace service {
namespace {

/// What one simulated user needs to synthesize requests: its tenant and
/// the tenant's table shapes (the generator emits int-only columns).
struct TenantShape {
  std::string name;
  std::vector<std::string> table_names;
  std::vector<int> table_columns;
};

std::string InsertStatement(const TenantShape& shape, SplitMix64* rng) {
  int t = rng->Below(static_cast<int>(shape.table_names.size()));
  std::string stmt = "insert into " + shape.table_names[t] + " values (";
  for (int c = 0; c < shape.table_columns[t]; ++c) {
    if (c > 0) stmt += ", ";
    stmt += std::to_string(rng->Below(8));
  }
  stmt += ")";
  return stmt;
}

/// Commits `rows` rows into `tenant`'s ballast table, one multi-row insert
/// of at most kRowsPerRequest rows per transition.
Status PreloadBallast(HttpClientConnection* setup, const std::string& tenant,
                      int rows) {
  constexpr int kRowsPerRequest = 1000;
  for (int row = 0; row < rows;) {
    std::string body = "insert into ballast values ";
    for (int k = 0; k < kRowsPerRequest && row < rows; ++k, ++row) {
      if (k > 0) body += ", ";
      body += "(" + std::to_string(row) + ", " + std::to_string(row) + ")";
    }
    STARBURST_ASSIGN_OR_RETURN(
        HttpResponse response,
        setup->RoundTrip("POST", "/v1/tenants/" + tenant + "/transition",
                         body));
    if (response.status != 200) {
      return Status::ExecutionError("preloading " + tenant + " failed: HTTP " +
                                    std::to_string(response.status) + " " +
                                    response.body);
    }
  }
  return Status::OK();
}

struct ThreadStats {
  int64_t requests = 0;
  int64_t http_errors = 0;
  int64_t transport_errors = 0;
  std::vector<uint32_t> latency_us;
};

double PercentileMs(const std::vector<uint32_t>& sorted, double q) {
  if (sorted.empty()) return 0;
  size_t index = static_cast<size_t>(q * static_cast<double>(sorted.size()));
  if (index >= sorted.size()) index = sorted.size() - 1;
  return static_cast<double>(sorted[index]) / 1000.0;
}

std::string FormatDouble(double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.3f", value);
  return std::string(buf);
}

}  // namespace

Result<LoadGenReport> RunLoadGen(const LoadGenOptions& options) {
  if (options.users < 1 || options.connections < 1) {
    return Status::InvalidArgument("need at least one user and connection");
  }
  if (options.rows < 0) return Status::InvalidArgument("rows must be >= 0");
  if (options.duration_seconds <= 0) {
    return Status::InvalidArgument("duration must be positive");
  }

  // Build the synthetic tenants (or discover the existing ones) over a
  // setup connection.
  STARBURST_ASSIGN_OR_RETURN(
      HttpClientConnection setup,
      HttpClientConnection::Connect(options.host, options.port));
  std::vector<TenantShape> shapes;
  for (int i = 0; i < options.tenants; ++i) {
    RandomRuleSetParams params;
    params.num_tables = 3;
    params.columns_per_table = 2;
    params.num_rules = 6;
    // Per tenant, take the first seed whose catalog the Section 5 analysis
    // accepts: a provably terminating catalog keeps every transition
    // cascade short, so request cost is bounded by construction — a
    // non-terminating random catalog would otherwise burn max_steps (with
    // per-step cost growing as its tables fill) on every insert and turn
    // the tail latency into a property of the dice, not the server.
    const uint64_t base = options.seed + static_cast<uint64_t>(i) * 7919;
    GeneratedRuleSet set;
    std::string script;
    for (uint64_t attempt = 0; attempt < 64 && script.empty(); ++attempt) {
      params.seed = base + attempt;
      set = RandomRuleSetGenerator::Generate(params);
      std::string candidate = fuzzing::RuleSetToScript(set);
      Result<Analyzer> analyzer =
          Analyzer::Create(set.schema.get(), std::move(set.rules));
      if (!analyzer.ok()) continue;
      if (analyzer.value().AnalyzeAll().termination.guaranteed) {
        script = std::move(candidate);
      }
    }
    if (script.empty()) {
      return Status::ExecutionError(
          "no terminating random catalog found for tenant " +
          std::to_string(i) + " (seed " + std::to_string(base) + ")");
    }
    TenantShape shape;
    shape.name = "load-" + std::to_string(i);
    for (const TableDef& table : set.schema->tables()) {
      shape.table_names.push_back(table.name());
      shape.table_columns.push_back(table.num_columns());
    }
    if (options.rows > 0) {
      script += "\ncreate table ballast (a int, b int);\n";
    }
    STARBURST_ASSIGN_OR_RETURN(
        HttpResponse response,
        setup.RoundTrip("POST", "/v1/tenants/" + shape.name, script));
    // 409 = already loaded from a previous run against the same server;
    // the catalog for a given (seed, index) is identical, so reuse it.
    if (response.status != 201 && response.status != 409) {
      return Status::ExecutionError("loading tenant " + shape.name +
                                    " failed: HTTP " +
                                    std::to_string(response.status) + " " +
                                    response.body);
    }
    if (response.status == 201) {
      STARBURST_RETURN_IF_ERROR(
          PreloadBallast(&setup, shape.name, options.rows));
    }
    shapes.push_back(std::move(shape));
  }
  if (shapes.empty()) {
    return Status::InvalidArgument(
        "tenants=0 not supported by the driver: nothing to send traffic to");
  }

  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::duration_cast<
                            std::chrono::steady_clock::duration>(
                            std::chrono::duration<double>(
                                options.duration_seconds));
  const auto start = std::chrono::steady_clock::now();

  std::vector<ThreadStats> stats(static_cast<size_t>(options.connections));
  std::vector<std::thread> threads;
  threads.reserve(static_cast<size_t>(options.connections));
  for (int c = 0; c < options.connections; ++c) {
    threads.emplace_back([&, c] {
      ThreadStats& local = stats[static_cast<size_t>(c)];
      // The users this thread drives: u = c, c + C, c + 2C, ... Each user
      // keeps its own deterministic request stream.
      std::vector<SplitMix64> rngs;
      for (int u = c; u < options.users; u += options.connections) {
        rngs.emplace_back(options.seed ^ (0x9e3779b97f4a7c15ULL *
                                          static_cast<uint64_t>(u + 1)));
      }
      if (rngs.empty()) return;

      Result<HttpClientConnection> conn =
          HttpClientConnection::Connect(options.host, options.port);
      size_t turn = 0;
      while (std::chrono::steady_clock::now() < deadline) {
        if (!conn.ok() || !conn.value().connected()) {
          std::this_thread::sleep_for(std::chrono::milliseconds(5));
          conn = HttpClientConnection::Connect(options.host, options.port);
          if (!conn.ok()) {
            ++local.transport_errors;
            continue;
          }
        }
        SplitMix64& rng = rngs[turn % rngs.size()];
        const uint64_t user = static_cast<uint64_t>(c) +
                              static_cast<uint64_t>(turn % rngs.size()) *
                                  static_cast<uint64_t>(options.connections);
        ++turn;
        const TenantShape& shape =
            shapes[static_cast<size_t>(user % shapes.size())];

        std::string method = "POST";
        std::string target;
        std::string body;
        double draw = (rng.Next() >> 11) * (1.0 / 9007199254740992.0);
        if (draw < options.stats_fraction) {
          method = "GET";
          target = rng.Chance(0.5) ? "/stats?section=service" : "/healthz";
        } else if (draw < options.stats_fraction + options.analyze_fraction) {
          target = "/v1/tenants/" + shape.name + "/analyze";
        } else {
          // Transitions run with commit=0 so a long run does not grow the
          // tenant databases without bound (a commit=1 sprinkle keeps the
          // write-back path hot).
          bool commit = rng.Chance(0.01);
          target = "/v1/tenants/" + shape.name +
                   (commit ? "/transition" : "/transition?commit=0");
          body = InsertStatement(shape, &rng);
        }

        const auto t0 = std::chrono::steady_clock::now();
        Result<HttpResponse> response =
            conn.value().RoundTrip(method, target, body);
        const auto us =
            std::chrono::duration_cast<std::chrono::microseconds>(
                std::chrono::steady_clock::now() - t0)
                .count();
        ++local.requests;
        if (!response.ok()) {
          ++local.transport_errors;
          conn.value().Close();
          continue;
        }
        if (response.value().status >= 400) ++local.http_errors;
        local.latency_us.push_back(static_cast<uint32_t>(
            std::min<int64_t>(us, 0xffffffffLL)));
      }
    });
  }
  for (std::thread& t : threads) t.join();
  const double seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();

  if (options.cleanup) {
    for (const TenantShape& shape : shapes) {
      // Best effort; the server may already be shutting down.
      Result<HttpResponse> ignored =
          setup.RoundTrip("DELETE", "/v1/tenants/" + shape.name);
      (void)ignored;
    }
  }

  LoadGenReport report;
  report.users = options.users;
  report.connections = options.connections;
  report.tenants = static_cast<int>(shapes.size());
  report.rows = options.rows;
  report.seconds = seconds;
  std::vector<uint32_t> all;
  for (const ThreadStats& s : stats) {
    report.requests += s.requests;
    report.http_errors += s.http_errors;
    report.transport_errors += s.transport_errors;
    all.insert(all.end(), s.latency_us.begin(), s.latency_us.end());
  }
  std::sort(all.begin(), all.end());
  report.requests_per_second =
      seconds > 0 ? static_cast<double>(report.requests) / seconds : 0;
  report.p50_ms = PercentileMs(all, 0.50);
  report.p90_ms = PercentileMs(all, 0.90);
  report.p99_ms = PercentileMs(all, 0.99);
  report.max_ms = all.empty() ? 0 : static_cast<double>(all.back()) / 1000.0;
  return report;
}

std::string LoadGenReportToJson(const LoadGenReport& report) {
  std::string json = "{";
  json += "\"users\":" + std::to_string(report.users);
  json += ",\"connections\":" + std::to_string(report.connections);
  json += ",\"tenants\":" + std::to_string(report.tenants);
  json += ",\"rows\":" + std::to_string(report.rows);
  json += ",\"seconds\":" + FormatDouble(report.seconds);
  json += ",\"requests\":" + std::to_string(report.requests);
  json += ",\"http_errors\":" + std::to_string(report.http_errors);
  json += ",\"transport_errors\":" + std::to_string(report.transport_errors);
  json += ",\"requests_per_second\":" +
          FormatDouble(report.requests_per_second);
  json += ",\"p50_ms\":" + FormatDouble(report.p50_ms);
  json += ",\"p90_ms\":" + FormatDouble(report.p90_ms);
  json += ",\"p99_ms\":" + FormatDouble(report.p99_ms);
  json += ",\"max_ms\":" + FormatDouble(report.max_ms);
  json += "}";
  return json;
}

}  // namespace service
}  // namespace starburst
