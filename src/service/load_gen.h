#ifndef STARBURST_SERVICE_LOAD_GEN_H_
#define STARBURST_SERVICE_LOAD_GEN_H_

#include <cstdint>
#include <string>

#include "common/status.h"

namespace starburst {
namespace service {

/// Configuration for the rule_load load generator (tools/rule_load).
///
/// Concurrency model: `users` logical simulated users are multiplexed over
/// `connections` driver threads, each owning one keep-alive TCP connection
/// (user u is driven by thread u % connections). Every user has its own
/// deterministic SplitMix64 request stream seeded from (seed, user index),
/// so two runs with the same options issue the same request mix —
/// timings, of course, differ. 10k users over 64 connections models 10k
/// concurrent sessions without 10k OS threads, which matches how the
/// thread-per-connection server is meant to be fronted.
struct LoadGenOptions {
  std::string host = "127.0.0.1";
  int port = 0;
  /// Logical simulated users (each with an independent request stream).
  int users = 10000;
  /// Driver threads / TCP connections the users are multiplexed over.
  int connections = 64;
  double duration_seconds = 10.0;
  /// Synthetic tenants to load before driving traffic, named
  /// "load-0".."load-N-1" (generated catalogs, seeded per tenant). 0 means
  /// drive whatever tenants the server already has... which must then be
  /// non-empty.
  int tenants = 4;
  /// Rows committed into each freshly loaded synthetic tenant before the
  /// traffic starts, into a `ballast (a int, b int)` table that no rule
  /// reads or writes: the tenant database grows, the rule work does not.
  /// 0 (the default) adds no table. A tenant reused from an earlier run
  /// (409) keeps whatever rows it already holds.
  int rows = 0;
  /// Request mix (remaining probability mass goes to transitions).
  double analyze_fraction = 0.05;
  double stats_fraction = 0.02;
  uint64_t seed = 1;
  /// Unload the synthetic tenants when done.
  bool cleanup = true;
};

struct LoadGenReport {
  int users = 0;
  int connections = 0;
  int tenants = 0;
  int rows = 0;
  double seconds = 0;
  int64_t requests = 0;
  /// HTTP responses with status >= 400.
  int64_t http_errors = 0;
  /// Transport failures (reconnects); the request is counted as failed,
  /// not retried.
  int64_t transport_errors = 0;
  double requests_per_second = 0;
  double p50_ms = 0;
  double p90_ms = 0;
  double p99_ms = 0;
  double max_ms = 0;
};

/// Drives load against a running ruled server and aggregates latency
/// percentiles across all driver threads. Fails if the server is
/// unreachable or a synthetic tenant cannot be loaded.
Result<LoadGenReport> RunLoadGen(const LoadGenOptions& options);

/// Renders the report as the BENCH_service.json entry shape:
///   {"users":...,"connections":...,"tenants":...,"rows":...,"seconds":...,
///    "requests":...,"http_errors":...,"transport_errors":...,
///    "requests_per_second":...,"p50_ms":...,"p90_ms":...,"p99_ms":...,
///    "max_ms":...}
std::string LoadGenReportToJson(const LoadGenReport& report);

}  // namespace service
}  // namespace starburst

#endif  // STARBURST_SERVICE_LOAD_GEN_H_
