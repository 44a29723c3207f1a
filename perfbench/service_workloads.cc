#include "service_workloads.h"

#include <malloc.h>
#include <sched.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <functional>
#include <latch>
#include <map>
#include <optional>
#include <set>
#include <thread>
#include <utility>
#include <vector>

#include "analysis/json_report.h"
#include "common/metrics.h"
#include "common/thread_pool.h"
#include "rulelang/parser.h"
#include "rules/processor.h"
#include "service/http.h"
#include "service/router.h"
#include "service/server.h"
#include "service/tenant.h"
#include "testing/oracles.h"

#include "reference_kernel.h"
#include "span_log.h"

namespace perfbench {

using namespace starburst;
using service::HttpClientConnection;
using service::HttpResponse;

namespace {

/// Client connections per workload. Client threads plus the server's
/// connection threads stay within the host's 4 CPUs.
constexpr int kMixConnections = 2;
constexpr int kBigConnections = 1;
/// Pool size pinned for the service workloads: analysis runs on the
/// connection thread, so no pool worker competes with the closed loop.
constexpr int kServicePoolThreads = 1;
constexpr int kSetups = 15;
/// Work per second of --seconds (calibrated on a 4-CPU host), with floors
/// that keep at least 1000 samples of every timed request kind, so that
/// p99 has at least ten samples beyond it.
constexpr int kMixRequestsPerSecond = 10000;
// Commits are 1% of the 91% transitions: 2 x 55000 requests give 1000.
constexpr int kMixMinRequests = 55000;
constexpr int kBigRows = 10000;
constexpr int kBigRequestsPerKindPerSecond = 300;
constexpr int kBigMinRequestsPerKind = 3000;
constexpr int kCatalogRepeats = 25;

double MsSince(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

/// One statement per non-empty, non-comment line: the router's transition
/// body discipline.
std::vector<std::string> BodyStatements(const std::string& body) {
  std::vector<std::string> out;
  size_t start = 0;
  while (start <= body.size()) {
    size_t end = body.find('\n', start);
    if (end == std::string::npos) end = body.size();
    std::string line = body.substr(start, end - start);
    start = end + 1;
    while (!line.empty() && (line.back() == '\r' || line.back() == ' ')) {
      line.pop_back();
    }
    size_t first = line.find_first_not_of(" \t");
    if (first == std::string::npos || line.compare(first, 2, "--") == 0) {
      continue;
    }
    out.push_back(line.substr(first));
  }
  return out;
}

std::string FingerprintField(const std::string& hex) {
  return "\"fingerprint\":\"" + hex + "\"";
}

/// A running server with its registry and the client connections.
struct Service {
  std::unique_ptr<service::TenantRegistry> registry;
  std::unique_ptr<service::RuledServer> server;
  std::vector<HttpClientConnection> clients;

  ~Service() {
    for (HttpClientConnection& c : clients) c.Close();
    if (server != nullptr) server->Stop();
  }
};

Status Expect(const Result<HttpResponse>& response, int status,
              const std::string& what) {
  if (!response.ok()) return response.status();
  if (response.value().status != status) {
    return Status::ExecutionError(what + ": HTTP " +
                                  std::to_string(response.value().status) +
                                  " " + response.value().body.substr(0, 200));
  }
  return Status::OK();
}

/// Each closed loop — a client thread and the server thread serving its
/// connection — runs alone on one CPU: connection c on CPU nproc-1-c. The
/// two threads alternate, so one CPU serves the loop without queueing, and
/// the reference kernel the client runs measures the speed of that CPU.
int CpuFor(int connection) {
  return std::max(0, OnlineCpus() - 1 - connection);
}

void PinThread(pid_t tid, int cpu) {
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  (void)sched_setaffinity(tid, sizeof(set), &set);
}

std::set<pid_t> ThreadIds() {
  std::set<pid_t> ids;
  std::error_code ec;
  for (const auto& entry :
       std::filesystem::directory_iterator("/proc/self/task", ec)) {
    ids.insert(static_cast<pid_t>(std::stol(entry.path().filename())));
  }
  return ids;
}

/// Set-up: start the server, connect the clients, load every tenant
/// through the router (catalog parse + Analyzer::Create), commit the
/// preloaded rows, and send the warm-up requests.
Result<std::unique_ptr<Service>> StartService(const ServiceInput& input,
                                              int connections) {
  auto s = std::make_unique<Service>();
  s->registry = std::make_unique<service::TenantRegistry>();
  service::ServerOptions options;
  options.port = 0;
  options.max_connections = connections + 2;
  options.poll_interval_ms = 20;
  s->server =
      std::make_unique<service::RuledServer>(s->registry.get(), options);
  STARBURST_RETURN_IF_ERROR(s->server->Start());
  for (int c = 0; c < connections; ++c) {
    // The server starts one thread per connection; the round trip makes
    // sure it exists, so the thread that appeared is the connection's.
    const std::set<pid_t> before = ThreadIds();
    STARBURST_ASSIGN_OR_RETURN(
        HttpClientConnection conn,
        HttpClientConnection::Connect("127.0.0.1", s->server->port(), 60000));
    STARBURST_RETURN_IF_ERROR(
        Expect(conn.RoundTrip("GET", "/healthz"), 200, "connect"));
    for (pid_t tid : ThreadIds()) {
      if (before.count(tid) == 0) PinThread(tid, CpuFor(c));
    }
    s->clients.push_back(std::move(conn));
  }
  HttpClientConnection& admin = s->clients[0];
  for (const TenantInput& t : input.tenants) {
    STARBURST_RETURN_IF_ERROR(
        Expect(admin.RoundTrip("POST", "/v1/tenants/" + t.name, t.script), 201,
               "load " + t.name));
    for (const std::string& body : t.preload) {
      STARBURST_RETURN_IF_ERROR(Expect(
          admin.RoundTrip("POST",
                          "/v1/tenants/" + t.name + "/transition?commit=1",
                          body),
          200, "preload " + t.name));
    }
  }
  for (const Request& r : input.warmup) {
    STARBURST_RETURN_IF_ERROR(
        Expect(admin.RoundTrip(r.method, r.target, r.body), 200, "warm-up"));
  }
  return s;
}

struct Exchange {
  int status = -1;  // -1: transport failure
  std::string body;
  double ms = 0;
  int block = 0;
};

struct ServiceSpec {
  const char* name;
  int connections;
  bool expect_analysis;  // tenant_mix sends analyze/certify traffic
  std::function<ServiceInput()> make_input;
};

/// Blocks per connection and run. Each client thread runs the reference
/// kernel between its blocks (about every 0.1 s), and each block's round
/// trips are normalized by the kernel times at its two ends.
constexpr int kBlocks = 100;

/// Per connection and block: wall seconds and the normalizing factor
/// (nominal / measured reference kernel time).
struct LoopTiming {
  std::vector<std::vector<double>> seconds;
  std::vector<std::vector<double>> factor;
};

/// The closed loop: each connection thread sends its sequence, waiting for
/// every reply before the next request.
LoopTiming DriveClosedLoop(Service* s, const ServiceInput& input,
                           std::vector<std::vector<Exchange>>* out) {
  using Clock = std::chrono::steady_clock;
  const size_t n = input.connections.size();
  out->assign(n, {});
  LoopTiming timing;
  timing.seconds.assign(n, std::vector<double>(kBlocks, 0));
  timing.factor.assign(n, std::vector<double>(kBlocks, 1));
  std::latch start(static_cast<std::ptrdiff_t>(n));
  std::vector<std::thread> threads;
  for (size_t c = 0; c < n; ++c) {
    (*out)[c].resize(input.connections[c].size());
    threads.emplace_back([&, c] {
      PinThread(0, CpuFor(static_cast<int>(c)));
      HttpClientConnection& conn = s->clients[c];
      const std::vector<Request>& seq = input.connections[c];
      std::vector<Exchange>& ex = (*out)[c];
      double kernel = ReferenceKernelMs();
      start.arrive_and_wait();
      for (int b = 0; b < kBlocks; ++b) {
        const size_t lo = seq.size() * static_cast<size_t>(b) / kBlocks;
        const size_t hi = seq.size() * static_cast<size_t>(b + 1) / kBlocks;
        const auto block_start = Clock::now();
        for (size_t i = lo; i < hi; ++i) {
          const auto t0 = Clock::now();
          Result<HttpResponse> response =
              conn.RoundTrip(seq[i].method, seq[i].target, seq[i].body);
          ex[i].ms = MsSince(t0);
          ex[i].block = b;
          if (response.ok()) {
            ex[i].status = response.value().status;
            ex[i].body = RetainedBody(seq[i].kind,
                                      std::move(response.value().body));
          } else {
            ex[i].body = response.status().ToString();
          }
        }
        timing.seconds[c][static_cast<size_t>(b)] = MsSince(block_start) / 1000;
        const double next = ReferenceKernelMs();
        timing.factor[c][static_cast<size_t>(b)] =
            kReferenceNominalMs / ((kernel + next) / 2);
        kernel = next;
      }
    });
  }
  for (std::thread& t : threads) t.join();
  return timing;
}

/// Checks every exchange and each tenant's final state; returns the
/// verifiers' failures into `result`.
void Verify(const ServiceInput& input, Service* s,
            const std::vector<std::vector<Exchange>>& exchanges,
            WorkloadResult* result) {
  std::vector<std::unique_ptr<TenantVerifier>> verifiers;
  for (const TenantInput& t : input.tenants) {
    Result<std::unique_ptr<TenantVerifier>> v = TenantVerifier::Create(t);
    if (!v.ok()) {
      result->Check(false, "verifier for " + t.name + ": " +
                               v.status().ToString());
      verifiers.push_back(nullptr);
      continue;
    }
    verifiers.push_back(std::move(v).value());
  }
  for (size_t c = 0; c < input.connections.size(); ++c) {
    for (size_t i = 0; i < input.connections[c].size(); ++i) {
      const Request& r = input.connections[c][i];
      const Exchange& e = exchanges[c][i];
      if (r.tenant < 0) {
        result->Check(e.status == 200, r.target + ": HTTP " +
                                           std::to_string(e.status));
      } else if (verifiers[static_cast<size_t>(r.tenant)] == nullptr) {
        result->Check(false, "no verifier for " + r.target);
      } else {
        verifiers[static_cast<size_t>(r.tenant)]->Check(r, e.status, e.body,
                                                        result);
      }
    }
  }
  for (size_t t = 0; t < input.tenants.size(); ++t) {
    std::shared_ptr<service::Tenant> tenant =
        s->registry->Find(input.tenants[t].name);
    const std::string actual =
        tenant == nullptr ? "missing" : HexFingerprint(tenant->db());
    const std::string expected =
        verifiers[t] == nullptr ? "unavailable" : verifiers[t]->Fingerprint();
    CheckFinalFingerprint(input.tenants[t].name, expected, actual, result);
  }
}

/// Accumulates the traced replay's per-request figures.
struct ReplayTally {
  double wall_s = 0;
  double response_bytes = 0;
  double db_rows = 0;
  double steps = 0;
  int64_t responses = 0;
  int64_t transitions = 0;
};

service::HttpRequest ParseWire(const Request& r, SpanLog* log, int parent,
                               int64_t id, bool* ok) {
  const std::string wire =
      service::SerializeRequest(r.method, r.target, r.body, "perfbench");
  service::HttpRequestParser parser;
  service::HttpRequestParser::State state;
  {
    ScopedSpan span(log, "service.http_parse", parent, id);
    state = parser.Feed(wire.data(), wire.size());
  }
  *ok = state == service::HttpRequestParser::State::kComplete;
  return parser.request();
}

/// The traced replay covers the first 1/kTracedPart of each connection's
/// sequence, which keeps a traced run within a few times an untraced one.
constexpr size_t kTracedPart = 4;

/// The traced run's stage-by-stage replay: the same seeded requests, in
/// process, against a freshly set-up copy of every tenant. Each request is
/// split into the public calls of each layer; a transition is additionally
/// decomposed into copy / parse / execute / assert / fingerprint on a copy
/// of the tenant's committed state (the router does the same internally).
/// Returns false on set-up failure.
bool StageReplay(const ServiceInput& input, bool trace_catalogs, SpanLog* log,
                 ReplayTally* tally, WorkloadResult* result) {
  service::TenantRegistry registry;
  service::ServiceRouter router(&registry);
  SpanLog quiet(false);  // set-up requests are not part of the trace
  auto handle = [&](const std::string& method, const std::string& target,
                    const std::string& body) {
    Request r;
    r.method = method;
    r.target = target;
    r.body = body;
    bool ok = false;
    service::HttpRequest req = ParseWire(r, &quiet, -1, -1, &ok);
    return ok ? router.Handle(req) : HttpResponse{400, "", "", false};
  };
  std::vector<std::unique_ptr<Schema>> schemas;  // outlive the replicas
  std::vector<std::unique_ptr<Analyzer>> replicas;
  for (const TenantInput& t : input.tenants) {
    const int repeats = trace_catalogs ? kCatalogRepeats : 1;
    if (trace_catalogs) {
      for (int k = 0; k < repeats; ++k) {
        ScopedSpan span(log, "rulelang.catalog_parse");
        (void)Parser::ParseScript(t.script);
      }
    }
    std::unique_ptr<Analyzer> replica;
    for (int k = 0; k < repeats; ++k) {
      Result<GeneratedRuleSet> set = fuzzing::ParseRuleSetScript(t.script);
      if (!set.ok()) return false;
      schemas.push_back(std::move(set.value().schema));
      std::optional<Result<Analyzer>> created;
      {
        ScopedSpan span(trace_catalogs ? log : &quiet, "analysis.create");
        created.emplace(Analyzer::Create(schemas.back().get(),
                                         std::move(set.value().rules)));
      }
      if (!created->ok()) return false;
      replica = std::make_unique<Analyzer>(std::move(*created).value());
    }
    replicas.push_back(std::move(replica));
    if (handle("POST", "/v1/tenants/" + t.name, t.script).status != 201) {
      return false;
    }
    for (const std::string& body : t.preload) {
      const std::string target =
          "/v1/tenants/" + t.name + "/transition?commit=1";
      if (handle("POST", target, body).status != 200) return false;
    }
  }
  for (const Request& r : input.warmup) {
    if (handle(r.method, r.target, r.body).status != 200) return false;
  }

  int64_t id = 0;
  const auto t0 = std::chrono::steady_clock::now();
  for (const std::vector<Request>& seq : input.connections) {
    for (size_t i = 0; i < seq.size() / kTracedPart; ++i) {
      const Request& r = seq[i];
      ++id;
      std::optional<std::string> stage_fp;
      if (r.kind == RequestKind::kDryRun || r.kind == RequestKind::kCommit) {
        std::shared_ptr<service::Tenant> tenant =
            registry.Find(input.tenants[static_cast<size_t>(r.tenant)].name);
        ScopedSpan root(log,
                        r.kind == RequestKind::kDryRun ? "stages.transition"
                                                       : "stages.commit",
                        -1, id);
        std::optional<Database> work;
        {
          ScopedSpan span(log, "engine.db_copy", root.id(), id);
          work.emplace(tenant->db());
        }
        for (TableId t = 0; t < tenant->catalog().schema().num_tables(); ++t) {
          tally->db_rows += static_cast<double>(work->storage(t).size());
        }
        std::vector<StmtPtr> stmts;
        {
          ScopedSpan span(log, "rulelang.parse", root.id(), id);
          for (const std::string& sql : BodyStatements(r.body)) {
            Result<StmtPtr> stmt = Parser::ParseStatement(sql);
            if (stmt.ok()) stmts.push_back(std::move(stmt).value());
          }
        }
        RuleProcessor processor(&*work, &tenant->catalog());
        {
          ScopedSpan span(log, "rules.execute", root.id(), id);
          for (const StmtPtr& stmt : stmts) {
            (void)processor.ExecuteUserStatement(*stmt);
          }
        }
        Result<ProcessingResult> asserted = Status::Internal("not run");
        {
          ScopedSpan span(log, "rules.assert", root.id(), id);
          asserted = processor.AssertRules();
        }
        processor.Commit();
        if (asserted.ok()) tally->steps += asserted.value().steps;
        {
          ScopedSpan span(log, "engine.fingerprint", root.id(), id);
          stage_fp = HexFingerprint(*work);
        }
        ++tally->transitions;
      }

      bool parsed = false;
      HttpResponse response;
      std::string wire;
      {
        ScopedSpan root(log, "request", -1, id);
        service::HttpRequest req = ParseWire(r, log, root.id(), id, &parsed);
        {
          ScopedSpan span(log, "service.handle", root.id(), id);
          response = router.Handle(req);
        }
        ScopedSpan span(log, "service.http_serialize", root.id(), id);
        wire = service::SerializeResponse(response);
      }
      tally->response_bytes += static_cast<double>(wire.size());
      ++tally->responses;
      result->Check(parsed && response.status == 200,
                    "replay " + r.target + ": HTTP " +
                        std::to_string(response.status));
      if (stage_fp.has_value()) {
        result->Check(response.body.find(FingerprintField(*stage_fp)) !=
                          std::string::npos,
                      "replay stages disagree with the router on " + r.target);
      }
      Analyzer* replica = r.tenant >= 0
                              ? replicas[static_cast<size_t>(r.tenant)].get()
                              : nullptr;
      if (r.kind == RequestKind::kCertify) {
        replica->CertifyCommute(r.rule_a, r.rule_b);
        ScopedSpan span(log, "analysis.commutativity", -1, id);
        (void)replica->commutativity();
      } else if (r.kind == RequestKind::kAnalyze) {
        FullReport report = replica->AnalyzeAll();
        std::string json;
        {
          ScopedSpan span(log, "analysis.report_json", -1, id);
          json = FullReportToJson(report, replica->catalog());
        }
        result->Check(json == response.body,
                      "replay analyze body differs on " + r.target);
      }
    }
  }
  tally->wall_s = MsSince(t0) / 1000.0;
  return true;
}

/// Every analysis.* and explorer.* counter, gauge and histogram count the
/// program keeps, by name: its own record of analysis and exploration work.
std::vector<std::pair<std::string, int64_t>> AnalysisAndExplorerWork() {
  const metrics::Snapshot snapshot = metrics::Collect();
  std::vector<std::pair<std::string, int64_t>> out;
  auto keep = [&out](const std::string& name, int64_t value) {
    if (name.rfind("analysis.", 0) == 0 || name.rfind("explorer.", 0) == 0) {
      out.emplace_back(name, value);
    }
  };
  for (const auto& [name, value] : snapshot.counters) keep(name, value);
  for (const auto& [name, value] : snapshot.gauges) keep(name, value);
  for (const metrics::HistogramSnapshot& h : snapshot.histograms) {
    keep(h.name, h.count);
  }
  return out;
}

/// Latency percentiles of one kind's samples (in sequence order, each
/// normalized by its block's factor): the samples are cut into up to
/// kGroups consecutive groups of at least kMinGroup, and each percentile is
/// the median over groups of the group's percentile. A burst of host noise
/// then moves one group, not the result; every group's p99 has at least ten
/// samples beyond it.
constexpr size_t kGroups = 16;
constexpr size_t kMinGroup = 2000;

size_t GroupsFor(size_t samples) {
  return std::max<size_t>(1, std::min(kGroups, samples / kMinGroup));
}

/// p50 and p99 of one kind's samples, as described above.
std::pair<double, double> Latencies(const std::vector<double>& samples) {
  const size_t groups = GroupsFor(samples.size());
  std::vector<double> p50s;
  std::vector<double> p99s;
  for (size_t g = 0; g < groups; ++g) {
    const std::vector<double> group(
        samples.begin() + static_cast<long>(samples.size() * g / groups),
        samples.begin() + static_cast<long>(samples.size() * (g + 1) / groups));
    p50s.push_back(Percentile(group, 0.50));
    p99s.push_back(Percentile(group, 0.99));
  }
  return {Median(p50s), Median(p99s)};
}

WorkloadResult RunService(const ServiceSpec& spec, const RunOptions& options) {
  WorkloadResult result;
  ThreadPool::SetDefaultThreadCount(kServicePoolThreads);
  // ruled keeps metrics collection on for its whole life; so does the
  // benchmark, so /stats and the queue-depth gauge carry real values.
  metrics::ScopedCollect collect;

  // Set-up, repeated: the median of identical set-ups is the metric, the
  // last one is the service the timed phase drives. Set-up is a closed
  // loop too — this thread and the server thread of the first connection
  // take turns — so it runs on that connection's CPU and is normalized
  // like the round trips.
  std::vector<double> setup_s;
  std::vector<double> setup_raw_s;
  std::optional<ServiceInput> input;
  std::unique_ptr<Service> svc;
  const int setups = options.trace ? 1 : kSetups;
  cpu_set_t affinity;
  CPU_ZERO(&affinity);
  (void)sched_getaffinity(0, sizeof(affinity), &affinity);
  PinThread(0, CpuFor(0));
  NormalizedTimer setup_timer;
  for (int k = 0; k < setups; ++k) {
    // The previous set-up goes first, and its memory goes back to the
    // system, so only one copy of the inputs and tenants is ever resident
    // and the peak memory is the same in every run — whichever malloc
    // arena the next server thread happens to get.
    svc.reset();
    input.reset();
    malloc_trim(0);
    setup_timer.Rebase();
    std::optional<Result<std::unique_ptr<Service>>> started;
    setup_s.push_back(setup_timer.Time([&] {
      input.emplace(spec.make_input());
      started.emplace(StartService(*input, spec.connections));
    }) / 1000.0);
    setup_raw_s.push_back(setup_timer.raw_ms() / 1000.0);
    if (!started->ok()) {
      result.Check(false, "set-up: " + started->status().ToString());
      return result;
    }
    svc = std::move(*started).value();
  }
  (void)sched_setaffinity(0, sizeof(affinity), &affinity);

  // Queue-depth sampler (traced run only): one extra, mostly sleeping
  // thread.
  std::atomic<bool> sampling{options.trace};
  std::vector<double> depth_samples;
  std::thread sampler;
  if (options.trace) {
    sampler = std::thread([&] {
      metrics::Gauge* depth = metrics::GetGauge("service.queue_depth");
      while (sampling.load()) {
        depth_samples.push_back(static_cast<double>(depth->Value()));
        std::this_thread::sleep_for(std::chrono::microseconds(500));
      }
    });
  }
  std::vector<std::vector<Exchange>> exchanges;
  const std::vector<std::pair<std::string, int64_t>> work_before =
      AnalysisAndExplorerWork();
  const LoopTiming timing = DriveClosedLoop(svc.get(), *input, &exchanges);
  sampling.store(false);
  if (sampler.joinable()) sampler.join();
  if (!spec.expect_analysis) {
    // The program's own counters of analysis and exploration work must
    // not move while big_tenant's traffic runs.
    const std::vector<std::pair<std::string, int64_t>> work_after =
        AnalysisAndExplorerWork();
    std::string moved;
    for (const auto& entry : work_after) {
      if (std::find(work_before.begin(), work_before.end(), entry) ==
          work_before.end()) {
        moved += " " + entry.first;
      }
    }
    result.Check(moved.empty(), std::string("analysis or explorer work in ") +
                                    spec.name + ":" + moved);
  }
  const double rss = PeakRssMb();

  // Round trips by kind in time order (block by block), normalized by
  // their block's factor and raw; each block's closed-loop throughput.
  std::vector<double> by_kind[kNumRequestKinds];
  std::vector<double> raw_by_kind[kNumRequestKinds];
  std::vector<double> rate(kBlocks, 0);
  std::vector<double> raw_rate(kBlocks, 0);
  std::vector<double> traced_part_ms;  // the requests the replay covers
  for (size_t c = 0; c < exchanges.size(); ++c) {
    for (size_t i = 0; i < exchanges[c].size() / kTracedPart; ++i) {
      traced_part_ms.push_back(exchanges[c][i].ms);
    }
  }
  for (int b = 0; b < kBlocks; ++b) {
    const size_t bi = static_cast<size_t>(b);
    for (size_t c = 0; c < exchanges.size(); ++c) {
      double requests = 0;
      for (size_t i = 0; i < exchanges[c].size(); ++i) {
        const Exchange& e = exchanges[c][i];
        if (e.block != b) continue;
        const int kind = static_cast<int>((*input).connections[c][i].kind);
        by_kind[kind].push_back(e.ms * timing.factor[c][bi]);
        raw_by_kind[kind].push_back(e.ms);
        ++requests;
      }
      raw_rate[bi] += requests / timing.seconds[c][bi];
      rate[bi] += requests / (timing.seconds[c][bi] * timing.factor[c][bi]);
    }
  }
  Verify(*input, svc.get(), exchanges, &result);
  svc.reset();

  if (!options.trace) {
    result.Add("setup_s", Median(setup_s), "s");
    result.context.push_back("raw setup_s " +
                             std::to_string(Median(setup_raw_s)));
    result.Add("peak_rss_mb", rss, "MB");
    result.Add("throughput_per_s", Median(rate), "1/s");
    result.context.push_back("throughput_per_s is requests_per_s");
    result.context.push_back("raw requests_per_s " +
                             std::to_string(Median(raw_rate)));
    // Every latency figure goes to a context line; the four headline ones
    // are the end-to-end metrics: transitions, then analyze on tenant_mix
    // (what ROADMAP item 5 must not regress) or commits on big_tenant
    // (item 6).
    std::vector<std::pair<const char*, RequestKind>> kinds = {
        {"transition", RequestKind::kDryRun}, {"commit", RequestKind::kCommit}};
    if (spec.expect_analysis) {
      kinds.push_back({"analyze", RequestKind::kAnalyze});
    }
    std::map<std::string, double> figures;
    for (const auto& [prefix, kind] : kinds) {
      const std::vector<double>& samples = by_kind[static_cast<int>(kind)];
      const auto [p50, p99] = Latencies(samples);
      const auto [raw_p50, raw_p99] =
          Latencies(raw_by_kind[static_cast<int>(kind)]);
      const std::string name(prefix);
      figures[name + "_p50_ms"] = p50;
      figures[name + "_p99_ms"] = p99;
      result.context.push_back(
          "samples " + name + " " + std::to_string(samples.size()) + " in " +
          std::to_string(GroupsFor(samples.size())) + " groups");
      result.context.push_back(name + "_p50_ms " + std::to_string(p50) +
                               ", raw " + std::to_string(raw_p50));
      result.context.push_back(name + "_p99_ms " + std::to_string(p99) +
                               ", raw " + std::to_string(raw_p99));
    }
    const std::string second = spec.expect_analysis ? "analyze" : "commit";
    AddLatencySlots({{"transition_p50_ms", figures["transition_p50_ms"]},
                     {"transition_p99_ms", figures["transition_p99_ms"]},
                     {second + "_p50_ms", figures[second + "_p50_ms"]},
                     {second + "_p99_ms", figures[second + "_p99_ms"]}},
                    &result);
    return result;
  }

  // Traced run: the replay twice, first without spans, then with them;
  // the wall-time difference is the tracing overhead.
  ReplayTally plain_tally;
  ReplayTally tally;
  SpanLog off(false);
  SpanLog log(true);
  WorkloadResult ignored;
  if (!StageReplay(*input, spec.expect_analysis, &off, &plain_tally,
                   &ignored) ||
      !StageReplay(*input, spec.expect_analysis, &log, &tally, &result)) {
    result.Check(false, "stage replay set-up failed");
    return result;
  }
  const std::map<std::string, SpanLog::Totals> totals = log.Aggregate();
  const double handle_us = log.MeanUs(totals, "service.handle");
  const double round_trip_us = Mean(traced_part_ms) * 1000.0;
  LayerFigures figures;
  figures.service_wire_pct =
      100.0 * (round_trip_us - handle_us) / round_trip_us;
  figures.service_queue_depth_mean = Mean(depth_samples);
  figures.service_response_bytes =
      tally.response_bytes / static_cast<double>(tally.responses);
  figures.engine_db_rows =
      tally.db_rows / static_cast<double>(tally.transitions);
  figures.rules_steps = tally.steps / static_cast<double>(tally.transitions);
  figures.trace_overhead_pct =
      100.0 * (tally.wall_s - plain_tally.wall_s) / plain_tally.wall_s;
  double root_us = 0;
  for (const SpanLog::Span& s : log.spans()) {
    if (s.parent < 0 && s.request >= 0) {
      root_us += static_cast<double>(s.end_ns - s.start_ns) / 1e3;
    }
  }
  figures.trace_span_coverage_pct = 100.0 * root_us / (tally.wall_s * 1e6);
  const TraceShares shares = ComputeTraceShares(log);
  figures.trace_request_stage_share_pct = shares.request_stage_pct;
  figures.trace_dryrun_db_copy_share_pct = shares.dryrun_db_copy_pct;
  AddLayerMetrics(log, figures, &result);
  result.context.push_back("service.wire_us " +
                           std::to_string(round_trip_us - handle_us));
  result.context.push_back("dry-run transition: largest stage share " +
                           shares.largest_dryrun_stage + " " +
                           std::to_string(shares.largest_dryrun_pct) + "%");
  // The separation each service workload was chosen for: the Database
  // copy dominates a big_tenant dry run and is a small part of a
  // tenant_mix one.
  const bool copy_largest = shares.largest_dryrun_stage == "engine.db_copy";
  result.Check(spec.expect_analysis ? !copy_largest : copy_largest,
               std::string("largest dry-run stage in ") + spec.name + " is " +
                   shares.largest_dryrun_stage);
  return result;
}

}  // namespace

TraceShares ComputeTraceShares(const SpanLog& log) {
  TraceShares out;
  const std::map<std::string, double> request = log.ChildShares("request");
  if (!request.empty()) {
    out.request_stage_pct = 100.0 * (1.0 - request.at("(self)"));
  }
  for (const auto& [name, share] : log.ChildShares("stages.transition")) {
    if (name == "engine.db_copy") out.dryrun_db_copy_pct = 100.0 * share;
    if (100.0 * share > out.largest_dryrun_pct) {
      out.largest_dryrun_pct = 100.0 * share;
      out.largest_dryrun_stage = name;
    }
  }
  return out;
}

TenantVerifier::TenantVerifier(GeneratedRuleSet set, Analyzer analyzer)
    : set_(std::move(set)),
      analyzer_(std::move(analyzer)),
      db_(set_.schema.get()) {}

Result<std::unique_ptr<TenantVerifier>> TenantVerifier::Create(
    const TenantInput& tenant) {
  STARBURST_ASSIGN_OR_RETURN(GeneratedRuleSet set,
                             fuzzing::ParseRuleSetScript(tenant.script));
  GeneratedRuleSet copy = set.Clone();
  STARBURST_ASSIGN_OR_RETURN(
      Analyzer analyzer,
      Analyzer::Create(set.schema.get(), std::move(copy.rules)));
  std::unique_ptr<TenantVerifier> v(
      new TenantVerifier(std::move(set), std::move(analyzer)));
  for (const std::string& body : tenant.preload) {
    STARBURST_RETURN_IF_ERROR(v->Run(body, true).status());
  }
  return v;
}

Result<std::string> TenantVerifier::Run(const std::string& body,
                                        bool commit) {
  if (!commit) db_.BeginDelta();
  RuleProcessor processor(&db_, &analyzer_.catalog());
  Status status = Status::OK();
  for (const std::string& sql : BodyStatements(body)) {
    Result<ExecOutcome> outcome = processor.ExecuteUserStatement(sql);
    if (!outcome.ok()) {
      status = outcome.status();
      break;
    }
  }
  if (status.ok()) status = processor.AssertRules().status();
  processor.Commit();
  std::string fp = HexFingerprint(db_);
  if (!commit) db_.RevertDelta();
  if (!status.ok()) return status;
  return fp;
}

void TenantVerifier::Check(const Request& request, int status,
                           const std::string& body, WorkloadResult* result) {
  const std::string what = request.target + ": ";
  if (status != 200) {
    result->Check(false, what + "HTTP " + std::to_string(status) + " " +
                             body.substr(0, 200));
    return;
  }
  switch (request.kind) {
    case RequestKind::kDryRun:
    case RequestKind::kCommit: {
      const bool commit = request.kind == RequestKind::kCommit;
      Result<std::string> fp = Run(request.body, commit);
      const std::string flag =
          commit ? "\"committed\":true" : "\"committed\":false";
      result->Check(fp.ok() &&
                        body.find(FingerprintField(fp.value())) !=
                            std::string::npos &&
                        body.find(flag) != std::string::npos,
                    what + "fingerprint mismatch " + body.substr(0, 200));
      return;
    }
    case RequestKind::kAnalyze:
      if (expected_report_.empty()) {
        expected_report_ = RetainedBody(
            RequestKind::kAnalyze,
            FullReportToJson(analyzer_.AnalyzeAll(), analyzer_.catalog()));
      }
      result->Check(body == expected_report_, what + "analyze body differs");
      return;
    case RequestKind::kCertify:
      analyzer_.CertifyCommute(request.rule_a, request.rule_b);
      expected_report_.clear();
      result->Check(body.find("\"certified\":\"commute\"") != std::string::npos,
                    what + "unexpected certify reply " + body);
      return;
    case RequestKind::kStats:
    case RequestKind::kHealth:
      result->Check(true, what);
      return;
  }
}

std::string TenantVerifier::Fingerprint() const { return HexFingerprint(db_); }

void CheckFinalFingerprint(const std::string& tenant,
                           const std::string& expected,
                           const std::string& actual, WorkloadResult* result) {
  result->Check(expected == actual, "tenant " + tenant +
                                        " final fingerprint " + actual +
                                        " != replay " + expected);
}

std::string RetainedBody(RequestKind kind, std::string body) {
  if (kind != RequestKind::kAnalyze) return body;
  uint64_t h = 0xcbf29ce484222325ULL;
  for (unsigned char c : body) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  char buf[64];
  std::snprintf(buf, sizeof(buf), "fnv1a64:%016llx:%zu",
                static_cast<unsigned long long>(h), body.size());
  return buf;
}

std::string HexFingerprint(const Database& db) {
  const Hash128 fp = db.ContentFingerprint();
  char buf[33];
  std::snprintf(buf, sizeof(buf), "%016llx%016llx",
                static_cast<unsigned long long>(fp.hi),
                static_cast<unsigned long long>(fp.lo));
  return buf;
}

WorkloadResult RunTenantMix(const RunOptions& options,
                            int requests_per_connection) {
  return RunService({"tenant_mix", kMixConnections, true,
                     [&] {
                       return MakeTenantMix(options.seed,
                                            requests_per_connection);
                     }},
                    options);
}

WorkloadResult RunTenantMix(const RunOptions& options) {
  return RunTenantMix(options, std::max(kMixMinRequests,
                                        kMixRequestsPerSecond *
                                            options.seconds));
}

WorkloadResult RunBigTenant(const RunOptions& options, int rows,
                            int requests_per_kind) {
  return RunService({"big_tenant", kBigConnections, false,
                     [&] {
                       return MakeBigTenant(options.seed, rows,
                                            requests_per_kind);
                     }},
                    options);
}

WorkloadResult RunBigTenant(const RunOptions& options) {
  return RunBigTenant(options, kBigRows,
                      std::max(kBigMinRequestsPerKind,
                               kBigRequestsPerKindPerSecond * options.seconds));
}

}  // namespace perfbench
