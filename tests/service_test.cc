// Router-level tests for the multi-tenant rule service: tenant lifecycle,
// error codes, transition semantics, and the per-tenant determinism
// contract (service analyze bytes == batch FullReportToJson bytes, also
// under concurrent load on other tenants). Socket-level coverage lives in
// service_server_test.cc.

#include <atomic>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "analysis/json_report.h"
#include "analysis/witness.h"
#include "rules/processor.h"
#include "common/metrics.h"
#include "common/thread_pool.h"
#include "engine/fingerprint.h"
#include "service/admin.h"
#include "service/router.h"
#include "service/tenant.h"
#include "testing/oracles.h"
#include "json_lint.h"

namespace starburst {
namespace service {
namespace {

using ::starburst::testing::IsValidJson;

std::string ReadCorpus(const std::string& name) {
  std::ifstream in(std::string(STARBURST_CORPUS_DIR) + "/" + name);
  EXPECT_TRUE(in) << "missing corpus file " << name;
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

HttpRequest MakeRequest(const std::string& method, const std::string& target,
                        const std::string& body = "") {
  // Round-trip through the real parser so tests exercise the same query
  // splitting the server does.
  std::string raw = method + " " + target + " HTTP/1.1\r\n" +
                    "Host: test\r\nContent-Length: " +
                    std::to_string(body.size()) + "\r\n\r\n" + body;
  HttpRequestParser parser;
  EXPECT_EQ(parser.Feed(raw.data(), raw.size()),
            HttpRequestParser::State::kComplete)
      << parser.error();
  return parser.request();
}

TEST(TenantRegistryTest, LoadListUnload) {
  TenantRegistry registry;
  auto info = registry.Load("alpha", ReadCorpus("acyclic_chain.rules"));
  ASSERT_TRUE(info.ok()) << info.status().ToString();
  EXPECT_EQ(info.value().name, "alpha");
  EXPECT_EQ(info.value().num_rules, 2);
  EXPECT_EQ(info.value().num_tables, 3);

  ASSERT_TRUE(
      registry.Load("beta", ReadCorpus("nonconfluent_pair.rules")).ok());
  std::vector<TenantInfo> list = registry.List();
  ASSERT_EQ(list.size(), 2u);
  EXPECT_EQ(list[0].name, "alpha");  // sorted
  EXPECT_EQ(list[1].name, "beta");

  EXPECT_TRUE(registry.Unload("alpha").ok());
  EXPECT_EQ(registry.size(), 1);
  EXPECT_EQ(registry.Unload("alpha").code(), StatusCode::kNotFound);
}

TEST(TenantRegistryTest, DuplicateNameIsConflict) {
  TenantRegistry registry;
  std::string script = ReadCorpus("nonconfluent_pair.rules");
  ASSERT_TRUE(registry.Load("dup", script).ok());
  auto again = registry.Load("dup", script);
  ASSERT_FALSE(again.ok());
  EXPECT_EQ(again.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(again.status().message().find("already loaded"),
            std::string::npos);
  EXPECT_EQ(HttpStatusFor(again.status()), 409);
  EXPECT_EQ(ErrorCodeFor(again.status()), "conflict");
  EXPECT_EQ(registry.size(), 1);
}

TEST(TenantRegistryTest, ParseErrorLeavesRegistryUnchanged) {
  TenantRegistry registry;
  ASSERT_TRUE(
      registry.Load("keep", ReadCorpus("acyclic_chain.rules")).ok());
  auto bad = registry.Load("broken", "create table (((");
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(registry.size(), 1);
  EXPECT_EQ(registry.Find("broken"), nullptr);
  EXPECT_NE(registry.Find("keep"), nullptr);
  // A semantically invalid catalog (rule on a missing table) is also
  // rejected without registering.
  auto semantic = registry.Load(
      "broken2",
      "create table t (a int);\n"
      "create rule r on missing when inserted then update t set a = 1;");
  ASSERT_FALSE(semantic.ok());
  EXPECT_EQ(registry.size(), 1);
}

TEST(TenantRegistryTest, RejectsBadNames) {
  TenantRegistry registry;
  std::string script = ReadCorpus("nonconfluent_pair.rules");
  EXPECT_FALSE(registry.Load("", script).ok());
  EXPECT_FALSE(registry.Load("has space", script).ok());
  EXPECT_FALSE(registry.Load("has/slash", script).ok());
  EXPECT_FALSE(registry.Load(std::string(65, 'x'), script).ok());
  EXPECT_TRUE(registry.Load(std::string(64, 'x'), script).ok());
}

TEST(ServiceRouterTest, HealthzAndUnknownEndpoint) {
  TenantRegistry registry;
  ServiceRouter router(&registry);
  HttpResponse health = router.Handle(MakeRequest("GET", "/healthz"));
  EXPECT_EQ(health.status, 200);
  EXPECT_EQ(health.body, "{\"status\":\"ok\",\"tenants\":0}");
  EXPECT_EQ(router.Handle(MakeRequest("GET", "/nope")).status, 404);
  EXPECT_EQ(router.Handle(MakeRequest("POST", "/healthz")).status, 405);
  EXPECT_EQ(router.Handle(MakeRequest("PATCH", "/v1/tenants")).status, 405);
}

TEST(ServiceRouterTest, TenantLifecycleOverHttp) {
  TenantRegistry registry;
  ServiceRouter router(&registry);
  HttpResponse created = router.Handle(MakeRequest(
      "POST", "/v1/tenants/alpha", ReadCorpus("acyclic_chain.rules")));
  ASSERT_EQ(created.status, 201) << created.body;
  EXPECT_EQ(created.body,
            "{\"name\":\"alpha\",\"rules\":2,\"tables\":3}");

  HttpResponse dup = router.Handle(MakeRequest(
      "POST", "/v1/tenants/alpha", ReadCorpus("acyclic_chain.rules")));
  EXPECT_EQ(dup.status, 409);

  HttpResponse bad =
      router.Handle(MakeRequest("POST", "/v1/tenants/bad", "create ???"));
  EXPECT_EQ(bad.status, 400);
  EXPECT_EQ(registry.size(), 1);

  EXPECT_EQ(router.Handle(MakeRequest("GET", "/v1/tenants/alpha")).status,
            200);
  EXPECT_EQ(router.Handle(MakeRequest("GET", "/v1/tenants/ghost")).status,
            404);
  HttpResponse list = router.Handle(MakeRequest("GET", "/v1/tenants"));
  EXPECT_EQ(list.status, 200);
  EXPECT_TRUE(IsValidJson(list.body)) << list.body;

  EXPECT_EQ(router.Handle(MakeRequest("DELETE", "/v1/tenants/alpha")).status,
            200);
  EXPECT_EQ(router.Handle(MakeRequest("DELETE", "/v1/tenants/alpha")).status,
            404);
}

TEST(ServiceRouterTest, TransitionRunsRulesAndCommitControlsState) {
  TenantRegistry registry;
  ServiceRouter router(&registry);
  ASSERT_EQ(router
                .Handle(MakeRequest("POST", "/v1/tenants/chain",
                                    ReadCorpus("acyclic_chain.rules")))
                .status,
            201);

  // commit=0: rules fire but the tenant database is untouched.
  HttpResponse dry = router.Handle(
      MakeRequest("POST", "/v1/tenants/chain/transition?commit=0",
                  "insert into t0 values (1, 2)"));
  ASSERT_EQ(dry.status, 200) << dry.body;
  EXPECT_TRUE(IsValidJson(dry.body)) << dry.body;
  EXPECT_NE(dry.body.find("\"terminated\":true"), std::string::npos);
  // t1 is empty, so step1's update changes no rows and step2 stays
  // untriggered: exactly one firing.
  EXPECT_NE(dry.body.find("\"fired\":[\"step1\"]"), std::string::npos)
      << dry.body;
  EXPECT_NE(dry.body.find("\"committed\":false"), std::string::npos);

  std::shared_ptr<Tenant> tenant = registry.Find("chain");
  ASSERT_NE(tenant, nullptr);
  EXPECT_EQ(tenant->db().delta_depth(), 0);
  std::string before = tenant->db().CanonicalString();

  // Replaying the same transition with commit=1 changes the database, and
  // the response fingerprint matches the committed state.
  HttpResponse wet =
      router.Handle(MakeRequest("POST", "/v1/tenants/chain/transition",
                                "insert into t0 values (1, 2)"));
  ASSERT_EQ(wet.status, 200) << wet.body;
  EXPECT_NE(wet.body.find("\"committed\":true"), std::string::npos);
  EXPECT_NE(tenant->db().CanonicalString(), before);
  EXPECT_EQ(tenant->db().delta_depth(), 0);

  // The dry run reported the same fingerprint the wet run committed.
  auto fingerprint_of = [](const std::string& body) {
    size_t at = body.find("\"fingerprint\":\"");
    EXPECT_NE(at, std::string::npos);
    return body.substr(at + 15, 32);
  };
  EXPECT_EQ(fingerprint_of(dry.body), fingerprint_of(wet.body));

  // Statement errors surface as execution errors and never corrupt state.
  std::string after = tenant->db().CanonicalString();
  HttpResponse broken = router.Handle(MakeRequest(
      "POST", "/v1/tenants/chain/transition", "insert into t0 values (1)"));
  EXPECT_EQ(broken.status, 422) << broken.body;
  EXPECT_EQ(tenant->db().CanonicalString(), after);
  EXPECT_EQ(tenant->db().delta_depth(), 0);

  EXPECT_EQ(router
                .Handle(MakeRequest("POST", "/v1/tenants/chain/transition",
                                    ""))
                .status,
            400);
}

// A transition body of 100k nested parentheses (200 KB) used to overflow
// the parser's stack and kill the daemon with every tenant in it. The
// parser's nesting bound turns it into 422 limit_exceeded, and the
// tenant's content is untouched; a rule script nesting that deep is
// refused at load time the same way.
TEST(ServiceRouterTest, DeeplyNestedBodyIsRefusedWithoutSideEffects) {
  TenantRegistry registry;
  ServiceRouter router(&registry);
  ASSERT_EQ(router
                .Handle(MakeRequest("POST", "/v1/tenants/chain",
                                    ReadCorpus("acyclic_chain.rules")))
                .status,
            201);
  std::shared_ptr<Tenant> tenant = registry.Find("chain");
  ASSERT_NE(tenant, nullptr);
  const Hash128 before = tenant->db().ContentFingerprint();

  HttpResponse deep = router.Handle(
      MakeRequest("POST", "/v1/tenants/chain/transition",
                  "select * from t0 where " + std::string(100000, '(')));
  EXPECT_EQ(deep.status, 422) << deep.body.substr(0, 200);
  EXPECT_NE(deep.body.find("limit_exceeded"), std::string::npos);
  EXPECT_TRUE(tenant->db().ContentFingerprint() == before);

  HttpResponse deep_rule = router.Handle(MakeRequest(
      "POST", "/v1/tenants/deep",
      "create table t (a int); create rule r on t when inserted if " +
          std::string(100000, '(') + " then delete from t;"));
  EXPECT_EQ(deep_rule.status, 422) << deep_rule.body.substr(0, 200);
  EXPECT_EQ(registry.Find("deep"), nullptr);

  // Still serving: an ordinary transition on the same tenant succeeds.
  HttpResponse ok =
      router.Handle(MakeRequest("POST", "/v1/tenants/chain/transition",
                                "insert into t0 values (1, 2)"));
  EXPECT_EQ(ok.status, 200) << ok.body;
  EXPECT_EQ(tenant->db().delta_depth(), 0);
}

// What a refused request must leave alone: the tenant's database content,
// its rule list, and the bytes of its next analyze (which reflect its
// certifications).
struct TenantSnapshot {
  Hash128 fingerprint;
  std::vector<std::string> rules;
  std::string analyze;
  int delta_depth = 0;
};

TenantSnapshot Snapshot(ServiceRouter& router, TenantRegistry& registry,
                        const std::string& name) {
  std::shared_ptr<Tenant> tenant = registry.Find(name);
  EXPECT_NE(tenant, nullptr);
  TenantSnapshot snapshot;
  snapshot.fingerprint = tenant->db().ContentFingerprint();
  snapshot.delta_depth = tenant->db().delta_depth();
  for (RuleIndex r = 0; r < tenant->catalog().num_rules(); ++r) {
    snapshot.rules.push_back(tenant->catalog().rule(r).name);
  }
  snapshot.analyze =
      router.Handle(MakeRequest("POST", "/v1/tenants/" + name + "/analyze"))
          .body;
  return snapshot;
}

void ExpectUnchanged(const TenantSnapshot& before,
                     const TenantSnapshot& after, const std::string& what) {
  EXPECT_TRUE(after.fingerprint == before.fingerprint) << what;
  EXPECT_EQ(after.rules, before.rules) << what;
  EXPECT_EQ(after.analyze, before.analyze) << what;
  // Transitions run in an undo-log delta on the tenant database; no
  // request may leave one open.
  EXPECT_EQ(after.delta_depth, 0) << what;
}

// Client-supplied budgets are capped by the router's server maxima: the
// cap itself is served, one more is refused with 400 before any work.
TEST(ServiceRouterTest, ParameterCapsAcceptTheCapAndRefuseOneMore) {
  TenantRegistry registry;
  ServiceRouter router(&registry);
  ASSERT_EQ(router
                .Handle(MakeRequest("POST", "/v1/tenants/chain",
                                    ReadCorpus("acyclic_chain.rules")))
                .status,
            201);
  const std::string insert = "insert into t0 values (1, 2)";
  const TenantSnapshot before = Snapshot(router, registry, "chain");
  for (const char* target :
       {"/v1/tenants/chain/transition?max_steps=100001",
        "/v1/tenants/chain/witness?max_steps=1000001",
        "/v1/tenants/chain/witness?max_depth=257"}) {
    HttpResponse over = router.Handle(MakeRequest("POST", target, insert));
    EXPECT_EQ(over.status, 400) << target << ": " << over.body;
    EXPECT_NE(over.body.find("value too large"), std::string::npos)
        << over.body;
    ExpectUnchanged(before, Snapshot(router, registry, "chain"), target);
  }
  for (const char* target :
       {"/v1/tenants/chain/transition?commit=0&max_steps=100000",
        "/v1/tenants/chain/witness?max_steps=1000000&max_depth=256"}) {
    HttpResponse at_cap = router.Handle(MakeRequest("POST", target, insert));
    EXPECT_EQ(at_cap.status, 200) << target << ": " << at_cap.body;
    ExpectUnchanged(before, Snapshot(router, registry, "chain"), target);
  }
}

// The router's error-path property: every error a tenant endpoint can
// return leaves the tenant exactly as it was. The tenant carries state
// first (a committed row and a certification), so "unchanged" also covers
// the in-place certification path.
TEST(ServiceRouterTest, EveryErrorLeavesTheTenantUntouched) {
  TenantRegistry registry;
  ServiceRouter router(&registry);
  // `spin` never quiesces on its own, so a transition touching t exceeds
  // any max_steps.
  const std::string script =
      "create table t (a int); create table u (a int); "
      "create rule spin on t when inserted, updated(a) "
      "then update t set a = a + 1; "
      "create rule w1 on u when inserted then update t set a = 1; "
      "create rule w2 on u when inserted then update t set a = 2; "
      "create table v (a int); "
      "create rule boom on v when inserted then update v set a = a / 0;";
  ASSERT_EQ(
      router.Handle(MakeRequest("POST", "/v1/tenants/t", script)).status,
      201);
  ASSERT_EQ(router
                .Handle(MakeRequest("POST", "/v1/tenants/t/transition",
                                    "insert into u values (7)"))
                .status,
            200);
  ASSERT_EQ(router
                .Handle(MakeRequest(
                    "POST", "/v1/tenants/t/certify?kind=commute&a=w1&b=w2"))
                .status,
            200);
  const TenantSnapshot before = Snapshot(router, registry, "t");
  const std::string deep = "select * from t where " + std::string(100000, '(');
  struct Case {
    std::string method, target, body;
    int status;
  };
  const std::vector<Case> cases = {
      {"POST", "/v1/tenants/t/transition", "selec * frm t", 400},
      {"POST", "/v1/tenants/t/transition", "insert into t values (1, 2)", 422},
      {"POST", "/v1/tenants/t/transition?max_steps=50",
       "insert into t values (0)", 422},
      {"POST", "/v1/tenants/t/transition", deep, 422},
      {"POST", "/v1/tenants/t/transition?max_steps=100001",
       "insert into t values (0)", 400},
      {"POST", "/v1/tenants/t/transition?commit=x", "insert into u values (1)",
       400},
      {"POST", "/v1/tenants/t/transition", "", 400},
      {"GET", "/v1/tenants/t/transition", "", 405},
      // Partial effects: line 1 applies, then line 2 fails to parse, fails
      // at runtime, or cascades into a rule that divides by zero.
      {"POST", "/v1/tenants/t/transition",
       "insert into u values (3)\nselec * frm t", 400},
      {"POST", "/v1/tenants/t/transition",
       "insert into u values (3)\nupdate u set a = a / 0", 422},
      {"POST", "/v1/tenants/t/transition",
       "insert into u values (3)\ninsert into v values (1)", 422},
      {"POST", "/v1/tenants/t/witness", "selec * frm t", 400},
      {"POST", "/v1/tenants/t/witness", deep, 422},
      {"POST", "/v1/tenants/t/witness?max_depth=257",
       "insert into u values (1)", 400},
      {"POST", "/v1/tenants/t/witness?max_steps=1000001",
       "insert into u values (1)", 400},
      {"POST", "/v1/tenants/t/analyze?max_violations=-1", "", 400},
      {"POST", "/v1/tenants/t/certify", "", 400},
      {"POST", "/v1/tenants/t/certify?kind=bogus", "", 400},
      {"POST", "/v1/tenants/t/certify?kind=commute&a=w1", "", 400},
      {"POST", "/v1/tenants/t/certify?kind=commute&a=nope&b=w1", "", 404},
      {"POST", "/v1/tenants/t/certify?kind=commute&a=w1&b=nope", "", 404},
      {"POST", "/v1/tenants/t/certify?kind=quiescent&rule=nope", "", 404},
      {"POST", "/v1/tenants/t/nonsense", "", 404},
  };
  for (const Case& c : cases) {
    std::string what = c.method + " " + c.target;
    HttpResponse response =
        router.Handle(MakeRequest(c.method, c.target, c.body));
    EXPECT_EQ(response.status, c.status)
        << what << ": " << response.body.substr(0, 200);
    ExpectUnchanged(before, Snapshot(router, registry, "t"), what);
  }
}

// Dry runs revert in place, so they must leave no trace: a tenant that
// served N dry runs and then one commit holds exactly the rows, under
// exactly the rids, of a tenant that only served the commit. And a dry
// run reports what the commit would, byte for byte.
TEST(ServiceRouterTest, DryRunsLeaveTheRowsAndRidsOfACommitOnlyTenant) {
  TenantRegistry registry;
  ServiceRouter router(&registry);
  const std::string script =
      "create table t (a int); create table log (a int); "
      "create rule note on t when inserted "
      "then insert into log select a from inserted;";
  for (const char* name : {"dry", "control"}) {
    const std::string base = std::string("/v1/tenants/") + name;
    ASSERT_EQ(router.Handle(MakeRequest("POST", base, script)).status, 201);
    ASSERT_EQ(router
                  .Handle(MakeRequest("POST", base + "/transition",
                                      "insert into t values (1), (2)"))
                  .status,
              200);
  }
  std::shared_ptr<Tenant> dry = registry.Find("dry");
  std::shared_ptr<Tenant> control = registry.Find("control");
  for (int i = 0; i < 20; ++i) {
    HttpResponse response = router.Handle(MakeRequest(
        "POST", "/v1/tenants/dry/transition?commit=0",
        "insert into t values (" + std::to_string(i) + ")\n" +
            "delete from t where a = 1\nupdate log set a = a + 1"));
    ASSERT_EQ(response.status, 200) << response.body;
    EXPECT_EQ(dry->db().delta_depth(), 0);
  }

  const std::string last = "insert into t values (42), (43)";
  HttpResponse dry_run = router.Handle(
      MakeRequest("POST", "/v1/tenants/dry/transition?commit=0", last));
  HttpResponse dry_commit = router.Handle(
      MakeRequest("POST", "/v1/tenants/dry/transition?commit=1", last));
  HttpResponse control_commit = router.Handle(
      MakeRequest("POST", "/v1/tenants/control/transition", last));
  ASSERT_EQ(dry_run.status, 200) << dry_run.body;
  ASSERT_EQ(dry_commit.status, 200) << dry_commit.body;
  ASSERT_EQ(control_commit.status, 200) << control_commit.body;
  EXPECT_EQ(dry->db().delta_depth(), 0);
  EXPECT_EQ(control->db().delta_depth(), 0);

  const std::string dry_suffix = "\"committed\":false}";
  const std::string wet_suffix = "\"committed\":true}";
  ASSERT_GE(dry_run.body.size(), dry_suffix.size());
  EXPECT_EQ(dry_run.body.substr(dry_run.body.size() - dry_suffix.size()),
            dry_suffix);
  EXPECT_EQ(dry_run.body.substr(0, dry_run.body.size() - dry_suffix.size()) +
                wet_suffix,
            dry_commit.body);
  EXPECT_EQ(dry_commit.body, control_commit.body);

  const Schema& schema = dry->catalog().schema();
  for (TableId t = 0; t < schema.num_tables(); ++t) {
    EXPECT_EQ(dry->db().storage(t).rows(), control->db().storage(t).rows())
        << schema.table(t).name();
  }
  EXPECT_TRUE(dry->db().ContentFingerprint() ==
              control->db().ContentFingerprint());
}

// The determinism contract, batch side: the analyze endpoint's bytes are
// exactly FullReportToJson over a batch Analyzer built from the same
// script.
std::string BatchReportJson(const std::string& script, int max_violations) {
  auto set = fuzzing::ParseRuleSetScript(script);
  EXPECT_TRUE(set.ok());
  auto analyzer = Analyzer::Create(set.value().schema.get(),
                                   std::move(set.value().rules));
  EXPECT_TRUE(analyzer.ok());
  FullReport report = analyzer.value().AnalyzeAll(max_violations);
  return FullReportToJson(report, analyzer.value().catalog());
}

TEST(ServiceRouterTest, AnalyzeMatchesBatchPathByteForByte) {
  TenantRegistry registry;
  ServiceRouter router(&registry);
  for (const char* corpus :
       {"acyclic_chain.rules", "nonconfluent_pair.rules",
        "observable_ordered_pair.rules", "quiescing_cycle.rules"}) {
    std::string script = ReadCorpus(corpus);
    ASSERT_EQ(
        router.Handle(MakeRequest("POST", "/v1/tenants/t", script)).status,
        201);
    HttpResponse analyzed =
        router.Handle(MakeRequest("POST", "/v1/tenants/t/analyze"));
    ASSERT_EQ(analyzed.status, 200);
    EXPECT_EQ(analyzed.body, BatchReportJson(script, -1)) << corpus;
    EXPECT_TRUE(IsValidJson(analyzed.body));
    ASSERT_EQ(
        router.Handle(MakeRequest("DELETE", "/v1/tenants/t")).status, 200);
  }
}

TEST(ServiceRouterTest, CertifyChangesVerdictLikeBatch) {
  TenantRegistry registry;
  ServiceRouter router(&registry);
  std::string script = ReadCorpus("nonconfluent_pair.rules");
  ASSERT_EQ(
      router.Handle(MakeRequest("POST", "/v1/tenants/t", script)).status,
      201);

  // Unknown rule names are rejected before touching certifications.
  EXPECT_EQ(router
                .Handle(MakeRequest(
                    "POST", "/v1/tenants/t/certify?kind=commute&a=nope&b=x"))
                .status,
            404);
  EXPECT_EQ(router
                .Handle(MakeRequest("POST", "/v1/tenants/t/certify"))
                .status,
            400);

  HttpResponse certified = router.Handle(MakeRequest(
      "POST", "/v1/tenants/t/certify?kind=commute&a=writer1&b=writer2"));
  ASSERT_EQ(certified.status, 200) << certified.body;

  HttpResponse analyzed =
      router.Handle(MakeRequest("POST", "/v1/tenants/t/analyze"));
  ASSERT_EQ(analyzed.status, 200);

  // Batch equivalent: same certification, then analyze.
  auto set = fuzzing::ParseRuleSetScript(script);
  ASSERT_TRUE(set.ok());
  auto batch = Analyzer::Create(set.value().schema.get(),
                                std::move(set.value().rules));
  ASSERT_TRUE(batch.ok());
  batch.value().CertifyCommute("writer1", "writer2");
  FullReport report = batch.value().AnalyzeAll(-1);
  EXPECT_EQ(analyzed.body, FullReportToJson(report, batch.value().catalog()));
  EXPECT_NE(analyzed.body.find("\"confluent\":true"), std::string::npos)
      << analyzed.body;
}

TEST(ServiceRouterTest, WitnessMatchesDirectExtractionByteForByte) {
  TenantRegistry registry;
  ServiceRouter router(&registry);
  std::string script = ReadCorpus("nonconfluent_pair.rules");
  ASSERT_EQ(
      router.Handle(MakeRequest("POST", "/v1/tenants/t", script)).status,
      201);
  // Seed a row in s so the writers' conflicting updates actually diverge
  // (on an empty s both updates are no-ops and every order converges).
  ASSERT_EQ(router
                .Handle(MakeRequest("POST", "/v1/tenants/t/transition",
                                    "insert into s values (0)"))
                .status,
            200);
  HttpResponse witness = router.Handle(MakeRequest(
      "POST", "/v1/tenants/t/witness", "insert into t values (1)"));
  ASSERT_EQ(witness.status, 200) << witness.body;
  EXPECT_TRUE(IsValidJson(witness.body));
  EXPECT_NE(witness.body.find("\"status\":\"found\""), std::string::npos)
      << witness.body;

  auto set = fuzzing::ParseRuleSetScript(script);
  ASSERT_TRUE(set.ok());
  auto catalog = RuleCatalog::Build(set.value().schema.get(),
                                    std::move(set.value().rules));
  ASSERT_TRUE(catalog.ok());
  Database db(set.value().schema.get());
  {
    RuleProcessor processor(&db, &catalog.value());
    ASSERT_TRUE(
        processor.ExecuteUserStatement("insert into s values (0)").ok());
    ASSERT_TRUE(processor.AssertRules().ok());
    processor.Commit();
  }
  auto extraction = ExtractWitnessAfterStatements(
      catalog.value(), db, {"insert into t values (1)"});
  ASSERT_TRUE(extraction.ok());
  EXPECT_EQ(witness.body,
            WitnessExtractionToJson(extraction.value(), catalog.value()));
}

TEST(ServiceRouterTest, UnloadWhileRequestInFlightIsSafe) {
  TenantRegistry registry;
  ServiceRouter router(&registry);
  ASSERT_EQ(router
                .Handle(MakeRequest("POST", "/v1/tenants/victim",
                                    ReadCorpus("acyclic_chain.rules")))
                .status,
            201);

  // Deterministic version: a request holds the tenant (shared_ptr +
  // strand) while the unload happens; the in-flight request completes on
  // the detached tenant.
  std::shared_ptr<Tenant> held = registry.Find("victim");
  ASSERT_NE(held, nullptr);
  {
    std::unique_lock<std::mutex> strand(held->strand());
    EXPECT_TRUE(registry.Unload("victim").ok());
  }
  // The detached tenant still answers (lifetime via shared_ptr), but the
  // registry no longer routes to it.
  EXPECT_EQ(held->catalog().num_rules(), 2);
  EXPECT_EQ(
      router.Handle(MakeRequest("GET", "/v1/tenants/victim")).status, 404);
  held.reset();

  // Concurrent hammer: loaders, analyzers, and unloaders race on one
  // tenant name; nothing may crash and every response is a known status.
  std::string script = ReadCorpus("nonconfluent_pair.rules");
  std::atomic<bool> stop{false};
  std::vector<std::thread> workers;
  for (int w = 0; w < 4; ++w) {
    workers.emplace_back([&, w] {
      for (int i = 0; i < 50 && !stop.load(); ++i) {
        HttpResponse response;
        switch ((w + i) % 3) {
          case 0:
            response = router.Handle(
                MakeRequest("POST", "/v1/tenants/racy", script));
            EXPECT_TRUE(response.status == 201 || response.status == 409)
                << response.status;
            break;
          case 1:
            response =
                router.Handle(MakeRequest("POST", "/v1/tenants/racy/analyze"));
            EXPECT_TRUE(response.status == 200 || response.status == 404)
                << response.status;
            break;
          default:
            response =
                router.Handle(MakeRequest("DELETE", "/v1/tenants/racy"));
            EXPECT_TRUE(response.status == 200 || response.status == 404)
                << response.status;
            break;
        }
      }
    });
  }
  for (std::thread& t : workers) t.join();
}

// The /stats counters slice must be byte-identical across analysis pool
// sizes for a fixed request sequence (the PR5 determinism contract
// extended to the service).
std::string CountersAfterFixedSequence(int pool_threads) {
  ThreadPool::SetDefaultThreadCount(pool_threads);
  metrics::Reset();
  metrics::ScopedCollect collect;
  TenantRegistry registry;
  ServiceRouter router(&registry);
  EXPECT_EQ(router
                .Handle(MakeRequest("POST", "/v1/tenants/a",
                                    ReadCorpus("acyclic_chain.rules")))
                .status,
            201);
  EXPECT_EQ(router
                .Handle(MakeRequest("POST", "/v1/tenants/b",
                                    ReadCorpus("nonconfluent_pair.rules")))
                .status,
            201);
  EXPECT_EQ(router.Handle(MakeRequest("POST", "/v1/tenants/a/analyze")).status,
            200);
  EXPECT_EQ(router.Handle(MakeRequest("POST", "/v1/tenants/b/analyze")).status,
            200);
  EXPECT_EQ(router
                .Handle(MakeRequest("POST", "/v1/tenants/a/transition",
                                    "insert into t0 values (1, 2)"))
                .status,
            200);
  EXPECT_EQ(router.Handle(MakeRequest("GET", "/healthz")).status, 200);
  HttpResponse stats =
      router.Handle(MakeRequest("GET", "/stats?section=counters"));
  EXPECT_EQ(stats.status, 200);
  EXPECT_TRUE(IsValidJson(stats.body));
  metrics::Reset();
  return stats.body;
}

TEST(ServiceStatsTest, CountersByteIdenticalAcrossPoolSizes) {
  std::string one = CountersAfterFixedSequence(1);
  std::string four = CountersAfterFixedSequence(4);
  ThreadPool::SetDefaultThreadCount(ThreadPool::DefaultThreadCount());
  EXPECT_EQ(one, four);
  EXPECT_NE(one.find("\"service.requests\":7"), std::string::npos) << one;
  EXPECT_NE(one.find("\"service.tenant.a.requests\":2"), std::string::npos)
      << one;
}

TEST(ServiceStatsTest, StatsShapeAndSections) {
  metrics::ScopedCollect collect;
  TenantRegistry registry;
  ServiceRouter router(&registry);
  ASSERT_EQ(router
                .Handle(MakeRequest("POST", "/v1/tenants/a",
                                    ReadCorpus("acyclic_chain.rules")))
                .status,
            201);
  HttpResponse stats = router.Handle(MakeRequest("GET", "/stats"));
  ASSERT_EQ(stats.status, 200);
  EXPECT_TRUE(IsValidJson(stats.body)) << stats.body;
  EXPECT_EQ(stats.body.compare(0, 12, "{\"service\":{"), 0) << stats.body;
  EXPECT_NE(stats.body.find("\"counters\":{"), std::string::npos);
  EXPECT_NE(stats.body.find("\"gauges\":{"), std::string::npos);
  EXPECT_NE(stats.body.find("\"histograms\":{"), std::string::npos);
  HttpResponse service =
      router.Handle(MakeRequest("GET", "/stats?section=service"));
  EXPECT_TRUE(IsValidJson(service.body));
  EXPECT_NE(service.body.find("\"tenants\":1"), std::string::npos);
  metrics::Reset();
}

// The acceptance-criteria pin: tenant A's analyze bytes are identical to
// the batch path while other tenants are under concurrent load.
TEST(ServiceDeterminismTest, AnalyzeBytesStableUnderConcurrentLoad) {
  TenantRegistry registry;
  ServiceRouter router(&registry);
  std::string script_a = ReadCorpus("observable_ordered_pair.rules");
  std::string script_b = ReadCorpus("acyclic_chain.rules");
  ASSERT_EQ(
      router.Handle(MakeRequest("POST", "/v1/tenants/a", script_a)).status,
      201);
  ASSERT_EQ(
      router.Handle(MakeRequest("POST", "/v1/tenants/b", script_b)).status,
      201);
  const std::string golden = BatchReportJson(script_a, -1);

  std::atomic<bool> stop{false};
  std::vector<std::thread> hammers;
  for (int w = 0; w < 3; ++w) {
    hammers.emplace_back([&] {
      int i = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        router.Handle(MakeRequest(
            "POST", "/v1/tenants/b/transition?commit=0",
            "insert into t0 values (" + std::to_string(i++ % 7) + ", 1)"));
        router.Handle(MakeRequest("POST", "/v1/tenants/b/analyze"));
      }
    });
  }
  for (int i = 0; i < 25; ++i) {
    HttpResponse analyzed =
        router.Handle(MakeRequest("POST", "/v1/tenants/a/analyze"));
    ASSERT_EQ(analyzed.status, 200);
    ASSERT_EQ(analyzed.body, golden) << "iteration " << i;
  }
  stop.store(true);
  for (std::thread& t : hammers) t.join();
}

}  // namespace
}  // namespace service
}  // namespace starburst
