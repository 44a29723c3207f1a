#include "inputs.h"

#include <algorithm>
#include <utility>

#include "analysis/analyzer.h"
#include "engine/exec.h"
#include "rulelang/parser.h"
#include "rules/explorer.h"
#include "testing/fuzzer.h"
#include "testing/oracles.h"

namespace perfbench {

using namespace starburst;

const char* RequestKindName(RequestKind kind) {
  switch (kind) {
    case RequestKind::kDryRun:
      return "transition";
    case RequestKind::kCommit:
      return "commit";
    case RequestKind::kAnalyze:
      return "analyze";
    case RequestKind::kCertify:
      return "certify";
    case RequestKind::kStats:
      return "stats";
    case RequestKind::kHealth:
      return "healthz";
  }
  return "?";
}

namespace {

std::string TenantPath(const std::string& name, const std::string& verb) {
  return "/v1/tenants/" + name + "/" + verb;
}

Request TransitionRequest(int tenant, const std::string& name, bool commit,
                   std::string body) {
  Request r;
  r.kind = commit ? RequestKind::kCommit : RequestKind::kDryRun;
  r.tenant = tenant;
  r.method = "POST";
  r.target = TenantPath(name, commit ? "transition?commit=1"
                                     : "transition?commit=0");
  r.body = std::move(body);
  return r;
}

Request Analyze(int tenant, const std::string& name) {
  Request r;
  r.kind = RequestKind::kAnalyze;
  r.tenant = tenant;
  r.method = "POST";
  r.target = TenantPath(name, "analyze");
  return r;
}

Request Admin(RequestKind kind) {
  Request r;
  r.kind = kind;
  r.method = "GET";
  r.target = kind == RequestKind::kStats ? "/stats?section=service"
                                         : "/healthz";
  return r;
}

/// Fisher-Yates with the SplitMix64 stream, so the order is the same on
/// every platform.
template <typename T>
void Shuffle(std::vector<T>* v, SplitMix64* rng) {
  for (size_t i = v->size(); i > 1; --i) {
    size_t j = static_cast<size_t>(rng->Next() % i);
    std::swap((*v)[i - 1], (*v)[j]);
  }
}

struct SmallTenant {
  TenantInput input;
  std::vector<std::string> tables;
  std::vector<int> columns;
  std::vector<std::string> rules;
};

std::string RandomInsert(const SmallTenant& t, SplitMix64* rng) {
  int table = rng->Below(static_cast<int>(t.tables.size()));
  std::string stmt = "insert into " + t.tables[table] + " values (";
  for (int c = 0; c < t.columns[table]; ++c) {
    if (c > 0) stmt += ", ";
    stmt += std::to_string(rng->Below(8));
  }
  return stmt + ")";
}

/// A committed write that keeps table sizes fixed: it rewrites one column
/// of the rows matching a value, so a long run does not grow the tenant.
std::string RandomUpdate(const SmallTenant& t, SplitMix64* rng) {
  int table = rng->Below(static_cast<int>(t.tables.size()));
  return "update " + t.tables[table] + " set c1 = " +
         std::to_string(rng->Below(8)) + " where c0 = " +
         std::to_string(rng->Below(8));
}

/// The first catalog in the tenant's seed stream that the Section 5
/// analysis proves terminating — the pre-screen rule_load applies, so every
/// transition cascade is short by construction — and `rows` preloaded rows.
SmallTenant MakeSmallTenant(uint64_t catalog_seed, int index, int num_rules,
                            int rows) {
  RandomRuleSetParams params;
  params.num_tables = 3 + index % 2;
  params.columns_per_table = 2;
  params.num_rules = num_rules;
  params.max_actions_per_rule = 2;
  params.priority_density = 0.2;
  params.observable_fraction = 0.2;
  // Larger catalogs get an acyclic triggering graph: random cyclic
  // catalogs of that size rarely pass the termination check, and the
  // search for one would dominate set-up time.
  params.dag_triggering = num_rules >= 12;
  GeneratedRuleSet set;
  std::string script;
  const uint64_t base =
      catalog_seed * 1000003ULL + static_cast<uint64_t>(index) * 7919;
  for (uint64_t attempt = 0; script.empty(); ++attempt) {
    params.seed = base + attempt;
    set = RandomRuleSetGenerator::Generate(params);
    std::string candidate = fuzzing::RuleSetToScript(set);
    GeneratedRuleSet copy = set.Clone();
    Result<Analyzer> analyzer =
        Analyzer::Create(copy.schema.get(), std::move(copy.rules));
    if (analyzer.ok() && analyzer.value().AnalyzeTermination().guaranteed) {
      script = std::move(candidate);
    }
  }
  SmallTenant t;
  t.input.name = "mix-" + std::to_string(index);
  t.input.script = std::move(script);
  for (const TableDef& table : set.schema->tables()) {
    t.tables.push_back(table.name());
    t.columns.push_back(table.num_columns());
  }
  for (const RuleDef& rule : set.rules) t.rules.push_back(rule.name);
  SplitMix64 rng(catalog_seed * 1000003ULL + 0x5eed +
                 static_cast<uint64_t>(index) * 7919);
  std::string preload;
  for (int i = 0; i < rows; ++i) {
    preload += RandomInsert(t, &rng);
    preload += '\n';
  }
  t.input.preload.push_back(std::move(preload));
  return t;
}

}  // namespace

ServiceInput MakeTenantMix(uint64_t seed, int requests_per_connection) {
  constexpr int kTenants = 8;
  constexpr int kConnections = 2;
  constexpr int kRows = 150;
  // The catalogs, the preloaded rows and each tenant's committed writes
  // come from a fixed seed, so every run seed measures the same rule
  // structures and the same sequence of states per tenant: the latency
  // tail is the cost of the heaviest rule cascades, which those decide.
  // Likewise each tenant's certified pairs: analyze and certify requests
  // go round a connection's tenants, so every seed sends each tenant the
  // same analyses of the same certification states, and the analyze tail
  // does not depend on which tenants a seed happened to pick. The run seed
  // draws the request order and the dry runs' tenants and inserts.
  constexpr uint64_t kCatalogSeed = 1;
  static constexpr int kRuleCounts[kTenants] = {6, 8, 10, 12, 14, 16, 18, 20};
  std::vector<SmallTenant> tenants;
  ServiceInput input;
  for (int i = 0; i < kTenants; ++i) {
    tenants.push_back(
        MakeSmallTenant(kCatalogSeed, i, kRuleCounts[i], kRows));
    input.tenants.push_back(tenants.back().input);
  }

  // Exact per-kind counts, shuffled: every seed sends the same mix. The
  // shares are rule_load's (src/service/load_gen.cc): 2% admin, split
  // evenly between /stats and /healthz, 5% analyze, and transitions for
  // the rest, 1% of them committed. Certify is the one share rule_load
  // lacks; it takes 1%, the rate rule_load gives its other rare
  // state-changing request (commit=1). Each certify is followed by an
  // analyze on the same tenant, so it takes two slots.
  const int n = requests_per_connection;
  const int stats = n / 100;
  const int healths = n / 100;
  const int analyzes = n * 5 / 100;
  const int certifies = n / 100;
  const int transitions = n - stats - healths - analyzes - 2 * certifies;
  const int commits = transitions / 100;
  const int dry = transitions - commits;
  std::vector<SplitMix64> commit_rngs;
  std::vector<SplitMix64> certify_rngs;
  for (int i = 0; i < kTenants; ++i) {
    commit_rngs.emplace_back(kCatalogSeed * 0x51ed2701ULL +
                             static_cast<uint64_t>(i));
    certify_rngs.emplace_back(kCatalogSeed * 0x2545f491ULL +
                              static_cast<uint64_t>(i));
  }
  for (int c = 0; c < kConnections; ++c) {
    SplitMix64 rng(seed * 0x9e3779b97f4a7c15ULL + 17 +
                   static_cast<uint64_t>(c));
    // Commits, analyzes and certifies each go round the connection's
    // tenants; the next tenant of a kind is c + 2 * (sent % 4).
    int commits_sent = 0;
    int analyzes_sent = 0;
    int certifies_sent = 0;
    auto next_owner = [c](int* sent) {
      return c + kConnections * ((*sent)++ % (kTenants / kConnections));
    };
    std::vector<RequestKind> kinds;
    kinds.insert(kinds.end(), dry, RequestKind::kDryRun);
    kinds.insert(kinds.end(), commits, RequestKind::kCommit);
    kinds.insert(kinds.end(), analyzes, RequestKind::kAnalyze);
    kinds.insert(kinds.end(), certifies, RequestKind::kCertify);
    kinds.insert(kinds.end(), stats, RequestKind::kStats);
    kinds.insert(kinds.end(), healths, RequestKind::kHealth);
    Shuffle(&kinds, &rng);
    std::vector<Request> seq;
    seq.reserve(static_cast<size_t>(n));
    for (RequestKind kind : kinds) {
      // Connection c owns tenants c, c + 2, c + 4, ...
      const int tenant = c + kConnections * rng.Below(kTenants / kConnections);
      const SmallTenant& t = tenants[static_cast<size_t>(tenant)];
      switch (kind) {
        case RequestKind::kDryRun:
          seq.push_back(TransitionRequest(tenant, t.input.name, false,
                                          RandomInsert(t, &rng)));
          break;
        case RequestKind::kCommit: {
          // Each commit takes the next write of its tenant's fixed list.
          const int owner = next_owner(&commits_sent);
          const SmallTenant& o = tenants[static_cast<size_t>(owner)];
          seq.push_back(TransitionRequest(
              owner, o.input.name, true,
              RandomUpdate(o, &commit_rngs[static_cast<size_t>(owner)])));
          break;
        }
        case RequestKind::kAnalyze: {
          const int owner = next_owner(&analyzes_sent);
          seq.push_back(
              Analyze(owner, tenants[static_cast<size_t>(owner)].input.name));
          break;
        }
        case RequestKind::kCertify: {
          // The next pair of the tenant's fixed list.
          const int owner = next_owner(&certifies_sent);
          const SmallTenant& o = tenants[static_cast<size_t>(owner)];
          SplitMix64& pairs = certify_rngs[static_cast<size_t>(owner)];
          const int count = static_cast<int>(o.rules.size());
          int a = pairs.Below(count);
          int b = (a + 1 + pairs.Below(count - 1)) % count;
          Request r;
          r.kind = RequestKind::kCertify;
          r.tenant = owner;
          r.method = "POST";
          r.rule_a = o.rules[static_cast<size_t>(a)];
          r.rule_b = o.rules[static_cast<size_t>(b)];
          r.target = TenantPath(o.input.name, "certify?kind=commute&a=" +
                                                  r.rule_a + "&b=" + r.rule_b);
          seq.push_back(std::move(r));
          seq.push_back(Analyze(owner, o.input.name));
          break;
        }
        case RequestKind::kStats:
        case RequestKind::kHealth:
          seq.push_back(Admin(kind));
          break;
      }
    }
    input.connections.push_back(std::move(seq));
  }

  SplitMix64 warm(seed ^ 0x3a3a3a3aULL);
  for (int i = 0; i < kTenants; ++i) {
    const SmallTenant& t = tenants[static_cast<size_t>(i)];
    input.warmup.push_back(Analyze(i, t.input.name));
    for (int k = 0; k < 4; ++k) {
      input.warmup.push_back(
          TransitionRequest(i, t.input.name, false, RandomInsert(t, &warm)));
    }
  }
  input.warmup.push_back(Admin(RequestKind::kStats));
  input.warmup.push_back(Admin(RequestKind::kHealth));
  return input;
}

ServiceInput MakeBigTenant(uint64_t seed, int rows, int requests_per_kind) {
  ServiceInput input;
  TenantInput tenant;
  tenant.name = "big";
  // `big` is read only through its transition table: no rule writes it,
  // so the committed slice update keeps every table's size fixed.
  tenant.script =
      "create table big (a int, b int);\n"
      "create table small (x int, y int);\n"
      "create table counter (n int);\n"
      "create rule bump on big when updated(b) "
      "then update counter set n = n + 1;\n"
      "create rule note on small when inserted "
      "then update counter set n = n + 1;\n";
  SplitMix64 rng(seed * 0x2545f4914f6cdd1dULL + 101);
  std::string preload = "insert into counter values (0)\n";
  constexpr int kRowsPerStatement = 500;
  for (int start = 0; start < rows; start += kRowsPerStatement) {
    std::string stmt = "insert into big values ";
    for (int a = start; a < std::min(rows, start + kRowsPerStatement); ++a) {
      if (a > start) stmt += ", ";
      stmt += '(';
      stmt += std::to_string(a);
      stmt += ", ";
      stmt += std::to_string(rng.Below(1000));
      stmt += ')';
    }
    preload += stmt + "\n";
  }
  tenant.preload.push_back(std::move(preload));
  input.tenants.push_back(tenant);

  std::vector<RequestKind> kinds(static_cast<size_t>(requests_per_kind),
                                 RequestKind::kDryRun);
  kinds.insert(kinds.end(), requests_per_kind, RequestKind::kCommit);
  Shuffle(&kinds, &rng);
  std::vector<Request> seq;
  const std::string commit_sql = "update big set b = b + 1 where a < " +
                                 std::to_string(kBigSlice);
  auto dry_sql = [&](SplitMix64* r) {
    return "insert into small values (" + std::to_string(r->Below(1000)) +
           ", " + std::to_string(r->Below(1000)) + ")";
  };
  for (RequestKind kind : kinds) {
    seq.push_back(kind == RequestKind::kCommit
                      ? TransitionRequest(0, tenant.name, true, commit_sql)
                      : TransitionRequest(0, tenant.name, false,
                                          dry_sql(&rng)));
  }
  input.connections.push_back(std::move(seq));
  SplitMix64 warm(seed ^ 0x7e7e7e7eULL);
  for (int k = 0; k < 16; ++k) {
    input.warmup.push_back(
        TransitionRequest(0, tenant.name, false, dry_sql(&warm)));
  }
  return input;
}

std::string Serialize(const ServiceInput& input) {
  std::string out;
  for (const TenantInput& t : input.tenants) {
    out += "tenant " + t.name + "\n" + t.script;
    for (const std::string& p : t.preload) out += "preload\n" + p;
  }
  auto add = [&out](const Request& r) {
    out += std::string(RequestKindName(r.kind)) + " " +
           std::to_string(r.tenant) + " " + r.method + " " + r.target + "\n" +
           r.body + "\n";
  };
  for (size_t c = 0; c < input.connections.size(); ++c) {
    out += "connection " + std::to_string(c) + "\n";
    for (const Request& r : input.connections[c]) add(r);
  }
  out += "warmup\n";
  for (const Request& r : input.warmup) add(r);
  return out;
}

namespace {

/// Rules in the hand-built wide, re-converging and writers cases.
constexpr int kWideRules = 6;
constexpr int kReconvergeRules = 6;
constexpr int kWriters = 6;

/// Builds a hand-written case: `tables` and `rules` in the rule language,
/// `statements` run as the user transaction that triggers the rules.
Result<std::unique_ptr<ExploreCase>> HandCase(
    std::string name, const std::string& script,
    const std::vector<std::string>& statements, std::string* description) {
  STARBURST_ASSIGN_OR_RETURN(GeneratedRuleSet set,
                             fuzzing::ParseRuleSetScript(script));
  STARBURST_ASSIGN_OR_RETURN(
      RuleCatalog catalog,
      RuleCatalog::Build(set.schema.get(), std::move(set.rules)));
  Database db(set.schema.get());
  auto c = std::make_unique<ExploreCase>(std::move(set.schema),
                                         std::move(catalog), std::move(db));
  Executor executor(&c->db);
  for (const std::string& sql : statements) {
    STARBURST_ASSIGN_OR_RETURN(StmtPtr stmt, Parser::ParseStatement(sql));
    STARBURST_ASSIGN_OR_RETURN(ExecOutcome outcome,
                               executor.Execute(*stmt, nullptr, nullptr));
    STARBURST_RETURN_IF_ERROR(c->initial.Compose(outcome.delta));
  }
  c->name = std::move(name);
  c->allows_dedup = true;
  *description += "case " + c->name + "\n" + script;
  for (const std::string& s : statements) *description += s + "\n";
  return c;
}

}  // namespace

Result<AnalystInput> MakeAnalystInput(uint64_t seed,
                                      const AnalystSizes& sizes) {
  AnalystInput input;
  // As in tenant_mix, the catalogs and the lattice sample come from a fixed
  // seed, so every run seed analyzes and explores the same structures; the
  // run seed draws the edited rules and the hand-built cases' values.
  constexpr uint64_t kCatalogSeed = 1;
  SparseCatalogParams cold;
  cold.num_rules = sizes.cold_rules;
  cold.num_clusters = std::max(1, sizes.cold_rules / 20);
  cold.overlap_density = 0.05;
  cold.seed = kCatalogSeed * 31 + 1;
  input.cold = RandomRuleSetGenerator::GenerateSparseCatalog(cold);

  SparseCatalogParams inc;
  inc.num_rules = sizes.incremental_rules;
  inc.seed = kCatalogSeed * 31 + 2;
  input.incremental = RandomRuleSetGenerator::GenerateSparseCatalog(inc);
  SplitMix64 rng(seed ^ 0xed17ed17ULL);
  for (int i = 0; i < sizes.edits; ++i) {
    input.edits.push_back(rng.Below(sizes.incremental_rules));
  }

  std::string& d = input.description;
  d += "cold\n" + fuzzing::RuleSetToScript(input.cold);
  d += "incremental\n" + fuzzing::RuleSetToScript(input.incremental);
  d += "edits";
  for (int e : input.edits) d += " " + std::to_string(e);
  d += "\n";

  // Wide unordered set: n rules on one event writing n distinct tables.
  // Every order reaches one final state; POR collapses the n! orders.
  {
    std::string script = "create table src (a int);\n";
    std::string rules;
    for (int i = 0; i < kWideRules; ++i) {
      script += "create table t" + std::to_string(i) + " (a int);\n";
      rules += "create rule r" + std::to_string(i) +
               " on src when inserted then insert into t" + std::to_string(i) +
               " values (" + std::to_string(1 + rng.Below(9)) + ");\n";
    }
    STARBURST_ASSIGN_OR_RETURN(
        auto c, HandCase("wide", script + rules,
                         {"insert into src values (1)"}, &d));
    c->expect_single_final = true;
    input.explore.push_back(std::move(c));
  }
  // Re-converging set: rules whose conditions stay false only reset their
  // own pending marker, so every permutation of a subset meets the same
  // state — the shape subtree dedup reduces and POR does not.
  {
    std::string script = "create table src (a int);\n";
    for (int i = 0; i < kReconvergeRules; ++i) {
      script += "create rule r" + std::to_string(i) +
                " on src when inserted if exists "
                "(select * from src where a > " +
                std::to_string(100 * (i + 1) + rng.Below(50)) +
                ") then delete from src;\n";
    }
    STARBURST_ASSIGN_OR_RETURN(
        auto c, HandCase("reconverge", script,
                         {"insert into src values (1)"}, &d));
    c->expect_single_final = true;
    input.explore.push_back(std::move(c));
  }
  // Deep cascade: two independent trigger chains; each firing enables the
  // next chain rule, so POR finds nothing to prune and the tree is deep
  // rather than wide — the work-stealing case.
  {
    std::string script = "create table src (a int);\n";
    std::string rules;
    for (int c = 0; c < 2; ++c) {
      const std::string p = "c" + std::to_string(c) + "_";
      for (int i = 0; i <= sizes.cascade_depth; ++i) {
        script += "create table " + p + std::to_string(i) + " (a int);\n";
      }
      rules += "create rule root" + std::to_string(c) +
               " on src when inserted then insert into " + p + "0 values (" +
               std::to_string(1 + rng.Below(9)) + ");\n";
      for (int i = 0; i < sizes.cascade_depth; ++i) {
        rules += "create rule step" + std::to_string(c) + "_" +
                 std::to_string(i) + " on " + p + std::to_string(i) +
                 " when inserted then insert into " + p +
                 std::to_string(i + 1) + " values (1);\n";
      }
    }
    STARBURST_ASSIGN_OR_RETURN(
        auto c, HandCase("cascade", script + rules,
                         {"insert into src values (1)"}, &d));
    c->expect_single_final = true;
    input.explore.push_back(std::move(c));
  }
  // Unordered writers: n rules on one event overwrite one column with
  // distinct values, so the last writer decides — n final states, and a
  // witness of the same size for every seed.
  {
    std::string script = "create table src (a int);\ncreate table s (a int);\n";
    for (int i = 0; i < kWriters; ++i) {
      script += "create rule w" + std::to_string(i) +
                " on src when inserted then update s set a = " +
                std::to_string(10 * (i + 1) + rng.Below(10)) + ";\n";
    }
    STARBURST_ASSIGN_OR_RETURN(
        auto c, HandCase("writers", script,
                         {"insert into s values (0)",
                          "insert into src values (1)"},
                         &d));
    input.explore.push_back(std::move(c));
  }
  // Seeded sample of the fuzz lattice: half divergent, half not, each
  // exploring completely within the oracle budget, so every seed carries
  // the same number of witnesses.
  {
    const int want_divergent = sizes.lattice_cases / 2;
    const int want_other = sizes.lattice_cases - want_divergent;
    int divergent = 0;
    int other = 0;
    fuzzing::OracleOptions oracle;
    ExplorerOptions probe;
    probe.max_depth = oracle.max_depth;
    // A small budget: candidates that need more are skipped, which keeps
    // the search cheap and its cost nearly the same for every seed.
    probe.max_total_steps = 2000;
    probe.por = ExplorerOptions::PorMode::kOff;
    for (uint64_t s = kCatalogSeed * 7777 + 1;
         divergent < want_divergent || other < want_other; ++s) {
      RandomRuleSetParams params = fuzzing::LatticeParams(s);
      GeneratedRuleSet set = RandomRuleSetGenerator::Generate(params);
      Result<fuzzing::OracleCase> prepared =
          fuzzing::PrepareOracleCase(set, s, oracle);
      if (!prepared.ok()) continue;
      Result<ExplorationResult> r =
          Explorer::Explore(prepared.value().catalog, prepared.value().db,
                            prepared.value().initial, probe);
      if (!r.ok() || !r.value().complete || r.value().may_not_terminate) {
        continue;
      }
      const bool diverges = r.value().final_states.size() >= 2 ||
                            r.value().observable_streams.size() >= 2;
      if (diverges ? divergent >= want_divergent : other >= want_other) {
        continue;
      }
      (diverges ? divergent : other)++;
      d += "case lattice-" + std::to_string(s) + "\n" +
           fuzzing::RuleSetToScript(set);
      auto c = std::make_unique<ExploreCase>(
          std::move(set.schema), std::move(prepared.value().catalog),
          std::move(prepared.value().db));
      c->initial = std::move(prepared.value().initial);
      c->name = "lattice-" + std::to_string(s);
      c->allows_dedup = params.observable_fraction == 0.0;
      input.explore.push_back(std::move(c));
    }
  }
  return input;
}

}  // namespace perfbench
