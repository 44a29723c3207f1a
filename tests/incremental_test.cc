#include <gtest/gtest.h>

#include "analysis/analyzer.h"
#include "analysis/incremental.h"
#include "rulelang/parser.h"

namespace starburst {
namespace {

RuleDef ParseRule(const std::string& src) {
  auto r = Parser::ParseRule(src);
  EXPECT_TRUE(r.ok()) << r.status().ToString();
  return r.ok() ? std::move(r).value() : RuleDef{};
}

class IncrementalTest : public ::testing::Test {
 protected:
  void SetUp() override {
    for (const char* name : {"t", "s", "u"}) {
      ASSERT_TRUE(schema_
                      .AddTable(name, {{"a", ColumnType::kInt},
                                       {"b", ColumnType::kInt}})
                      .ok());
    }
  }
  Schema schema_;
};

/// A from-scratch Analyzer over `sources`, in this order.
Analyzer FromScratch(const Schema& schema,
                     const std::vector<std::string>& sources) {
  std::vector<RuleDef> rules;
  for (const std::string& src : sources) rules.push_back(ParseRule(src));
  auto analyzer = Analyzer::Create(&schema, std::move(rules));
  EXPECT_TRUE(analyzer.ok()) << analyzer.status().ToString();
  return std::move(analyzer).value();
}

/// Every field of the incremental reports, rule indices included, equals
/// a from-scratch Analyzer's over the same rules in the same order, and so
/// does every pair's commutativity verdict.
void ExpectMatchesFromScratch(const Schema& schema,
                              const std::vector<std::string>& sources,
                              IncrementalAnalyzer* incremental, int cap,
                              const std::string& where) {
  SCOPED_TRACE(where + " (max_violations=" + std::to_string(cap) + ")");
  auto run = incremental->Analyze({}, cap);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  Analyzer scratch = FromScratch(schema, sources);
  FullReport full = scratch.AnalyzeAll(cap);
  const TerminationReport& term = run.value().termination;
  EXPECT_EQ(term.guaranteed, full.termination.guaranteed);
  EXPECT_EQ(term.acyclic, full.termination.acyclic);
  ASSERT_EQ(term.cycles.size(), full.termination.cycles.size());
  for (size_t k = 0; k < term.cycles.size(); ++k) {
    EXPECT_EQ(term.cycles[k].rules, full.termination.cycles[k].rules);
    EXPECT_EQ(term.cycles[k].certified, full.termination.cycles[k].certified);
    EXPECT_EQ(term.cycles[k].discharged,
              full.termination.cycles[k].discharged);
  }
  const ConfluenceReport& conf = run.value().confluence;
  EXPECT_EQ(conf.requirement_holds, full.confluence.requirement_holds);
  EXPECT_EQ(conf.confluent, full.confluence.confluent);
  EXPECT_EQ(conf.violations, full.confluence.violations);
  EXPECT_EQ(conf.unordered_pairs_checked,
            full.confluence.unordered_pairs_checked);
  EXPECT_EQ(conf.max_set_size, full.confluence.max_set_size);
  int n = static_cast<int>(sources.size());
  ASSERT_EQ(incremental->num_rules(), n);
  for (RuleIndex i = 0; i < n; ++i) {
    for (RuleIndex j = 0; j < n; ++j) {
      EXPECT_EQ(incremental->PairCommutes(i, j),
                scratch.commutativity().Commute(i, j))
          << "pair (" << i << ", " << j << ")";
    }
  }
}

/// Eight rules with two triggering cycles (r0/r1 and the self-triggering
/// r3), noncommuting pairs, and priority clauses that grow the
/// Definition 6.5 sets beyond singletons.
std::vector<std::string> EdgeCatalog() {
  return {
      "create rule r0 on t when inserted then update s set a = 1",
      "create rule r1 on s when updated(a) then insert into t values (1, 2)",
      "create rule r2 on t when inserted then update s set a = 2",
      "create rule r3 on u when updated(b) then update u set b = b + 1 "
      "where b < 3",
      "create rule r4 on s when updated(a) then update u set a = 1 "
      "precedes r1",
      "create rule r5 on t when deleted then update s set b = 1",
      "create rule r6 on u when inserted then update s set a = 3 "
      "follows r5",
      "create rule r7 on t when inserted then update u set b = 2",
  };
}

TEST_F(IncrementalTest, AddRuleValidates) {
  IncrementalAnalyzer analyzer(&schema_);
  EXPECT_TRUE(analyzer
                  .AddRule(ParseRule("create rule r0 on t when inserted "
                                     "then update s set a = 1"))
                  .ok());
  // Unknown table: rejected, rule set unchanged.
  auto bad = analyzer.AddRule(
      ParseRule("create rule r1 on nope when inserted then rollback"));
  EXPECT_FALSE(bad.ok());
  EXPECT_EQ(analyzer.num_rules(), 1);
  // Duplicate name: rejected.
  auto dup = analyzer.AddRule(
      ParseRule("create rule r0 on s when inserted then rollback"));
  EXPECT_FALSE(dup.ok());
  EXPECT_EQ(analyzer.num_rules(), 1);
}

TEST_F(IncrementalTest, FirstAnalysisComputesAllPairs) {
  IncrementalAnalyzer analyzer(&schema_);
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(analyzer
                    .AddRule(ParseRule("create rule r" + std::to_string(i) +
                                       " on t when inserted then update s "
                                       "set a = " +
                                       std::to_string(i)))
                    .ok());
  }
  auto run = analyzer.Analyze();
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  EXPECT_EQ(run.value().stats.pair_checks_computed, 6);  // C(4,2)
  EXPECT_EQ(run.value().stats.pair_checks_reused, 0);
  EXPECT_FALSE(run.value().confluence.requirement_holds);
}

TEST_F(IncrementalTest, SecondAnalysisReusesEverything) {
  IncrementalAnalyzer analyzer(&schema_);
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(analyzer
                    .AddRule(ParseRule("create rule r" + std::to_string(i) +
                                       " on t when inserted then update u "
                                       "set b = 1"))
                    .ok());
  }
  ASSERT_TRUE(analyzer.Analyze().ok());
  auto second = analyzer.Analyze();
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second.value().stats.pair_checks_computed, 0);
  EXPECT_EQ(second.value().stats.pair_checks_reused, 6);
}

TEST_F(IncrementalTest, AddingOneRuleCostsLinearPairChecks) {
  IncrementalAnalyzer analyzer(&schema_);
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(analyzer
                    .AddRule(ParseRule("create rule r" + std::to_string(i) +
                                       " on t when inserted then update u "
                                       "set b = 1"))
                    .ok());
  }
  ASSERT_TRUE(analyzer.Analyze().ok());  // 10 pairs computed
  ASSERT_TRUE(analyzer
                  .AddRule(ParseRule("create rule extra on s when deleted "
                                     "then update u set a = 1"))
                  .ok());
  auto run = analyzer.Analyze();
  ASSERT_TRUE(run.ok());
  EXPECT_EQ(run.value().stats.pair_checks_computed, 5);  // new rule x 5 old
  EXPECT_EQ(run.value().stats.pair_checks_reused, 10);
}

TEST_F(IncrementalTest, RemoveRuleDropsItsCacheEntries) {
  IncrementalAnalyzer analyzer(&schema_);
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(analyzer
                    .AddRule(ParseRule("create rule r" + std::to_string(i) +
                                       " on t when inserted then update u "
                                       "set b = 1"))
                    .ok());
  }
  ASSERT_TRUE(analyzer.Analyze().ok());  // 3 pairs
  ASSERT_TRUE(analyzer.RemoveRule("r1").ok());
  EXPECT_EQ(analyzer.num_rules(), 2);
  auto run = analyzer.Analyze();
  ASSERT_TRUE(run.ok());
  // Only (r0, r2) was cached and survives.
  EXPECT_EQ(run.value().stats.pair_checks_reused, 1);
  EXPECT_EQ(run.value().stats.pair_checks_computed, 0);
  // Re-adding a rule named r1 with a DIFFERENT definition is safe: its
  // cache entries are gone.
  ASSERT_TRUE(analyzer
                  .AddRule(ParseRule("create rule r1 on t when inserted "
                                     "then update u set b = 2"))
                  .ok());
  auto run2 = analyzer.Analyze();
  ASSERT_TRUE(run2.ok());
  EXPECT_EQ(run2.value().stats.pair_checks_computed, 2);
  EXPECT_FALSE(run2.value().confluence.requirement_holds);  // b=1 vs b=2
}

TEST_F(IncrementalTest, RemoveUnknownRuleFails) {
  IncrementalAnalyzer analyzer(&schema_);
  EXPECT_EQ(analyzer.RemoveRule("ghost").code(), StatusCode::kNotFound);
}

// Regression (pair-cache audit): a duplicate rule name must be rejected
// even when it differs only in case — pair-cache keys are lowercased, so a
// case-variant duplicate would alias the existing rule's cached verdicts
// and serve stale pairs for the new definition.
TEST_F(IncrementalTest, AddRuleRejectsCaseVariantDuplicate) {
  IncrementalAnalyzer analyzer(&schema_);
  ASSERT_TRUE(analyzer
                  .AddRule(ParseRule("create rule r0 on t when inserted "
                                     "then update s set a = 1"))
                  .ok());
  ASSERT_TRUE(analyzer
                  .AddRule(ParseRule("create rule r1 on t when inserted "
                                     "then update s set a = 1"))
                  .ok());
  ASSERT_TRUE(analyzer.Analyze().ok());  // caches (r0, r1)
  auto dup = analyzer.AddRule(
      ParseRule("create rule R0 on s when deleted then rollback"));
  EXPECT_FALSE(dup.ok());
  EXPECT_EQ(analyzer.num_rules(), 2);
  // The rejected add must not have perturbed the cache.
  auto run = analyzer.Analyze();
  ASSERT_TRUE(run.ok());
  EXPECT_EQ(run.value().stats.pair_checks_reused, 1);
  EXPECT_EQ(run.value().stats.pair_checks_computed, 0);
}

// Regression (pair-cache audit): removal is case-insensitive and must drop
// the removed rule's cache entries under the normalized key, so re-adding
// the name (any case) with a different definition recomputes its pairs
// instead of reusing stale verdicts.
TEST_F(IncrementalTest, RemoveByDifferentCaseDropsCacheEntries) {
  IncrementalAnalyzer analyzer(&schema_);
  ASSERT_TRUE(analyzer
                  .AddRule(ParseRule("create rule r0 on t when inserted "
                                     "then update u set b = 1"))
                  .ok());
  ASSERT_TRUE(analyzer
                  .AddRule(ParseRule("create rule r1 on t when inserted "
                                     "then update u set b = 1"))
                  .ok());
  ASSERT_TRUE(analyzer.Analyze().ok());   // (r0, r1) commutes, cached
  ASSERT_TRUE(analyzer.RemoveRule("R1").ok());
  ASSERT_TRUE(analyzer
                  .AddRule(ParseRule("create rule R1 on t when inserted "
                                     "then update u set b = 2"))
                  .ok());
  auto run = analyzer.Analyze();
  ASSERT_TRUE(run.ok());
  // Stale reuse would report reused = 1 and miss the conflict.
  EXPECT_EQ(run.value().stats.pair_checks_computed, 1);
  EXPECT_EQ(run.value().stats.pair_checks_reused, 0);
  EXPECT_FALSE(run.value().confluence.requirement_holds);  // b=1 vs b=2
}

// Pins the self-pair convention: the diagonal is implicitly true and is
// neither computed nor cached — with a single rule both counters stay 0,
// and analysis still succeeds with a (trivially) confluent verdict.
TEST_F(IncrementalTest, SelfPairIsNeverCountedOrCached) {
  IncrementalAnalyzer analyzer(&schema_);
  ASSERT_TRUE(analyzer
                  .AddRule(ParseRule("create rule solo on t when inserted "
                                     "then update s set a = 1"))
                  .ok());
  for (int round = 0; round < 2; ++round) {
    auto run = analyzer.Analyze();
    ASSERT_TRUE(run.ok());
    EXPECT_EQ(run.value().stats.pair_checks_computed, 0) << "round " << round;
    EXPECT_EQ(run.value().stats.pair_checks_reused, 0) << "round " << round;
    EXPECT_TRUE(run.value().confluence.requirement_holds);
  }
}

// Regression (stats audit): the counters cover the full pair matrix build,
// which happens before confluence reporting — truncating the violation list
// via max_violations must not change computed/reused, and every analysis
// maintains computed + reused == C(n, 2).
TEST_F(IncrementalTest, StatsUnaffectedByMaxViolationsTruncation) {
  IncrementalAnalyzer analyzer(&schema_);
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(analyzer
                    .AddRule(ParseRule("create rule r" + std::to_string(i) +
                                       " on t when inserted then update s "
                                       "set a = " +
                                       std::to_string(i)))
                    .ok());
  }
  auto truncated = analyzer.Analyze({}, /*max_violations=*/1);
  ASSERT_TRUE(truncated.ok());
  EXPECT_EQ(truncated.value().confluence.violations.size(), 1u);
  EXPECT_EQ(truncated.value().stats.pair_checks_computed, 10);  // C(5,2)
  EXPECT_EQ(truncated.value().stats.pair_checks_reused, 0);

  auto again = analyzer.Analyze({}, /*max_violations=*/1);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again.value().stats.pair_checks_computed, 0);
  EXPECT_EQ(again.value().stats.pair_checks_reused, 10);
}

// Regression (stats audit): exact counter accounting across a
// RemoveRule -> Analyze -> AddRule -> Analyze sequence; each run maintains
// computed + reused == C(n, 2) with reuse exactly on the surviving pairs.
TEST_F(IncrementalTest, StatsExactAcrossRemoveThenAddSequence) {
  IncrementalAnalyzer analyzer(&schema_);
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(analyzer
                    .AddRule(ParseRule("create rule r" + std::to_string(i) +
                                       " on t when inserted then update u "
                                       "set b = 1"))
                    .ok());
  }
  auto first = analyzer.Analyze();
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(first.value().stats.pair_checks_computed, 6);  // C(4,2)
  EXPECT_EQ(first.value().stats.pair_checks_reused, 0);

  ASSERT_TRUE(analyzer.RemoveRule("r2").ok());
  auto after_remove = analyzer.Analyze();
  ASSERT_TRUE(after_remove.ok());
  // 3 rules left; all C(3,2) pairs among {r0, r1, r3} were cached.
  EXPECT_EQ(after_remove.value().stats.pair_checks_computed, 0);
  EXPECT_EQ(after_remove.value().stats.pair_checks_reused, 3);

  ASSERT_TRUE(analyzer
                  .AddRule(ParseRule("create rule fresh on s when inserted "
                                     "then update u set a = 1"))
                  .ok());
  auto after_add = analyzer.Analyze();
  ASSERT_TRUE(after_add.ok());
  // C(4,2) = 6 pairs: 3 old ones reused, 3 new ones against `fresh`.
  EXPECT_EQ(after_add.value().stats.pair_checks_computed, 3);
  EXPECT_EQ(after_add.value().stats.pair_checks_reused, 3);
}

// Satellite (O(k) registration): building a k-rule catalog one AddRule at
// a time performs exactly k single-rule validations — no revalidation of
// the existing catalog per add. A rejected rule costs exactly one more.
TEST_F(IncrementalTest, AddRuleDoesLinearValidationWork) {
  IncrementalAnalyzer analyzer(&schema_);
  constexpr int kRules = 20;
  for (int i = 0; i < kRules; ++i) {
    ASSERT_TRUE(analyzer
                    .AddRule(ParseRule("create rule r" + std::to_string(i) +
                                       " on t when inserted then update s "
                                       "set a = 1"))
                    .ok());
    EXPECT_EQ(analyzer.rule_validations(), i + 1);
  }
  // Semantic rejection (unknown table) still validates once; a duplicate
  // name is rejected before validation and costs nothing.
  EXPECT_FALSE(analyzer
                   .AddRule(ParseRule("create rule bad on nope when "
                                      "inserted then rollback"))
                   .ok());
  EXPECT_EQ(analyzer.rule_validations(), kRules + 1);
  EXPECT_FALSE(analyzer
                   .AddRule(ParseRule("create rule r0 on t when inserted "
                                      "then rollback"))
                   .ok());
  EXPECT_EQ(analyzer.rule_validations(), kRules + 1);
}

// Regression (pair-cache redefinition): Remove -> Add of the same name
// with different reads/writes must recompute the pair verdict, in both
// directions — a conflicting pair redefined to commute, then redefined to
// conflict again. Stale reuse would freeze the first verdict.
TEST_F(IncrementalTest, RedefinitionFlipsVerdictBothWays) {
  IncrementalAnalyzer analyzer(&schema_);
  ASSERT_TRUE(analyzer
                  .AddRule(ParseRule("create rule r0 on t when inserted "
                                     "then update s set a = 1"))
                  .ok());
  ASSERT_TRUE(analyzer
                  .AddRule(ParseRule("create rule r1 on t when inserted "
                                     "then update s set a = 2"))
                  .ok());
  auto v1 = analyzer.Analyze();
  ASSERT_TRUE(v1.ok());
  EXPECT_FALSE(analyzer.PairCommutes(0, 1));  // a = 1 vs a = 2
  EXPECT_FALSE(v1.value().confluence.requirement_holds);

  // Redefine r1 to write a different table: the pair now commutes.
  ASSERT_TRUE(analyzer.RemoveRule("r1").ok());
  ASSERT_TRUE(analyzer
                  .AddRule(ParseRule("create rule r1 on t when inserted "
                                     "then update u set b = 1"))
                  .ok());
  auto v2 = analyzer.Analyze();
  ASSERT_TRUE(v2.ok());
  EXPECT_EQ(v2.value().stats.pair_checks_computed, 1);
  EXPECT_EQ(v2.value().stats.pair_checks_reused, 0);
  EXPECT_TRUE(analyzer.PairCommutes(0, 1));
  EXPECT_TRUE(v2.value().confluence.requirement_holds);

  // Redefine back to a conflicting write: the verdict flips again.
  ASSERT_TRUE(analyzer.RemoveRule("r1").ok());
  ASSERT_TRUE(analyzer
                  .AddRule(ParseRule("create rule r1 on t when inserted "
                                     "then update s set a = 3"))
                  .ok());
  auto v3 = analyzer.Analyze();
  ASSERT_TRUE(v3.ok());
  EXPECT_EQ(v3.value().stats.pair_checks_computed, 1);
  EXPECT_FALSE(analyzer.PairCommutes(0, 1));
  EXPECT_FALSE(v3.value().confluence.requirement_holds);
}

// Tentpole invariant: pairs with disjoint table footprints commute by
// construction and are never materialized — they appear in neither the
// computed nor the reused counter, while the confluence report still
// covers every unordered pair.
TEST_F(IncrementalTest, DisjointFootprintPairsCostNothing) {
  IncrementalAnalyzer analyzer(&schema_);
  // r0, r1 share footprint {t, s}; r2's footprint is {u}, disjoint.
  ASSERT_TRUE(analyzer
                  .AddRule(ParseRule("create rule r0 on t when inserted "
                                     "then update s set a = 1"))
                  .ok());
  ASSERT_TRUE(analyzer
                  .AddRule(ParseRule("create rule r1 on t when inserted "
                                     "then update s set b = 1"))
                  .ok());
  ASSERT_TRUE(analyzer
                  .AddRule(ParseRule("create rule r2 on u when inserted "
                                     "then update u set a = 1"))
                  .ok());
  auto first = analyzer.Analyze();
  ASSERT_TRUE(first.ok());
  // Only the (r0, r1) overlap is checked; (r0, r2) and (r1, r2) cost 0.
  EXPECT_EQ(first.value().stats.pair_checks_computed, 1);
  EXPECT_EQ(first.value().stats.pair_checks_reused, 0);
  // The report still accounts for all C(3, 2) unordered pairs.
  EXPECT_EQ(first.value().confluence.unordered_pairs_checked, 3);
  EXPECT_TRUE(analyzer.PairCommutes(0, 2));
  EXPECT_TRUE(analyzer.PairCommutes(1, 2));

  auto second = analyzer.Analyze();
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second.value().stats.pair_checks_computed, 0);
  EXPECT_EQ(second.value().stats.pair_checks_reused, 1);
}

TEST_F(IncrementalTest, VerdictsMatchFromScratchAnalysis) {
  IncrementalAnalyzer incremental(&schema_);
  std::vector<std::string> sources = {
      "create rule a on t when inserted then update s set a = 1",
      "create rule b on s when updated(a) then insert into u values (1, 2)",
      "create rule c on u when inserted then update s set b = 1",
      "create rule d on t when deleted then update s set a = 2",
  };
  std::vector<RuleDef> rules;
  for (const auto& src : sources) {
    ASSERT_TRUE(incremental.AddRule(ParseRule(src)).ok());
    rules.push_back(ParseRule(src));
  }
  auto inc_run = incremental.Analyze();
  ASSERT_TRUE(inc_run.ok());

  auto prelim = PrelimAnalysis::Compute(schema_, rules);
  ASSERT_TRUE(prelim.ok());
  auto priority = PriorityOrder::Build(prelim.value(), rules);
  ASSERT_TRUE(priority.ok());
  CommutativityAnalyzer commutativity(prelim.value(), schema_);
  ConfluenceAnalyzer scratch(commutativity, priority.value());
  TerminationReport term = TerminationAnalyzer::Analyze(prelim.value());
  ConfluenceReport scratch_report = scratch.Analyze(term.guaranteed);

  EXPECT_EQ(inc_run.value().termination.guaranteed, term.guaranteed);
  EXPECT_EQ(inc_run.value().confluence.requirement_holds,
            scratch_report.requirement_holds);
  EXPECT_EQ(inc_run.value().confluence.violations.size(),
            scratch_report.violations.size());
}

// Stable slots: removing the first, a middle or the last rule leaves a
// tombstone, and re-adding it appends a slot; the reports' rule indices
// (cycle members, violation pairs, R1/R2 sets, cause actors) and every
// pair verdict must still read as positions of a from-scratch analysis.
TEST_F(IncrementalTest, RemoveAndReAddMatchesFromScratchAtEveryPosition) {
  const std::vector<std::string> catalog = EdgeCatalog();
  for (size_t victim : {size_t{0}, catalog.size() / 2, catalog.size() - 1}) {
    IncrementalAnalyzer incremental(&schema_);
    for (const std::string& src : catalog) {
      ASSERT_TRUE(incremental.AddRule(ParseRule(src)).ok()) << src;
    }
    std::vector<std::string> order = catalog;
    std::string where = "victim r" + std::to_string(victim);
    for (int cap : {-1, 2}) {
      ExpectMatchesFromScratch(schema_, order, &incremental, cap,
                               where + " registered");
    }
    // Only r1 and r5 are named by other rules' clauses, so no victim
    // leaves a dangling clause behind.
    ASSERT_TRUE(incremental.RemoveRule("r" + std::to_string(victim)).ok());
    order.erase(order.begin() + static_cast<std::ptrdiff_t>(victim));
    for (int cap : {-1, 2}) {
      ExpectMatchesFromScratch(schema_, order, &incremental, cap,
                               where + " removed");
    }
    ASSERT_TRUE(incremental.AddRule(ParseRule(catalog[victim])).ok());
    order.push_back(catalog[victim]);
    for (int cap : {-1, 2}) {
      ExpectMatchesFromScratch(schema_, order, &incremental, cap,
                               where + " re-added");
    }
  }
}

// An edit sequence long enough to cross the tombstone compaction
// threshold several times: every verdict and index, with tombstones
// pending and right after each compaction, equals a from-scratch analysis.
TEST_F(IncrementalTest, CompactionKeepsReportsEqualToFromScratch) {
  const char* tables[] = {"t", "s", "u"};
  std::vector<std::string> catalog;
  for (int k = 0; k < 12; ++k) {
    std::string on = tables[k % 3];
    std::string target = tables[(k + 1) % 3];
    std::string event = k % 4 == 3 ? "updated(a)" : "inserted";
    std::string action = k % 2 == 0 ? "update " + target + " set a = " +
                                          std::to_string(k % 3)
                                    : "insert into " + target +
                                          " values (1, " +
                                          std::to_string(k) + ")";
    catalog.push_back("create rule e" + std::to_string(k) + " on " + on +
                      " when " + event + " then " + action);
    if (k == 5) {
      // A non-commuting pair that only its ordering keeps confluent. It is
      // never edited, but every compaction renumbers it.
      catalog.push_back("create rule p0 on t when inserted then "
                        "update s set b = 1");
      catalog.push_back("create rule p1 on t when inserted then "
                        "update s set b = 2 follows p0");
    }
  }
  IncrementalAnalyzer incremental(&schema_);
  for (const std::string& src : catalog) {
    ASSERT_TRUE(incremental.AddRule(ParseRule(src)).ok()) << src;
  }
  std::vector<std::string> order = catalog;
  ExpectMatchesFromScratch(schema_, order, &incremental, -1, "registered");
  for (size_t e = 0; e < 30; ++e) {
    size_t position = (e * 5) % order.size();
    if (ParseRule(order[position]).name[0] == 'p') {
      position = (position + 2) % order.size();  // past p0, p1 (adjacent)
    }
    std::string src = order[position];
    std::string name = ParseRule(src).name;
    ASSERT_TRUE(incremental.RemoveRule(name).ok());
    order.erase(order.begin() + static_cast<std::ptrdiff_t>(position));
    ExpectMatchesFromScratch(schema_, order, &incremental, 2,
                             "edit " + std::to_string(e) + " removed " + name);
    ASSERT_TRUE(incremental.AddRule(ParseRule(src)).ok());
    order.push_back(src);
    ExpectMatchesFromScratch(schema_, order, &incremental, -1,
                             "edit " + std::to_string(e) + " re-added " + name);
  }
  EXPECT_GE(incremental.compactions(), 2);
}

// A removed rule named in other rules' `follows` and `precedes` clauses
// leaves them dangling: Analyze() fails exactly as PriorityOrder::Build
// over the live rules does, and re-adding the rule re-binds both.
TEST_F(IncrementalTest, DanglingClausesFailLikeBuildAndReAddRebinds) {
  const std::vector<std::string> catalog = {
      "create rule a on t when inserted then update s set a = 1",
      "create rule b on t when inserted then update s set a = 2 follows a",
      "create rule c on u when inserted then update s set b = 1",
      "create rule d on u when inserted then update s set a = 3 "
      "precedes a, c",
  };
  IncrementalAnalyzer incremental(&schema_);
  for (const std::string& src : catalog) {
    ASSERT_TRUE(incremental.AddRule(ParseRule(src)).ok());
  }
  ExpectMatchesFromScratch(schema_, catalog, &incremental, -1, "registered");

  ASSERT_TRUE(incremental.RemoveRule("a").ok());
  std::vector<RuleDef> live;
  for (size_t k = 1; k < catalog.size(); ++k) {
    live.push_back(ParseRule(catalog[k]));
  }
  auto prelim = PrelimAnalysis::Compute(schema_, live);
  ASSERT_TRUE(prelim.ok());
  auto built = PriorityOrder::Build(prelim.value(), live);
  ASSERT_FALSE(built.ok());
  auto run = incremental.Analyze();
  ASSERT_FALSE(run.ok());
  EXPECT_EQ(run.status().ToString(), built.status().ToString());

  // Re-added, `b follows a` and `d precedes a` bind again: d > a > b
  // orders every conflict of a, b and d, so none is a violation.
  ASSERT_TRUE(incremental.AddRule(ParseRule(catalog[0])).ok());
  std::vector<std::string> order = {catalog[1], catalog[2], catalog[3],
                                    catalog[0]};
  ExpectMatchesFromScratch(schema_, order, &incremental, -1, "re-added");
  auto rebound = incremental.Analyze();
  ASSERT_TRUE(rebound.ok());
  EXPECT_TRUE(rebound.value().confluence.requirement_holds);
}

// Between analyses, PairCommutes() keeps answering for the surviving
// pairs — certified ones included — across a compaction.
TEST_F(IncrementalTest, CertifiedPairSurvivesCompactionBeforeAnalyze) {
  CommutativityCertifications certs;
  certs.Certify("p", "q");
  IncrementalAnalyzer incremental(&schema_, certs);
  for (const char* src : {
           "create rule f on u when deleted then update u set a = 1",
           "create rule g on u when deleted then update u set b = 1",
           "create rule p on t when inserted then update s set a = 1",
           "create rule q on t when inserted then update s set a = 2",
       }) {
    ASSERT_TRUE(incremental.AddRule(ParseRule(src)).ok()) << src;
  }
  ASSERT_TRUE(incremental.Analyze().ok());
  EXPECT_TRUE(incremental.PairCommutes(2, 3));
  ASSERT_TRUE(incremental.RemoveRule("f").ok());
  EXPECT_TRUE(incremental.PairCommutes(1, 2));  // a tombstone below them
  ASSERT_TRUE(incremental.RemoveRule("g").ok());
  ASSERT_EQ(incremental.compactions(), 1);
  EXPECT_TRUE(incremental.PairCommutes(0, 1));
}

// Re-bound clauses can close a priority cycle that no single clause
// check sees: Analyze() then fails as a from-scratch Build does, and
// recovers once an edit breaks the cycle.
TEST_F(IncrementalTest, ReboundCycleFailsLikeBuildAndRecovers) {
  IncrementalAnalyzer incremental(&schema_);
  ASSERT_TRUE(incremental
                  .AddRule(ParseRule("create rule a on t when inserted "
                                     "then update s set a = 1"))
                  .ok());
  ASSERT_TRUE(incremental
                  .AddRule(ParseRule("create rule b on t when inserted "
                                     "then update s set a = 2 follows a"))
                  .ok());
  ASSERT_TRUE(incremental.RemoveRule("a").ok());
  // The new `a` follows b; b's dangling `follows a` re-binds: a > b > a.
  const std::string cyclic_a =
      "create rule a on t when inserted then update s set a = 1 follows b";
  ASSERT_TRUE(incremental.AddRule(ParseRule(cyclic_a)).ok());
  std::vector<RuleDef> live;
  live.push_back(ParseRule("create rule b on t when inserted then update s "
                           "set a = 2 follows a"));
  live.push_back(ParseRule(cyclic_a));
  auto prelim = PrelimAnalysis::Compute(schema_, live);
  ASSERT_TRUE(prelim.ok());
  auto built = PriorityOrder::Build(prelim.value(), live);
  ASSERT_FALSE(built.ok());
  auto run = incremental.Analyze();
  ASSERT_FALSE(run.ok());
  EXPECT_EQ(run.status().ToString(), built.status().ToString());

  // Redefining b without its clause breaks the cycle.
  ASSERT_TRUE(incremental.RemoveRule("b").ok());
  const std::string plain_b =
      "create rule b on t when inserted then update s set a = 2";
  ASSERT_TRUE(incremental.AddRule(ParseRule(plain_b)).ok());
  ExpectMatchesFromScratch(schema_, {cyclic_a, plain_b}, &incremental, -1,
                           "cycle broken");
}

// Discharge verdicts are memoized per cyclic component, keyed by slot ids:
// an unchanged certified cycle is reused, and compaction (which renumbers
// the slots) must forget every key — otherwise a new component landing on
// an old component's slot ids with the same certified name would inherit
// its stale verdict.
TEST_F(IncrementalTest, TerminationCacheReusesAndCompactionForgets) {
  TerminationCertifications certs;
  certs.quiescent_rules.insert("x");
  IncrementalAnalyzer incremental(&schema_);
  for (const char* src : {
           "create rule f0 on u when deleted then update u set a = 1",
           "create rule f1 on u when deleted then update u set a = 1",
           "create rule x on t when inserted then insert into s values (1, 1)",
           "create rule y on s when inserted then insert into t values (1, 1)",
       }) {
    ASSERT_TRUE(incremental.AddRule(ParseRule(src)).ok()) << src;
  }
  // x <-> y at slots {2, 3}; certifying x breaks the only cycle.
  auto first = incremental.Analyze(certs);
  ASSERT_TRUE(first.ok());
  ASSERT_EQ(first.value().termination.cycles.size(), 1u);
  EXPECT_TRUE(first.value().termination.guaranteed);
  EXPECT_EQ(first.value().stats.termination_components_recomputed, 1);
  auto again = incremental.Analyze(certs);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again.value().stats.termination_components_reused, 1);
  EXPECT_EQ(again.value().stats.termination_components_recomputed, 0);

  // Two removals compact the slots: f1 -> 0, y -> 1.
  ASSERT_TRUE(incremental.RemoveRule("f0").ok());
  ASSERT_TRUE(incremental.RemoveRule("x").ok());
  ASSERT_EQ(incremental.compactions(), 1);
  // A new certified x forms a cycle with the self-triggering g at the old
  // slots {2, 3}; certifying x leaves g's self-loop, so it is not
  // discharged.
  const std::vector<std::string> tail_rules = {
      "create rule g on u when updated(a) then update u set b = 1; "
      "update u set a = 2",
      "create rule x on u when updated(b) then update u set a = 1",
  };
  for (const std::string& src : tail_rules) {
    ASSERT_TRUE(incremental.AddRule(ParseRule(src)).ok()) << src;
  }
  auto after = incremental.Analyze(certs);
  ASSERT_TRUE(after.ok());
  const TerminationReport& term = after.value().termination;
  ASSERT_EQ(term.cycles.size(), 1u);
  EXPECT_EQ(term.cycles[0].rules, (std::vector<RuleIndex>{2, 3}));
  EXPECT_FALSE(term.cycles[0].discharged);
  EXPECT_FALSE(term.guaranteed);
  EXPECT_EQ(after.value().stats.termination_components_reused, 0);
}

}  // namespace
}  // namespace starburst
