#include <gtest/gtest.h>

#include "analysis/analyzer.h"
#include "analysis/report.h"
#include "rulelang/parser.h"

namespace starburst {
namespace {

class AnalyzerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    for (const char* name : {"t", "s", "u"}) {
      ASSERT_TRUE(schema_
                      .AddTable(name, {{"a", ColumnType::kInt},
                                       {"b", ColumnType::kInt}})
                      .ok());
    }
  }

  Analyzer Create(const std::string& rules_src) {
    auto script = Parser::ParseScript(rules_src);
    EXPECT_TRUE(script.ok()) << script.status().ToString();
    auto analyzer =
        Analyzer::Create(&schema_, std::move(script.value().rules));
    EXPECT_TRUE(analyzer.ok()) << analyzer.status().ToString();
    return std::move(analyzer).value();
  }

  Schema schema_;
};

TEST_F(AnalyzerTest, CreateRejectsInvalidRules) {
  auto script = Parser::ParseScript(
      "create rule r on nope when inserted then rollback;");
  ASSERT_TRUE(script.ok());
  auto analyzer = Analyzer::Create(&schema_, std::move(script.value().rules));
  EXPECT_FALSE(analyzer.ok());
}

TEST_F(AnalyzerTest, InteractiveTerminationWorkflow) {
  Analyzer a = Create(
      "create rule loop on t when updated(a) then update t set a = 1;");
  EXPECT_FALSE(a.AnalyzeTermination().guaranteed);
  a.CertifyQuiescent("loop");
  EXPECT_TRUE(a.AnalyzeTermination().guaranteed);
}

TEST_F(AnalyzerTest, InteractiveConfluenceWorkflow) {
  Analyzer a = Create(
      "create rule r0 on t when inserted then update s set a = 1; "
      "create rule r1 on t when inserted then update s set a = 2;");
  ConfluenceReport before = a.AnalyzeConfluence();
  EXPECT_FALSE(before.confluent);
  a.CertifyCommute("r0", "r1");
  ConfluenceReport after = a.AnalyzeConfluence();
  EXPECT_TRUE(after.confluent);
}

TEST_F(AnalyzerTest, PartialConfluenceByName) {
  Analyzer a = Create(
      "create rule r0 on t when inserted then update s set a = 1; "
      "create rule r1 on t when inserted then update s set a = 2;");
  auto good = a.AnalyzePartialConfluence({"u"});
  ASSERT_TRUE(good.ok());
  EXPECT_TRUE(good.value().partially_confluent);
  auto bad = a.AnalyzePartialConfluence({"s"});
  ASSERT_TRUE(bad.ok());
  EXPECT_FALSE(bad.value().partially_confluent);
  EXPECT_FALSE(a.AnalyzePartialConfluence({"ghost"}).ok());
}

TEST_F(AnalyzerTest, AnalyzeAllProducesSuggestionsAndReport) {
  Analyzer a = Create(
      "create rule r0 on t when inserted then update s set a = 1; "
      "create rule r1 on t when inserted then update s set a = 2; "
      "create rule loud on t when inserted then select a from t;");
  FullReport report = a.AnalyzeAll(8);
  EXPECT_TRUE(report.termination.guaranteed);
  EXPECT_FALSE(report.confluence.confluent);
  EXPECT_FALSE(report.suggestions.empty());

  std::string text = FullReportToString(report, a.catalog());
  EXPECT_NE(text.find("Termination"), std::string::npos);
  EXPECT_NE(text.find("Confluence"), std::string::npos);
  EXPECT_NE(text.find("Observable"), std::string::npos);
  EXPECT_NE(text.find("Suggestions"), std::string::npos);
  EXPECT_NE(text.find("r0"), std::string::npos);
}

TEST_F(AnalyzerTest, ReportsForCleanRuleSetReadPositively) {
  Analyzer a = Create(
      "create rule r0 on t when inserted then update s set a = 1; "
      "create rule r1 on t when inserted then update u set a = 1;");
  FullReport report = a.AnalyzeAll();
  EXPECT_TRUE(report.confluence.confluent);
  EXPECT_TRUE(report.observable.deterministic);
  std::string text = FullReportToString(report, a.catalog());
  EXPECT_NE(text.find("GUARANTEED"), std::string::npos);
  EXPECT_NE(text.find("CONFLUENT"), std::string::npos);
  EXPECT_NE(text.find("OBSERVABLY DETERMINISTIC"), std::string::npos);
}

TEST_F(AnalyzerTest, ObservableAnalysisThroughFacade) {
  Analyzer a = Create(
      "create rule s1 on t when inserted then select a from t; "
      "create rule s2 on t when inserted then select b from t;");
  auto report = a.AnalyzeObservableDeterminism();
  EXPECT_FALSE(report.deterministic);
  EXPECT_EQ(report.unordered_observable_pairs.size(), 1u);
}

TEST_F(AnalyzerTest, CertificationInvalidatesCachedCommutativity) {
  Analyzer a = Create(
      "create rule r0 on t when inserted then update s set a = 1; "
      "create rule r1 on t when inserted then update s set a = 2;");
  EXPECT_FALSE(a.commutativity().Commute(0, 1));
  a.CertifyCommute("r0", "r1");
  EXPECT_TRUE(a.commutativity().Commute(0, 1));
}

TEST_F(AnalyzerTest, MoveKeepsAnalyzerUsable) {
  Analyzer a = Create(
      "create rule r0 on t when inserted then update s set a = 1;");
  (void)a.commutativity();  // populate cache, then move
  Analyzer b = std::move(a);
  EXPECT_TRUE(b.AnalyzeConfluence().confluent);
  EXPECT_TRUE(b.commutativity().Commute(0, 0));
}

// Regression (move semantics): the lazily-built commutativity cache points
// into the catalog. A moved-to analyzer must (a) keep interactive
// certifications, (b) answer from a cache that points at its own catalog —
// a cache left pointing into a relocated catalog would be a
// dangling-reference bug that ASan flags.
TEST_F(AnalyzerTest, MovePreservesCertificationsAndRebuildsCache) {
  Analyzer a = Create(
      "create rule r0 on t when inserted then update s set a = 1; "
      "create rule r1 on t when inserted then update s set a = 2;");
  EXPECT_FALSE(a.AnalyzeConfluence().confluent);
  a.CertifyCommute("r0", "r1");
  // Populate the cache before the move.
  EXPECT_TRUE(a.commutativity().Commute(0, 1));

  Analyzer moved = std::move(a);
  EXPECT_EQ(moved.commutativity_certifications().size(), 1u);
  // The certification still applies after the move.
  EXPECT_TRUE(moved.commutativity().Commute(0, 1));
  EXPECT_TRUE(moved.AnalyzeConfluence().confluent);

  // Move-assignment behaves the same way.
  Analyzer other = Create(
      "create rule q0 on u when inserted then update u set b = 1;");
  other = std::move(moved);
  EXPECT_EQ(other.commutativity_certifications().size(), 1u);
  EXPECT_TRUE(other.commutativity().Commute(0, 1));
  FullReport report = other.AnalyzeAll();
  EXPECT_TRUE(report.confluence.confluent);
}

}  // namespace
}  // namespace starburst
