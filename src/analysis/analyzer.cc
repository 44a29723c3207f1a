#include "analysis/analyzer.h"

#include <optional>

#include "analysis/auto_discharge.h"
#include "analysis/refine.h"
#include "common/metrics.h"
#include "common/thread_pool.h"
#include "common/trace.h"

namespace starburst {

Result<Analyzer> Analyzer::Create(const Schema* schema,
                                  std::vector<RuleDef> rules) {
  STARBURST_ASSIGN_OR_RETURN(RuleCatalog catalog,
                             RuleCatalog::Build(schema, std::move(rules)));
  return Analyzer(std::move(catalog));
}

Analyzer::Analyzer(RuleCatalog catalog)
    : catalog_(std::make_unique<RuleCatalog>(std::move(catalog))) {}

void Analyzer::CertifyQuiescent(const std::string& rule_name) {
  termination_certs_.quiescent_rules.insert(rule_name);
}

void Analyzer::CertifyCommute(const std::string& rule_a,
                              const std::string& rule_b) {
  commutativity_certs_.Certify(rule_a, rule_b);
  if (commutativity_ != nullptr) commutativity_->Certify(rule_a, rule_b);
}

int Analyzer::ApplyAutoRefinement() {
  PredicateRefiner refiner(catalog_->schema(), catalog_->rules(),
                           catalog_->prelim());
  CommutativityCertifications derived = refiner.Refine();
  int added = 0;
  for (const auto& [a, b] : derived.pairs()) {
    if (commutativity_certs_.Contains(a, b)) continue;
    CertifyCommute(a, b);
    ++added;
  }
  STARBURST_METRIC_COUNT("analysis.refined_pairs", added);
  return added;
}

int Analyzer::ApplyAutoDischarge() {
  AutoDischargeDetector detector(catalog_->schema(), catalog_->rules(),
                                 catalog_->prelim());
  TerminationCertifications derived = detector.Detect();
  int added = 0;
  for (const std::string& name : derived.quiescent_rules) {
    if (termination_certs_.quiescent_rules.insert(name).second) ++added;
  }
  STARBURST_METRIC_COUNT("analysis.discharged_rules", added);
  return added;
}

const CommutativityAnalyzer& Analyzer::commutativity() {
  if (commutativity_ == nullptr) {
    commutativity_ = std::make_unique<CommutativityAnalyzer>(
        catalog_->prelim(), catalog_->schema(), commutativity_certs_);
  }
  return *commutativity_;
}

TerminationReport Analyzer::AnalyzeTermination() {
  STARBURST_TRACE_SPAN("analysis", "termination");
  STARBURST_METRIC_COUNT("analysis.termination_runs", 1);
  return TerminationAnalyzer::Analyze(catalog_->prelim(), termination_certs_);
}

ConfluenceReport Analyzer::AnalyzeConfluence(int max_violations) {
  STARBURST_TRACE_SPAN("analysis", "confluence");
  STARBURST_METRIC_COUNT("analysis.confluence_runs", 1);
  TerminationReport termination = AnalyzeTermination();
  ConfluenceAnalyzer analyzer(commutativity(), catalog_->priority());
  return analyzer.Analyze(termination.guaranteed, max_violations);
}

Result<PartialConfluenceReport> Analyzer::AnalyzePartialConfluence(
    const std::vector<std::string>& table_names, int max_violations) {
  std::vector<TableId> tables;
  tables.reserve(table_names.size());
  for (const std::string& name : table_names) {
    TableId t = catalog_->schema().FindTable(name);
    if (t == kInvalidTableId) {
      return Status::NotFound("no table '" + name + "'");
    }
    tables.push_back(t);
  }
  PartialConfluenceAnalyzer analyzer(commutativity(), catalog_->priority());
  return analyzer.Analyze(tables, termination_certs_, max_violations);
}

ObservableDeterminismReport Analyzer::AnalyzeObservableDeterminism(
    int max_violations) {
  STARBURST_TRACE_SPAN("analysis", "observable_determinism");
  STARBURST_METRIC_COUNT("analysis.observable_runs", 1);
  TerminationReport termination = AnalyzeTermination();
  return ObservableDeterminismAnalyzer::Analyze(
      catalog_->schema(), catalog_->prelim(), catalog_->priority(),
      commutativity_certs_, termination.guaranteed, termination_certs_,
      max_violations);
}

FullReport Analyzer::AnalyzeAll(const AnalyzerOptions& options) {
  std::optional<metrics::ScopedCollect> collect;
  if (options.collect_metrics) collect.emplace();
  return AnalyzeAll(options.max_violations);
}

FullReport Analyzer::AnalyzeAll(int max_violations) {
  STARBURST_TRACE_SPAN("analysis", "analyze_all");
  STARBURST_METRIC_COUNT("analysis.full_reports", 1);
  FullReport report;
  report.termination = AnalyzeTermination();
  ConfluenceAnalyzer confluence(commutativity(), catalog_->priority());
  report.confluence =
      confluence.Analyze(report.termination.guaranteed, max_violations);
  report.observable = ObservableDeterminismAnalyzer::Analyze(
      catalog_->schema(), catalog_->prelim(), catalog_->priority(),
      commutativity_certs_, report.termination.guaranteed, termination_certs_,
      max_violations);
  report.suggestions = SuggestForConfluence(report.confluence);
  report.lints = CorollaryLints(commutativity(), catalog_->priority());
  return report;
}

std::vector<Result<FullReport>> ParallelAnalyzeRuleSets(
    std::vector<RuleSetSpec> specs, int max_violations) {
  STARBURST_TRACE_SPAN("analysis", "parallel_rule_sets");
  STARBURST_METRIC_COUNT("analysis.rule_sets_analyzed",
                         static_cast<int64_t>(specs.size()));
  // Pre-sized so every worker writes only its own slot; the pair sweep
  // inside each AnalyzeAll detects the busy pool and runs inline.
  std::vector<Result<FullReport>> reports(
      specs.size(), Result<FullReport>(Status::Internal("not analyzed")));
  ParallelFor(specs.size(), 1, [&](size_t begin, size_t end) {
    for (size_t k = begin; k < end; ++k) {
      auto analyzer =
          Analyzer::Create(specs[k].schema, std::move(specs[k].rules));
      if (!analyzer.ok()) {
        reports[k] = analyzer.status();
        continue;
      }
      reports[k] = analyzer.value().AnalyzeAll(max_violations);
    }
  });
  return reports;
}

}  // namespace starburst
