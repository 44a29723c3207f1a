#include "analysis/partial_confluence.h"

#include <algorithm>

namespace starburst {

std::vector<RuleIndex> PartialConfluenceAnalyzer::SignificantRules(
    const std::vector<TableId>& tables) const {
  const PrelimAnalysis& prelim = commutativity_.prelim();
  int n = prelim.num_rules();
  std::vector<bool> significant(n, false);
  std::vector<RuleIndex> frontier;

  // Seed: rules that modify any table in T'.
  for (RuleIndex r = 0; r < n; ++r) {
    for (const Operation& op : prelim.rule(r).performs) {
      if (std::find(tables.begin(), tables.end(), op.table) != tables.end()) {
        significant[r] = true;
        frontier.push_back(r);
        break;
      }
    }
  }
  // Closure: add rules that do not commute with a significant rule. Only
  // the rules in a significant rule's noncommute row can fail to commute
  // with it, so the walk visits each row once.
  while (!frontier.empty()) {
    RuleIndex s = frontier.back();
    frontier.pop_back();
    for (RuleIndex r : commutativity_.Noncommute(s)) {
      if (significant[r] || commutativity_.Commute(r, s)) continue;
      significant[r] = true;
      frontier.push_back(r);
    }
  }
  std::vector<RuleIndex> out;
  for (RuleIndex r = 0; r < n; ++r) {
    if (significant[r]) out.push_back(r);
  }
  return out;
}

PartialConfluenceReport PartialConfluenceAnalyzer::Analyze(
    const std::vector<TableId>& tables,
    const TerminationCertifications& termination_certs,
    int max_violations) const {
  PartialConfluenceReport report;
  report.tables = tables;
  report.significant = SignificantRules(tables);
  // Theorem 7.2 prerequisite: even though Sig(T') is never processed on
  // its own, it must be established that if it were, it would terminate.
  report.termination = TerminationAnalyzer::AnalyzeSubset(
      commutativity_.prelim(), report.significant, termination_certs);
  ConfluenceAnalyzer confluence(commutativity_, priority_);
  report.confluence = confluence.AnalyzeSubset(
      report.significant, report.termination.guaranteed, max_violations);
  report.partially_confluent = report.confluence.confluent;
  return report;
}

}  // namespace starburst
