#include "analysis/suggest.h"

#include <algorithm>
#include <set>

namespace starburst {

std::string Suggestion::Describe(const PrelimAnalysis& prelim) const {
  const std::string& a = prelim.rule(rule_a).name;
  const std::string& b = prelim.rule(rule_b).name;
  switch (kind) {
    case Kind::kCertifyCommute:
      return "certify that '" + a + "' and '" + b + "' commute";
    case Kind::kAddPriority:
      return "add a priority ordering between '" + a + "' and '" + b + "'";
  }
  return "";
}

std::vector<Suggestion> SuggestForConfluence(const ConfluenceReport& report) {
  std::vector<Suggestion> suggestions;
  std::set<std::pair<RuleIndex, RuleIndex>> seen_certify, seen_order;
  for (const ConfluenceViolation& v : report.violations) {
    if (v.r1 != v.r2) {
      auto key = std::minmax(v.r1, v.r2);
      if (seen_certify.insert(key).second) {
        suggestions.push_back(
            {Suggestion::Kind::kCertifyCommute, key.first, key.second});
      }
    }
    auto pair_key = std::minmax(v.pair_i, v.pair_j);
    if (seen_order.insert(pair_key).second) {
      suggestions.push_back(
          {Suggestion::Kind::kAddPriority, pair_key.first, pair_key.second});
    }
  }
  return suggestions;
}

std::vector<std::string> CorollaryLints(
    const CommutativityAnalyzer& commutativity,
    const PriorityOrder& priority) {
  std::vector<std::string> warnings;
  const PrelimAnalysis& prelim = commutativity.prelim();
  int n = prelim.num_rules();
  bool no_priorities = priority.num_ordered_pairs() == 0;
  for (RuleIndex i = 0; i < n; ++i) {
    // Both corollaries need a noncommuting pair (a Triggers edge fails
    // Lemma 6.1 condition 1), so only the noncommute rows are walked.
    for (RuleIndex j : commutativity.Noncommute(i)) {
      if (j < i || !priority.Unordered(i, j)) continue;
      const std::string& a = prelim.rule(i).name;
      const std::string& b = prelim.rule(j).name;
      if (prelim.TriggersRule(i, j) || prelim.TriggersRule(j, i)) {
        warnings.push_back(
            "'" + a + "' and '" + b +
            "' are unordered but one may trigger the other; confluence "
            "cannot be established without an ordering (Corollary 6.10)");
      } else if (no_priorities && !commutativity.Commute(i, j)) {
        warnings.push_back(
            "'" + a + "' and '" + b +
            "' do not commute and the rule set has no priorities; "
            "confluence requires all pairs to commute (Corollary 6.9)");
      }
    }
  }
  return warnings;
}

RepairResult RepairByOrdering(const CommutativityAnalyzer& commutativity,
                              const PriorityOrder& initial_priority,
                              bool termination_guaranteed,
                              int max_iterations) {
  RepairResult result;
  int n = commutativity.prelim().num_rules();
  // Rebuild the priority order from scratch each round: existing edges are
  // not exposed, so we track the full edge set ourselves.
  std::vector<std::pair<RuleIndex, RuleIndex>> edges;
  for (RuleIndex i = 0; i < n; ++i) {
    for (RuleIndex j = 0; j < n; ++j) {
      if (i != j && initial_priority.Higher(i, j)) edges.emplace_back(i, j);
    }
  }
  PriorityOrder priority = initial_priority;
  while (result.iterations < max_iterations) {
    ++result.iterations;
    ConfluenceAnalyzer analyzer(commutativity, priority);
    ConfluenceReport report =
        analyzer.Analyze(termination_guaranteed, /*max_violations=*/1);
    if (report.requirement_holds) {
      result.final_report = std::move(report);
      result.succeeded = true;
      return result;
    }
    if (report.violations.empty()) {
      // Requirement failed but no violation recorded; cannot make progress.
      result.final_report = std::move(report);
      return result;
    }
    const ConfluenceViolation& v = report.violations.front();
    auto [hi, lo] = std::minmax(v.pair_i, v.pair_j);
    edges.emplace_back(hi, lo);
    auto rebuilt = PriorityOrder::FromEdges(n, edges);
    if (!rebuilt.ok()) {
      // The new edge closed a priority cycle; undo and stop.
      edges.pop_back();
      result.final_report = std::move(report);
      return result;
    }
    priority = std::move(rebuilt).value();
    result.added_orderings.emplace_back(hi, lo);
  }
  ConfluenceAnalyzer analyzer(commutativity, priority);
  result.final_report = analyzer.Analyze(termination_guaranteed, 1);
  result.succeeded = result.final_report.requirement_holds;
  return result;
}

}  // namespace starburst
