#include "analysis/incremental.h"

#include <algorithm>
#include <utility>

#include "analysis/priority.h"
#include "common/metrics.h"
#include "common/strings.h"

namespace starburst {

IncrementalAnalyzer::IncrementalAnalyzer(
    const Schema* schema, CommutativityCertifications certifications)
    : schema_(schema),
      prelim_(std::make_unique<PrelimAnalysis>()),
      commutativity_(*prelim_, *schema, std::move(certifications)) {}

void IncrementalAnalyzer::RebuildPriorityEdges() {
  int n = prelim_->num_rules();
  prio_out_.assign(n, {});
  have_dangling_ = false;
  for (int i = 0; i < n; ++i) {
    for (const std::string& other : rules_[i].precedes) {
      RuleIndex j = prelim_->FindRule(other);
      if (j < 0) {
        have_dangling_ = true;
        continue;
      }
      prio_out_[i].push_back(j);
    }
    for (const std::string& other : rules_[i].follows) {
      RuleIndex j = prelim_->FindRule(other);
      if (j < 0) {
        have_dangling_ = true;
        continue;
      }
      prio_out_[j].push_back(i);
    }
  }
  prio_edges_stale_ = have_dangling_;
}

Status IncrementalAnalyzer::CheckPriorityAcyclic(
    const std::vector<RuleIndex>& out_targets,
    const std::vector<RuleIndex>& in_sources) const {
  if (out_targets.empty() || in_sources.empty()) return Status::OK();
  int n = prelim_->num_rules();
  std::vector<char> is_source(n, 0);
  for (RuleIndex s : in_sources) is_source[s] = 1;
  // DFS from the new rule's lower neighbors; reaching a higher neighbor
  // closes a cycle through the new rule. Parents reconstruct the path.
  std::vector<RuleIndex> parent(n, -2);  // -2 = unvisited, -1 = DFS root
  std::vector<RuleIndex> stack;
  RuleIndex hit = -1;
  for (RuleIndex t : out_targets) {
    if (parent[t] != -2) continue;
    parent[t] = -1;
    if (is_source[t]) {
      hit = t;
      break;
    }
    stack.push_back(t);
  }
  while (hit < 0 && !stack.empty()) {
    RuleIndex v = stack.back();
    stack.pop_back();
    for (RuleIndex w : prio_out_[v]) {
      if (parent[w] != -2) continue;
      parent[w] = v;
      if (is_source[w]) {
        hit = w;
        break;
      }
      stack.push_back(w);
    }
  }
  if (hit < 0) return Status::OK();
  RuleIndex min_node = hit;
  for (RuleIndex v = parent[hit]; v >= 0; v = parent[v]) {
    min_node = std::min(min_node, v);
  }
  const std::string& who = prelim_->rule(min_node).name;
  return Status::SemanticError(
      "priority ordering is cyclic (rule '" + who +
      "' transitively precedes itself); precedes/follows must define a "
      "partial order");
}

Status IncrementalAnalyzer::AddRule(RuleDef rule) {
  if (prelim_->FindRule(rule.name) >= 0) {
    return Status::SemanticError("duplicate rule name '" + rule.name + "'");
  }
  auto computed = PrelimAnalysis::ComputeRule(*schema_, rule);
  ++rule_validations_;
  if (!computed.ok()) return computed.status();

  // Validate the new rule's priority clauses against the committed set.
  if (prio_edges_stale_) RebuildPriorityEdges();
  std::vector<RuleIndex> out_targets, in_sources;
  for (const std::string& other : rule.precedes) {
    if (EqualsIgnoreCase(other, rule.name)) {
      return Status::SemanticError(
          "priority ordering is cyclic (rule '" + rule.name +
          "' transitively precedes itself); precedes/follows must define a "
          "partial order");
    }
    RuleIndex j = prelim_->FindRule(other);
    if (j < 0) {
      return Status::SemanticError("rule '" + rule.name +
                                   "' precedes unknown rule '" + other + "'");
    }
    out_targets.push_back(j);
  }
  for (const std::string& other : rule.follows) {
    if (EqualsIgnoreCase(other, rule.name)) {
      return Status::SemanticError(
          "priority ordering is cyclic (rule '" + rule.name +
          "' transitively precedes itself); precedes/follows must define a "
          "partial order");
    }
    RuleIndex j = prelim_->FindRule(other);
    if (j < 0) {
      return Status::SemanticError("rule '" + rule.name +
                                   "' follows unknown rule '" + other + "'");
    }
    in_sources.push_back(j);
  }
  STARBURST_RETURN_IF_ERROR(CheckPriorityAcyclic(out_targets, in_sources));

  // Commit.
  RuleIndex n = prelim_->AppendComputed(std::move(computed).value());
  rules_.push_back(std::move(rule));
  term_cache_.rule_versions[ToLower(rules_.back().name)] = next_version_++;
  commutativity_.AppendRule();
  dirty_.push_back(1);
  if (!prio_edges_stale_) {
    prio_out_.push_back(std::move(out_targets));
    for (RuleIndex s : in_sources) prio_out_[s].push_back(n);
  }
  overlap_pairs_ +=
      static_cast<long>(prelim_->index().OverlapCandidates(n).size());
  return Status::OK();
}

Status IncrementalAnalyzer::RemoveRule(const std::string& name) {
  RuleIndex r = prelim_->FindRule(name);
  if (r < 0) return Status::NotFound("no rule named '" + name + "'");
  overlap_pairs_ -=
      static_cast<long>(prelim_->index().OverlapCandidates(r).size());
  commutativity_.RemoveRuleAt(r);
  dirty_.erase(dirty_.begin() + r);
  term_cache_.rule_versions.erase(ToLower(rules_[r].name));
  rules_.erase(rules_.begin() + r);
  prelim_->RemoveRuleAt(r);
  // Indices shifted; rebuild the direct priority edges lazily.
  prio_out_.clear();
  prio_edges_stale_ = true;
  return Status::OK();
}

Result<IncrementalAnalyzer::RunResult> IncrementalAnalyzer::Analyze(
    const TerminationCertifications& certs, int max_violations) {
  // Full clause resolution every analysis: this is where dangling
  // precedes/follows left by RemoveRule surface as errors.
  STARBURST_ASSIGN_OR_RETURN(PriorityOrder priority,
                             PriorityOrder::Build(*prelim_, rules_));
  RunResult result;

  // Pair sweep over dirty rules only. A dirty rule is always newly added
  // (a redefinition is Remove + Add), so its noncommute row is empty and
  // there are no stale verdicts to purge.
  result.stats.pair_checks_computed = commutativity_.Sweep(dirty_);
  std::fill(dirty_.begin(), dirty_.end(), 0);
  result.stats.pair_checks_reused =
      overlap_pairs_ - result.stats.pair_checks_computed;
  STARBURST_METRIC_COUNT("analysis.pair_cache_hits",
                         result.stats.pair_checks_reused);
  STARBURST_METRIC_COUNT("analysis.pair_cache_misses",
                         result.stats.pair_checks_computed);

  long hits_before = term_cache_.hits;
  long misses_before = term_cache_.misses;
  result.termination = TerminationAnalyzer::Analyze(*prelim_, certs,
                                                    &term_cache_);
  result.stats.termination_components_reused = term_cache_.hits - hits_before;
  result.stats.termination_components_recomputed =
      term_cache_.misses - misses_before;

  ConfluenceAnalyzer confluence(commutativity_, priority);
  result.confluence =
      confluence.Analyze(result.termination.guaranteed, max_violations);
  return result;
}

}  // namespace starburst
