#include "analysis/incremental.h"

#include <algorithm>
#include <cassert>
#include <utility>

#include "analysis/priority.h"
#include "common/metrics.h"
#include "common/strings.h"

namespace starburst {

namespace {

/// Compaction runs once the tombstones outnumber half the live rules, so
/// the O(n) passes of Analyze() walk at most a third of dead slots.
constexpr size_t kLiveRulesPerTombstone = 2;

}  // namespace

IncrementalAnalyzer::IncrementalAnalyzer(
    const Schema* schema, CommutativityCertifications certifications)
    : schema_(schema),
      prelim_(std::make_unique<PrelimAnalysis>()),
      commutativity_(*prelim_, *schema, std::move(certifications)),
      graph_(*prelim_) {}

RuleIndex IncrementalAnalyzer::Slot(RuleIndex p) const {
  RuleIndex s = p;
  for (RuleIndex t : tombstones_) {
    if (t > s) break;
    ++s;
  }
  return s;
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

void IncrementalAnalyzer::RemovePriorityEdge(RuleIndex hi, RuleIndex lo) {
  std::vector<RuleIndex>& row = prio_out_[hi];
  auto it = std::find(row.begin(), row.end(), lo);
  assert(it != row.end() && "one edge per bound clause");
  row.erase(it);
}

Status IncrementalAnalyzer::AddRule(RuleDef rule) {
  if (prelim_->FindRule(rule.name) >= 0) {
    return Status::SemanticError("duplicate rule name '" + rule.name + "'");
  }
  auto computed = PrelimAnalysis::ComputeRule(*schema_, rule);
  ++rule_validations_;
  if (!computed.ok()) return computed.status();

  // Validate the new rule's priority clauses against the committed set.
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

  // Commit into a new slot.
  RuleIndex s = prelim_->AppendComputed(std::move(computed).value());
  commutativity_.AppendRule();
  dirty_.push_back(1);
  prio_out_.emplace_back();
  for (size_t k = 0; k < rule.precedes.size(); ++k) {
    clauses_by_target_[ToLower(rule.precedes[k])].push_back({s, true});
    prio_out_[s].push_back(out_targets[k]);
  }
  for (size_t k = 0; k < rule.follows.size(); ++k) {
    clauses_by_target_[ToLower(rule.follows[k])].push_back({s, false});
    prio_out_[in_sources[k]].push_back(s);
  }
  // Other rules' clauses naming this rule dangled until now: re-bind them.
  auto named = clauses_by_target_.find(ToLower(rule.name));
  if (!rule.precedes.empty() || !rule.follows.empty() ||
      named != clauses_by_target_.end()) {
    priority_stale_ = true;
  } else if (!priority_stale_) {
    priority_.AppendRule();
  }
  if (named != clauses_by_target_.end()) {
    for (const Clause& c : named->second) {
      if (c.owner_higher) {
        prio_out_[c.owner].push_back(s);
      } else {
        prio_out_[s].push_back(c.owner);
      }
    }
  }
  rules_.push_back(std::move(rule));
  overlap_pairs_ +=
      static_cast<long>(prelim_->index().OverlapCandidates(s).size());
  return Status::OK();
}

void IncrementalAnalyzer::UnbindPriorityClauses(RuleIndex s) {
  const RuleDef& rule = rules_[s];
  auto drop_own = [&](const std::string& target, bool owner_higher) {
    auto entry = clauses_by_target_.find(ToLower(target));
    assert(entry != clauses_by_target_.end());
    std::vector<Clause>& clauses = entry->second;
    auto own = std::find_if(clauses.begin(), clauses.end(),
                            [&](const Clause& c) {
                              return c.owner == s &&
                                     c.owner_higher == owner_higher;
                            });
    assert(own != clauses.end());
    clauses.erase(own);
    if (clauses.empty()) clauses_by_target_.erase(entry);
    RuleIndex t = prelim_->FindRule(target);
    if (t < 0) return;  // dangling: no edge was bound
    if (owner_higher) {
      RemovePriorityEdge(s, t);
    } else {
      RemovePriorityEdge(t, s);
    }
  };
  for (const std::string& target : rule.precedes) drop_own(target, true);
  for (const std::string& target : rule.follows) drop_own(target, false);
  // Other rules' clauses naming this rule dangle until it is re-added.
  auto named = clauses_by_target_.find(ToLower(rule.name));
  if (!rule.precedes.empty() || !rule.follows.empty() ||
      named != clauses_by_target_.end()) {
    priority_stale_ = true;
  }
  if (named != clauses_by_target_.end()) {
    for (const Clause& c : named->second) {
      if (c.owner_higher) {
        RemovePriorityEdge(c.owner, s);
      } else {
        RemovePriorityEdge(s, c.owner);
      }
    }
  }
}

Status IncrementalAnalyzer::RemoveRule(const std::string& name) {
  RuleIndex r = prelim_->FindRule(name);
  if (r < 0) return Status::NotFound("no rule named '" + name + "'");
  overlap_pairs_ -=
      static_cast<long>(prelim_->index().OverlapCandidates(r).size());
  UnbindPriorityClauses(r);
  commutativity_.TombstoneRule(r);
  prelim_->TombstoneRule(r);
  rules_[r] = RuleDef();
  dirty_[r] = 0;
  tombstones_.insert(
      std::upper_bound(tombstones_.begin(), tombstones_.end(), r), r);
  if (tombstones_.size() * kLiveRulesPerTombstone >
      static_cast<size_t>(num_rules())) {
    Compact();
  }
  return Status::OK();
}

void IncrementalAnalyzer::Compact() {
  std::vector<RuleIndex> remap(rules_.size());
  RuleIndex next = 0;
  auto tombstone = tombstones_.begin();
  for (RuleIndex s = 0; s < static_cast<RuleIndex>(remap.size()); ++s) {
    if (tombstone != tombstones_.end() && *tombstone == s) {
      remap[s] = -1;
      ++tombstone;
    } else {
      remap[s] = next++;
    }
  }
  DropTombstones(&rules_, remap);
  DropTombstones(&dirty_, remap);
  DropTombstones(&prio_out_, remap);
  for (std::vector<RuleIndex>& row : prio_out_) RemapRow(&row, remap);
  for (auto& [target, clauses] : clauses_by_target_) {
    for (Clause& c : clauses) c.owner = remap[c.owner];
  }
  prelim_->Compact(remap);
  commutativity_.Compact(remap);
  priority_stale_ = true;
  term_cache_.discharged.clear();
  tombstones_.clear();
  ++compactions_;
}

void IncrementalAnalyzer::TranslateToPositions(RunResult* result) const {
  auto positions = [this](std::vector<RuleIndex>* ids) {
    for (RuleIndex& r : *ids) r = Position(r);
  };
  for (CycleReport& cycle : result->termination.cycles) {
    positions(&cycle.rules);
    positions(&cycle.certified);
  }
  for (ConfluenceViolation& v : result->confluence.violations) {
    v.pair_i = Position(v.pair_i);
    v.pair_j = Position(v.pair_j);
    v.r1 = Position(v.r1);
    v.r2 = Position(v.r2);
    positions(&v.set_r1);
    positions(&v.set_r2);
    for (NoncommutativityCause& cause : v.causes) {
      cause.actor = Position(cause.actor);
      cause.affected = Position(cause.affected);
    }
  }
}

Result<IncrementalAnalyzer::RunResult> IncrementalAnalyzer::Analyze(
    const TerminationCertifications& certs, int max_violations) {
  if (priority_stale_) {
    // The Section 3 closure over the slots: tombstones have no clauses
    // and no name, so they come out unordered, and a dangling or cyclic
    // clause fails exactly as a from-scratch analysis does (and again at
    // every Analyze() until an edit mends it).
    STARBURST_ASSIGN_OR_RETURN(priority_,
                               PriorityOrder::Build(*prelim_, rules_));
    priority_stale_ = false;
  }
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
  graph_.Recompute();
  result.termination = TerminationAnalyzer::AnalyzeGraph(*prelim_, graph_,
                                                         certs, &term_cache_);
  result.stats.termination_components_reused = term_cache_.hits - hits_before;
  result.stats.termination_components_recomputed =
      term_cache_.misses - misses_before;

  std::vector<RuleIndex> live;
  live.reserve(num_rules());
  auto tombstone = tombstones_.begin();
  for (RuleIndex s = 0; s < static_cast<RuleIndex>(rules_.size()); ++s) {
    if (tombstone != tombstones_.end() && *tombstone == s) {
      ++tombstone;
    } else {
      live.push_back(s);
    }
  }
  ConfluenceAnalyzer confluence(commutativity_, priority_);
  result.confluence = confluence.AnalyzeSubset(
      live, result.termination.guaranteed, max_violations);
  if (!tombstones_.empty()) TranslateToPositions(&result);
  return result;
}

}  // namespace starburst
