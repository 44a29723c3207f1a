#ifndef STARBURST_ANALYSIS_INCREMENTAL_H_
#define STARBURST_ANALYSIS_INCREMENTAL_H_

#include <algorithm>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "analysis/commutativity.h"
#include "analysis/confluence.h"
#include "analysis/priority.h"
#include "analysis/termination.h"
#include "analysis/triggering_graph.h"
#include "common/status.h"
#include "rulelang/ast.h"

namespace starburst {

/// Statistics showing how much work an incremental re-analysis reused.
struct IncrementalStats {
  /// Overlapping pairs whose Lemma 6.1 verdict was computed this Analyze()
  /// (pairs involving a rule added since the previous analysis).
  long pair_checks_computed = 0;
  /// Overlapping pairs whose verdict was carried over from earlier
  /// analyses. Non-overlapping pairs commute by construction and are
  /// counted in neither bucket — they cost nothing.
  long pair_checks_reused = 0;
  /// Cyclic triggering-graph components whose discharge verdict was reused
  /// from / recomputed into the termination component cache.
  long termination_components_reused = 0;
  long termination_components_recomputed = 0;
};

/// Incremental analysis across rule-set edits (Section 9, future work,
/// implemented here). An edit costs what it touches, not what the catalog
/// holds:
///   - Rules live in stable slots. AddRule() validates just the new rule
///     (its Section 3 sets depend only on the rule and the schema) and
///     appends a slot; RemoveRule() turns the rule's slot into an inert
///     tombstone (no operations, reads, name, Triggers row, footprint or
///     noncommute row) and renumbers nothing. Ascending live slot is the
///     rule's position, so reports come out in the same order as a
///     from-scratch analysis; RunResult and PairCommutes() use positions,
///     translated by rank among the live slots. Once tombstones pass
///     half the live rules, one O(n) remap compacts them away (no
///     re-validation, no pair re-check).
///   - Lemma 6.1 commutativity is a property of a *pair* of rules, and
///     pairs with disjoint table footprints commute by construction
///     (rule_index.h), so the pair state is CommutativityAnalyzer's
///     noncommute rows over overlapping pairs only, and an edit dirties
///     just the pairs involving the edited rule.
///   - The direct priority edges of the bound clauses are kept per edit
///     (a removed rule's clauses, and other rules' clauses naming it, are
///     unbound; they re-bind when the name is re-added), so AddRule() can
///     check a new rule's clauses for cycles. The Section 3 closure is
///     rebuilt (PriorityOrder::Build over the slots) only at an Analyze()
///     after an edit that bound or unbound a clause, or after a
///     compaction; an edit of a rule no clause involves just appends an
///     unordered slot. Build returns the from-scratch error for a dangling
///     clause or a cycle closed by re-bound clauses.
///   - Termination reruns Tarjan over the Triggers rows in place (no
///     graph copy, no allocation once warm); discharge verdicts are per
///     cyclic component and memoized by slot ids
///     (TerminationComponentCache).
///
/// Priority-clause validation at AddRule() covers the new rule's clauses
/// (unknown names, cycles through the new rule over the committed edges).
/// One divergence from full revalidation: a dangling clause left behind by
/// RemoveRule() on some *other* rule no longer fails the next AddRule();
/// it is reported by the next Analyze().
class IncrementalAnalyzer {
 public:
  /// The schema must outlive the analyzer.
  explicit IncrementalAnalyzer(
      const Schema* schema, CommutativityCertifications certifications = {});

  /// Validates and appends a rule, updating prelim state, the footprint
  /// index, the Triggers relation and the priority edges incrementally.
  /// Fails on semantic errors, leaving the rule set unchanged.
  Status AddRule(RuleDef rule);

  /// Tombstones the named rule, dropping its pair verdicts, Triggers
  /// edges and priority edges.
  Status RemoveRule(const std::string& name);

  int num_rules() const {
    return static_cast<int>(rules_.size() - tombstones_.size());
  }

  /// Single-rule validations performed by AddRule() so far — pinned by
  /// tests to show a k-rule build does O(k) validation work.
  long rule_validations() const { return rule_validations_; }

  /// Tombstone compactions performed so far — lets tests pin that an edit
  /// sequence crossed the compaction threshold.
  long compactions() const { return compactions_; }

  /// True when the rules at positions i and j are (conservatively)
  /// guaranteed to commute, with certifications applied. Reflects the pair
  /// state as of the most recent Analyze(); pairs involving rules added
  /// since then are unreliable.
  bool PairCommutes(RuleIndex i, RuleIndex j) const {
    return commutativity_.Commute(Slot(i), Slot(j));
  }

  /// Runs termination + confluence over the current rule set, reusing
  /// cached pair verdicts. Returns the reports plus reuse statistics.
  struct RunResult {
    TerminationReport termination;
    ConfluenceReport confluence;
    IncrementalStats stats;
  };
  Result<RunResult> Analyze(const TerminationCertifications& certs = {},
                            int max_violations = -1);

 private:
  /// The slot of the rule at position p, and the position of live slot s.
  RuleIndex Slot(RuleIndex p) const;
  RuleIndex Position(RuleIndex s) const {
    return s - static_cast<RuleIndex>(
                   std::lower_bound(tombstones_.begin(), tombstones_.end(),
                                    s) -
                   tombstones_.begin());
  }

  /// Pre-commit cycle check for a new rule with direct lower neighbors
  /// `out_targets` and higher neighbors `in_sources`: any new cycle over
  /// the committed edges passes through the new rule.
  Status CheckPriorityAcyclic(const std::vector<RuleIndex>& out_targets,
                              const std::vector<RuleIndex>& in_sources) const;

  /// Removes the direct edge hi -> lo of one bound clause.
  void RemovePriorityEdge(RuleIndex hi, RuleIndex lo);

  /// Drops slot s's priority edges: its own clauses, and other rules'
  /// clauses naming it, which dangle until the name is re-added.
  void UnbindPriorityClauses(RuleIndex s);

  /// Renumbers the live slots 0..n-1, dropping the tombstones.
  void Compact();

  /// Rewrites slot ids in a report as positions.
  void TranslateToPositions(RunResult* result) const;

  const Schema* schema_;
  /// Slot-indexed; a tombstone's RuleDef is empty.
  std::vector<RuleDef> rules_;
  /// Tombstoned slots, ascending.
  std::vector<RuleIndex> tombstones_;
  /// Live prelim state, updated in place by AddRule/RemoveRule. Heap-held
  /// so commutativity_ and graph_ keep pointing at it when the analyzer
  /// moves.
  std::unique_ptr<PrelimAnalysis> prelim_;
  /// Lemma 6.1 rows over the live rules; covers analyzed pairs.
  CommutativityAnalyzer commutativity_;
  /// Rules added since the last Analyze(); their pairs need checking.
  std::vector<char> dirty_;
  /// Structural count of overlapping unordered pairs, maintained ±
  /// |OverlapCandidates| per edit; reused = overlap_pairs_ − computed.
  long overlap_pairs_ = 0;
  long rule_validations_ = 0;
  long compactions_ = 0;
  /// Priority clauses of the live rules by lowercased target name: the
  /// owning slot and whether the owner is the higher rule (`precedes`).
  struct Clause {
    RuleIndex owner;
    bool owner_higher;
  };
  std::unordered_map<std::string, std::vector<Clause>> clauses_by_target_;
  /// Direct priority edges (hi -> lo) of the bound clauses, one entry per
  /// clause.
  std::vector<std::vector<RuleIndex>> prio_out_;
  /// The closure of prio_out_ over the slots; stale once an edit bound or
  /// unbound a clause, until the next Analyze() rebuilds it.
  PriorityOrder priority_;
  bool priority_stale_ = false;
  /// TG_R over the live prelim, re-run by every Analyze().
  TriggeringGraph graph_;
  /// Per-component discharge verdicts, keyed by slot ids.
  TerminationComponentCache term_cache_;
};

}  // namespace starburst

#endif  // STARBURST_ANALYSIS_INCREMENTAL_H_
