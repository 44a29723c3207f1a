#ifndef STARBURST_ANALYSIS_INCREMENTAL_H_
#define STARBURST_ANALYSIS_INCREMENTAL_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "analysis/commutativity.h"
#include "analysis/confluence.h"
#include "analysis/termination.h"
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
/// implemented here). Three observations make single-rule edits cheap:
///   - The Section 3 sets of a rule depend only on the rule and the
///     schema, so AddRule() validates just the new rule and appends its
///     prelim state in place — a k-rule catalog costs k single-rule
///     validations, not O(k²) (no catalog clone, no full recompute).
///   - Lemma 6.1 commutativity is a property of a *pair* of rules, and
///     pairs with disjoint table footprints commute by construction
///     (rule_index.h), so the pair state is CommutativityAnalyzer's
///     noncommute rows over overlapping pairs only, an edit dirties just
///     the pairs involving the edited rule, and Analyze() runs the same
///     ConfluenceAnalyzer as Analyzer over those rows in place.
///   - Termination discharge verdicts are per cyclic component, so after
///     an edit only components containing an edited rule (dirty SCCs)
///     recompute (TerminationComponentCache).
///
/// Priority-clause validation at AddRule() covers the new rule's clauses
/// (unknown names, cycles through the new rule over the committed edges).
/// One divergence from full revalidation: a dangling clause left behind by
/// RemoveRule() on some *other* rule no longer fails the next AddRule();
/// it is reported by the next Analyze(), which always resolves every
/// clause.
class IncrementalAnalyzer {
 public:
  /// The schema must outlive the analyzer.
  explicit IncrementalAnalyzer(
      const Schema* schema, CommutativityCertifications certifications = {});

  /// Validates and appends a rule, updating prelim state, the footprint
  /// index, and the Triggers relation incrementally. Fails on semantic
  /// errors, leaving the rule set unchanged.
  Status AddRule(RuleDef rule);

  /// Removes the named rule and drops every cached pair verdict and
  /// termination component involving it.
  Status RemoveRule(const std::string& name);

  int num_rules() const { return static_cast<int>(rules_.size()); }

  /// Single-rule validations performed by AddRule() so far — pinned by
  /// tests to show a k-rule build does O(k) validation work.
  long rule_validations() const { return rule_validations_; }

  /// True when the pair is (conservatively) guaranteed to commute, with
  /// certifications applied. Reflects the pair state as of the most recent
  /// Analyze(); pairs involving rules added since then are unreliable.
  bool PairCommutes(RuleIndex i, RuleIndex j) const {
    return commutativity_.Commute(i, j);
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
  /// Rebuilds prio_out_ from every committed rule's clauses; dangling
  /// names (possible after RemoveRule) are skipped and keep the edges
  /// marked stale, so a later add of the missing name re-binds them.
  void RebuildPriorityEdges();

  /// Pre-commit cycle check for a new rule with direct lower neighbors
  /// `out_targets` and higher neighbors `in_sources`: the committed edge
  /// graph is acyclic, so any new cycle passes through the new rule.
  Status CheckPriorityAcyclic(const std::vector<RuleIndex>& out_targets,
                              const std::vector<RuleIndex>& in_sources) const;

  const Schema* schema_;
  std::vector<RuleDef> rules_;
  /// Live prelim state, updated in place by AddRule/RemoveRule. Heap-held
  /// so commutativity_ keeps pointing at it when the analyzer moves.
  std::unique_ptr<PrelimAnalysis> prelim_;
  /// Lemma 6.1 rows over the live rules; covers analyzed pairs.
  CommutativityAnalyzer commutativity_;
  /// Rules added since the last Analyze(); their pairs need checking.
  std::vector<char> dirty_;
  /// Structural count of overlapping unordered pairs, maintained ±
  /// |OverlapCandidates| per edit; reused = overlap_pairs_ − computed.
  long overlap_pairs_ = 0;
  long rule_validations_ = 0;
  /// Direct priority edges (hi -> lo) among committed rules.
  std::vector<std::vector<RuleIndex>> prio_out_;
  bool prio_edges_stale_ = false;
  bool have_dangling_ = false;
  /// Per-rule versions + per-component discharge verdicts for dirty-SCC
  /// termination recompute.
  TerminationComponentCache term_cache_;
  uint64_t next_version_ = 1;
};

}  // namespace starburst

#endif  // STARBURST_ANALYSIS_INCREMENTAL_H_
