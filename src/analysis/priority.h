#ifndef STARBURST_ANALYSIS_PRIORITY_H_
#define STARBURST_ANALYSIS_PRIORITY_H_

#include <algorithm>
#include <string>
#include <vector>

#include "analysis/prelim.h"
#include "common/status.h"
#include "rulelang/ast.h"

namespace starburst {

/// The user-defined priority ordering P of Section 3: a strict partial
/// order over rules, built from the `precedes` / `follows` clauses and
/// closed under transitivity.
///
/// `ri > rj` ("ri has precedence over rj") holds when ri names rj in its
/// precedes list, rj names ri in its follows list, or transitively.
///
/// The closure is stored sparsely as per-rule sorted neighbor lists rather
/// than an n×n matrix, so a 10k-rule catalog with a handful of priority
/// edges costs memory proportional to the number of ordered pairs.
class PriorityOrder {
 public:
  /// Builds the order from the rules' precedes/follows clauses, plus any
  /// `extra` edges (higher, lower) used by the interactive suggestion loop.
  /// Fails with SemanticError when a clause names an unknown rule or the
  /// declared ordering is cyclic (not a partial order).
  static Result<PriorityOrder> Build(
      const PrelimAnalysis& prelim, const std::vector<RuleDef>& rules,
      const std::vector<std::pair<RuleIndex, RuleIndex>>& extra = {});

  /// Builds from explicit edges only (ignores rules' clauses); used by
  /// generated workloads and tests.
  static Result<PriorityOrder> FromEdges(
      int num_rules, const std::vector<std::pair<RuleIndex, RuleIndex>>& edges);

  int num_rules() const { return n_; }

  /// True iff ri > rj in P (including transitively).
  bool Higher(RuleIndex ri, RuleIndex rj) const {
    const std::vector<RuleIndex>& row = below_[ri];
    return std::binary_search(row.begin(), row.end(), rj);
  }

  /// True when neither ri > rj nor rj > ri (Section 6.2, "unordered").
  bool Unordered(RuleIndex ri, RuleIndex rj) const {
    return !Higher(ri, rj) && !Higher(rj, ri);
  }

  /// True when some rule is below `ri` in P. Only such rules can seed
  /// growth of the Definition 6.5 R1/R2 sets — the confluence scan uses
  /// this to keep disjoint-footprint pairs out of the fixpoint.
  bool HasLowerRule(RuleIndex ri) const { return !below_[ri].empty(); }

  /// Number of rules j > ri with members[j] set that are ordered relative
  /// to ri (either direction). Supports the closed-form unordered-pair
  /// count of the confluence scan.
  int NumOrderedPartnersAbove(RuleIndex ri,
                              const std::vector<bool>& members) const {
    int count = 0;
    for (const std::vector<RuleIndex>* row : {&above_[ri], &below_[ri]}) {
      for (auto it = std::upper_bound(row->begin(), row->end(), ri);
           it != row->end(); ++it) {
        count += members[*it] ? 1 : 0;
      }
    }
    return count;
  }

  /// Choose(R') of Section 3: the triggered rules in `triggered` with no
  /// higher-priority rule also in `triggered`.
  std::vector<RuleIndex> Choose(const std::vector<RuleIndex>& triggered) const;

  /// Number of ordered pairs (i, j) with i > j.
  int num_ordered_pairs() const { return static_cast<int>(ordered_pairs_); }

  /// Adds an unordered rule as index num_rules(): IncrementalAnalyzer's
  /// new slot for a rule that no priority clause involves.
  void AppendRule() {
    ++n_;
    below_.emplace_back();
    above_.emplace_back();
  }

 private:
  /// Closes the direct-edge lists under transitivity and checks strictness.
  /// `prelim` (nullable) supplies rule names for the cyclic-order error.
  Status CloseAndCheck(const PrelimAnalysis* prelim);

  int n_ = 0;
  std::vector<std::vector<RuleIndex>> below_;  // below_[i]: sorted {j : i > j}
  std::vector<std::vector<RuleIndex>> above_;  // above_[i]: sorted {j : j > i}
  long ordered_pairs_ = 0;
};

}  // namespace starburst

#endif  // STARBURST_ANALYSIS_PRIORITY_H_
