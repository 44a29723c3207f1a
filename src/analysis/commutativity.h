#ifndef STARBURST_ANALYSIS_COMMUTATIVITY_H_
#define STARBURST_ANALYSIS_COMMUTATIVITY_H_

#include <algorithm>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "analysis/prelim.h"
#include "catalog/catalog.h"

namespace starburst {

/// User declarations that pairs of rules which *appear* noncommutative by
/// Lemma 6.1 actually do commute (Section 6.1's interactive refinement,
/// e.g. "ri inserts into t and rj deletes from t, but the inserted tuples
/// never satisfy the delete condition").
class CommutativityCertifications {
 public:
  /// Declares that `a` and `b` commute (order-insensitive).
  void Certify(const std::string& a, const std::string& b);

  bool Contains(const std::string& a, const std::string& b) const;

  size_t size() const { return pairs_.size(); }

  /// The certified pairs, normalized (lowercased, lexicographic order).
  const std::set<std::pair<std::string, std::string>>& pairs() const {
    return pairs_;
  }

 private:
  std::set<std::pair<std::string, std::string>> pairs_;  // normalized
};

/// One violated condition of Lemma 6.1 explaining why a pair may be
/// noncommutative. `condition` is the 1-based condition number from the
/// paper; `actor`/`affected` give the direction (condition 6 is reported
/// as conditions 1-5 with the roles swapped).
struct NoncommutativityCause {
  int condition = 0;
  RuleIndex actor = -1;
  RuleIndex affected = -1;

  /// Human-readable description, e.g.
  /// "r1 can trigger r2 (Lemma 6.1 condition 1)".
  std::string Describe(const PrelimAnalysis& prelim,
                       const Schema& schema) const;

  bool operator==(const NoncommutativityCause&) const = default;
};

/// Pairwise rule commutativity per Lemma 6.1, with user certifications.
///
/// Two distinct rules are commutative unless one of conditions 1-5 holds
/// in either direction:
///   1. rj ∈ Triggers(ri)
///   2. rj ∈ Can-Untrigger(Performs(ri))
///   3. ri performs an operation on a column rj reads
///   4. ri inserts into a table rj deletes from or updates
///   5. ri and rj update the same column
/// Every rule commutes with itself.
///
/// The verdicts are stored sparsely: one sorted row per rule listing the
/// rules that fail the syntactic check against it, plus the certified
/// pairs resolved to index pairs. Rules with disjoint table footprints
/// commute by construction (rule_index.h), so only overlap candidates are
/// ever checked and a pair absent from both rows commutes.
class CommutativityAnalyzer {
 public:
  /// Checks every overlapping pair of `prelim`'s rules. `prelim` and
  /// `schema` must outlive the analyzer.
  CommutativityAnalyzer(const PrelimAnalysis& prelim, const Schema& schema,
                        CommutativityCertifications certifications = {});

  /// Stateless pairwise Lemma 6.1 check (no certifications): true when the
  /// pair is syntactically guaranteed to commute.
  static bool SyntacticallyCommutePair(const PrelimAnalysis& prelim,
                                       RuleIndex i, RuleIndex j);

  /// Stateless variant of Explain(): all Lemma 6.1 causes in both
  /// directions for a pair.
  static std::vector<NoncommutativityCause> ExplainPair(
      const PrelimAnalysis& prelim, RuleIndex i, RuleIndex j);

  /// True when ri and rj are (conservatively) guaranteed to commute, with
  /// certifications applied. Every commutativity verdict in the analyses
  /// comes from here.
  bool Commute(RuleIndex i, RuleIndex j) const {
    return !InRow(i, j) || Certified(i, j);
  }

  /// The Lemma 6.1 conditions that make the pair appear noncommutative
  /// (empty when they commute syntactically). Certifications do not change
  /// this — they override the verdict, not the explanation.
  std::vector<NoncommutativityCause> Explain(RuleIndex i, RuleIndex j) const;

  /// True when the pair was certified by the user rather than proven by
  /// Lemma 6.1.
  bool CertifiedOnly(RuleIndex i, RuleIndex j) const {
    return InRow(i, j) && Certified(i, j);
  }

  /// The sorted rules j != i that fail the syntactic check against i
  /// (certifications not applied). Symmetric.
  const std::vector<RuleIndex>& Noncommute(RuleIndex i) const {
    return noncommute_[i];
  }

  /// Certifies one more pair in place (names absent from the rule set are
  /// kept for later rule additions and ignored until then).
  void Certify(const std::string& a, const std::string& b);

  /// Row maintenance for IncrementalAnalyzer, whose prelim keeps rules in
  /// stable slots. AppendRule() adds an empty row for the newest rule;
  /// TombstoneRule() empties rule r's row and drops r from its partners'
  /// rows; Compact() renumbers the rows as PrelimAnalysis::Compact does.
  void AppendRule() { noncommute_.emplace_back(); }
  void TombstoneRule(RuleIndex r);
  void Compact(const std::vector<RuleIndex>& remap);

  /// Checks the overlapping pairs with at least one rule marked in `dirty`
  /// (rows of dirty rules must be empty), records the noncommuting ones,
  /// and re-resolves the certified pairs against the current rule indices.
  /// Returns the number of pairs checked. Each verdict is a pure function
  /// of the pair, so rows are identical for any thread count.
  long Sweep(const std::vector<char>& dirty);

  const PrelimAnalysis& prelim() const { return *prelim_; }
  const Schema& schema() const { return *schema_; }

 private:
  /// Conditions 1-5 with ri as actor (no direction swap).
  static std::vector<NoncommutativityCause> Directed(
      const PrelimAnalysis& prelim, RuleIndex ri, RuleIndex rj);

  bool InRow(RuleIndex i, RuleIndex j) const {
    const std::vector<RuleIndex>& row = noncommute_[i];
    return std::binary_search(row.begin(), row.end(), j);
  }
  bool Certified(RuleIndex i, RuleIndex j) const {
    return std::binary_search(certified_.begin(), certified_.end(),
                              std::pair<RuleIndex, RuleIndex>(
                                  std::minmax(i, j)));
  }

  /// The certification (a, b) as a normalized (lo, hi) index pair, or
  /// nothing when either rule is absent.
  std::optional<std::pair<RuleIndex, RuleIndex>> Resolve(
      const std::string& a, const std::string& b) const;

  const PrelimAnalysis* prelim_;
  const Schema* schema_;
  CommutativityCertifications certifications_;
  std::vector<std::vector<RuleIndex>> noncommute_;
  /// Certified pairs as normalized (lo, hi) rule indices, sorted. A flat
  /// vector: the observable analysis rebuilds it on every run.
  std::vector<std::pair<RuleIndex, RuleIndex>> certified_;
};

}  // namespace starburst

#endif  // STARBURST_ANALYSIS_COMMUTATIVITY_H_
