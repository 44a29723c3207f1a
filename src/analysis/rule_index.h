#ifndef STARBURST_ANALYSIS_RULE_INDEX_H_
#define STARBURST_ANALYSIS_RULE_INDEX_H_

#include <unordered_map>
#include <utility>
#include <vector>

#include "analysis/ops.h"
#include "catalog/catalog.h"

namespace starburst {

/// Dense index of a rule within the analyzed rule set R (mirrors
/// prelim.h's alias; kept here so the index header stands alone).
using RuleIndex = int;

struct RulePrelim;

/// Slot compaction (IncrementalAnalyzer): `remap[s]` is the new index of
/// slot s, or -1 for a tombstone. Live slots keep their relative order, so
/// sorted rows stay sorted.
///
/// Keeps the entries of the live slots of a slot-indexed vector.
template <typename T>
void DropTombstones(std::vector<T>* slots, const std::vector<RuleIndex>& remap) {
  size_t kept = 0;
  for (size_t s = 0; s < slots->size(); ++s) {
    if (remap[s] < 0) continue;
    if (kept != s) (*slots)[kept] = std::move((*slots)[s]);  // no self-move
    ++kept;
  }
  slots->resize(kept);
}

/// Renumbers a row of rule indices, dropping tombstones.
inline void RemapRow(std::vector<RuleIndex>* row,
                     const std::vector<RuleIndex>& remap) {
  size_t kept = 0;
  for (RuleIndex r : *row) {
    if (remap[r] >= 0) (*row)[kept++] = remap[r];
  }
  row->resize(kept);
}

/// Inverted table -> rules index over the Section 3 per-rule sets, the
/// backbone of sparse pair analysis on large catalogs.
///
/// A rule's *footprint* is the set of tables its Section 3 sets touch:
/// tables(Triggered-By) ∪ tables(Performs) ∪ tables(Reads). Every Lemma 6.1
/// condition and every Triggers edge between two rules requires the pair to
/// share a footprint table — (I,t)/(D,t) touch every column of t and
/// (U,t.c) touches t.c, so a write that affects a read, an update/update or
/// insert/delete conflict, and a trigger/untrigger edge all name a common
/// table. Pairs with disjoint footprints therefore commute by construction
/// and need neither a pair check nor a cache entry; pair enumeration walks
/// only OverlapCandidates().
///
/// The index is maintained incrementally at rule registration: Append() and
/// Remove() are O(footprint · bucket size). Remove() renumbers nothing: the
/// removed rule's index stays behind as an empty footprint (a tombstone,
/// see IncrementalAnalyzer). All bucket vectors are kept sorted ascending.
class RuleFootprintIndex {
 public:
  /// The footprint of one rule's prelim sets: sorted, deduplicated tables.
  static std::vector<TableId> FootprintOf(const RulePrelim& prelim);

  void Clear();

  /// Rebuilds from scratch; rule i of `prelims` gets index i.
  void Build(const std::vector<RulePrelim>& prelims);

  /// Appends the rule as index num_rules(). Buckets stay sorted because the
  /// new index is the maximum.
  void Append(const RulePrelim& prelim);

  /// Drops rule `r` from every bucket and empties its footprint; no other
  /// index moves.
  void Remove(RuleIndex r);

  int num_rules() const { return static_cast<int>(footprints_.size()); }

  /// The rule's footprint tables (sorted ascending).
  const std::vector<TableId>& Footprint(RuleIndex r) const {
    return footprints_[r];
  }

  /// Rules whose footprint contains `t` (sorted ascending; empty vector for
  /// an untouched table).
  const std::vector<RuleIndex>& RulesTouching(TableId t) const;

  /// Rules defined `on t` — the rules whose Triggered-By operations live on
  /// `t` (sorted ascending). These are the only possible targets of a
  /// Triggers edge from a rule performing operations on `t`.
  const std::vector<RuleIndex>& RulesOn(TableId t) const;

  /// Every rule (other than `r`) sharing at least one footprint table with
  /// `r`, sorted ascending and deduplicated. Only these pairs can be
  /// noncommutative under Lemma 6.1.
  std::vector<RuleIndex> OverlapCandidates(RuleIndex r) const;

 private:
  std::vector<std::vector<TableId>> footprints_;  // rule -> sorted tables
  std::vector<TableId> own_table_;                // rule -> its `on` table
  std::unordered_map<TableId, std::vector<RuleIndex>> touching_;
  std::unordered_map<TableId, std::vector<RuleIndex>> on_table_;
  std::vector<RuleIndex> empty_;
};

}  // namespace starburst

#endif  // STARBURST_ANALYSIS_RULE_INDEX_H_
