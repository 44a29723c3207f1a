#include "analysis/commutativity.h"

#include <algorithm>
#include <cassert>

#include "common/metrics.h"
#include "common/strings.h"
#include "common/thread_pool.h"
#include "common/trace.h"

namespace starburst {

void CommutativityCertifications::Certify(const std::string& a,
                                          const std::string& b) {
  std::string x = ToLower(a);
  std::string y = ToLower(b);
  if (y < x) std::swap(x, y);
  pairs_.emplace(std::move(x), std::move(y));
}

bool CommutativityCertifications::Contains(const std::string& a,
                                           const std::string& b) const {
  std::string x = ToLower(a);
  std::string y = ToLower(b);
  if (y < x) std::swap(x, y);
  return pairs_.count({x, y}) > 0;
}

std::string NoncommutativityCause::Describe(const PrelimAnalysis& prelim,
                                            const Schema& schema) const {
  (void)schema;
  const std::string& a = prelim.rule(actor).name;
  const std::string& b = prelim.rule(affected).name;
  switch (condition) {
    case 1:
      return "'" + a + "' can trigger '" + b + "' (Lemma 6.1 condition 1)";
    case 2:
      return "'" + a + "' can untrigger '" + b + "' (Lemma 6.1 condition 2)";
    case 3:
      return "'" + a + "' writes data that '" + b +
             "' reads (Lemma 6.1 condition 3)";
    case 4:
      return "'" + a + "' inserts into a table that '" + b +
             "' deletes from or updates (Lemma 6.1 condition 4)";
    case 5:
      return "'" + a + "' and '" + b +
             "' update the same column (Lemma 6.1 condition 5)";
    default:
      return "unknown condition";
  }
}

CommutativityAnalyzer::CommutativityAnalyzer(
    const PrelimAnalysis& prelim, const Schema& schema,
    CommutativityCertifications certifications)
    : prelim_(&prelim),
      schema_(&schema),
      certifications_(std::move(certifications)),
      noncommute_(prelim.num_rules()) {
  STARBURST_TRACE_SPAN("analysis", "pair_sweep");
  // The pairs_swept counter counts materialized candidate pairs — at high
  // overlap density it approaches n(n-1)/2, on sparse catalogs it is far
  // smaller. The total is a pure function of the catalog.
  long pairs = Sweep(std::vector<char>(prelim.num_rules(), 1));
  STARBURST_METRIC_COUNT("analysis.pairs_swept", pairs);
}

void CommutativityAnalyzer::Certify(const std::string& a,
                                    const std::string& b) {
  certifications_.Certify(a, b);
  if (auto pair = Resolve(a, b)) {
    auto it = std::lower_bound(certified_.begin(), certified_.end(), *pair);
    if (it == certified_.end() || *it != *pair) certified_.insert(it, *pair);
  }
}

std::optional<std::pair<RuleIndex, RuleIndex>> CommutativityAnalyzer::Resolve(
    const std::string& a, const std::string& b) const {
  RuleIndex i = prelim_->FindRule(a);
  RuleIndex j = prelim_->FindRule(b);
  if (i < 0 || j < 0 || i == j) return std::nullopt;  // an absent rule
  return std::minmax(i, j);
}

void CommutativityAnalyzer::TombstoneRule(RuleIndex r) {
  for (RuleIndex c : noncommute_[r]) {
    std::vector<RuleIndex>& row = noncommute_[c];
    auto it = std::lower_bound(row.begin(), row.end(), r);
    assert(it != row.end() && *it == r && "noncommute rows are symmetric");
    row.erase(it);
  }
  noncommute_[r].clear();
}

void CommutativityAnalyzer::Compact(const std::vector<RuleIndex>& remap) {
  DropTombstones(&noncommute_, remap);
  for (std::vector<RuleIndex>& row : noncommute_) RemapRow(&row, remap);
  // A monotone renumbering keeps the (lo, hi) pairs sorted.
  size_t kept = 0;
  for (const auto& [lo, hi] : certified_) {
    if (remap[lo] >= 0 && remap[hi] >= 0) {
      certified_[kept++] = {remap[lo], remap[hi]};
    }
  }
  certified_.resize(kept);
}

long CommutativityAnalyzer::Sweep(const std::vector<char>& dirty) {
  // Each overlapping pair with a dirty end is enumerated once: from its
  // dirty rule, or from the lower index when both are dirty.
  std::vector<RuleIndex> sources;
  for (RuleIndex d = 0; d < static_cast<RuleIndex>(dirty.size()); ++d) {
    if (dirty[d]) sources.push_back(d);
  }
  const RuleFootprintIndex& index = prelim_->index();
  std::vector<std::vector<RuleIndex>> found(sources.size());
  std::vector<long> checked(sources.size(), 0);
  auto sweep_rows = [&](size_t begin, size_t end) {
    for (size_t k = begin; k < end; ++k) {
      RuleIndex d = sources[k];
      for (RuleIndex c : index.OverlapCandidates(d)) {
        if (dirty[c] && c < d) continue;
        ++checked[k];
        if (!SyntacticallyCommutePair(*prelim_, d, c)) found[k].push_back(c);
      }
    }
  };
  if (sources.size() < 16) {
    sweep_rows(0, sources.size());  // too few rows to amortize a wakeup
  } else {
    ParallelFor(sources.size(), 1, sweep_rows);
  }
  long pairs = 0;
  std::vector<char> touched(noncommute_.size(), 0);
  for (size_t k = 0; k < sources.size(); ++k) {
    pairs += checked[k];
    for (RuleIndex c : found[k]) {
      noncommute_[sources[k]].push_back(c);
      noncommute_[c].push_back(sources[k]);
      touched[sources[k]] = touched[c] = 1;
    }
  }
  for (size_t r = 0; r < touched.size(); ++r) {
    if (touched[r]) std::sort(noncommute_[r].begin(), noncommute_[r].end());
  }
  certified_.clear();
  for (const auto& [a, b] : certifications_.pairs()) {
    if (auto pair = Resolve(a, b)) certified_.push_back(*pair);
  }
  std::sort(certified_.begin(), certified_.end());
  return pairs;
}

bool CommutativityAnalyzer::SyntacticallyCommutePair(
    const PrelimAnalysis& prelim, RuleIndex i, RuleIndex j) {
  if (i == j) return true;
  return Directed(prelim, i, j).empty() && Directed(prelim, j, i).empty();
}

std::vector<NoncommutativityCause> CommutativityAnalyzer::Directed(
    const PrelimAnalysis& prelim_, RuleIndex ri, RuleIndex rj) {
  std::vector<NoncommutativityCause> causes;
  const RulePrelim& a = prelim_.rule(ri);
  const RulePrelim& b = prelim_.rule(rj);

  // Condition 1: rj ∈ Triggers(ri).
  if (prelim_.TriggersRule(ri, rj)) {
    causes.push_back({1, ri, rj});
  }
  // Condition 2: rj ∈ Can-Untrigger(Performs(ri)).
  if (prelim_.CanUntriggerRule(ri, rj)) {
    causes.push_back({2, ri, rj});
  }
  // Condition 3: ri's operations can affect what rj reads.
  if (WritesAnyOf(a.performs, b.reads)) {
    causes.push_back({3, ri, rj});
  }
  // Condition 4: ri's insertions can affect what rj updates or deletes.
  for (const Operation& op : a.performs) {
    if (op.kind != Operation::Kind::kInsert) continue;
    bool conflict = false;
    for (const Operation& other : b.performs) {
      if (other.table == op.table &&
          (other.kind == Operation::Kind::kDelete ||
           other.kind == Operation::Kind::kUpdate)) {
        conflict = true;
        break;
      }
    }
    if (conflict) {
      causes.push_back({4, ri, rj});
      break;
    }
  }
  // Condition 5: ri's updates can affect rj's updates (same column).
  bool update_conflict = false;
  for (const Operation& op : a.performs) {
    if (op.kind != Operation::Kind::kUpdate) continue;
    if (b.performs.count(op) > 0) {
      update_conflict = true;
      break;
    }
  }
  if (update_conflict) {
    causes.push_back({5, ri, rj});
  }
  return causes;
}

std::vector<NoncommutativityCause> CommutativityAnalyzer::ExplainPair(
    const PrelimAnalysis& prelim, RuleIndex i, RuleIndex j) {
  if (i == j) return {};
  std::vector<NoncommutativityCause> causes = Directed(prelim, i, j);
  std::vector<NoncommutativityCause> reversed = Directed(prelim, j, i);
  causes.insert(causes.end(), reversed.begin(), reversed.end());
  return causes;
}

std::vector<NoncommutativityCause> CommutativityAnalyzer::Explain(
    RuleIndex i, RuleIndex j) const {
  return ExplainPair(*prelim_, i, j);
}

}  // namespace starburst
