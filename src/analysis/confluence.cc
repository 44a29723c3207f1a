#include "analysis/confluence.h"

#include <algorithm>
#include <iterator>
#include <tuple>

namespace starburst {

namespace {

/// Worklist form of the Definition 6.5 fixpoint. Candidates enter a pool
/// when a Triggers edge from the current set reaches them and are admitted
/// once they gain priority over some member of the other set; the loop
/// runs to quiescence, so the result is the least fixpoint — the same sets
/// the quadratic scan produces, in O(reached edges) instead of O(n) per
/// pass. `members` restricts candidates when non-null.
std::pair<std::vector<RuleIndex>, std::vector<RuleIndex>> BuildSetsCore(
    const PrelimAnalysis& prelim, const PriorityOrder& priority, RuleIndex ri,
    RuleIndex rj, const std::vector<bool>* members) {
  int n = prelim.num_rules();
  std::vector<bool> in_r1(n, false), in_r2(n, false);
  std::vector<bool> cand1(n, false), cand2(n, false);
  in_r1[ri] = true;
  in_r2[rj] = true;
  std::vector<RuleIndex> r1_list{ri}, r2_list{rj};
  std::vector<RuleIndex> frontier1{ri}, frontier2{rj};
  std::vector<RuleIndex> pool1, pool2;

  bool changed = true;
  while (changed) {
    changed = false;
    for (RuleIndex v : frontier1) {
      for (RuleIndex w : prelim.Triggers(v)) {
        if (members != nullptr && !(*members)[w]) continue;
        if (in_r1[w] || cand1[w] || w == rj) continue;
        cand1[w] = true;
        pool1.push_back(w);
      }
    }
    frontier1.clear();
    for (RuleIndex v : frontier2) {
      for (RuleIndex w : prelim.Triggers(v)) {
        if (members != nullptr && !(*members)[w]) continue;
        if (in_r2[w] || cand2[w] || w == ri) continue;
        cand2[w] = true;
        pool2.push_back(w);
      }
    }
    frontier2.clear();
    // Admit candidates that (now) have precedence over some rule of the
    // other set; rejected candidates stay pooled — the other set may still
    // grow under them.
    size_t kept = 0;
    for (RuleIndex w : pool1) {
      bool above = false;
      for (RuleIndex r2 : r2_list) {
        if (priority.Higher(w, r2)) {
          above = true;
          break;
        }
      }
      if (above) {
        in_r1[w] = true;
        r1_list.push_back(w);
        frontier1.push_back(w);
        changed = true;
      } else {
        pool1[kept++] = w;
      }
    }
    pool1.resize(kept);
    kept = 0;
    for (RuleIndex w : pool2) {
      bool above = false;
      for (RuleIndex r1 : r1_list) {
        if (priority.Higher(w, r1)) {
          above = true;
          break;
        }
      }
      if (above) {
        in_r2[w] = true;
        r2_list.push_back(w);
        frontier2.push_back(w);
        changed = true;
      } else {
        pool2[kept++] = w;
      }
    }
    pool2.resize(kept);
  }
  std::sort(r1_list.begin(), r1_list.end());
  std::sort(r2_list.begin(), r2_list.end());
  return {std::move(r1_list), std::move(r2_list)};
}

}  // namespace

std::pair<std::vector<RuleIndex>, std::vector<RuleIndex>>
ConfluenceAnalyzer::BuildSets(RuleIndex ri, RuleIndex rj) const {
  return BuildSetsCore(commutativity_.prelim(), priority_, ri, rj, nullptr);
}

std::pair<std::vector<RuleIndex>, std::vector<RuleIndex>>
ConfluenceAnalyzer::BuildSetsWithin(RuleIndex ri, RuleIndex rj,
                                    const std::vector<bool>& members) const {
  return BuildSetsCore(commutativity_.prelim(), priority_, ri, rj, &members);
}

ConfluenceReport ConfluenceAnalyzer::Analyze(bool termination_guaranteed,
                                             int max_violations) const {
  std::vector<RuleIndex> all(commutativity_.prelim().num_rules());
  for (size_t i = 0; i < all.size(); ++i) all[i] = static_cast<RuleIndex>(i);
  return AnalyzeSubset(all, termination_guaranteed, max_violations);
}

ConfluenceReport ConfluenceAnalyzer::AnalyzeSubset(
    const std::vector<RuleIndex>& members, bool termination_guaranteed,
    int max_violations) const {
  const PrelimAnalysis& prelim = commutativity_.prelim();
  ConfluenceReport report;
  report.termination_guaranteed = termination_guaranteed;
  report.requirement_holds = true;

  std::vector<bool> member(prelim.num_rules(), false);
  for (RuleIndex r : members) member[r] = true;
  // can-seed(x): some member rule triggered by x has a rule below it in P
  // — the only way the pair's first Definition 6.5 growth step can fire.
  std::vector<bool> can_seed(prelim.num_rules(), false);
  std::vector<RuleIndex> seeds;  // ascending
  for (RuleIndex x : members) {
    for (RuleIndex w : prelim.Triggers(x)) {
      if (member[w] && priority_.HasLowerRule(w)) {
        can_seed[x] = true;
        seeds.push_back(x);
        break;
      }
    }
  }

  auto violations_full = [&]() {
    return max_violations >= 0 &&
           static_cast<int>(report.violations.size()) >= max_violations;
  };

  size_t stop = members.size();  // position of the stopping pair's a
  RuleIndex stop_b = -1;
  std::vector<RuleIndex> partners;
  for (size_t p = 0; p < members.size() && stop == members.size(); ++p) {
    RuleIndex a = members[p];
    partners.clear();
    if (can_seed[a]) {
      partners.assign(members.begin() + p + 1, members.end());
    } else {
      // Only growable pairs (partner can seed) and noncommuting singleton
      // pairs can produce violations; merge both sorted lists above `a`.
      const std::vector<RuleIndex>& row = commutativity_.Noncommute(a);
      std::set_union(std::upper_bound(row.begin(), row.end(), a), row.end(),
                     std::upper_bound(seeds.begin(), seeds.end(), a),
                     seeds.end(), std::back_inserter(partners));
    }
    for (RuleIndex b : partners) {
      if (!member[b] || !priority_.Unordered(a, b)) continue;
      std::vector<RuleIndex> r1_set{a}, r2_set{b};
      if (can_seed[a] || can_seed[b]) {
        std::tie(r1_set, r2_set) = BuildSetsWithin(a, b, member);
        report.max_set_size =
            std::max({report.max_set_size, r1_set.size(), r2_set.size()});
      }
      for (RuleIndex r1 : r1_set) {
        for (RuleIndex r2 : r2_set) {
          if (commutativity_.Commute(r1, r2)) continue;
          report.requirement_holds = false;
          if (violations_full()) continue;
          report.violations.push_back({a, b, r1, r2, r1_set, r2_set,
                                       commutativity_.Explain(r1, r2)});
        }
        if (!report.requirement_holds && violations_full()) break;
      }
      if (!report.requirement_holds && violations_full()) {
        stop = p;
        stop_b = b;
        break;
      }
    }
  }

  // Unordered member pairs in (a, b) order, up to and including the
  // stopping pair when the report was truncated. Skipped pairs never
  // mutate the report, so only their count and their singleton sets
  // remain to be accounted for.
  long count = 0;
  const long m = static_cast<long>(members.size());
  for (size_t p = 0; p < members.size() && p < stop; ++p) {
    count += (m - 1 - static_cast<long>(p)) -
             priority_.NumOrderedPartnersAbove(members[p], member);
  }
  for (size_t q = stop + 1; q < members.size() && members[q] <= stop_b; ++q) {
    if (priority_.Unordered(members[stop], members[q])) ++count;
  }
  report.unordered_pairs_checked = static_cast<int>(count);
  if (count > 0) report.max_set_size = std::max<size_t>(report.max_set_size, 1);
  report.confluent = report.requirement_holds && termination_guaranteed;
  return report;
}

}  // namespace starburst
