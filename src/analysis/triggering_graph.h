#ifndef STARBURST_ANALYSIS_TRIGGERING_GRAPH_H_
#define STARBURST_ANALYSIS_TRIGGERING_GRAPH_H_

#include <vector>

#include "analysis/prelim.h"

namespace starburst {

/// The triggering graph TG_R of Section 5: nodes are rules, with an edge
/// ri -> rj iff rj ∈ Triggers(ri). Theorem 5.1: if TG_R is acyclic the
/// rule set is guaranteed to terminate.
class TriggeringGraph {
 public:
  /// Builds the graph over all rules of `prelim`, reading its Triggers rows
  /// in place (no copy), so `prelim` must outlive the graph.
  explicit TriggeringGraph(const PrelimAnalysis& prelim);
  explicit TriggeringGraph(PrelimAnalysis&&) = delete;

  /// Builds the graph over the subset `members` only (edges within the
  /// subset). Used for partial confluence, which needs termination of
  /// Sig(T') in isolation (Section 7), and for restricted-operation
  /// analysis.
  TriggeringGraph(const PrelimAnalysis& prelim,
                  const std::vector<RuleIndex>& members);

  /// Re-runs Tarjan on a full graph after its prelim's rules changed. The
  /// working storage is kept across calls, so a long-lived graph (the
  /// incremental analyzer's) stops allocating once it has seen its size.
  void Recompute();

  int num_rules() const {
    return prelim_ != nullptr ? prelim_->num_rules()
                              : static_cast<int>(subset_rows_.size());
  }

  /// Out-edges of rule `r` (global rule indices, ascending).
  const std::vector<RuleIndex>& OutEdges(RuleIndex r) const {
    return prelim_ != nullptr ? prelim_->Triggers(r) : subset_rows_[r];
  }

  bool HasEdge(RuleIndex from, RuleIndex to) const;

  /// Strongly connected components (Tarjan), in reverse topological order.
  /// Each component lists global rule indices, ascending. Materialized on
  /// demand: the components are stored flat (one array + offsets) so that
  /// a 10k-rule catalog does not pay 10k vector allocations per graph.
  std::vector<std::vector<RuleIndex>> Components() const;

  /// Components that contain a cycle: size > 1, or a single rule with a
  /// self-loop (a rule that can trigger itself).
  std::vector<std::vector<RuleIndex>> CyclicComponents() const;

  bool IsAcyclic() const { return CyclicComponents().empty(); }

  /// True when the subgraph of `nodes` minus the rules in `removed`
  /// is acyclic. Used to check that user cycle certifications discharge
  /// every cycle of a component (Section 5's interactive analysis).
  bool AcyclicWithout(const std::vector<RuleIndex>& nodes,
                      const std::vector<RuleIndex>& removed) const;

 private:
  void ComputeComponents();

  /// Set for a full graph, whose rows are the prelim's Triggers rows.
  const PrelimAnalysis* prelim_ = nullptr;
  /// A subset graph's own rows (global index -> edges within the subset)
  /// and membership.
  std::vector<std::vector<RuleIndex>> subset_rows_;
  std::vector<bool> is_member_;
  /// Flat SCC storage: component c is comp_nodes_[comp_start_[c] ..
  /// comp_start_[c + 1]), sorted ascending; components in reverse
  /// topological order.
  std::vector<RuleIndex> comp_nodes_;
  std::vector<int> comp_start_;
  /// The components that contain a cycle, ascending.
  std::vector<int> cyclic_;
  /// Tarjan working storage, kept for Recompute().
  struct Frame {
    RuleIndex v;
    size_t edge;
  };
  std::vector<int> index_, lowlink_;
  std::vector<char> on_stack_;
  std::vector<RuleIndex> stack_;
  std::vector<Frame> frames_;
};

}  // namespace starburst

#endif  // STARBURST_ANALYSIS_TRIGGERING_GRAPH_H_
