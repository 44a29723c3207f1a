#include "analysis/triggering_graph.h"

#include <algorithm>

namespace starburst {

TriggeringGraph::TriggeringGraph(const PrelimAnalysis& prelim)
    : prelim_(&prelim) {
  ComputeComponents();
}

TriggeringGraph::TriggeringGraph(const PrelimAnalysis& prelim,
                                 const std::vector<RuleIndex>& members) {
  int n = prelim.num_rules();
  is_member_.assign(n, false);
  for (RuleIndex r : members) is_member_[r] = true;
  // Filtering keeps the prelim rows' ascending order, which HasEdge's
  // binary search relies on.
  subset_rows_.assign(n, {});
  for (RuleIndex i = 0; i < n; ++i) {
    if (!is_member_[i]) continue;
    for (RuleIndex j : prelim.Triggers(i)) {
      if (is_member_[j]) subset_rows_[i].push_back(j);
    }
  }
  ComputeComponents();
}

void TriggeringGraph::Recompute() { ComputeComponents(); }

bool TriggeringGraph::HasEdge(RuleIndex from, RuleIndex to) const {
  const auto& edges = OutEdges(from);
  return std::binary_search(edges.begin(), edges.end(), to);
}

void TriggeringGraph::ComputeComponents() {
  // Iterative Tarjan SCC, emitting into the flat comp_nodes_/comp_start_
  // arrays (no per-component heap vector).
  int n = num_rules();
  comp_nodes_.clear();
  comp_start_.clear();
  comp_start_.push_back(0);
  cyclic_.clear();
  index_.assign(n, -1);
  lowlink_.assign(n, 0);
  on_stack_.assign(n, 0);
  stack_.clear();
  int next_index = 0;

  for (int root = 0; root < n; ++root) {
    if ((!is_member_.empty() && !is_member_[root]) || index_[root] != -1) {
      continue;
    }
    frames_.clear();
    frames_.push_back({root, 0});
    index_[root] = lowlink_[root] = next_index++;
    stack_.push_back(root);
    on_stack_[root] = 1;
    while (!frames_.empty()) {
      Frame& frame = frames_.back();
      const std::vector<RuleIndex>& edges = OutEdges(frame.v);
      if (frame.edge < edges.size()) {
        int w = edges[frame.edge++];
        if (index_[w] == -1) {
          index_[w] = lowlink_[w] = next_index++;
          stack_.push_back(w);
          on_stack_[w] = 1;
          frames_.push_back({w, 0});
        } else if (on_stack_[w]) {
          lowlink_[frame.v] = std::min(lowlink_[frame.v], index_[w]);
        }
      } else {
        int v = frame.v;
        frames_.pop_back();
        if (!frames_.empty()) {
          lowlink_[frames_.back().v] =
              std::min(lowlink_[frames_.back().v], lowlink_[v]);
        }
        if (lowlink_[v] == index_[v]) {
          size_t begin = comp_nodes_.size();
          while (true) {
            int w = stack_.back();
            stack_.pop_back();
            on_stack_[w] = 0;
            comp_nodes_.push_back(w);
            if (w == v) break;
          }
          std::sort(comp_nodes_.begin() + begin, comp_nodes_.end());
          // v's row was just scanned, so the self-loop test hits cache.
          if (comp_nodes_.size() - begin > 1 || HasEdge(v, v)) {
            cyclic_.push_back(static_cast<int>(comp_start_.size()) - 1);
          }
          comp_start_.push_back(static_cast<int>(comp_nodes_.size()));
        }
      }
    }
  }
}

std::vector<std::vector<RuleIndex>> TriggeringGraph::Components() const {
  std::vector<std::vector<RuleIndex>> components;
  size_t num = comp_start_.size() - 1;
  components.reserve(num);
  for (size_t c = 0; c < num; ++c) {
    components.emplace_back(comp_nodes_.begin() + comp_start_[c],
                            comp_nodes_.begin() + comp_start_[c + 1]);
  }
  return components;
}

std::vector<std::vector<RuleIndex>> TriggeringGraph::CyclicComponents() const {
  std::vector<std::vector<RuleIndex>> cyclic;
  cyclic.reserve(cyclic_.size());
  for (int c : cyclic_) {
    cyclic.emplace_back(comp_nodes_.begin() + comp_start_[c],
                        comp_nodes_.begin() + comp_start_[c + 1]);
  }
  return cyclic;
}

bool TriggeringGraph::AcyclicWithout(
    const std::vector<RuleIndex>& nodes,
    const std::vector<RuleIndex>& removed) const {
  std::vector<bool> active(num_rules(), false);
  for (RuleIndex r : nodes) active[r] = true;
  for (RuleIndex r : removed) active[r] = false;
  // Explicit-stack DFS cycle check over the active subgraph (a recursive
  // DFS overflows the call stack on deep trigger chains — 10k+ rules).
  enum class Color { kWhite, kGray, kBlack };
  std::vector<Color> color(num_rules(), Color::kWhite);
  struct Frame {
    RuleIndex v;
    size_t edge;
  };
  std::vector<Frame> frames;
  for (RuleIndex r : nodes) {
    if (!active[r] || color[r] != Color::kWhite) continue;
    color[r] = Color::kGray;
    frames.clear();
    frames.push_back({r, 0});
    while (!frames.empty()) {
      Frame& frame = frames.back();
      const std::vector<RuleIndex>& edges = OutEdges(frame.v);
      if (frame.edge < edges.size()) {
        RuleIndex w = edges[frame.edge++];
        if (!active[w]) continue;
        if (color[w] == Color::kGray) return false;
        if (color[w] == Color::kWhite) {
          color[w] = Color::kGray;
          frames.push_back({w, 0});
        }
      } else {
        color[frame.v] = Color::kBlack;
        frames.pop_back();
      }
    }
  }
  return true;
}

}  // namespace starburst
