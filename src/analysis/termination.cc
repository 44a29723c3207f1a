#include "analysis/termination.h"

#include "common/strings.h"

namespace starburst {

namespace {

/// Cache key for a cyclic component: the member rules' slot ids
/// (ascending) plus the component's certified names.
std::string ComponentKey(const PrelimAnalysis& prelim,
                         const CycleReport& cycle) {
  std::string key;
  for (RuleIndex r : cycle.rules) {
    key += std::to_string(r);
    key += ';';
  }
  key += '#';
  for (RuleIndex r : cycle.certified) {
    key += ToLower(prelim.rule(r).name);
    key += ';';
  }
  return key;
}

}  // namespace

TerminationReport TerminationAnalyzer::AnalyzeGraph(
    const PrelimAnalysis& prelim, const TriggeringGraph& graph,
    const TerminationCertifications& certs, TerminationComponentCache* cache) {
  TerminationReport report;
  auto cyclic = graph.CyclicComponents();
  report.acyclic = cyclic.empty();
  report.guaranteed = true;
  for (auto& component : cyclic) {
    CycleReport cycle;
    cycle.rules = component;
    for (RuleIndex r : component) {
      for (const std::string& name : certs.quiescent_rules) {
        if (EqualsIgnoreCase(prelim.rule(r).name, name)) {
          cycle.certified.push_back(r);
          break;
        }
      }
    }
    if (cycle.certified.empty()) {
      cycle.discharged = false;
    } else if (cache != nullptr) {
      std::string key = ComponentKey(prelim, cycle);
      auto it = cache->discharged.find(key);
      if (it != cache->discharged.end()) {
        ++cache->hits;
        cycle.discharged = it->second;
      } else {
        ++cache->misses;
        cycle.discharged = graph.AcyclicWithout(cycle.rules, cycle.certified);
        cache->discharged.emplace(std::move(key), cycle.discharged);
      }
    } else {
      cycle.discharged = graph.AcyclicWithout(cycle.rules, cycle.certified);
    }
    if (!cycle.discharged) report.guaranteed = false;
    report.cycles.push_back(std::move(cycle));
  }
  return report;
}

TerminationReport TerminationAnalyzer::Analyze(
    const PrelimAnalysis& prelim, const TerminationCertifications& certs) {
  TriggeringGraph graph(prelim);
  return AnalyzeGraph(prelim, graph, certs);
}

TerminationReport TerminationAnalyzer::AnalyzeSubset(
    const PrelimAnalysis& prelim, const std::vector<RuleIndex>& members,
    const TerminationCertifications& certs) {
  TriggeringGraph graph(prelim, members);
  return AnalyzeGraph(prelim, graph, certs);
}

}  // namespace starburst
