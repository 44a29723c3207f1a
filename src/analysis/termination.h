#ifndef STARBURST_ANALYSIS_TERMINATION_H_
#define STARBURST_ANALYSIS_TERMINATION_H_

#include <map>
#include <set>
#include <string>
#include <vector>

#include "analysis/prelim.h"
#include "analysis/triggering_graph.h"

namespace starburst {

/// User certifications supplied during the interactive analysis process
/// (Section 5): the user asserts that repeated consideration of the rules
/// on a cycle guarantees that a specific rule's condition eventually
/// becomes false or its action eventually has no effect. A cycle is
/// discharged when removing its certified rules breaks every cycle through
/// the component.
struct TerminationCertifications {
  /// Rule names the user has certified as "eventually quiescent".
  std::set<std::string> quiescent_rules;
};

/// One cyclic strong component of the triggering graph, with its verdict.
struct CycleReport {
  /// Rules of the strong component (ascending indices).
  std::vector<RuleIndex> rules;
  /// The certified rules that participate in this component.
  std::vector<RuleIndex> certified;
  /// True when the component minus its certified rules is acyclic, i.e.
  /// every cycle passes through a certified rule.
  bool discharged = false;
};

/// The termination analysis result (Theorem 5.1 plus the interactive
/// discharge process).
struct TerminationReport {
  /// True when every cyclic component is discharged (in particular when
  /// TG_R is acyclic): rule processing is guaranteed to terminate.
  bool guaranteed = false;
  /// True when TG_R had no cycles at all (Theorem 5.1 applies directly,
  /// with no user certification needed).
  bool acyclic = false;
  std::vector<CycleReport> cycles;
};

/// Cross-Analyze() memo of per-component discharge verdicts for
/// IncrementalAnalyzer, keyed by the member rules' slot ids plus the
/// certified names. A slot is never reused between compactions, so the
/// slot id is the rule's version: a cyclic component whose members and
/// certifications are unchanged since the last analysis reuses its
/// AcyclicWithout verdict, and a redefinition (a new slot) never does.
/// Compaction renumbers the slots, so it clears `discharged`.
struct TerminationComponentCache {
  /// Component key -> discharge verdict.
  std::map<std::string, bool> discharged;
  long hits = 0;
  long misses = 0;
};

/// Termination analysis (Section 5): builds TG_R, finds cyclic strong
/// components, and checks which are discharged by user certifications.
class TerminationAnalyzer {
 public:
  /// Analyzes all rules.
  static TerminationReport Analyze(const PrelimAnalysis& prelim,
                                   const TerminationCertifications& certs = {});

  /// Analyzes an already built graph over `prelim`'s rules. With a
  /// non-null `cache`, per-component discharge verdicts are memoized across
  /// calls (see TerminationComponentCache).
  static TerminationReport AnalyzeGraph(
      const PrelimAnalysis& prelim, const TriggeringGraph& graph,
      const TerminationCertifications& certs,
      TerminationComponentCache* cache = nullptr);

  /// Analyzes the subset `members` (used by partial confluence, which
  /// needs termination of Sig(T') processed on its own — Section 7).
  static TerminationReport AnalyzeSubset(
      const PrelimAnalysis& prelim, const std::vector<RuleIndex>& members,
      const TerminationCertifications& certs = {});
};

}  // namespace starburst

#endif  // STARBURST_ANALYSIS_TERMINATION_H_
