#ifndef STARBURST_ANALYSIS_ANALYZER_H_
#define STARBURST_ANALYSIS_ANALYZER_H_

#include <memory>
#include <string>
#include <vector>

#include "analysis/commutativity.h"
#include "analysis/confluence.h"
#include "analysis/observable.h"
#include "analysis/partial_confluence.h"
#include "analysis/suggest.h"
#include "analysis/termination.h"
#include "common/status.h"
#include "rules/rule_catalog.h"

namespace starburst {

/// Options for Analyzer::AnalyzeAll / ParallelAnalyzeRuleSets.
struct AnalyzerOptions {
  /// Stop enumerating violations per report after this many (-1 = all).
  int max_violations = -1;
  /// When true, process-wide metrics collection (common/metrics.h) is held
  /// on for the duration of the analysis; the analyzer flushes its
  /// `analysis.*` counters into the registry as it runs. Equivalent to
  /// wrapping the call in metrics::ScopedCollect.
  bool collect_metrics = false;
};

/// The combined result of running every analysis on a rule set.
struct FullReport {
  TerminationReport termination;
  ConfluenceReport confluence;
  ObservableDeterminismReport observable;
  std::vector<Suggestion> suggestions;
  /// Corollary 6.9 / 6.10 structural warnings (see CorollaryLints()).
  std::vector<std::string> lints;
};

/// The interactive analysis facade the paper's development environment is
/// built around (Sections 1, 5, 6.4): run the analyses, read the isolated
/// problems, certify commutativity / quiescence or add orderings, and run
/// again.
class Analyzer {
 public:
  /// Validates and compiles `rules` against `schema` (which must outlive
  /// the analyzer).
  static Result<Analyzer> Create(const Schema* schema,
                                 std::vector<RuleDef> rules);

  /// Creates from an already-built catalog.
  explicit Analyzer(RuleCatalog catalog);

  const RuleCatalog& catalog() const { return *catalog_; }

  /// Interactive certifications (Section 5 / Section 6.1). The next
  /// analysis reflects each call; a commutativity certification upgrades
  /// its one pair in place.
  void CertifyQuiescent(const std::string& rule_name);
  void CertifyCommute(const std::string& rule_a, const std::string& rule_b);

  /// Runs the automatic Section 6.1 refinement (PredicateRefiner): pairs
  /// flagged by Lemma 6.1 whose conflicts are provably harmless (inserts
  /// never matching delete conditions, updates of disjoint tuples) are
  /// certified as commuting without user involvement. Returns the number
  /// of newly certified pairs.
  int ApplyAutoRefinement();

  /// Runs the automatic Section 5 cycle discharge (AutoDischargeDetector):
  /// delete-only and bounded-increment rules on triggering-graph cycles
  /// are certified as eventually quiescent. Returns the number of newly
  /// certified rules.
  int ApplyAutoDischarge();

  const TerminationCertifications& termination_certifications() const {
    return termination_certs_;
  }
  const CommutativityCertifications& commutativity_certifications() const {
    return commutativity_certs_;
  }

  /// Section 5.
  TerminationReport AnalyzeTermination();

  /// Section 6 (runs termination first, per Theorem 6.7).
  ConfluenceReport AnalyzeConfluence(int max_violations = -1);

  /// Section 7; `table_names` is T'. Fails on unknown table names.
  Result<PartialConfluenceReport> AnalyzePartialConfluence(
      const std::vector<std::string>& table_names, int max_violations = -1);

  /// Section 8.
  ObservableDeterminismReport AnalyzeObservableDeterminism(
      int max_violations = -1);

  /// Everything, plus Section 6.4 suggestions for any confluence
  /// violations.
  FullReport AnalyzeAll(int max_violations = -1);
  FullReport AnalyzeAll(const AnalyzerOptions& options);

  /// The certification-aware commutativity analyzer over the current
  /// certifications (built on first use).
  const CommutativityAnalyzer& commutativity();

 private:
  /// Heap-held so the commutativity cache, which points into it, stays
  /// valid when the analyzer moves.
  std::unique_ptr<RuleCatalog> catalog_;
  TerminationCertifications termination_certs_;
  CommutativityCertifications commutativity_certs_;
  std::unique_ptr<CommutativityAnalyzer> commutativity_;  // lazy cache
};

/// One independent rule set for batch analysis: the schema (which must
/// outlive the call) plus the rules to compile against it.
struct RuleSetSpec {
  const Schema* schema = nullptr;
  std::vector<RuleDef> rules;
};

/// Analyzes independent rule sets concurrently on the shared thread pool
/// (batch workloads: the bundled applications, per-seed experiment sweeps).
/// Results are returned in input order and are identical for any thread
/// count — each rule set is analyzed in isolation, and a spec that fails to
/// compile yields its error Status in its slot instead of failing the
/// batch.
std::vector<Result<FullReport>> ParallelAnalyzeRuleSets(
    std::vector<RuleSetSpec> specs, int max_violations = -1);

}  // namespace starburst

#endif  // STARBURST_ANALYSIS_ANALYZER_H_
