#include "testing/oracles.h"

#include <utility>

#include "analysis/analyzer.h"
#include "analysis/incremental.h"
#include "analysis/json_report.h"
#include "analysis/observable.h"
#include "analysis/partial_confluence.h"
#include "analysis/priority.h"
#include "analysis/termination.h"
#include "common/thread_pool.h"
#include "engine/serialize.h"
#include "rulelang/parser.h"
#include "rulelang/printer.h"
#include "rules/explorer.h"
#include "rules/rule_catalog.h"

namespace starburst {
namespace fuzzing {

namespace {

constexpr const char* kOracleNames[kNumOracles] = {
    "termination_sound",
    "confluence_sound",
    "observable_determinism_sound",
    "backend_equivalence",
    "round_trip",
    "delta_equivalence",
    "por_equivalence",
    "incremental_equivalence",
    "witness_replay",
};

OracleOutcome Pass() { return {OracleVerdict::kPass, ""}; }
OracleOutcome Skip(std::string why) {
  return {OracleVerdict::kSkip, std::move(why)};
}
OracleOutcome Fail(std::string what) {
  return {OracleVerdict::kFail, std::move(what)};
}

/// Thin alias so the oracle bodies below read tersely; the setup itself is
/// the public PrepareOracleCase (shared with tools/explain and the witness
/// golden corpus).
Result<OracleCase> Prepare(const GeneratedRuleSet& set, uint64_t data_seed,
                           const OracleOptions& options) {
  return PrepareOracleCase(set, data_seed, options);
}

ExplorerOptions ExploreOptions(const OracleOptions& options) {
  ExplorerOptions eo;
  eo.max_depth = options.max_depth;
  eo.max_total_steps = options.max_total_steps;
  return eo;
}

std::vector<RuleDef> CloneRules(const std::vector<RuleDef>& rules) {
  std::vector<RuleDef> out;
  out.reserve(rules.size());
  for (const RuleDef& rule : rules) out.push_back(rule.Clone());
  return out;
}

OracleOutcome TerminationSound(const GeneratedRuleSet& set,
                               uint64_t data_seed,
                               const OracleOptions& options) {
  auto prepared = Prepare(set, data_seed, options);
  if (!prepared.ok()) return Fail(prepared.status().ToString());
  TerminationReport verdict =
      TerminationAnalyzer::Analyze(prepared.value().catalog.prelim());
  if (!verdict.guaranteed) return Skip("termination not guaranteed");
  auto result =
      Explorer::Explore(prepared.value().catalog, prepared.value().db,
                        prepared.value().initial, ExploreOptions(options));
  if (!result.ok()) return Fail(result.status().ToString());
  if (!result.value().complete) return Skip("exploration budget exhausted");
  if (result.value().may_not_terminate) {
    return Fail("termination-guaranteed set has an execution cycle");
  }
  return Pass();
}

OracleOutcome ConfluenceSound(const GeneratedRuleSet& set, uint64_t data_seed,
                              const OracleOptions& options) {
  auto prepared = Prepare(set, data_seed, options);
  if (!prepared.ok()) return Fail(prepared.status().ToString());
  const RuleCatalog& catalog = prepared.value().catalog;
  TerminationReport term = TerminationAnalyzer::Analyze(catalog.prelim());
  CommutativityAnalyzer commutativity(catalog.prelim(), catalog.schema());
  ConfluenceAnalyzer analyzer(commutativity, catalog.priority());
  ConfluenceReport verdict = analyzer.Analyze(term.guaranteed);
  if (!verdict.confluent) return Skip("no confluence certificate");
  auto result = Explorer::Explore(catalog, prepared.value().db,
                                  prepared.value().initial,
                                  ExploreOptions(options));
  if (!result.ok()) return Fail(result.status().ToString());
  if (!result.value().complete) return Skip("exploration budget exhausted");
  if (result.value().may_not_terminate) {
    return Fail("confluent-certified set has an execution cycle");
  }
  if (result.value().final_states.size() != 1) {
    return Fail("confluent-certified set reached " +
                std::to_string(result.value().final_states.size()) +
                " distinct final states");
  }
  return Pass();
}

OracleOutcome ObservableDeterminismSound(const GeneratedRuleSet& set,
                                         uint64_t data_seed,
                                         const OracleOptions& options) {
  auto prepared = Prepare(set, data_seed, options);
  if (!prepared.ok()) return Fail(prepared.status().ToString());
  const RuleCatalog& catalog = prepared.value().catalog;
  TerminationReport term = TerminationAnalyzer::Analyze(catalog.prelim());
  ObservableDeterminismReport verdict = ObservableDeterminismAnalyzer::Analyze(
      catalog.schema(), catalog.prelim(), catalog.priority(), {},
      term.guaranteed);
  if (!verdict.deterministic) return Skip("no determinism certificate");
  if (verdict.observable_rules.empty()) return Skip("no observable rules");
  auto result = Explorer::Explore(catalog, prepared.value().db,
                                  prepared.value().initial,
                                  ExploreOptions(options));
  if (!result.ok()) return Fail(result.status().ToString());
  if (!result.value().complete) return Skip("exploration budget exhausted");
  if (result.value().observable_streams.size() > 1) {
    return Fail("determinism-certified set produced " +
                std::to_string(result.value().observable_streams.size()) +
                " distinct observable streams");
  }
  return Pass();
}

OracleOutcome BackendEquivalence(const GeneratedRuleSet& set,
                                 uint64_t data_seed,
                                 const OracleOptions& options) {
  auto prepared = Prepare(set, data_seed, options);
  if (!prepared.ok()) return Fail(prepared.status().ToString());

  // Analysis: FullReportToJson must be bit-identical for every pool size.
  int original_threads = ThreadPool::Default().num_threads();
  std::string reference_json;
  std::string divergence;
  for (size_t i = 0; i < options.backend_thread_counts.size(); ++i) {
    ThreadPool::SetDefaultThreadCount(options.backend_thread_counts[i]);
    auto analyzer = Analyzer::Create(set.schema.get(), CloneRules(set.rules));
    if (!analyzer.ok()) {
      divergence = analyzer.status().ToString();
      break;
    }
    std::string json = FullReportToJson(analyzer.value().AnalyzeAll(8),
                                        analyzer.value().catalog());
    if (i == 0) {
      reference_json = std::move(json);
    } else if (json != reference_json) {
      divergence = "FullReportToJson differs between " +
                   std::to_string(options.backend_thread_counts[0]) + " and " +
                   std::to_string(options.backend_thread_counts[i]) +
                   " analysis threads";
      break;
    }
  }
  ThreadPool::SetDefaultThreadCount(original_threads);
  if (!divergence.empty()) return Fail(divergence);

  // Explorer: at every pool size, with and without dedup_subtrees, a run
  // must match the classic run of the same mode on the final-state set,
  // the observable streams, both verdicts, and the visit accounting —
  // UNCONDITIONALLY. Full enumeration runs the work-stealing engine, which
  // shares one atomic step budget and one interner; any bound trip aborts
  // the parallel attempt and reruns the classic walk, so even truncated
  // enumerations must be bit-identical. Dedup mode always runs the classic
  // walk, whose one subtree memo must serve every pool size alike.
  for (bool dedup : {false, true}) {
    ExplorerOptions classic_options = ExploreOptions(options);
    classic_options.dedup_subtrees = dedup;
    auto classic =
        Explorer::Explore(prepared.value().catalog, prepared.value().db,
                          prepared.value().initial, classic_options);
    if (!classic.ok()) return Fail(classic.status().ToString());
    for (int threads : options.backend_thread_counts) {
      ExplorerOptions threaded_options = classic_options;
      threaded_options.num_threads = threads;
      auto threaded = Explorer::Explore(
          prepared.value().catalog, prepared.value().db,
          prepared.value().initial, threaded_options);
      if (!threaded.ok()) return Fail(threaded.status().ToString());
      const ExplorationResult& t = threaded.value();
      const ExplorationResult& c = classic.value();
      std::string where =
          std::string(dedup ? "dedup-subtrees" : "work-stealing") +
          " explorer (num_threads=" + std::to_string(threads) +
          ") diverged from classic: ";
      if (t.complete != c.complete) return Fail(where + "completeness differs");
      if (t.final_states != c.final_states) {
        return Fail(where + "final-state sets differ");
      }
      if (t.observable_streams != c.observable_streams) {
        return Fail(where + "observable-stream sets differ");
      }
      if (t.may_not_terminate != c.may_not_terminate) {
        return Fail(where + "termination verdicts differ");
      }
      if (t.steps_taken != c.steps_taken) {
        return Fail(where + "step counts differ");
      }
      if (t.states_visited != c.states_visited) {
        return Fail(where + "visited-state counts differ");
      }
    }
  }
  return Pass();
}

OracleOutcome DeltaEquivalence(const GeneratedRuleSet& set,
                               uint64_t data_seed,
                               const OracleOptions& options) {
  auto prepared = Prepare(set, data_seed, options);
  if (!prepared.ok()) return Fail(prepared.status().ToString());

  // Full analysis report, rendered before any exploration and again after
  // the whole sweep: exploration under either backend must not perturb
  // analysis results (it shares the catalog, schema, and the databases'
  // mutable canonical-string caches).
  auto report_json = [&set]() -> Result<std::string> {
    auto analyzer = Analyzer::Create(set.schema.get(), CloneRules(set.rules));
    if (!analyzer.ok()) return analyzer.status();
    return FullReportToJson(analyzer.value().AnalyzeAll(8),
                            analyzer.value().catalog());
  };
  auto before = report_json();
  if (!before.ok()) return Fail(before.status().ToString());

  // Reference: the snapshot-copy backend, classic single-threaded mode.
  ExplorerOptions copy_options = ExploreOptions(options);
  copy_options.backend = ExplorerOptions::StateBackend::kSnapshotCopy;
  auto reference =
      Explorer::Explore(prepared.value().catalog, prepared.value().db,
                        prepared.value().initial, copy_options);
  if (!reference.ok()) return Fail(reference.status().ToString());

  // Sweep: the undo-log backend in classic mode (num_threads=0) and at
  // every work-stealing pool size. The parallel engine either completes
  // with a provably classic-identical enumeration or falls back to the
  // classic walk, so every leg of the sweep is compared unconditionally —
  // truncated runs included.
  std::vector<int> sweep = {0};
  sweep.insert(sweep.end(), options.backend_thread_counts.begin(),
               options.backend_thread_counts.end());
  for (int threads : sweep) {
    ExplorerOptions undo_options = ExploreOptions(options);
    undo_options.backend = ExplorerOptions::StateBackend::kUndoLog;
    undo_options.num_threads = threads;
    auto undo = Explorer::Explore(prepared.value().catalog,
                                  prepared.value().db,
                                  prepared.value().initial, undo_options);
    if (!undo.ok()) return Fail(undo.status().ToString());
    std::string where =
        "undo-log explorer (num_threads=" + std::to_string(threads) +
        ") diverged from snapshot-copy classic: ";
    if (undo.value().complete != reference.value().complete) {
      return Fail(where + "completeness differs");
    }
    if (undo.value().final_states != reference.value().final_states) {
      return Fail(where + "final-state sets differ");
    }
    if (undo.value().observable_streams !=
        reference.value().observable_streams) {
      return Fail(where + "observable-stream sets differ");
    }
    if (undo.value().may_not_terminate !=
        reference.value().may_not_terminate) {
      return Fail(where + "termination verdicts differ");
    }
    // Equal counts mean the fingerprint equivalence classes match the
    // canonical-string classes exactly; the shared interner keeps the
    // count pool-size-invariant, so the check covers every leg.
    if (undo.value().states_visited != reference.value().states_visited) {
      return Fail(where + "visited-state counts differ");
    }
  }

  auto after = report_json();
  if (!after.ok()) return Fail(after.status().ToString());
  if (after.value() != before.value()) {
    return Fail(
        "FullReportToJson is not bit-identical before and after backend "
        "exploration");
  }
  return Pass();
}

/// Differential check of commutativity-guided partial-order reduction
/// (ExplorerOptions::por): the reduced exploration must reach exactly the
/// final states, observable streams, and may-not-terminate verdict of the
/// full enumeration — classic and at every parallel worker count. POR only
/// prunes paths, so a complete full enumeration implies a complete POR
/// enumeration; the converse budget trips are impossible by construction
/// and are treated as failures.
OracleOutcome PorEquivalence(const GeneratedRuleSet& set, uint64_t data_seed,
                             const OracleOptions& options) {
  auto prepared = Prepare(set, data_seed, options);
  if (!prepared.ok()) return Fail(prepared.status().ToString());

  ExplorerOptions full_options = ExploreOptions(options);
  full_options.por = ExplorerOptions::PorMode::kOff;
  auto full = Explorer::Explore(prepared.value().catalog, prepared.value().db,
                                prepared.value().initial, full_options);
  if (!full.ok()) return Fail(full.status().ToString());
  if (!full.value().complete) return Skip("exploration budget exhausted");

  ExplorerOptions por_options = full_options;
  por_options.por = ExplorerOptions::PorMode::kCommute;
  auto por = Explorer::Explore(prepared.value().catalog, prepared.value().db,
                               prepared.value().initial, por_options);
  if (!por.ok()) return Fail(por.status().ToString());
  if (!por.value().complete) {
    return Fail("POR exploration incomplete where the full enumeration is "
                "complete (reduction may only prune paths)");
  }
  if (por.value().final_states != full.value().final_states) {
    return Fail("POR changed the final-state set");
  }
  if (por.value().observable_streams != full.value().observable_streams) {
    return Fail("POR changed the observable-stream set");
  }
  if (por.value().may_not_terminate != full.value().may_not_terminate) {
    return Fail("POR changed the may-not-terminate verdict");
  }

  // The reduction must also commute with the work-stealing engine: every
  // worker count sees the same reduced tree. The classic POR walk was
  // complete, so the parallel run — which explores the identical reduced
  // tree under the same shared budget, or falls back to the classic walk —
  // must be complete too; incompleteness is a bug, not a skip.
  for (int threads : options.backend_thread_counts) {
    ExplorerOptions stealing_options = por_options;
    stealing_options.num_threads = threads;
    auto stealing = Explorer::Explore(prepared.value().catalog,
                                      prepared.value().db,
                                      prepared.value().initial,
                                      stealing_options);
    if (!stealing.ok()) return Fail(stealing.status().ToString());
    std::string where = "work-stealing POR explorer (num_threads=" +
                        std::to_string(threads) +
                        ") diverged from the full enumeration: ";
    if (!stealing.value().complete) {
      return Fail(where + "incomplete where the classic POR walk completed");
    }
    if (stealing.value().final_states != full.value().final_states) {
      return Fail(where + "final-state sets differ");
    }
    if (stealing.value().observable_streams !=
        full.value().observable_streams) {
      return Fail(where + "observable-stream sets differ");
    }
    if (stealing.value().may_not_terminate !=
        full.value().may_not_terminate) {
      return Fail(where + "termination verdicts differ");
    }
  }
  return Pass();
}

/// Field-for-field comparison of a reference and a production confluence
/// report. Returns an empty string on agreement, else the first mismatch.
std::string DiffConfluenceReports(const ConfluenceReport& want,
                                  const ConfluenceReport& got) {
  if (want.requirement_holds != got.requirement_holds ||
      want.confluent != got.confluent) {
    return "confluence verdict differs";
  }
  if (want.unordered_pairs_checked != got.unordered_pairs_checked) {
    return "unordered_pairs_checked differs: reference=" +
           std::to_string(want.unordered_pairs_checked) +
           " production=" + std::to_string(got.unordered_pairs_checked);
  }
  if (want.max_set_size != got.max_set_size) return "max_set_size differs";
  if (want.violations.size() != got.violations.size()) {
    return "violation counts differ: reference=" +
           std::to_string(want.violations.size()) +
           " production=" + std::to_string(got.violations.size());
  }
  for (size_t k = 0; k < want.violations.size(); ++k) {
    if (!(want.violations[k] == got.violations[k])) {
      return "violation " + std::to_string(k) + " differs";
    }
  }
  return "";
}

/// Lemma 6.1 with certifications applied, decided from the prelim sets
/// and the certified names — never from a CommutativityAnalyzer's rows.
bool ReferenceCommute(const PrelimAnalysis& prelim,
                      const CommutativityCertifications& certs, RuleIndex i,
                      RuleIndex j) {
  return CommutativityAnalyzer::SyntacticallyCommutePair(prelim, i, j) ||
         certs.Contains(prelim.rule(i).name, prelim.rule(j).name);
}

/// The reference for ConfluenceAnalyzer's scan: Definition 6.5 built for
/// every unordered pair of the sorted `members`, in (a, b) order, and all
/// of R1 × R2 checked with ReferenceCommute. No can-seed shortcut and no
/// closed-form counts; report and truncation semantics match production.
ConfluenceReport ReferenceConfluenceScan(
    const CommutativityAnalyzer& commutativity, const PriorityOrder& priority,
    const CommutativityCertifications& certs,
    const std::vector<RuleIndex>& members, bool termination_guaranteed,
    int max_violations) {
  const PrelimAnalysis& prelim = commutativity.prelim();
  ConfluenceAnalyzer fixpoint(commutativity, priority);
  std::vector<bool> member_mask(prelim.num_rules(), false);
  for (RuleIndex r : members) member_mask[r] = true;
  ConfluenceReport report;
  report.termination_guaranteed = termination_guaranteed;
  report.requirement_holds = true;
  auto violations_full = [&]() {
    return max_violations >= 0 &&
           static_cast<int>(report.violations.size()) >= max_violations;
  };
  for (size_t a = 0; a < members.size(); ++a) {
    for (size_t b = a + 1; b < members.size(); ++b) {
      RuleIndex ri = members[a];
      RuleIndex rj = members[b];
      if (!priority.Unordered(ri, rj)) continue;
      ++report.unordered_pairs_checked;
      auto [r1_set, r2_set] = fixpoint.BuildSetsWithin(ri, rj, member_mask);
      report.max_set_size =
          std::max({report.max_set_size, r1_set.size(), r2_set.size()});
      for (RuleIndex r1 : r1_set) {
        for (RuleIndex r2 : r2_set) {
          if (ReferenceCommute(prelim, certs, r1, r2)) continue;
          report.requirement_holds = false;
          if (violations_full()) continue;
          report.violations.push_back(
              {ri, rj, r1, r2, r1_set, r2_set,
               CommutativityAnalyzer::ExplainPair(prelim, r1, r2)});
        }
      }
      if (!report.requirement_holds && violations_full()) return report;
    }
  }
  report.confluent = report.requirement_holds && termination_guaranteed;
  return report;
}

/// The incremental analyzer against a from-scratch reference analysis
/// (reference_scan.h) at one violation cap: termination and confluence
/// reports field for field, and every pair's commutativity verdict.
/// Returns an empty string on agreement, else the mismatch.
std::string CompareFullVsIncremental(
    const Schema& schema, const std::vector<RuleDef>& current,
    const CommutativityCertifications& certs, IncrementalAnalyzer* inc,
    int max_violations) {
  Status full_status = Status::OK();
  auto prelim = PrelimAnalysis::Compute(schema, current);
  if (!prelim.ok()) full_status = prelim.status();
  std::optional<PriorityOrder> priority;
  if (full_status.ok()) {
    auto built = PriorityOrder::Build(prelim.value(), current);
    if (built.ok()) {
      priority = std::move(built).value();
    } else {
      full_status = built.status();
    }
  }
  auto run = inc->Analyze({}, max_violations);
  if (!full_status.ok() || !run.ok()) {
    // Rejected states (e.g. a dangling follows left by a removal) must be
    // rejected identically by both paths.
    if (full_status.ok() != run.ok()) {
      return "analyzability differs: full='" +
             (full_status.ok() ? std::string("ok") : full_status.ToString()) +
             "' incremental='" +
             (run.ok() ? std::string("ok") : run.status().ToString()) + "'";
    }
    if (full_status.ToString() != run.status().ToString()) {
      return "rejection differs: full='" + full_status.ToString() +
             "' incremental='" + run.status().ToString() + "'";
    }
    return "";
  }

  int n = prelim.value().num_rules();
  std::vector<RuleIndex> all(n);
  for (RuleIndex r = 0; r < n; ++r) all[r] = r;
  TerminationReport term = TerminationAnalyzer::Analyze(prelim.value());
  CommutativityAnalyzer commutativity(prelim.value(), schema, certs);
  ConfluenceReport conf =
      ReferenceConfluenceScan(commutativity, *priority, certs, all,
                              term.guaranteed, max_violations);

  const TerminationReport& iterm = run.value().termination;
  std::string where = " (max_violations=" + std::to_string(max_violations) +
                      ")";
  if (term.guaranteed != iterm.guaranteed ||
      term.acyclic != iterm.acyclic) {
    return "termination verdict differs" + where;
  }
  if (term.cycles.size() != iterm.cycles.size()) {
    return "cycle-report counts differ" + where;
  }
  for (size_t k = 0; k < term.cycles.size(); ++k) {
    if (term.cycles[k].rules != iterm.cycles[k].rules ||
        term.cycles[k].certified != iterm.cycles[k].certified ||
        term.cycles[k].discharged != iterm.cycles[k].discharged) {
      return "cycle report " + std::to_string(k) + " differs" + where;
    }
  }
  std::string diff = DiffConfluenceReports(conf, run.value().confluence);
  if (!diff.empty()) return diff + where;
  // Pair verdicts: valid only after a successful Analyze (dirty pairs were
  // just swept).
  for (RuleIndex i = 0; i < n; ++i) {
    for (RuleIndex j = i + 1; j < n; ++j) {
      if (ReferenceCommute(prelim.value(), certs, i, j) !=
          inc->PairCommutes(i, j)) {
        return "pair ('" + prelim.value().rule(i).name + "', '" +
               prelim.value().rule(j).name + "') commutativity differs" +
               where;
      }
    }
  }
  return "";
}

/// ConfluenceAnalyzer::AnalyzeSubset against the reference scan at caps
/// {-1, 0, 2}, on Sig(Obs) of the extended prelim (as observable
/// determinism runs it) and on a seeded random subset. Rejected rule sets
/// are the incremental leg's concern.
std::string CompareSubsetScans(const Schema& schema,
                               const std::vector<RuleDef>& current,
                               const CommutativityCertifications& certs,
                               SplitMix64* rng) {
  auto prelim = PrelimAnalysis::Compute(schema, current);
  if (!prelim.ok()) return "";
  auto priority = PriorityOrder::Build(prelim.value(), current);
  if (!priority.ok()) return "";
  TableId obs = schema.num_tables();
  PrelimAnalysis extended = prelim.value().ExtendWithObservableTable(obs);
  CommutativityAnalyzer with_obs(extended, schema, certs);
  CommutativityAnalyzer plain(prelim.value(), schema, certs);
  std::vector<RuleIndex> subset;
  for (RuleIndex r = 0; r < prelim.value().num_rules(); ++r) {
    if (rng->Below(2) == 0) subset.push_back(r);
  }
  std::pair<const CommutativityAnalyzer*, std::vector<RuleIndex>> legs[] = {
      {&with_obs, PartialConfluenceAnalyzer(with_obs, priority.value())
                      .SignificantRules({obs})},
      {&plain, subset}};
  for (const auto& [commutativity, members] : legs) {
    ConfluenceAnalyzer production(*commutativity, priority.value());
    for (int cap : {-1, 0, 2}) {
      std::string diff = DiffConfluenceReports(
          ReferenceConfluenceScan(*commutativity, priority.value(), certs,
                                  members, true, cap),
          production.AnalyzeSubset(members, true, cap));
      if (!diff.empty()) {
        return (commutativity == &plain ? "random subset: " : "Sig(Obs): ") +
               diff + " (max_violations=" + std::to_string(cap) + ")";
      }
    }
  }
  return "";
}

/// In-place certification against a fresh build: an Analyzer that has
/// already analyzed, then certifies seeded pairs one at a time and finally
/// runs ApplyAutoRefinement, must report byte for byte what an Analyzer
/// given the same certifications before its first analysis reports.
std::string CompareCertifyInPlace(const Schema& schema,
                                  const std::vector<RuleDef>& current,
                                  SplitMix64* rng) {
  auto warm = Analyzer::Create(&schema, CloneRules(current));
  if (!warm.ok() || warm.value().catalog().num_rules() == 0) return "";
  const RuleCatalog& catalog = warm.value().catalog();
  auto name = [&](RuleIndex r) { return catalog.rule(r).name; };
  std::vector<ConfluenceViolation> violations =
      warm.value().AnalyzeAll().confluence.violations;
  std::vector<std::pair<std::string, std::string>> pairs;
  if (!violations.empty()) {
    const ConfluenceViolation& v =
        violations[rng->Below(static_cast<int>(violations.size()))];
    pairs.emplace_back(name(v.r1), name(v.r2));
  }
  pairs.emplace_back(name(rng->Below(catalog.num_rules())),
                     name(rng->Below(catalog.num_rules())));
  // Step k < |pairs| certifies pairs[k]; the last step auto-refines.
  for (size_t k = 0; k <= pairs.size(); ++k) {
    Analyzer fresh =
        Analyzer::Create(&schema, CloneRules(current)).value();
    for (size_t c = 0; c <= k && c < pairs.size(); ++c) {
      fresh.CertifyCommute(pairs[c].first, pairs[c].second);
    }
    if (k < pairs.size()) {
      warm.value().CertifyCommute(pairs[k].first, pairs[k].second);
    } else if (warm.value().ApplyAutoRefinement() !=
               fresh.ApplyAutoRefinement()) {
      return "auto-refinement counts differ";
    }
    for (int cap : {-1, 2}) {
      if (FullReportToJson(warm.value().AnalyzeAll(cap), catalog) !=
          FullReportToJson(fresh.AnalyzeAll(cap), fresh.catalog())) {
        return "report after in-place certification step " +
               std::to_string(k) + " differs from a fresh build" +
               " (max_violations=" + std::to_string(cap) + ")";
      }
    }
  }
  return "";
}

/// Full-vs-incremental equivalence across a seeded edit sequence: register
/// every rule one at a time (with one seeded commutativity certification),
/// then apply removes / re-adds / redefinitions drawn from data_seed. After
/// every edit the incremental analyzer is compared against the reference
/// scan (at an unlimited and a truncated violation cap, pinning the
/// truncation semantics too), AnalyzeSubset against the reference on its
/// member sets, and in-place certification against a fresh build.
OracleOutcome IncrementalEquivalence(const GeneratedRuleSet& set,
                                     uint64_t data_seed) {
  if (set.rules.empty()) return Skip("no rules");
  const Schema& schema = *set.schema;
  // The legs draw from their own stream so the edit sequence below depends
  // on data_seed alone.
  SplitMix64 leg_rng(data_seed ^ 0x5eb5e7ce27ULL);
  CommutativityCertifications certs;
  int num_rules = static_cast<int>(set.rules.size());
  certs.Certify(set.rules[leg_rng.Below(num_rules)].name,
                set.rules[leg_rng.Below(num_rules)].name);
  IncrementalAnalyzer inc(set.schema.get(), certs);
  std::vector<RuleDef> current;  // mirrors inc's registration order
  for (const RuleDef& rule : set.rules) {
    Status st = inc.AddRule(rule.Clone());
    if (!st.ok()) {
      // Incremental registration requires priority references to point
      // backwards; hand-written sets may order rules otherwise.
      if (st.message().find("unknown rule") != std::string::npos) {
        return Skip("not incrementally registrable: " + st.ToString());
      }
      return Fail("AddRule rejected a valid rule: " + st.ToString());
    }
    current.push_back(rule.Clone());
  }

  SplitMix64 rng(data_seed ^ 0x19c53a11edULL);
  std::vector<RuleDef> removed_pool;
  auto compare_all = [&]() -> std::string {
    for (int cap : {-1, 2}) {
      std::string mismatch =
          CompareFullVsIncremental(schema, current, certs, &inc, cap);
      if (!mismatch.empty()) return mismatch;
    }
    if (inc.num_rules() != static_cast<int>(current.size())) {
      return "rule counts diverged";
    }
    std::string mismatch = CompareSubsetScans(schema, current, certs, &leg_rng);
    if (!mismatch.empty()) return mismatch;
    return CompareCertifyInPlace(schema, current, &leg_rng);
  };
  std::string mismatch = compare_all();
  if (!mismatch.empty()) return Fail("after initial build: " + mismatch);

  // Enough edits that typical 2-4-rule sets cross the incremental
  // analyzer's tombstone compaction more than once, with analyses both
  // before and after each crossing.
  constexpr int kEdits = 12;
  for (int e = 0; e < kEdits; ++e) {
    int kind = rng.Below(3);
    std::string step;
    if (kind == 0 && !current.empty()) {
      // Remove a random rule (other rules' references to it go dangling —
      // both analyses must then reject identically).
      int victim = rng.Below(static_cast<int>(current.size()));
      step = "remove '" + current[victim].name + "'";
      Status st = inc.RemoveRule(current[victim].name);
      if (!st.ok()) return Fail(step + " failed: " + st.ToString());
      removed_pool.push_back(std::move(current[victim]));
      current.erase(current.begin() + victim);
    } else if (kind == 1 && !removed_pool.empty()) {
      // Re-add a removed rule (same name, same body).
      RuleDef rule = std::move(removed_pool.back());
      removed_pool.pop_back();
      step = "re-add '" + rule.name + "'";
      Status st = inc.AddRule(rule.Clone());
      // May legitimately fail (its own references may now dangle); the
      // state is unchanged then and stays comparable.
      if (st.ok()) current.push_back(std::move(rule));
    } else if (!current.empty()) {
      // Redefine: same name, body borrowed from another rule — stale pair
      // verdicts for the old definition must not survive.
      int victim = rng.Below(static_cast<int>(current.size()));
      int donor = rng.Below(static_cast<int>(current.size()));
      RuleDef redefined = current[donor].Clone();
      redefined.name = current[victim].name;
      redefined.precedes.clear();
      redefined.follows.clear();
      step = "redefine '" + redefined.name + "'";
      Status st = inc.RemoveRule(redefined.name);
      if (!st.ok()) return Fail(step + " failed: " + st.ToString());
      current.erase(current.begin() + victim);
      st = inc.AddRule(redefined.Clone());
      if (!st.ok()) return Fail(step + " re-add failed: " + st.ToString());
      current.push_back(std::move(redefined));
    } else {
      continue;
    }
    mismatch = compare_all();
    if (!mismatch.empty()) return Fail("after " + step + ": " + mismatch);
  }
  return Pass();
}

OracleOutcome RoundTrip(const GeneratedRuleSet& set) {
  for (const RuleDef& rule : set.rules) {
    std::string text = RuleToString(rule);
    auto parsed = Parser::ParseRule(text);
    if (!parsed.ok()) {
      return Fail("printed rule '" + rule.name +
                  "' does not reparse: " + parsed.status().ToString());
    }
    if (RuleToString(parsed.value()) != text) {
      return Fail("print->parse->print not a fixpoint for rule '" +
                  rule.name + "'");
    }
  }
  std::string script = RuleSetToScript(set);
  auto reloaded = ParseRuleSetScript(script);
  if (!reloaded.ok()) {
    return Fail("serialized script does not reload: " +
                reloaded.status().ToString());
  }
  if (RuleSetToScript(reloaded.value()) != script) {
    return Fail("script serialization not a fixpoint");
  }
  std::vector<RuleDef> rules = std::move(reloaded.value().rules);
  auto catalog =
      RuleCatalog::Build(reloaded.value().schema.get(), std::move(rules));
  if (!catalog.ok()) {
    return Fail("reloaded script does not compile: " +
                catalog.status().ToString());
  }
  return Pass();
}

/// Witness options mirroring the oracle's exploration budgets, so
/// reconstruction can afford exactly the walk the explorer could.
WitnessOptions WitnessOptionsFrom(const OracleOptions& options) {
  WitnessOptions wo;
  wo.max_depth = options.max_depth;
  wo.max_total_steps = options.max_total_steps;
  return wo;
}

/// The divergence-provenance contract: a divergent exploration (>= 2 final
/// states or observable streams) must produce a witness whose sequences
/// replay to exactly the divergent outcomes; a non-divergent one must
/// produce none. Runs with POR forced off so the verdict is independent of
/// the STARBURST_POR environment.
OracleOutcome WitnessReplay(const GeneratedRuleSet& set, uint64_t data_seed,
                            const OracleOptions& options) {
  auto prepared = Prepare(set, data_seed, options);
  if (!prepared.ok()) return Fail(prepared.status().ToString());
  const RuleCatalog& catalog = prepared.value().catalog;
  ExplorerOptions eo = ExploreOptions(options);
  eo.por = ExplorerOptions::PorMode::kOff;
  auto result = Explorer::Explore(catalog, prepared.value().db,
                                  prepared.value().initial, eo);
  if (!result.ok()) return Fail(result.status().ToString());
  if (!result.value().complete) return Skip("exploration budget exhausted");
  bool divergent = result.value().final_states.size() >= 2 ||
                   (result.value().streams_evaluated &&
                    result.value().observable_streams.size() >= 2);
  auto extraction =
      ExtractWitness(catalog, prepared.value().db, prepared.value().initial,
                     result.value(), WitnessOptionsFrom(options));
  if (!extraction.ok()) return Fail(extraction.status().ToString());
  switch (extraction.value().status) {
    case WitnessStatus::kNotEvaluated:
      return Skip("witness not evaluated: " + extraction.value().note);
    case WitnessStatus::kNone:
      if (divergent) {
        return Fail("divergent exploration produced no witness");
      }
      return Pass();
    case WitnessStatus::kFound: {
      if (!divergent) {
        return Fail("non-divergent exploration produced a witness");
      }
      auto replay =
          ReplayWitness(catalog, prepared.value().db,
                        prepared.value().initial, extraction.value().witness);
      if (!replay.ok()) return Fail(replay.status().ToString());
      if (!replay.value().ok) {
        return Fail("witness replay failed: " + replay.value().message);
      }
      return Pass();
    }
  }
  return Skip("unreachable");
}

}  // namespace

Result<OracleCase> PrepareOracleCase(const GeneratedRuleSet& set,
                                     uint64_t data_seed,
                                     const OracleOptions& options) {
  auto catalog = RuleCatalog::Build(set.schema.get(), CloneRules(set.rules));
  if (!catalog.ok()) return catalog.status();

  Database db(set.schema.get());
  STARBURST_RETURN_IF_ERROR(
      PopulateRandomDatabase(&db, options.rows_per_table, data_seed));

  OracleCase prepared(std::move(catalog).value(), std::move(db));
  const Schema& schema = *set.schema;
  SplitMix64 rng(data_seed ^ 0xf022c45eedULL);
  for (TableId t = 0; t < schema.num_tables(); ++t) {
    Tuple tuple(schema.table(t).num_columns(),
                Value::Int(static_cast<int64_t>(rng.Below(4))));
    auto rid = prepared.db.storage(t).Insert(tuple);
    if (!rid.ok()) return rid.status();
    STARBURST_RETURN_IF_ERROR(
        prepared.initial.ForTable(t).ApplyInsert(rid.value(), tuple));
  }
  if (schema.num_tables() > 0) {
    TableId updated = static_cast<TableId>(data_seed % schema.num_tables());
    TableStorage& storage = prepared.db.storage(updated);
    int64_t value = static_cast<int64_t>(rng.Below(4));
    std::vector<std::pair<Rid, Tuple>> updates;
    for (const auto& [rid, tuple] : storage.rows()) {
      Tuple next = tuple;
      next[0] = Value::Int(value);
      if (!(next[0] == tuple[0])) updates.emplace_back(rid, std::move(next));
    }
    for (auto& [rid, next] : updates) {
      Tuple old_tuple = *storage.Get(rid);
      STARBURST_RETURN_IF_ERROR(storage.Update(rid, next));
      STARBURST_RETURN_IF_ERROR(prepared.initial.ForTable(updated).ApplyUpdate(
          rid, std::move(old_tuple), std::move(next)));
    }

    TableId deleted =
        static_cast<TableId>((data_seed / 3) % schema.num_tables());
    TableStorage& del_storage = prepared.db.storage(deleted);
    if (!del_storage.rows().empty()) {
      Rid victim = del_storage.rows().begin()->first;
      Tuple old_tuple = *del_storage.Get(victim);
      STARBURST_RETURN_IF_ERROR(del_storage.Delete(victim));
      STARBURST_RETURN_IF_ERROR(
          prepared.initial.ForTable(deleted).ApplyDelete(victim,
                                                         std::move(old_tuple)));
    }
  }
  return prepared;
}

Result<WitnessExtraction> ExtractWitnessForCase(const GeneratedRuleSet& set,
                                                uint64_t data_seed,
                                                const OracleOptions& options) {
  STARBURST_ASSIGN_OR_RETURN(OracleCase prepared,
                             PrepareOracleCase(set, data_seed, options));
  ExplorerOptions eo = ExploreOptions(options);
  eo.por = ExplorerOptions::PorMode::kOff;
  STARBURST_ASSIGN_OR_RETURN(
      ExplorationResult result,
      Explorer::Explore(prepared.catalog, prepared.db, prepared.initial, eo));
  if (!result.complete) {
    WitnessExtraction extraction;
    extraction.status = WitnessStatus::kNotEvaluated;
    extraction.note = "exploration budget exhausted";
    return extraction;
  }
  return ExtractWitness(prepared.catalog, prepared.db, prepared.initial,
                        result, WitnessOptionsFrom(options));
}

Result<std::string> WitnessJsonForCase(const GeneratedRuleSet& set,
                                       uint64_t data_seed,
                                       const OracleOptions& options) {
  STARBURST_ASSIGN_OR_RETURN(OracleCase prepared,
                             PrepareOracleCase(set, data_seed, options));
  ExplorerOptions eo = ExploreOptions(options);
  eo.por = ExplorerOptions::PorMode::kOff;
  STARBURST_ASSIGN_OR_RETURN(
      ExplorationResult result,
      Explorer::Explore(prepared.catalog, prepared.db, prepared.initial, eo));
  WitnessExtraction extraction;
  if (!result.complete) {
    extraction.status = WitnessStatus::kNotEvaluated;
    extraction.note = "exploration budget exhausted";
  } else {
    STARBURST_ASSIGN_OR_RETURN(
        extraction,
        ExtractWitness(prepared.catalog, prepared.db, prepared.initial,
                       result, WitnessOptionsFrom(options)));
  }
  return WitnessExtractionToJson(extraction, prepared.catalog);
}

const char* OracleName(OracleId id) {
  return kOracleNames[static_cast<int>(id)];
}

std::optional<OracleId> ParseOracleName(const std::string& name) {
  for (int i = 0; i < kNumOracles; ++i) {
    if (name == kOracleNames[i]) return static_cast<OracleId>(i);
  }
  return std::nullopt;
}

std::vector<OracleId> AllOracles() {
  std::vector<OracleId> all;
  all.reserve(kNumOracles);
  for (int i = 0; i < kNumOracles; ++i) all.push_back(static_cast<OracleId>(i));
  return all;
}

OracleOutcome RunOracle(OracleId id, const GeneratedRuleSet& set,
                        uint64_t data_seed, const OracleOptions& options) {
  switch (id) {
    case OracleId::kTerminationSound:
      return TerminationSound(set, data_seed, options);
    case OracleId::kConfluenceSound:
      return ConfluenceSound(set, data_seed, options);
    case OracleId::kObservableDeterminismSound:
      return ObservableDeterminismSound(set, data_seed, options);
    case OracleId::kBackendEquivalence:
      return BackendEquivalence(set, data_seed, options);
    case OracleId::kRoundTrip:
      return RoundTrip(set);
    case OracleId::kDeltaEquivalence:
      return DeltaEquivalence(set, data_seed, options);
    case OracleId::kPorEquivalence:
      return PorEquivalence(set, data_seed, options);
    case OracleId::kIncrementalEquivalence:
      return IncrementalEquivalence(set, data_seed);
    case OracleId::kWitnessReplay:
      return WitnessReplay(set, data_seed, options);
  }
  return Skip("unknown oracle");
}

std::string RuleSetToScript(const GeneratedRuleSet& set) {
  std::string out = DumpSchema(*set.schema);
  for (const RuleDef& rule : set.rules) {
    out += "\n";
    out += RuleToString(rule);
    out += ";\n";
  }
  return out;
}

Result<GeneratedRuleSet> ParseRuleSetScript(const std::string& source) {
  auto script = Parser::ParseScript(source);
  if (!script.ok()) return script.status();
  GeneratedRuleSet set;
  set.schema = std::make_unique<Schema>();
  for (const StmtPtr& stmt : script.value().statements) {
    if (stmt->kind != StmtKind::kCreateTable) {
      return Status::InvalidArgument(
          "rule-set script may only contain create table / create rule "
          "statements");
    }
    auto added = set.schema->AddTable(stmt->table, stmt->create_columns);
    if (!added.ok()) return added.status();
  }
  set.rules = std::move(script.value().rules);
  return set;
}

std::vector<ReplayFailure> ReplayAllOracles(
    const GeneratedRuleSet& set, const std::vector<uint64_t>& data_seeds,
    const OracleOptions& options) {
  std::vector<ReplayFailure> failures;
  for (OracleId id : AllOracles()) {
    for (uint64_t data_seed : data_seeds) {
      OracleOutcome outcome = RunOracle(id, set, data_seed, options);
      if (outcome.failed()) {
        failures.push_back({id, data_seed, outcome.message});
      }
      // kRoundTrip ignores the data seed; once is enough.
      if (id == OracleId::kRoundTrip) break;
    }
  }
  return failures;
}

}  // namespace fuzzing
}  // namespace starburst
