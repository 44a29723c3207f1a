#include "analyst_workload.h"

#include <algorithm>
#include <chrono>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "analysis/analyzer.h"
#include "analysis/incremental.h"
#include "analysis/witness.h"
#include "common/thread_pool.h"
#include "inputs.h"
#include "reference_kernel.h"
#include "rules/explorer.h"
#include "span_log.h"

namespace perfbench {

using namespace starburst;

namespace {

/// The pool is pinned to one thread, so the analysis timings are
/// single-thread work; parallel speed is measured by the explorer alone,
/// at one worker per CPU of the 4-CPU host.
constexpr int kAnalystPoolThreads = 1;
constexpr int kParallelWorkers = 4;
constexpr int kSetups = 5;
/// Parallel passes of the untraced run: the parallel rate is a per-layer
/// metric of the traced run, so the untraced run makes only enough passes
/// to check their results.
constexpr int kCheckedParallelPasses = 3;
/// Shortest slice of an exploration pass between two runs of the
/// reference kernel.
constexpr double kExploreSliceMs = 25;
/// Violations reported per incremental Analyze(): the first screenful a
/// rule author reads. The clustered catalogs are not confluent by design,
/// so an unlimited report would mostly enumerate violations.
constexpr int kIncrementalMaxViolations = 8;

/// Repetitions per phase for one --seconds = 10 run. Single-thread
/// timings are medians of normalized slices (see NormalizedTimer); the
/// parallel explorer's is the fast quartile of raw passes.
struct Reps {
  int cold = 21;
  int certify = 21;
  int edit_batch = 10;  // edits timed together (one sample)
  int explore = 15;     // passes over the exploration family
  int parallel = 15;    // parallel passes (raw, so more of them)
  int witness = 15;
  int witness_batch = 4;  // passes timed together (one sample)
};

template <typename F>
double TimeMs(F&& fn) {
  const auto t0 = std::chrono::steady_clock::now();
  std::forward<F>(fn)();
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

std::vector<RuleDef> CloneRules(const std::vector<RuleDef>& rules) {
  std::vector<RuleDef> out;
  out.reserve(rules.size());
  for (const RuleDef& r : rules) out.push_back(r.Clone());
  return out;
}

ExplorerOptions BaseExplorerOptions() {
  ExplorerOptions o;
  o.max_depth = 64;
  o.max_total_steps = 400000;
  o.max_streams = 4096;
  // Pinned: never kDefault, which would follow STARBURST_POR.
  o.por = ExplorerOptions::PorMode::kOff;
  o.dedup_subtrees = false;
  o.num_threads = 0;
  return o;
}

/// Everything set-up builds and the timed phases use.
struct Context {
  AnalystInput input;
  std::unique_ptr<IncrementalAnalyzer> incremental;
  IncrementalAnalyzer::RunResult incremental_baseline;
  /// Serial full explorations from the warm-up pass: the reference every
  /// later exploration is checked against.
  std::vector<ExplorationResult> reference;
};

/// Rules added to the incremental analyzer per set-up slice.
constexpr size_t kSetUpRuleSlice = 1000;

/// Builds the context. Each step is its own normalized slice of `timer`
/// (a few tens of ms, so the kernel tracks the host through the whole
/// set-up); the sums of the slices, normalized and raw, are added to
/// `normalized_ms` and `raw_ms`.
Result<std::unique_ptr<Context>> SetUp(uint64_t seed, NormalizedTimer* timer,
                                       double* normalized_ms, double* raw_ms) {
  auto ctx = std::make_unique<Context>();
  Status status = Status::OK();
  timer->Rebase();
  // Each slice directly follows the previous one, whose closing kernel
  // run is its opening one.
  auto slice = [&](auto&& step) {
    if (!status.ok()) return;
    *normalized_ms += timer->Time([&] { status = step(); });
    *raw_ms += timer->raw_ms();
  };
  slice([&]() -> Status {
    STARBURST_ASSIGN_OR_RETURN(ctx->input, MakeAnalystInput(seed, {}));
    ctx->incremental = std::make_unique<IncrementalAnalyzer>(
        ctx->input.incremental.schema.get());
    return Status::OK();
  });
  const std::vector<RuleDef>& rules = ctx->input.incremental.rules;
  for (size_t start = 0; start < rules.size(); start += kSetUpRuleSlice) {
    slice([&]() -> Status {
      const size_t end = std::min(rules.size(), start + kSetUpRuleSlice);
      for (size_t i = start; i < end; ++i) {
        STARBURST_RETURN_IF_ERROR(ctx->incremental->AddRule(rules[i].Clone()));
      }
      return Status::OK();
    });
  }
  slice([&]() -> Status {
    STARBURST_ASSIGN_OR_RETURN(
        ctx->incremental_baseline,
        ctx->incremental->Analyze({}, kIncrementalMaxViolations));
    return Status::OK();
  });
  // Warm-up: one serial pass over the exploration family, in slices of
  // at least kExploreSliceMs.
  const ExplorerOptions options = BaseExplorerOptions();
  const auto& cases = ctx->input.explore;
  for (size_t i = 0; i < cases.size();) {
    slice([&]() -> Status {
      const auto t0 = std::chrono::steady_clock::now();
      do {
        const ExploreCase& c = *cases[i++];
        STARBURST_ASSIGN_OR_RETURN(
            ExplorationResult r,
            Explorer::Explore(c.catalog, c.db, c.initial, options));
        ctx->reference.push_back(std::move(r));
      } while (i < cases.size() &&
               std::chrono::duration<double, std::milli>(
                   std::chrono::steady_clock::now() - t0)
                       .count() < kExploreSliceMs);
      return Status::OK();
    });
    if (!status.ok()) break;
  }
  if (!status.ok()) return status;
  return ctx;
}

bool Diverges(const ExplorationResult& r) {
  return r.final_states.size() >= 2 || r.observable_streams.size() >= 2;
}

/// The samples and counters of one pass over every phase.
struct PhaseResults {
  /// Normalized single-thread timings (see NormalizedTimer), one per slice.
  std::vector<double> cold_ms, certify_ms, edit_ms, witness_ms;
  std::vector<double> serial_pass_ms, verdict_pass_ms;
  /// Raw parallel pass times: never normalized by the serial kernel.
  std::vector<double> parallel_pass_ms;
  /// Raw counterparts of the normalized timings, reported as context.
  std::vector<double> cold_raw, certify_raw, edit_raw, witness_raw,
      serial_raw, verdict_raw;
  long states = 0, steps = 0, interned = 0, interner_hits = 0;
  long por_pruned = 0, dedup_hits = 0, steals = 0, fallbacks = 0;
  long pairs_computed = 0, pairs_reused = 0;
  double wall_s = 0;
};

/// True when the kind of sample with `n` samples in `rounds` rounds takes
/// one in round `k`: the n samples are spread evenly over the rounds.
bool SampleInRound(int k, int n, int rounds) {
  return static_cast<long>(k + 1) * n / rounds >
         static_cast<long>(k) * n / rounds;
}

/// The analysis samples: cold Create + AnalyzeAll, a certification on the
/// analyzer that built, incremental edits. Each sample is one normalized
/// slice; the workload interleaves them with the exploration passes.
class AnalysisSamples {
 public:
  AnalysisSamples(Context* ctx, const Reps& reps, bool split_analysis,
                  SpanLog* log, PhaseResults* out, WorkloadResult* result)
      : ctx_(ctx),
        reps_(reps),
        split_analysis_(split_analysis),
        log_(log),
        out_(out),
        result_(result) {}

  /// Cold Create + AnalyzeAll on the clustered catalog; the analyzer is
  /// kept for the next Certify. With split_analysis (the traced run), the
  /// first call also makes the three analyses separately.
  void Cold() {
    const GeneratedRuleSet& cold = ctx_->input.cold;
    ScopedSpan phase(log_, "phase.cold", -1, 1);
    bool created_ok = true;
    timer_.Rebase();
    out_->cold_ms.push_back(timer_.Time([&] {
      std::vector<RuleDef> rules = CloneRules(cold.rules);
      std::optional<Result<Analyzer>> created;
      {
        ScopedSpan span(log_, "analysis.create", phase.id(), 1);
        created.emplace(Analyzer::Create(cold.schema.get(), std::move(rules)));
      }
      created_ok = created->ok();
      if (!created_ok) return;
      analyzer_.emplace(std::move(*created).value());
      ScopedSpan span(log_, "analysis.analyze_all", phase.id(), 1);
      report_ = analyzer_->AnalyzeAll();
    }));
    out_->cold_raw.push_back(timer_.raw_ms());
    result_->Check(created_ok && !report_.confluence.violations.empty(),
                   "cold analysis failed or reported nothing to certify");
    if (!created_ok) analyzer_.reset();
    if (!split_analysis_ || split_done_) return;
    split_done_ = true;
    // The three analyses made separately, on a fresh analyzer.
    Result<Analyzer> fresh =
        Analyzer::Create(cold.schema.get(), CloneRules(cold.rules));
    if (!fresh.ok()) return;
    {
      ScopedSpan span(log_, "analysis.termination", phase.id(), 1);
      (void)fresh.value().AnalyzeTermination();
    }
    {
      ScopedSpan span(log_, "analysis.confluence", phase.id(), 1);
      (void)fresh.value().AnalyzeConfluence();
    }
    ScopedSpan span(log_, "analysis.observable", phase.id(), 1);
    (void)fresh.value().AnalyzeObservableDeterminism();
  }

  /// Certifies one pair the last cold analysis reported (the k-th, round
  /// robin), then re-analyzes.
  void Certify(int k) {
    const std::vector<ConfluenceViolation>& violations =
        report_.confluence.violations;
    if (!analyzer_.has_value() || violations.empty()) return;
    ScopedSpan phase(log_, "phase.certify", -1, 2);
    const ConfluenceViolation& v =
        violations[static_cast<size_t>(k) % violations.size()];
    FullReport after;
    timer_.Rebase();
    out_->certify_ms.push_back(timer_.Time([&] {
      analyzer_->CertifyCommute(analyzer_->catalog().rule(v.r1).name,
                                analyzer_->catalog().rule(v.r2).name);
      {
        ScopedSpan span(log_, "analysis.commutativity", phase.id(), 2);
        (void)analyzer_->commutativity();
      }
      ScopedSpan span(log_, "analysis.analyze_all", phase.id(), 2);
      after = analyzer_->AnalyzeAll();
    }));
    out_->certify_raw.push_back(timer_.raw_ms());
    // Certifying a pair commutative can only remove violations.
    result_->Check(after.confluence.violations.size() <= violations.size(),
                   "certification added violations");
  }

  /// Number of edit batches in the input.
  int EditBatches() const {
    return static_cast<int>(ctx_->input.edits.size()) / reps_.edit_batch;
  }

  /// Edit batch `b`: reps.edit_batch edits, each removing one rule, adding
  /// it back and re-analyzing.
  void EditBatch(int b) {
    ScopedSpan phase(log_, "phase.edit", -1, 3);
    const AnalystInput& in = ctx_->input;
    IncrementalAnalyzer& inc = *ctx_->incremental;
    const IncrementalAnalyzer::RunResult& base = ctx_->incremental_baseline;
    const size_t batch = static_cast<size_t>(reps_.edit_batch);
    const size_t start = static_cast<size_t>(b) * batch;
    bool ok = true;
    timer_.Rebase();
    const double ms = timer_.Time([&] {
      for (size_t e = start; e < start + batch; ++e) {
        const RuleDef& rule =
            in.incremental.rules[static_cast<size_t>(in.edits[e])];
        Status removed = Status::OK();
        Status added = Status::OK();
        {
          ScopedSpan span(log_, "analysis.incremental_remove", phase.id(), 3);
          removed = inc.RemoveRule(rule.name);
        }
        {
          ScopedSpan span(log_, "analysis.incremental_add", phase.id(), 3);
          added = inc.AddRule(rule.Clone());
        }
        std::optional<Result<IncrementalAnalyzer::RunResult>> run;
        {
          ScopedSpan span(log_, "analysis.incremental_analyze", phase.id(), 3);
          run.emplace(inc.Analyze({}, kIncrementalMaxViolations));
        }
        ok = ok && removed.ok() && added.ok() && run->ok();
        if (!run->ok()) continue;
        const IncrementalAnalyzer::RunResult& r = run->value();
        out_->pairs_computed += r.stats.pair_checks_computed;
        out_->pairs_reused += r.stats.pair_checks_reused;
        // The same rule set again, so the same verdicts.
        ok = ok && r.termination.guaranteed == base.termination.guaranteed &&
             r.confluence.requirement_holds ==
                 base.confluence.requirement_holds &&
             r.confluence.violations.size() ==
                 base.confluence.violations.size();
      }
    });
    out_->edit_ms.push_back(ms / reps_.edit_batch);
    out_->edit_raw.push_back(timer_.raw_ms() / reps_.edit_batch);
    result_->Check(ok, "incremental edit changed the verdict or failed");
  }

 private:
  Context* ctx_;
  const Reps& reps_;
  bool split_analysis_;
  SpanLog* log_;
  PhaseResults* out_;
  WorkloadResult* result_;
  NormalizedTimer timer_;
  std::optional<Analyzer> analyzer_;
  FullReport report_;
  bool split_done_ = false;
};

/// One pass over the whole exploration family with `options(case)`: a
/// timed slice, normalized when `timer` is non-null. Appends the pass's
/// time in ms to `pass_ms` (and the raw time to `raw_ms`);
/// `check(case index, result)` validates each result.
template <typename Options, typename Check>
void ExplorePass(const Context& ctx, SpanLog* log, const char* phase_name,
                 int phase_id, NormalizedTimer* timer, Options options,
                 Check check, std::vector<double>* pass_ms,
                 std::vector<double>* raw_ms) {
  ScopedSpan phase(log, phase_name, -1, phase_id);
  const auto& cases = ctx.input.explore;
  std::vector<Result<ExplorationResult>> results;
  auto explore = [&](size_t i) {
    const ExploreCase& c = *cases[i];
    results.push_back(
        Explorer::Explore(c.catalog, c.db, c.initial, options(c)));
  };
  if (timer != nullptr) {
    // Normalized in slices of at least kExploreSliceMs, so the kernel
    // tracks the host's speed through the pass.
    timer->Rebase();
    double normalized = 0;
    double raw = 0;
    for (size_t i = 0; i < cases.size();) {
      normalized += timer->Time([&] {
        const auto t0 = std::chrono::steady_clock::now();
        do {
          explore(i++);
        } while (i < cases.size() &&
                 std::chrono::duration<double, std::milli>(
                     std::chrono::steady_clock::now() - t0)
                         .count() < kExploreSliceMs);
      });
      raw += timer->raw_ms();
    }
    pass_ms->push_back(normalized);
    raw_ms->push_back(raw);
  } else {
    pass_ms->push_back(TimeMs([&] {
      for (size_t i = 0; i < cases.size(); ++i) explore(i);
    }));
  }
  for (size_t i = 0; i < cases.size(); ++i) check(i, results[i]);
}

void RunPhases(Context* ctx, const Reps& reps, bool split_analysis,
               SpanLog* log, PhaseResults* out, WorkloadResult* result) {
  const auto wall0 = std::chrono::steady_clock::now();
  AnalysisSamples analysis(ctx, reps, split_analysis, log, out, result);
  const auto& cases = ctx->input.explore;
  // Serial and parallel: POR and dedup off, so the state count is fixed by
  // the input and the rate is pure engine speed. Both must reproduce the
  // reference's final states and observable streams exactly; counters are
  // taken from the first pass.
  auto same_as_reference = [&](bool parallel, bool first) {
    return [&, parallel, first](size_t i, const Result<ExplorationResult>& r) {
      const ExplorationResult& ref = ctx->reference[i];
      bool ok = r.ok() && r.value().complete &&
                r.value().final_states == ref.final_states &&
                r.value().observable_streams == ref.observable_streams &&
                (!cases[i]->expect_single_final ||
                 r.value().final_states.size() == 1);
      if (ok && first && parallel) {
        out->steals += r.value().stats.steals;
        out->fallbacks += r.value().stats.parallel_fallbacks;
      } else if (ok && first) {
        out->states += r.value().states_visited;
        out->steps += r.value().steps_taken;
        out->interned += r.value().stats.states_interned;
        out->interner_hits += r.value().stats.interner_hits;
      }
      result->Check(ok, (parallel ? "parallel" : "serial") +
                            std::string(" exploration differs on ") +
                            cases[i]->name);
    };
  };
  // Verdicts under production settings: POR on, dedup where the catalog
  // has no observable actions. They must match the full exploration's.
  auto same_verdict = [&](bool first) {
    return [&, first](size_t i, const Result<ExplorationResult>& r) {
      const ExplorationResult& ref = ctx->reference[i];
      bool ok = r.ok() && r.value().complete &&
                r.value().unique_final_state() == ref.unique_final_state() &&
                (!r.value().streams_evaluated ||
                 r.value().unique_observable_stream() ==
                     ref.unique_observable_stream());
      if (ok && first) {
        out->por_pruned += r.value().stats.por_pruned_orders;
        out->dedup_hits += r.value().stats.dedup_hits;
      }
      result->Check(ok, "verdict differs on " + cases[i]->name);
    };
  };
  auto serial_options = [](const ExploreCase&) {
    return BaseExplorerOptions();
  };
  auto parallel_options = [](const ExploreCase&) {
    ExplorerOptions o = BaseExplorerOptions();
    o.num_threads = kParallelWorkers;
    return o;
  };
  auto verdict_options = [](const ExploreCase& c) {
    ExplorerOptions o = BaseExplorerOptions();
    o.por = ExplorerOptions::PorMode::kCommute;
    o.dedup_subtrees = c.allows_dedup;
    return o;
  };
  // Witnesses for the divergent cases, each confirmed by replay; one
  // sample times reps.witness_batch passes.
  auto witness_pass = [&](int phase_id, std::vector<char>* ok) {
    for (size_t i = 0; i < cases.size(); ++i) {
      if (!Diverges(ctx->reference[i])) continue;
      const ExploreCase& c = *cases[i];
      std::optional<Result<WitnessExtraction>> extraction;
      {
        ScopedSpan span(log, "analysis.witness_extract", phase_id, 7);
        extraction.emplace(
            ExtractWitness(c.catalog, c.db, c.initial, ctx->reference[i]));
      }
      if (!extraction->ok() ||
          extraction->value().status != WitnessStatus::kFound) {
        (*ok)[i] = 0;
        continue;
      }
      std::optional<Result<WitnessReplay>> replay;
      {
        ScopedSpan span(log, "analysis.witness_replay", phase_id, 7);
        replay.emplace(ReplayWitness(c.catalog, c.db, c.initial,
                                     extraction->value().witness));
      }
      if (!replay->ok() || !replay->value().ok) (*ok)[i] = 0;
    }
  };
  NormalizedTimer witness_timer;
  auto witness_sample = [&] {
    ScopedSpan phase(log, "phase.witness", -1, 7);
    std::vector<char> ok(cases.size(), 1);
    witness_timer.Rebase();
    const double ms = witness_timer.Time([&] {
      for (int pass = 0; pass < reps.witness_batch; ++pass) {
        witness_pass(phase.id(), &ok);
      }
    });
    out->witness_ms.push_back(ms / reps.witness_batch);
    out->witness_raw.push_back(witness_timer.raw_ms() / reps.witness_batch);
    for (size_t i = 0; i < cases.size(); ++i) {
      if (Diverges(ctx->reference[i])) {
        result->Check(ok[i] != 0, "witness failed on " + cases[i]->name);
      }
    }
  };

  // Every kind of sample is spread evenly over the same rounds, so each
  // kind's samples — the parallel passes (raw, taken at their fast
  // quartile) above all — span the whole run rather than one stretch of
  // host load.
  NormalizedTimer serial_timer;
  NormalizedTimer verdict_timer;
  const int edit_batches = analysis.EditBatches();
  const int rounds = std::max({reps.cold, reps.certify, edit_batches,
                               reps.explore, reps.parallel, reps.witness});
  int next_edit = 0;
  for (int k = 0; k < rounds; ++k) {
    if (SampleInRound(k, reps.cold, rounds)) analysis.Cold();
    if (SampleInRound(k, reps.certify, rounds)) analysis.Certify(k);
    for (const int end = (k + 1) * edit_batches / rounds; next_edit < end;) {
      analysis.EditBatch(next_edit++);
    }
    if (SampleInRound(k, reps.explore, rounds)) {
      ExplorePass(*ctx, log, "phase.explore_serial", 4, &serial_timer,
                  serial_options,
                  same_as_reference(false, out->serial_pass_ms.empty()),
                  &out->serial_pass_ms, &out->serial_raw);
    }
    if (SampleInRound(k, reps.parallel, rounds)) {
      ExplorePass(*ctx, log, "phase.explore_parallel", 5, nullptr,
                  parallel_options,
                  same_as_reference(true, out->parallel_pass_ms.empty()),
                  &out->parallel_pass_ms, nullptr);
    }
    if (SampleInRound(k, reps.explore, rounds)) {
      ExplorePass(*ctx, log, "phase.verdict", 6, &verdict_timer,
                  verdict_options, same_verdict(out->verdict_pass_ms.empty()),
                  &out->verdict_pass_ms, &out->verdict_raw);
    }
    if (SampleInRound(k, reps.witness, rounds)) witness_sample();
  }
  out->wall_s = std::chrono::duration<double>(
                    std::chrono::steady_clock::now() - wall0)
                    .count();
}

}  // namespace

WorkloadResult RunAnalystLoop(const RunOptions& options) {
  WorkloadResult result;
  ThreadPool::SetDefaultThreadCount(kAnalystPoolThreads);
  Reps reps;
  const double scale = std::max(1, options.seconds) / 10.0;
  reps.cold = std::max(3, static_cast<int>(reps.cold * scale + 0.5));
  reps.certify = std::max(3, static_cast<int>(reps.certify * scale + 0.5));
  reps.explore = std::max(3, static_cast<int>(reps.explore * scale + 0.5));
  reps.parallel =
      options.trace
          ? std::max(3, static_cast<int>(reps.parallel * scale + 0.5))
          : kCheckedParallelPasses;

  // Set-up is single-thread work like the timed phases, and is
  // normalized the same way, step by step.
  std::vector<double> setup_s;
  std::vector<double> setup_raw_s;
  std::unique_ptr<Context> ctx;
  NormalizedTimer setup_timer;
  for (int k = 0; k < (options.trace ? 1 : kSetups); ++k) {
    ctx.reset();
    double normalized_ms = 0;
    double raw_ms = 0;
    Result<std::unique_ptr<Context>> built =
        SetUp(options.seed, &setup_timer, &normalized_ms, &raw_ms);
    setup_s.push_back(normalized_ms / 1000.0);
    setup_raw_s.push_back(raw_ms / 1000.0);
    if (!built.ok()) {
      result.Check(false, "set-up: " + built.status().ToString());
      return result;
    }
    ctx = std::move(built).value();
  }
  int divergent = 0;
  long family_states = 0;
  for (const ExplorationResult& r : ctx->reference) {
    divergent += Diverges(r);
    family_states += r.states_visited;
  }
  result.context.push_back("explore cases " +
                           std::to_string(ctx->reference.size()) +
                           ", divergent " + std::to_string(divergent));

  SpanLog off(false);
  PhaseResults plain;
  RunPhases(ctx.get(), reps, options.trace, &off, &plain, &result);
  if (!options.trace) {
    result.Add("setup_s", Median(setup_s), "s");
    result.context.push_back("raw setup_s " +
                             std::to_string(Median(setup_raw_s)));
    result.Add("peak_rss_mb", PeakRssMb(), "MB");
    const double states = static_cast<double>(family_states);
    result.Add("throughput_per_s",
               states / (Median(plain.serial_pass_ms) / 1000.0), "1/s");
    result.context.push_back("throughput_per_s is explore_states_per_s");
    // The single-thread timings of the analyst's loop; witness_ms, the
    // shortest, is a context line only.
    AddLatencySlots({{"analysis_cold_ms", Median(plain.cold_ms)},
                     {"analysis_certify_ms", Median(plain.certify_ms)},
                     {"analysis_edit_ms", Median(plain.edit_ms)},
                     {"explore_verdict_ms", Median(plain.verdict_pass_ms)}},
                    &result);
    result.context.push_back("witness_ms " +
                             std::to_string(Median(plain.witness_ms)));
    for (const auto& [name, raw] :
         std::vector<std::pair<const char*, const std::vector<double>*>>{
             {"analysis_cold_ms", &plain.cold_raw},
             {"analysis_certify_ms", &plain.certify_raw},
             {"analysis_edit_ms", &plain.edit_raw},
             {"explore_serial_pass_ms", &plain.serial_raw},
             {"explore_verdict_ms", &plain.verdict_raw},
             {"witness_ms", &plain.witness_raw}}) {
      result.context.push_back(std::string("raw ") + name + " " +
                               std::to_string(Median(*raw)));
    }
    return result;
  }

  // Traced run: the same phases again with spans; the wall-time
  // difference between the two passes is the tracing overhead.
  SpanLog log(true);
  PhaseResults traced;
  RunPhases(ctx.get(), reps, true, &log, &traced, &result);
  const double edits =
      static_cast<double>(traced.edit_ms.size()) * reps.edit_batch;
  LayerFigures figures;
  figures.analysis_pairs_computed = traced.pairs_computed / edits;
  figures.analysis_pairs_reused = traced.pairs_reused / edits;
  figures.analysis_pair_reuse_ratio =
      static_cast<double>(traced.pairs_reused) /
      std::max(1L, traced.pairs_computed + traced.pairs_reused);
  figures.explorer_states_visited = traced.states;
  figures.explorer_steps_taken = traced.steps;
  figures.explorer_interner_hit_rate =
      static_cast<double>(traced.interner_hits) /
      std::max(1L, traced.interner_hits + traced.interned);
  figures.explorer_por_pruned_orders = traced.por_pruned;
  figures.explorer_dedup_hits = traced.dedup_hits;
  figures.explorer_steals = traced.steals;
  figures.explorer_parallel_fallbacks = traced.fallbacks;
  figures.explorer_parallel_states_per_s =
      static_cast<double>(family_states) /
      (FastQuartileMs(traced.parallel_pass_ms) / 1000.0);
  // Both rates from raw pass times, so the ratio compares like with like.
  figures.explorer_parallel_efficiency =
      Median(traced.serial_raw) /
      (FastQuartileMs(traced.parallel_pass_ms) * kParallelWorkers);
  figures.trace_overhead_pct =
      100.0 * (traced.wall_s - plain.wall_s) / plain.wall_s;
  double root_us = 0;
  for (const SpanLog::Span& s : log.spans()) {
    if (s.parent < 0) {
      root_us += static_cast<double>(s.end_ns - s.start_ns) / 1e3;
    }
  }
  figures.trace_span_coverage_pct = 100.0 * root_us / (traced.wall_s * 1e6);
  AddLayerMetrics(log, figures, &result);
  return result;
}

}  // namespace perfbench
