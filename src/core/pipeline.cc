#include "core/pipeline.h"

#include <cassert>
#include <chrono>
#include <cstdio>
#include <utility>

namespace autocomp::core {

namespace {

using WallClock = std::chrono::steady_clock;

double MsSince(WallClock::time_point start) {
  return std::chrono::duration<double, std::milli>(WallClock::now() - start)
      .count();
}

/// Shortest-round-trip double formatting for trace details (deterministic
/// across runs; std::to_string's fixed-6 would alias close scores).
std::string FmtDouble(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace

int64_t PipelineRunReport::committed_count() const {
  int64_t n = 0;
  for (const ScheduledCompaction& unit : executed) {
    if (unit.result.committed) ++n;
  }
  return n;
}

int64_t PipelineRunReport::conflict_count() const {
  int64_t n = 0;
  for (const ScheduledCompaction& unit : executed) {
    if (unit.result.conflict) ++n;
  }
  return n;
}

int64_t PipelineRunReport::files_reduced() const {
  int64_t n = 0;
  for (const ScheduledCompaction& unit : executed) {
    if (unit.result.committed) {
      n += unit.result.files_rewritten - unit.result.files_produced;
    }
  }
  return n;
}

int64_t PipelineRunReport::bytes_rewritten() const {
  int64_t n = 0;
  for (const ScheduledCompaction& unit : executed) {
    if (unit.result.committed) n += unit.result.bytes_rewritten;
  }
  return n;
}

double PipelineRunReport::actual_gb_hours() const {
  double n = 0;
  for (const ScheduledCompaction& unit : executed) {
    if (unit.result.attempted) n += unit.result.gb_hours;
  }
  return n;
}

AutoCompPipeline::AutoCompPipeline(Stages stages, catalog::Catalog* catalog,
                                   const Clock* clock)
    : stages_(std::move(stages)), catalog_(catalog), clock_(clock) {
  assert(catalog_ != nullptr && clock_ != nullptr);
  assert(stages_.generator != nullptr);
  assert(stages_.collector != nullptr);
  assert(stages_.ranker != nullptr);
  assert(stages_.selector != nullptr);
}

Result<PipelineRunReport> AutoCompPipeline::RunOnce() {
  const WallClock::time_point start = WallClock::now();
  obs::TraceRecorder* trace = stages_.trace;
  uint64_t gen_span = 0;
  if (trace != nullptr && trace->enabled(obs::TraceLevel::kPhases)) {
    gen_span = trace->BeginSpan(obs::TraceLevel::kPhases,
                                obs::SpanCategory::kPhase, "phase.generate",
                                clock_->Now());
  }
  AUTOCOMP_ASSIGN_OR_RETURN(std::vector<Candidate> pool,
                            stages_.generator->Generate(catalog_));
  if (gen_span != 0) {
    trace->EndSpan(gen_span, clock_->Now(),
                   static_cast<double>(pool.size()),
                   "candidates=" + std::to_string(pool.size()));
  }
  return Run(std::move(pool), MsSince(start));
}

Result<PipelineRunReport> AutoCompPipeline::RunForCandidates(
    std::vector<Candidate> pool) {
  return Run(std::move(pool), 0);
}

Result<PipelineRunReport> AutoCompPipeline::Run(std::vector<Candidate> pool,
                                                double generate_ms) {
  PipelineRunReport report;
  report.started_at = clock_->Now();
  report.candidates_generated = static_cast<int64_t>(pool.size());
  report.timings.generate_ms = generate_ms;

  obs::TraceRecorder* trace = stages_.trace;
  const bool trace_phases =
      trace != nullptr && trace->enabled(obs::TraceLevel::kPhases);
  uint64_t run_span = 0;
  if (trace_phases) {
    run_span = trace->BeginSpan(
        obs::TraceLevel::kPhases, obs::SpanCategory::kPhase, "ooda.run",
        report.started_at,
        "candidates=" + std::to_string(report.candidates_generated));
  }

  // --- Observe: collect the standardized statistics.
  const int64_t index_hits_before = stages_.collector->index_hits();
  const int64_t index_fallbacks_before = stages_.collector->index_fallbacks();
  WallClock::time_point phase_start = WallClock::now();
  uint64_t phase_span = 0;
  if (trace_phases) {
    phase_span = trace->BeginSpan(obs::TraceLevel::kPhases,
                                  obs::SpanCategory::kPhase, "phase.observe",
                                  report.started_at);
  }
  AUTOCOMP_ASSIGN_OR_RETURN(std::vector<ObservedCandidate> observed,
                            stages_.collector->CollectAll(pool));
  report.timings.observe_ms = MsSince(phase_start);
  report.stats_index_hits = stages_.collector->index_hits() - index_hits_before;
  report.stats_index_fallbacks =
      stages_.collector->index_fallbacks() - index_fallbacks_before;
  if (phase_span != 0) {
    // The zero cache counters stay in the detail: the golden trace
    // digest hashes these bytes.
    trace->EndSpan(phase_span, report.started_at,
                   static_cast<double>(observed.size()),
                   "observed=" + std::to_string(observed.size()) +
                       ";cache_hits=0;cache_misses=0");
  }

  // --- Optional filters between observe and orient.
  observed = ApplyFilters(std::move(observed), stages_.pre_orient_filters,
                          report.started_at, &report.dropped_pre_orient);

  // --- Orient: compute traits (consumes the observed pool).
  phase_start = WallClock::now();
  if (trace_phases) {
    phase_span = trace->BeginSpan(obs::TraceLevel::kPhases,
                                  obs::SpanCategory::kPhase, "phase.orient",
                                  report.started_at);
  }
  std::vector<TraitedCandidate> traited =
      ComputeTraits(std::move(observed), stages_.traits);

  // --- Optional filters between orient and decide.
  if (!stages_.post_orient_filters.empty()) {
    std::vector<TraitedCandidate> kept;
    kept.reserve(traited.size());
    for (TraitedCandidate& tc : traited) {
      bool keep = true;
      for (const auto& filter : stages_.post_orient_filters) {
        if (!filter->ShouldKeep(tc.observed, report.started_at)) {
          keep = false;
          break;
        }
      }
      if (keep) {
        kept.push_back(std::move(tc));
      } else {
        ++report.dropped_post_orient;
      }
    }
    traited = std::move(kept);
  }
  report.timings.orient_ms = MsSince(phase_start);
  if (phase_span != 0) {
    trace->EndSpan(phase_span, report.started_at,
                   static_cast<double>(traited.size()),
                   "traited=" + std::to_string(traited.size()) +
                       ";dropped_post_orient=" +
                       std::to_string(report.dropped_post_orient));
  }

  // --- Decide: rank and select.
  phase_start = WallClock::now();
  if (trace_phases) {
    phase_span = trace->BeginSpan(obs::TraceLevel::kPhases,
                                  obs::SpanCategory::kPhase, "phase.decide",
                                  report.started_at);
  }
  report.ranked = stages_.ranker->Rank(std::move(traited));
  report.selected = stages_.selector->Select(report.ranked);
  report.timings.decide_ms = MsSince(phase_start);
  if (trace != nullptr && trace->enabled(obs::TraceLevel::kDecisions)) {
    // Non-default policies stamp each decide phase with their spec (the
    // per-policy decide span of the sweep bench). Gated on the label so
    // the default policy's trace — and the pinned golden digest — stay
    // byte-identical to the pre-decomposition pipeline.
    if (!stages_.policy_label.empty()) {
      trace->Instant(obs::TraceLevel::kDecisions, obs::SpanCategory::kDecision,
                     "decide.policy", report.started_at,
                     "spec=" + stages_.policy_label,
                     static_cast<double>(report.ranked.size()));
    }
    // The full ranking, in rank order, then every winner with the trait
    // vector that scored it — the decision-audit tests replay these
    // against the report's own ranked/selected lists.
    for (size_t i = 0; i < report.ranked.size(); ++i) {
      const ScoredCandidate& sc = report.ranked[i];
      trace->Instant(obs::TraceLevel::kDecisions, obs::SpanCategory::kDecision,
                     "decide.ranked", report.started_at,
                     "id=" + sc.candidate().id() +
                         ";rank=" + std::to_string(i),
                     sc.score);
    }
    for (const ScoredCandidate& sc : report.selected) {
      std::string detail = "id=" + sc.candidate().id();
      for (const auto& [trait, value] : sc.traited.traits) {
        detail += ";" + trait + "=" + FmtDouble(value);
      }
      trace->Instant(obs::TraceLevel::kDecisions, obs::SpanCategory::kDecision,
                     "decide.winner", report.started_at, std::move(detail),
                     sc.score);
    }
  }
  if (phase_span != 0) {
    trace->EndSpan(phase_span, report.started_at,
                   static_cast<double>(report.ranked.size()),
                   "ranked=" + std::to_string(report.ranked.size()) +
                       ";selected=" + std::to_string(report.selected.size()));
  }

  // --- Act.
  phase_start = WallClock::now();
  if (trace_phases) {
    phase_span = trace->BeginSpan(obs::TraceLevel::kPhases,
                                  obs::SpanCategory::kPhase, "phase.act",
                                  report.started_at);
  }
  if (stages_.executor != nullptr && !report.selected.empty()) {
    AUTOCOMP_ASSIGN_OR_RETURN(
        report.executed,
        stages_.executor->Execute(report.selected, stages_.movement,
                                  report.started_at));
  }
  report.timings.act_ms = MsSince(phase_start);
  if (phase_span != 0) {
    trace->EndSpan(phase_span, report.started_at,
                   static_cast<double>(report.executed.size()),
                   "executed=" + std::to_string(report.executed.size()));
  }

  // --- Feedback loop: estimates vs. measured outcome per executed unit.
  for (const ScheduledCompaction& unit : report.executed) {
    FeedbackEntry entry;
    entry.candidate_id = unit.candidate.id();
    for (const ScoredCandidate& sc : report.selected) {
      if (sc.candidate() == unit.candidate) {
        const auto& traits = sc.traited.traits;
        const auto reduction = traits.find("file_count_reduction");
        if (reduction != traits.end()) {
          entry.estimated_file_reduction = reduction->second;
        }
        const auto cost = traits.find("compute_cost_gbhr");
        if (cost != traits.end()) entry.estimated_gb_hours = cost->second;
        break;
      }
    }
    if (unit.result.committed) {
      entry.actual_file_reduction = static_cast<double>(
          unit.result.files_rewritten - unit.result.files_produced);
    }
    entry.actual_gb_hours = unit.result.gb_hours;
    report.feedback.push_back(std::move(entry));
  }
  if (run_span != 0) {
    trace->EndSpan(run_span, report.started_at,
                   static_cast<double>(report.committed_count()),
                   "ranked=" + std::to_string(report.ranked.size()) +
                       ";selected=" + std::to_string(report.selected.size()) +
                       ";committed=" + std::to_string(report.committed_count()));
  }
  return report;
}

}  // namespace autocomp::core
