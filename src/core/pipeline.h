/// \file pipeline.h
/// \brief The AutoComp OODA pipeline: observe → orient → decide → act,
/// with optional filters between phases and a feedback loop (Figure 4).

#pragma once

#include <memory>
#include <string>
#include <vector>

#include "catalog/catalog.h"
#include "common/clock.h"
#include "core/act.h"
#include "core/candidate.h"
#include "core/filters.h"
#include "core/observe.h"
#include "core/ranking.h"
#include "core/traits.h"
#include "obs/trace.h"

namespace autocomp::core {

/// \brief Feedback record comparing the decide phase's estimates with the
/// act phase's measured outcome (feeds the §7 estimator-accuracy
/// analysis and the feedback loop of Figure 4).
struct FeedbackEntry {
  std::string candidate_id;
  double estimated_file_reduction = 0;
  double actual_file_reduction = 0;
  double estimated_gb_hours = 0;
  double actual_gb_hours = 0;
};

/// \brief Real (wall-clock) time spent in each OODA phase of one run —
/// profiling the control loop itself, so measured with the host clock,
/// not the simulated one.
struct PipelinePhaseTimings {
  double generate_ms = 0;
  double observe_ms = 0;
  double orient_ms = 0;
  double decide_ms = 0;
  double act_ms = 0;
  double total_ms() const {
    return generate_ms + observe_ms + orient_ms + decide_ms + act_ms;
  }
};

/// \brief Everything one pipeline run produced, per phase.
struct PipelineRunReport {
  SimTime started_at = 0;
  int64_t candidates_generated = 0;
  int64_t dropped_pre_orient = 0;
  int64_t dropped_post_orient = 0;
  /// Decide output (full ranking, before selection). Only the report a
  /// run returns carries it; AutoCompService::history() entries leave it
  /// empty.
  std::vector<ScoredCandidate> ranked;
  /// The selected work list handed to the act phase.
  std::vector<ScoredCandidate> selected;
  /// Act output.
  std::vector<ScheduledCompaction> executed;
  /// Feedback loop output.
  std::vector<FeedbackEntry> feedback;
  /// Control-loop profiling: wall-clock per phase.
  PipelinePhaseTimings timings;
  /// Incremental stats-index traffic this run generated (0/0 for the
  /// plain rescan collector). A fallback is a candidate the index could
  /// not serve at the pinned metadata version (rescan path taken).
  int64_t stats_index_hits = 0;
  int64_t stats_index_fallbacks = 0;

  int64_t committed_count() const;
  int64_t conflict_count() const;
  /// Net live-file reduction across committed units.
  int64_t files_reduced() const;
  int64_t bytes_rewritten() const;
  double actual_gb_hours() const;
};

/// \brief Composable OODA pipeline (NFR1: stages mix and match as long as
/// the data exchanged keeps the standard structure).
class AutoCompPipeline {
 public:
  struct Stages {
    std::shared_ptr<const CandidateGenerator> generator;
    std::shared_ptr<const StatsCollector> collector;
    /// Filters applied between observe and orient.
    std::vector<std::shared_ptr<const CandidateFilter>> pre_orient_filters;
    std::vector<std::shared_ptr<const Trait>> traits;
    /// Filters applied between orient and decide.
    std::vector<std::shared_ptr<const CandidateFilter>> post_orient_filters;
    std::shared_ptr<const Ranker> ranker;
    std::shared_ptr<const Selector> selector;
    std::shared_ptr<ActExecutor> executor;
    /// Data-movement axis (core/policy.h) of every rewrite this service
    /// decides — the one home both act modes read: the executor gets it
    /// with each plan, and the deferred sim::EventDriver reads it here. A
    /// parsable TablePolicy::compaction_policy overrides it per table
    /// (RequestFor).
    engine::RewriteMovement movement = engine::RewriteMovement::kPartial;
    /// When non-null, every run records an "ooda.run" envelope span with
    /// nested phase spans (kPhases) and per-candidate ranking / winner
    /// decision instants (kDecisions). Not owned; must outlive the
    /// pipeline. Payloads are pure functions of simulated state — the
    /// wall-clock phase timings stay in PipelinePhaseTimings only.
    obs::TraceRecorder* trace = nullptr;
    /// Canonical PolicySpec string of the policy these stages realize,
    /// when it differs from the default (core/policy.h). Presets leave
    /// this empty for the default policy so traces — including the
    /// pinned golden trace — are byte-identical to the
    /// pre-decomposition pipeline; a non-empty label adds one
    /// "decide.policy" instant per decide phase at kDecisions.
    std::string policy_label;
  };

  AutoCompPipeline(Stages stages, catalog::Catalog* catalog,
                   const Clock* clock);

  /// Runs one full OODA cycle at the current time. Dry runs (executor ==
  /// nullptr) stop after decide and leave `executed` empty.
  Result<PipelineRunReport> RunOnce();

  /// Runs observe+orient+decide for an externally supplied candidate pool
  /// (used by the optimize-after-write hook, which already knows which
  /// table changed).
  Result<PipelineRunReport> RunForCandidates(std::vector<Candidate> pool);

  const Stages& stages() const { return stages_; }

 private:
  Result<PipelineRunReport> Run(std::vector<Candidate> pool,
                                double generate_ms);

  Stages stages_;
  catalog::Catalog* catalog_;
  const Clock* clock_;
};

}  // namespace autocomp::core
