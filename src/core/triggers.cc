#include "core/triggers.h"

#include <algorithm>
#include <cassert>
#include <utility>
#include <vector>

namespace autocomp::core {

OptimizeAfterWriteHook::OptimizeAfterWriteHook() : mode_(Mode::kNotify) {}

OptimizeAfterWriteHook::OptimizeAfterWriteHook(ImmediateStages stages)
    : mode_(Mode::kImmediate), stages_(std::move(stages)) {
  assert(stages_->collector != nullptr);
  assert(stages_->executor != nullptr);
}

Result<std::optional<ScheduledCompaction>> OptimizeAfterWriteHook::OnWrite(
    const std::string& table, const std::optional<std::string>& partition,
    SimTime now) {
  Candidate candidate;
  candidate.table = table;
  if (partition) {
    candidate.scope = CandidateScope::kPartition;
    candidate.partition = partition;
  } else {
    candidate.scope = CandidateScope::kTable;
  }

  if (mode_ == Mode::kNotify) {
    // Deduplicate: re-notifying an already-queued candidate is a no-op.
    const bool queued =
        std::any_of(queue_.begin(), queue_.end(),
                    [&](const Candidate& c) { return c == candidate; });
    if (!queued) queue_.push_back(std::move(candidate));
    return std::optional<ScheduledCompaction>();
  }

  // Immediate mode: observe + orient this one candidate, check the
  // threshold, and act right away with the default partial movement.
  ++evaluated_;
  AUTOCOMP_ASSIGN_OR_RETURN(CandidateStats stats,
                            stages_->collector->Collect(candidate));
  ObservedCandidate observed{candidate, std::move(stats)};
  std::vector<TraitedCandidate> traited =
      ComputeTraits({observed}, stages_->traits);
  if (traited.empty() || !stages_->policy.ShouldCompact(traited.front())) {
    return std::optional<ScheduledCompaction>();
  }
  ++triggered_;
  ScoredCandidate scored;
  scored.traited = std::move(traited.front());
  scored.score = 1.0;
  AUTOCOMP_ASSIGN_OR_RETURN(
      std::vector<ScheduledCompaction> executed,
      stages_->executor->Execute({scored}, engine::RewriteMovement::kPartial,
                                 now));
  if (executed.empty()) return std::optional<ScheduledCompaction>();
  return std::optional<ScheduledCompaction>(std::move(executed.front()));
}

std::vector<Candidate> OptimizeAfterWriteHook::DrainNotifications() {
  std::vector<Candidate> out(queue_.begin(), queue_.end());
  queue_.clear();
  return out;
}

AutoCompService::AutoCompService(std::unique_ptr<AutoCompPipeline> pipeline,
                                 PeriodicTrigger trigger,
                                 OptimizeAfterWriteHook* hook)
    : pipeline_(std::move(pipeline)), trigger_(trigger), hook_(hook) {
  assert(pipeline_ != nullptr);
}

Result<std::optional<PipelineRunReport>> AutoCompService::Tick(SimTime now) {
  if (!trigger_.Due(now)) {
    return std::optional<PipelineRunReport>();
  }
  trigger_.MarkRun(now);
  Result<PipelineRunReport> report = RunNow();
  if (!report.ok()) return report.status();
  return std::optional<PipelineRunReport>(std::move(report).value());
}

Result<PipelineRunReport> AutoCompService::RunNow() {
  // A notify-mode hook narrows the run to the candidates that actually
  // changed since the last run; otherwise scan the whole catalog.
  Result<PipelineRunReport> report =
      (hook_ != nullptr &&
       hook_->mode() == OptimizeAfterWriteHook::Mode::kNotify)
          ? pipeline_->RunForCandidates(hook_->DrainNotifications())
          : pipeline_->RunOnce();
  if (report.ok()) {
    // History keeps everything but the full ranking, so it grows by O(k)
    // per run instead of O(catalog); the caller still gets the ranking.
    std::vector<ScoredCandidate> ranked = std::move(report->ranked);
    history_.push_back(*report);
    report->ranked = std::move(ranked);
  }
  return report;
}

}  // namespace autocomp::core
