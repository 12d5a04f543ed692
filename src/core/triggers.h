/// \file triggers.h
/// \brief Execution triggers (§5): periodic ("pull") and
/// optimize-after-write ("push"), plus the service tying them to a
/// pipeline.

#pragma once

#include <deque>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/clock.h"
#include "core/filters.h"
#include "core/pipeline.h"
#include "core/ranking.h"

namespace autocomp::core {

/// \name Trigger-axis admission filters (policy.h, TriggerAxis)
///
/// The policy design space's trigger axis is realized as per-candidate
/// admission predicates slotted into the pipeline's pre-orient filter
/// chain: the service still wakes on its periodic cadence (the
/// PeriodicTrigger below), but a candidate only proceeds to orient once
/// its trigger condition holds. The periodic trigger is the absence of
/// such a filter — every cycle admits everything, the pre-decomposition
/// behavior.
/// @{

/// \brief Fires once the candidate holds at least `min_files` small
/// files (Iceberg's min-input-files / Bigtable's stack-size trigger).
class FileCountTriggerFilter final : public CandidateFilter {
 public:
  explicit FileCountTriggerFilter(int64_t min_files)
      : min_files_(min_files) {}
  std::string name() const override { return "trigger:file-count"; }
  bool ShouldKeep(const ObservedCandidate& candidate,
                  SimTime) const override {
    return candidate.stats.small_file_count() >= min_files_;
  }

 private:
  int64_t min_files_;
};

/// \brief Fires once small-file bytes reach 1/`ratio` of the
/// already-compact bytes — an LSM size-ratio (tiering) trigger: debt is
/// worth paying down when it is no longer negligible against the
/// compacted mass.
class SizeRatioTriggerFilter final : public CandidateFilter {
 public:
  explicit SizeRatioTriggerFilter(double ratio) : ratio_(ratio) {}
  std::string name() const override { return "trigger:size-ratio"; }
  bool ShouldKeep(const ObservedCandidate& candidate,
                  SimTime) const override {
    const int64_t small = candidate.stats.small_file_bytes();
    const int64_t compact = candidate.stats.total_bytes - small;
    return candidate.stats.small_file_count() >= 2 &&
           static_cast<double>(small) * ratio_ >=
               static_cast<double>(compact);
  }

 private:
  double ratio_;
};

/// \brief Fires once the candidate has been write-quiescent for
/// `quiesce_window` with debt outstanding: compact cold data, dodge
/// write-write conflicts on hot data.
class StalenessTriggerFilter final : public CandidateFilter {
 public:
  explicit StalenessTriggerFilter(SimTime quiesce_window)
      : quiesce_window_(quiesce_window) {}
  std::string name() const override { return "trigger:staleness"; }
  bool ShouldKeep(const ObservedCandidate& candidate,
                  SimTime now) const override {
    return candidate.stats.small_file_count() >= 2 &&
           now - candidate.stats.last_modified_at >= quiesce_window_;
  }

 private:
  SimTime quiesce_window_;
};

/// \brief Staleness with a burst bypass: quiesced debt compacts after
/// `deadline`, but a backlog of `burst_files` or more small files fires
/// immediately — a latency SLO that still reacts to write bursts.
class DeadlineTriggerFilter final : public CandidateFilter {
 public:
  explicit DeadlineTriggerFilter(SimTime deadline, int64_t burst_files = 16)
      : deadline_(deadline), burst_files_(burst_files) {}
  std::string name() const override { return "trigger:deadline"; }
  bool ShouldKeep(const ObservedCandidate& candidate,
                  SimTime now) const override {
    const int64_t small = candidate.stats.small_file_count();
    if (small < 2) return false;
    return small >= burst_files_ ||
           now - candidate.stats.last_modified_at >= deadline_;
  }

 private:
  SimTime deadline_;
  int64_t burst_files_;
};

/// @}

/// \brief Fixed-interval trigger (the evaluation triggers compaction
/// hourly; LinkedIn's production deployment daily).
class PeriodicTrigger {
 public:
  PeriodicTrigger(SimTime interval, SimTime first_due = 0)
      : interval_(interval), next_due_(first_due) {}

  bool Due(SimTime now) const { return now >= next_due_; }
  SimTime next_due() const { return next_due_; }
  SimTime interval() const { return interval_; }

  /// Advances the schedule past `now` (multiple missed intervals collapse
  /// into one run).
  void MarkRun(SimTime now) {
    next_due_ += interval_;
    if (next_due_ <= now) {
      next_due_ = now + interval_;
    }
  }

 private:
  SimTime interval_;
  SimTime next_due_;
};

/// \brief Engine hook evaluated after write commits (§5).
///
/// Two modes: kImmediate evaluates the written candidate's traits at once
/// and compacts when the threshold policy triggers (needs an unlimited
/// budget); kNotify enqueues the candidate for the next service run
/// (decoupled, resource-controlled).
class OptimizeAfterWriteHook {
 public:
  enum class Mode : int { kImmediate, kNotify };

  struct ImmediateStages {
    std::shared_ptr<const StatsCollector> collector;
    std::vector<std::shared_ptr<const Trait>> traits;
    ThresholdPolicy policy;
    std::shared_ptr<ActExecutor> executor;
  };

  /// Notify-mode hook.
  OptimizeAfterWriteHook();
  /// Immediate-mode hook.
  explicit OptimizeAfterWriteHook(ImmediateStages stages);

  Mode mode() const { return mode_; }

  /// Invoked by the engine's write path after a commit. For kImmediate
  /// the returned unit is set when compaction ran; for kNotify it is
  /// nullopt and the candidate queues up.
  Result<std::optional<ScheduledCompaction>> OnWrite(
      const std::string& table, const std::optional<std::string>& partition,
      SimTime now);

  /// kNotify: drains the queued candidates (deduplicated, stable order).
  std::vector<Candidate> DrainNotifications();

  int64_t triggered_count() const { return triggered_; }
  int64_t evaluated_count() const { return evaluated_; }

 private:
  Mode mode_;
  std::optional<ImmediateStages> stages_;
  std::deque<Candidate> queue_;
  int64_t triggered_ = 0;
  int64_t evaluated_ = 0;
};

/// \brief Standalone compaction service (Figure 5): owns a pipeline, a
/// periodic trigger, and optionally consumes hook notifications.
class AutoCompService {
 public:
  AutoCompService(std::unique_ptr<AutoCompPipeline> pipeline,
                  PeriodicTrigger trigger,
                  OptimizeAfterWriteHook* hook = nullptr);

  /// Called by the host on its own cadence; runs the pipeline when the
  /// trigger is due (and folds in any hook notifications). Returns the
  /// run report if a run happened.
  Result<std::optional<PipelineRunReport>> Tick(SimTime now);

  /// Forces a run regardless of the trigger (used for post-write bursts).
  Result<PipelineRunReport> RunNow();

  AutoCompPipeline* pipeline() { return pipeline_.get(); }
  const PeriodicTrigger& trigger() const { return trigger_; }

  /// History of all runs, for reporting. Entries carry no ranking
  /// (`ranked` is empty); every other field matches the report Tick or
  /// RunNow returned for that run.
  const std::vector<PipelineRunReport>& history() const { return history_; }

 private:
  std::unique_ptr<AutoCompPipeline> pipeline_;
  PeriodicTrigger trigger_;
  OptimizeAfterWriteHook* hook_;
  std::vector<PipelineRunReport> history_;
};

}  // namespace autocomp::core
