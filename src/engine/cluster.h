/// \file cluster.h
/// \brief Spark-like cluster model: executor slots, queueing, GBHr
/// accounting.
///
/// The evaluation runs a 16-node query-processing cluster and a 4-node
/// compaction cluster (§6). We model a cluster as `executors ×
/// cores_per_executor` task slots with per-slot availability times; a job
/// submits a bag of task durations and finishes when its last task does.
/// Queue waits — and therefore the latency variability compaction reduces
/// (Figure 8) — emerge from slot contention between overlapping jobs.

#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/blob.h"
#include "common/clock.h"
#include "common/units.h"

namespace autocomp::engine {

/// \brief Static sizing and cost-model constants for one cluster.
struct ClusterOptions {
  int executors = 15;
  int cores_per_executor = 8;
  /// Memory per executor, in GB (enters the paper's GBHr formula).
  double executor_memory_gb = 64.0;
  /// Sequential scan throughput per task slot.
  double scan_bytes_per_second = 200.0 * kMiB;
  /// System rewrite throughput for compaction (the paper's
  /// RewriteBytesPerHour).
  double rewrite_bytes_per_hour = 2.0 * kTiB;
  /// Fixed cost of opening one file from a scan task (RPC + seek + footer
  /// decode). Small files make this term dominate.
  double open_seconds_per_file = 0.08;
  /// Planning cost per manifest and per file entry (metadata bloat).
  double plan_seconds_per_manifest = 0.05;
  double plan_seconds_per_file = 0.0008;
  /// Penalty for one storage read timeout (client retry, §7's thundering
  /// herd is this at scale).
  double timeout_retry_seconds = 8.0;
  /// Largest byte range one scan task handles (Spark split size).
  int64_t split_bytes = 128 * kMiB;
  /// Per-delete-file cost a merge-on-read scan pays to apply positional
  /// deletes while reading (§2's accumulating MoR delta files).
  double mor_merge_seconds_per_delete_file = 0.2;
  /// Extra work factor for clustering rewrites (sampling + sort passes,
  /// §8 "computational overheads like data sampling or multiple passes").
  double cluster_write_multiplier = 1.6;
};

/// \brief Outcome of running one bag of tasks.
struct TaskBagResult {
  /// When the first task actually started (>= submit time).
  SimTime start_time = 0;
  /// When the last task finished.
  SimTime end_time = 0;
  /// Seconds spent waiting for a free slot, summed over tasks.
  double queue_wait_seconds = 0;
  /// Sum of task durations (busy time).
  double busy_seconds = 0;
};

/// \brief One compute cluster with deterministic slot scheduling.
class Cluster {
 public:
  Cluster(std::string name, ClusterOptions options, const Clock* clock);

  const std::string& name() const { return name_; }
  const ClusterOptions& options() const { return options_; }
  int total_slots() const {
    return options_.executors * options_.cores_per_executor;
  }
  double total_memory_gb() const {
    return options_.executor_memory_gb * options_.executors;
  }

  /// Schedules `task_seconds` on the earliest-available slots, no earlier
  /// than `submit_time`. Longest tasks are placed first (LPT), matching
  /// how a fair scheduler amortises stragglers. Deterministic.
  TaskBagResult RunTasks(SimTime submit_time,
                         const std::vector<double>& task_seconds);

  /// GB-hours consumed by an occupation of `busy_seconds` of slot time:
  /// memory attributed per-core for the occupied duration.
  double GbHoursFor(double busy_seconds) const;

  /// Cumulative GB-hours across all RunTasks calls.
  double total_gb_hours() const { return total_gb_hours_; }
  /// Cumulative busy slot-seconds.
  double total_busy_seconds() const { return total_busy_seconds_; }

  /// Drops all queued state (slots immediately free at the current time).
  void Reset();

  /// \name Lane checkpoint (DESIGN.md §10): slot availability + GBHr
  /// accumulators, restored bit-exactly (doubles as raw bits).
  /// @{
  void SaveState(common::BlobWriter* w) const {
    w->WriteU64(slot_free_at_.size());
    for (double t : slot_free_at_) w->WriteF64(t);
    w->WriteF64(total_gb_hours_);
    w->WriteF64(total_busy_seconds_);
  }
  void RestoreState(common::BlobReader* r) {
    const uint64_t slots = r->ReadCount();
    slot_free_at_.assign(slots, 0.0);
    for (double& t : slot_free_at_) t = r->ReadF64();
    total_gb_hours_ = r->ReadF64();
    total_busy_seconds_ = r->ReadF64();
  }
  /// @}

 private:
  std::string name_;
  ClusterOptions options_;
  const Clock* clock_;
  /// Next free time per slot, in fractional seconds.
  std::vector<double> slot_free_at_;
  double total_gb_hours_ = 0;
  double total_busy_seconds_ = 0;
};

}  // namespace autocomp::engine
