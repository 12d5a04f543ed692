/// \file act.h
/// \brief Act phase: executing the selected compaction plan (§4.4).
///
/// Execution must respect LST conflict semantics: with Iceberg v1.2.0
/// even rewrites of distinct partitions of one table conflict, so the
/// evaluation runs "parallel on the table level but sequential on the
/// partition level" (§6). Both policies are provided, plus an off-peak
/// deferral decorator.

#pragma once

#include <memory>
#include <string>
#include <vector>

#include "catalog/control_plane.h"
#include "common/clock.h"
#include "core/candidate.h"
#include "engine/compaction_runner.h"

namespace autocomp::core {

/// \brief One executed work unit.
struct ScheduledCompaction {
  Candidate candidate;
  engine::CompactionResult result;
};

/// \brief Executes a ranked, selected plan.
class ActExecutor {
 public:
  virtual ~ActExecutor() = default;
  virtual std::string name() const = 0;
  /// Runs the plan starting at `now`, building every request with
  /// RequestFor(candidate, movement, ...); returns per-unit outcomes in
  /// execution order. Individual conflicts/failures are reported in the
  /// results, not raised.
  virtual Result<std::vector<ScheduledCompaction>> Execute(
      const std::vector<ScoredCandidate>& plan,
      engine::RewriteMovement movement, SimTime now) = 0;
};

/// \brief Strictly sequential execution: each work unit starts when the
/// previous one ends. Safest against intra-table conflicts; used when
/// compaction shares the user cluster (§4.4).
class SerialExecutor final : public ActExecutor {
 public:
  SerialExecutor(engine::CompactionRunner* runner,
                 catalog::ControlPlane* control_plane);

  std::string name() const override { return "serial"; }
  Result<std::vector<ScheduledCompaction>> Execute(
      const std::vector<ScoredCandidate>& plan,
      engine::RewriteMovement movement, SimTime now) override;

 private:
  engine::CompactionRunner* runner_;
  catalog::ControlPlane* control_plane_;
};

/// \brief Parallel across tables, sequential within a table: work units
/// for different tables all start at `now` (the cluster's slot model
/// arbitrates), while units of the same table are chained to avoid the
/// Iceberg v1.2.0 disjoint-partition rewrite conflict (§4.4, §6).
class TableParallelExecutor final : public ActExecutor {
 public:
  TableParallelExecutor(engine::CompactionRunner* runner,
                        catalog::ControlPlane* control_plane);

  std::string name() const override { return "table-parallel"; }
  Result<std::vector<ScheduledCompaction>> Execute(
      const std::vector<ScoredCandidate>& plan,
      engine::RewriteMovement movement, SimTime now) override;

 private:
  engine::CompactionRunner* runner_;
  catalog::ControlPlane* control_plane_;
};

/// \brief Decorator deferring execution to an off-peak window ("deferred
/// to off-peak hours if usage patterns are predictable", §4.4).
class OffPeakExecutor final : public ActExecutor {
 public:
  /// Window in hours-of-day [start, end); wraps midnight when start > end.
  OffPeakExecutor(std::unique_ptr<ActExecutor> inner, int window_start_hour,
                  int window_end_hour);

  std::string name() const override { return "off-peak"; }
  Result<std::vector<ScheduledCompaction>> Execute(
      const std::vector<ScoredCandidate>& plan,
      engine::RewriteMovement movement, SimTime now) override;

  /// First time >= now inside the window (exposed for tests).
  SimTime NextWindowStart(SimTime now) const;

 private:
  std::unique_ptr<ActExecutor> inner_;
  int window_start_hour_;
  int window_end_hour_;
};

/// \brief Builds the engine request for a candidate — the one request
/// builder of both act modes (these executors and the deferred
/// sim::EventDriver). Target size and clustering come from the table's
/// TablePolicy; so does the movement when its `compaction_policy`
/// parses, otherwise `movement` (the service-wide policy's axis) holds
/// and an unparsable override is logged, never fatal.
engine::CompactionRequest RequestFor(const Candidate& candidate,
                                     engine::RewriteMovement movement,
                                     const catalog::ControlPlane* control_plane);

/// \brief Post-commit step of both act modes: a retention sweep of
/// `table` with a zero window, so the files a committed rewrite replaced
/// leave storage at once (OpenHouse pairs compaction with its retention
/// data service). A failed sweep is logged, not raised.
void ReapAfterCommit(catalog::ControlPlane* control_plane,
                     const std::string& table);

}  // namespace autocomp::core
