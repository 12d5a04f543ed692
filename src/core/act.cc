#include "core/act.h"

#include <algorithm>
#include <cassert>
#include <map>

#include "common/logging.h"
#include "core/policy.h"

namespace autocomp::core {

engine::CompactionRequest RequestFor(
    const Candidate& candidate, engine::RewriteMovement movement,
    const catalog::ControlPlane* control_plane) {
  const catalog::TablePolicy policy = control_plane->GetPolicy(candidate.table);
  engine::CompactionRequest request;
  request.table = candidate.table;
  request.partition = candidate.partition;
  request.after_snapshot_id = candidate.after_snapshot_id;
  request.target_file_size_bytes = policy.target_file_size_bytes;
  request.cluster_output = policy.clustering_enabled;
  request.movement = movement;
  if (!policy.compaction_policy.empty()) {
    // Per-table policy override; a bad catalog entry must not crash
    // the service, so parse failures fall back to the fleet default.
    auto spec = PolicySpec::Parse(policy.compaction_policy);
    if (spec.ok()) {
      request.movement = MovementFor(*spec);
    } else {
      LOG_WARN << "ignoring unparsable compaction_policy for "
               << candidate.table << ": " << spec.status();
    }
  }
  return request;
}

void ReapAfterCommit(catalog::ControlPlane* control_plane,
                     const std::string& table) {
  auto retention = control_plane->RunRetentionFor(table, SimTime{0});
  if (!retention.ok()) {
    LOG_WARN << "post-compaction retention failed for " << table << ": "
             << retention.status();
  }
}

namespace {

/// Runs one unit and reaps its replaced files after a commit. Returns the
/// end time of the unit (>= submit).
SimTime RunUnit(engine::CompactionRunner* runner,
                catalog::ControlPlane* control_plane,
                engine::RewriteMovement movement, const Candidate& candidate,
                SimTime submit, std::vector<ScheduledCompaction>* out) {
  auto result =
      runner->Run(RequestFor(candidate, movement, control_plane), submit);
  ScheduledCompaction unit;
  unit.candidate = candidate;
  if (!result.ok()) {
    // Infrastructure failure: record a failed unit and move on.
    unit.result.attempted = true;
    unit.result.status = result.status();
    unit.result.start_time = submit;
    unit.result.end_time = submit;
    out->push_back(std::move(unit));
    return submit;
  }
  unit.result = std::move(result).value();
  const SimTime end = unit.result.end_time;
  if (unit.result.committed) ReapAfterCommit(control_plane, candidate.table);
  out->push_back(std::move(unit));
  return end;
}

}  // namespace

SerialExecutor::SerialExecutor(engine::CompactionRunner* runner,
                               catalog::ControlPlane* control_plane)
    : runner_(runner), control_plane_(control_plane) {
  assert(runner_ != nullptr && control_plane_ != nullptr);
}

Result<std::vector<ScheduledCompaction>> SerialExecutor::Execute(
    const std::vector<ScoredCandidate>& plan, engine::RewriteMovement movement,
    SimTime now) {
  std::vector<ScheduledCompaction> out;
  out.reserve(plan.size());
  SimTime cursor = now;
  for (const ScoredCandidate& item : plan) {
    cursor = std::max(cursor, RunUnit(runner_, control_plane_, movement,
                                      item.candidate(), cursor, &out));
  }
  return out;
}

TableParallelExecutor::TableParallelExecutor(
    engine::CompactionRunner* runner, catalog::ControlPlane* control_plane)
    : runner_(runner), control_plane_(control_plane) {
  assert(runner_ != nullptr && control_plane_ != nullptr);
}

Result<std::vector<ScheduledCompaction>> TableParallelExecutor::Execute(
    const std::vector<ScoredCandidate>& plan, engine::RewriteMovement movement,
    SimTime now) {
  // Group by table, preserving plan (priority) order within each group.
  std::map<std::string, std::vector<const ScoredCandidate*>> by_table;
  std::vector<std::string> table_order;
  for (const ScoredCandidate& item : plan) {
    auto [it, inserted] = by_table.try_emplace(item.candidate().table);
    if (inserted) table_order.push_back(item.candidate().table);
    it->second.push_back(&item);
  }
  std::vector<ScheduledCompaction> out;
  out.reserve(plan.size());
  for (const std::string& table : table_order) {
    // Tables start concurrently at `now`; the shared cluster's slot
    // model provides the actual arbitration. Units within one table are
    // chained sequentially.
    SimTime cursor = now;
    for (const ScoredCandidate* item : by_table[table]) {
      cursor = std::max(cursor, RunUnit(runner_, control_plane_, movement,
                                        item->candidate(), cursor, &out));
    }
  }
  return out;
}

OffPeakExecutor::OffPeakExecutor(std::unique_ptr<ActExecutor> inner,
                                 int window_start_hour, int window_end_hour)
    : inner_(std::move(inner)),
      window_start_hour_(window_start_hour),
      window_end_hour_(window_end_hour) {
  assert(inner_ != nullptr);
  assert(window_start_hour_ >= 0 && window_start_hour_ < 24);
  assert(window_end_hour_ >= 0 && window_end_hour_ < 24);
}

SimTime OffPeakExecutor::NextWindowStart(SimTime now) const {
  const int hour_of_day = static_cast<int>((now / kHour) % 24);
  const bool wraps = window_start_hour_ > window_end_hour_;
  const bool inside =
      wraps ? (hour_of_day >= window_start_hour_ ||
               hour_of_day < window_end_hour_)
            : (hour_of_day >= window_start_hour_ &&
               hour_of_day < window_end_hour_);
  if (inside) return now;
  const SimTime day_start = (now / kDay) * kDay;
  SimTime next = day_start + window_start_hour_ * kHour;
  if (next <= now) next += kDay;
  return next;
}

Result<std::vector<ScheduledCompaction>> OffPeakExecutor::Execute(
    const std::vector<ScoredCandidate>& plan, engine::RewriteMovement movement,
    SimTime now) {
  return inner_->Execute(plan, movement, NextWindowStart(now));
}

}  // namespace autocomp::core
