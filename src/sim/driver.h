/// \file driver.h
/// \brief Executes a workload timeline against a SimEnvironment while
/// ticking the AutoComp service and recording the metrics the paper's
/// figures plot.
///
/// Compaction can run in two modes:
///  * synchronous — the service's own core::ActExecutor executes the act
///    phase inside the tick (commit happens instantly; no cluster-side
///    conflicts can occur);
///  * deferred — the service only decides (its executor is null) and the
///    driver executes the plan on the timeline: decided units pass
///    through the driver's sched::MaintenanceScheduler, Prepare at the
///    unit's start, Finalize (the commit) at its end. User writes that
///    land in between cause exactly the cluster-side conflicts of Table 1.
/// Both modes build requests with core::RequestFor, using the movement of
/// the service's pipeline stages, and reap with core::ReapAfterCommit.

#pragma once

#include <array>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "common/blob.h"
#include "common/interner.h"
#include "core/triggers.h"
#include "engine/compaction_runner.h"
#include "sched/scheduler.h"
#include "sim/calendar_queue.h"
#include "sim/environment.h"
#include "sim/metrics.h"
#include "workload/events.h"

namespace autocomp::sim {

/// \brief Driver configuration.
struct DriverOptions {
  /// Interval for sampling the storage file count ("files_total" series).
  SimTime sample_interval = 10 * kMinute;
  /// Run the retention data service at this interval so replaced files
  /// leave storage (0 = never).
  SimTime retention_interval = kHour;
  /// Execute the service's selected plan on the timeline (requires a
  /// service that only decides: a null executor, as
  /// StrategyPreset::deferred_act builds it).
  bool deferred_compaction = false;
  /// Record the pipeline_*_ms host wall-clock profiling series for
  /// attached-service runs. These are the only nondeterministic metrics
  /// the driver produces; bit-identity comparisons (policy_diff_test,
  /// the policy sweep's NFR2 gate) turn them off.
  bool record_host_timings = true;
  /// Fleet-level maintenance scheduler (DESIGN.md §12). Every deferred
  /// unit dispatches through it; the default knobs give fifo: each
  /// table's units start in plan order, one at a time.
  sched::SchedulerOptions scheduler;
};

/// \brief Event-loop driver. Metric names it produces:
///  * series  "files_total"         — sampled storage file count
///  * series  "compaction_gbhr"     — GBHr_App per finalized rewrite
///  * hourly  "read_latency_s"      — per read query (Figure 8 left)
///  * hourly  "write_latency_s"     — per write query (Figure 8 right)
///  * hourly  "write_queries"       — count of write queries (Table 1)
///  * hourly  "client_conflicts"    — commit retries + conflict failures
///  * hourly  "cluster_conflicts"   — compaction commits lost to races
///  * hourly  "compaction_commits"  — compaction commits that landed
///  * hourly  "open_timeouts"       — storage read timeouts
class EventDriver {
 public:
  EventDriver(SimEnvironment* env, MetricsRecorder* metrics,
              DriverOptions options = {});

  /// Installs the compaction service (ticked as simulated time advances).
  void AttachService(core::AutoCompService* service) { service_ = service; }
  /// Installs an optimize-after-write hook (invoked after write commits).
  void AttachHook(core::OptimizeAfterWriteHook* hook) { hook_ = hook; }

  /// Runs all events (must be sorted) and advances time to `end_time`,
  /// finalizing any still-inflight compactions at the end.
  Status Run(const std::vector<workload::QueryEvent>& events,
             SimTime end_time);

  /// Advances simulated time to `t`, sampling metrics, ticking the
  /// service/retention, and finalizing due compactions along the way.
  Status AdvanceTo(SimTime t);

  /// Executes a single event at the current time.
  Status Execute(const workload::QueryEvent& event);

  /// Flushes inflight rewrites (they commit at their natural end times,
  /// past the current clock), drops queued units, and takes a final
  /// storage sample. Run() calls this; incremental callers that drive
  /// AdvanceTo/Execute themselves (the shard-parallel fleet driver) call
  /// it once at the end of the experiment.
  void FinishRun();

  /// Sum of end-to-end read latency observed so far, in seconds (the
  /// "experiment duration" objective used by the §6.3 auto-tuner).
  double total_read_seconds() const { return total_read_seconds_; }
  double total_write_seconds() const { return total_write_seconds_; }

  /// Earliest future boundary at which this driver could issue a storage
  /// RPC or mutate table state: the next retention run, the service
  /// trigger, or an inflight compaction end — but NOT the metrics sample
  /// timer, which reads state without changing it. The lazy fleet driver
  /// dozes a lane until min(this, its next workload event); the deferred
  /// sample ticks replay identically on the next advance because the
  /// lane's file count cannot change while it dozes. nullopt = the lane
  /// is fully passive until its next event.
  std::optional<SimTime> NextActivityBound() const;

  /// True when nothing is in flight and no decided work is queued — the
  /// precondition for lane eviction (a PendingCompaction holds an open
  /// lst::Transaction, which is not checkpointable).
  bool Quiescent() const {
    return inflight_.empty() && scheduler_.Quiescent();
  }

  /// Next scheduled retention tick (-1 = retention disabled). The fleet
  /// evictor uses it to compute the first tick that could actually
  /// expire a snapshot (see fleet_driver.cc).
  SimTime next_retention() const { return next_retention_; }

  /// \name Lane checkpoint (DESIGN.md §10)
  /// Serializes the timer scalars, latency accumulators, the table-id
  /// interner and the scheduler's ledgers of a *quiescent* driver;
  /// SaveState fails with Internal, writing nothing, on a driver with
  /// work in flight. RestoreState expects a freshly constructed driver
  /// over the restored environment: the calendar queue needs no state
  /// (ArmTimers re-derives every timer entry from the scalars on the
  /// next advance; a quiescent driver has no compaction entries).
  /// @{
  Status SaveState(common::BlobWriter* w) const;
  Status RestoreState(common::BlobReader* r);
  /// @}

 private:
  void SampleNow();
  /// Deferred mode: admits a decided plan into the scheduler and
  /// dispatches whatever can start now.
  void ScheduleCompactions(const std::vector<core::ScoredCandidate>& plan);
  /// Prepare-and-register body: builds the request for `candidate`
  /// (core::RequestFor with the attached service's movement),
  /// Prepares it now, and on success registers the inflight unit and its
  /// calendar boundary. Returns true when a rewrite started.
  bool TryStartUnit(common::TableId table, const core::Candidate& candidate);
  /// Pops dispatchable units until the discipline yields nothing, arming
  /// the preemption fault site per started unit.
  void DispatchScheduled();
  /// Cancels the inflight unit of `table` (injected or traffic-spike
  /// preemption): calendar entry removed, outputs abandoned via the
  /// runner, unit requeued with backoff, burned GBHr charged.
  void PreemptTable(common::TableId table, SimTime now);
  /// Traffic accounting for the spike-preemption trigger.
  void ObserveTraffic(const workload::QueryEvent& event, SimTime now);
  /// Preempts the lowest-score running unit of `tenant` (ties go to the
  /// name-ordered first), if any.
  void PreemptLowestValue(const std::string& tenant, SimTime now);
  /// Per-tenant SLO series at a finalize edge (time-to-compact, budget
  /// debt) — only when `slo_active_`.
  void RecordSchedulerSlo(const std::string& table,
                          const std::optional<sched::QueuedUnit>& unit,
                          const engine::CompactionResult& result, SimTime at);
  /// Finalizes every inflight unit whose rewrite finished by `t`; with
  /// `dispatch`, each finalize lets the scheduler start the next unit.
  void FinalizeDueCompactions(SimTime t, bool dispatch = true);
  /// Commits (or loses) one finished rewrite and reports it to the
  /// scheduler.
  void FinalizeUnit(common::TableId table, engine::PendingCompaction&& pending);
  /// Re-syncs the calendar queue's timer entries with the scalar
  /// schedules (sample/retention/service) before each boundary peek.
  void ArmTimers(SimTime now);

  SimEnvironment* env_;
  MetricsRecorder* metrics_;
  DriverOptions options_;
  core::AutoCompService* service_ = nullptr;
  core::OptimizeAfterWriteHook* hook_ = nullptr;
  SimTime next_sample_ = 0;
  SimTime next_retention_ = 0;
  double total_read_seconds_ = 0;
  double total_write_seconds_ = 0;

  /// The per-event metrics. Each resolves to a MetricId handle (one
  /// vector index per record instead of a string hash + map lookup per
  /// event) the first time the driver records into it, so a recorder
  /// holds only the names its lane uses: a fleet_cold lane records into
  /// a handful of these.
  enum Metric : uint8_t {
    kFilesTotal, kCompactionCommits, kCompactionGbhr,
    kCompactionFilesReduced, kClusterConflicts, kWriteQueries,
    kWriteFailures, kWriteLatencyS, kClientConflicts, kReadFailures,
    kReadLatencyS, kOpenTimeouts, kPipelineGenerateMs, kPipelineObserveMs,
    kPipelineOrientMs, kPipelineDecideMs, kPipelineActMs, kStatsIndexHits,
    kStatsIndexFallbacks, kCompactionRetries, kCompactionAbandoned,
    kCompactionBackoffS, kSchedAdmitted, kSchedRejected,
    kCompactionPreempted, kMetricCount,
  };
  MetricId Id(Metric metric);
  std::array<MetricId, kMetricCount> ids_;

  /// Dispatch arbiter for deferred units (idle in synchronous mode).
  sched::MaintenanceScheduler scheduler_;
  /// True when the configuration records the per-tenant sched.* SLO
  /// series: deferred mode with a non-fifo discipline or a tenant budget.
  /// Plain fifo, preemption-armed or not, records nothing extra, which
  /// keeps default runs at their pinned hashes.
  bool slo_active_ = false;
  /// Per-tenant query counts for the current hour (spike preemption
  /// fires at most once per tenant-hour).
  struct TrafficWindow {
    SimTime hour = -1;
    int64_t count = 0;
    bool fired = false;
  };
  std::map<std::string, TrafficWindow> traffic_;

  /// Table names interned to dense ids: the per-table hot-path maps key
  /// by int32 instead of std::string, and the name is only touched at
  /// dispatch (DispatchScheduled) and reporting (Finalize/retention)
  /// edges. The driver is single-threaded per lane, so its interner is
  /// private and uncontended.
  common::StringInterner table_ids_;

  /// At most one inflight unit per table (§4.4 sequencing; the scheduler
  /// never dispatches a unit whose table is running).
  std::map<common::TableId, engine::PendingCompaction> inflight_;

  /// Time boundaries (sample/retention/service timers and inflight
  /// compaction ends) in one hour-bucketed calendar queue. A compaction
  /// entry is pushed exactly when a unit enters `inflight_` and popped
  /// exactly when it leaves; pop order is (end_time, then table *name*)
  /// via the interner's NameLess, matching the min-heap this replaces.
  CalendarQueue calendar_;
};

}  // namespace autocomp::sim
