#include "sim/driver.h"

#include <algorithm>
#include <cassert>
#include <iterator>
#include <limits>

#include "common/logging.h"
#include "core/act.h"

namespace autocomp::sim {

namespace {

// Metric names, indexed by EventDriver::Metric.
constexpr const char* kMetricNames[] = {
    "files_total",
    "compaction_commits",
    "compaction_gbhr",
    "compaction_files_reduced",
    "cluster_conflicts",
    "write_queries",
    "write_failures",
    "write_latency_s",
    "client_conflicts",
    "read_failures",
    "read_latency_s",
    "open_timeouts",
    "pipeline_generate_ms",
    "pipeline_observe_ms",
    "pipeline_orient_ms",
    "pipeline_decide_ms",
    "pipeline_act_ms",
    "stats_index_hits",
    "stats_index_fallbacks",
    "compaction_retries",
    "compaction_abandoned",
    "compaction_backoff_s",
    "sched.admitted",
    "sched.rejected",
    "compaction_preempted",
};

}  // namespace

EventDriver::EventDriver(SimEnvironment* env, MetricsRecorder* metrics,
                         DriverOptions options)
    : env_(env),
      metrics_(metrics),
      options_(options),
      scheduler_(options_.scheduler),
      slo_active_(options_.deferred_compaction &&
                  options_.scheduler.record_slo &&
                  (options_.scheduler.policy != sched::SchedulerPolicy::kFifo ||
                   options_.scheduler.tenant_budget_gb_hours > 0)),
      calendar_([this](int32_t a, int32_t b) {
        return table_ids_.NameLess(a, b);
      }) {
  assert(env_ != nullptr && metrics_ != nullptr);
  next_sample_ = env_->clock().Now();
  next_retention_ = options_.retention_interval > 0
                        ? env_->clock().Now() + options_.retention_interval
                        : -1;
}

MetricId EventDriver::Id(Metric metric) {
  static_assert(std::size(kMetricNames) == kMetricCount);
  MetricId& id = ids_[metric];
  if (!id.valid()) id = metrics_->Intern(kMetricNames[metric]);
  return id;
}

void EventDriver::SampleNow() {
  metrics_->Record(Id(kFilesTotal), env_->clock().Now(),
                   static_cast<double>(env_->TotalFileCount()));
}

void EventDriver::ScheduleCompactions(
    const std::vector<core::ScoredCandidate>& plan) {
  const SimTime now = env_->clock().Now();
  const sched::AdmitOutcome outcome = scheduler_.Admit(plan, now);
  if (slo_active_) {
    if (outcome.admitted > 0) {
      metrics_->Increment(Id(kSchedAdmitted), now, outcome.admitted);
    }
    if (outcome.rejected > 0) {
      metrics_->Increment(Id(kSchedRejected), now, outcome.rejected);
    }
  }
  DispatchScheduled();
}

bool EventDriver::TryStartUnit(common::TableId table,
                               const core::Candidate& candidate) {
  // Only a service's plan queues units, so a service is attached.
  assert(service_ != nullptr);
  const engine::CompactionRequest request =
      core::RequestFor(candidate, service_->pipeline()->stages().movement,
                       &env_->control_plane());
  auto pending =
      env_->compaction_runner().Prepare(request, env_->clock().Now());
  if (!pending.ok()) {
    LOG_WARN << "compaction prepare failed for " << candidate.id() << ": "
             << pending.status();
    return false;  // the scheduler offers the next queued unit
  }
  if (!pending->result.attempted) {
    // Either nothing to rewrite, or the write phase gave the unit up
    // (crash-retry budget exhausted, quota breach) — its outputs were
    // already cleaned up; count the abandonment and pull the next unit.
    if (pending->result.abandoned) {
      const SimTime at = env_->clock().Now();
      metrics_->Increment(Id(kCompactionAbandoned), at);
      if (pending->result.backoff_seconds > 0) {
        metrics_->Observe(Id(kCompactionBackoffS), at,
                          pending->result.backoff_seconds);
      }
    }
    return false;
  }
  calendar_.ScheduleCompaction(pending->result.end_time, table);
  inflight_.emplace(table, std::move(pending).value());
  return true;
}

void EventDriver::DispatchScheduled() {
  const SimTime now = env_->clock().Now();
  while (auto unit = scheduler_.NextUnit(now)) {
    const common::TableId table = table_ids_.Intern(unit->candidate.table);
    if (!TryStartUnit(table, unit->candidate)) continue;  // unit consumed
    scheduler_.OnStarted(*unit, now);
    if (options_.scheduler.preemption &&
        env_->fault_injector().Arm(fault::kSiteEnginePreempt,
                                   unit->candidate.table) ==
            fault::FaultKind::kPreempt) {
      PreemptTable(table, now);
    }
  }
}

void EventDriver::PreemptTable(common::TableId table, SimTime now) {
  auto it = inflight_.find(table);
  if (it == inflight_.end()) return;
  engine::PendingCompaction pending = std::move(it->second);
  inflight_.erase(it);
  const bool cancelled =
      calendar_.CancelCompaction(pending.result.end_time, table);
  assert(cancelled);
  (void)cancelled;
  const engine::CompactionResult result =
      env_->compaction_runner().Abandon(std::move(pending), now);
  metrics_->Increment(Id(kCompactionPreempted), now);
  // The burned GBHr is charged to the tenant's budget ledger; the unit
  // re-enters its queue with deterministic exponential backoff.
  scheduler_.Preempt(table_ids_.NameOf(table), result.gb_hours, now);
}

void EventDriver::ObserveTraffic(const workload::QueryEvent& event,
                                 SimTime now) {
  if (!options_.scheduler.preemption ||
      options_.scheduler.spike_queries_per_hour <= 0) {
    return;
  }
  const std::string& table = event.is_write ? event.write.table : event.table;
  TrafficWindow& window = traffic_[sched::MaintenanceScheduler::TenantOf(table)];
  const SimTime hour = now / kHour;
  if (window.hour != hour) {
    window.hour = hour;
    window.count = 0;
    window.fired = false;
  }
  ++window.count;
  if (!window.fired &&
      window.count >= options_.scheduler.spike_queries_per_hour) {
    window.fired = true;
    PreemptLowestValue(sched::MaintenanceScheduler::TenantOf(table), now);
  }
}

void EventDriver::PreemptLowestValue(const std::string& tenant, SimTime now) {
  std::string victim;
  double victim_score = 0;
  for (const std::string& table : scheduler_.RunningTablesOf(tenant)) {
    const auto unit = scheduler_.RunningUnit(table);
    if (!unit) continue;
    if (victim.empty() || unit->score < victim_score) {
      victim = table;
      victim_score = unit->score;
    }
  }
  if (victim.empty()) return;
  PreemptTable(table_ids_.Lookup(victim), now);
}

void EventDriver::RecordSchedulerSlo(
    const std::string& table, const std::optional<sched::QueuedUnit>& unit,
    const engine::CompactionResult& result, SimTime at) {
  if (!slo_active_) return;
  const std::string tenant = sched::MaintenanceScheduler::TenantOf(table);
  if (result.committed && unit) {
    metrics_->Observe("sched.time_to_compact_s." + tenant, at,
                      static_cast<double>(at - unit->admitted_at));
  }
  if (options_.scheduler.tenant_budget_gb_hours > 0) {
    metrics_->Record("sched.budget_debt_gbhr." + tenant, at,
                     scheduler_.DebtGbHours(tenant, at));
  }
}

void EventDriver::FinalizeUnit(common::TableId table,
                               engine::PendingCompaction&& pending) {
  const std::string& name = table_ids_.NameOf(table);
  // The unit copy only feeds SLO bookkeeping — skip it (per finalize,
  // several strings) when SLO recording is off.
  std::optional<sched::QueuedUnit> unit;
  if (slo_active_) unit = scheduler_.RunningUnit(name);
  const SimTime at = pending.result.end_time;
  const engine::CompactionResult result =
      env_->compaction_runner().Finalize(std::move(pending));
  if (result.committed) {
    metrics_->Increment(Id(kCompactionCommits), at);
    metrics_->Record(Id(kCompactionGbhr), at, result.gb_hours);
    metrics_->Record(
        Id(kCompactionFilesReduced), at,
        static_cast<double>(result.files_rewritten - result.files_produced));
    core::ReapAfterCommit(&env_->control_plane(), name);
  } else if (result.conflict) {
    metrics_->Increment(Id(kClusterConflicts), at);
    metrics_->Record(Id(kCompactionGbhr), at, result.gb_hours);
  }
  // Fault/retry accounting (all zero in fault-free runs, so recorders
  // stay bit-identical to the seed behaviour).
  if (result.commit_retries > 0) {
    metrics_->Increment(Id(kCompactionRetries), at, result.commit_retries);
  }
  if (result.abandoned) {
    metrics_->Increment(Id(kCompactionAbandoned), at);
  }
  if (result.backoff_seconds > 0) {
    metrics_->Observe(Id(kCompactionBackoffS), at, result.backoff_seconds);
  }
  scheduler_.OnFinished(name, result.gb_hours, result.end_time);
  RecordSchedulerSlo(name, unit, result, result.end_time);
}

void EventDriver::FinalizeDueCompactions(SimTime t, bool dispatch) {
  // Earliest-finishing units first; ties finalize in table-name order
  // (the calendar queue's comparator), matching the min-heap this
  // replaces and the seed's linear scan over the name-sorted map.
  while (auto due = calendar_.PopCompactionDue(t)) {
    auto it = inflight_.find(due->table);
    assert(it != inflight_.end());
    engine::PendingCompaction pending = std::move(it->second);
    inflight_.erase(it);
    FinalizeUnit(due->table, std::move(pending));
    if (dispatch) DispatchScheduled();
  }
}

std::optional<SimTime> EventDriver::NextActivityBound() const {
  std::optional<SimTime> next;
  const auto fold = [&](SimTime t) {
    if (!next || t < *next) next = t;
  };
  if (next_retention_ >= 0) fold(next_retention_);
  if (service_ != nullptr) fold(service_->trigger().next_due());
  if (const auto end = calendar_.PeekNextCompaction()) fold(*end);
  // A queued unit backing off re-dispatches at its not_before; units
  // ripe-but-blocked dispatch at a compaction end already folded above.
  if (const auto ready = scheduler_.NextReadyTime(env_->clock().Now())) {
    fold(*ready);
  }
  return next;
}

void EventDriver::ArmTimers(SimTime now) {
  calendar_.ArmTimer(CalendarQueue::Kind::kSample, next_sample_);
  if (next_retention_ >= 0) {
    calendar_.ArmTimer(CalendarQueue::Kind::kRetention, next_retention_);
  } else {
    calendar_.DisarmTimer(CalendarQueue::Kind::kRetention);
  }
  // A service trigger already due (next_due <= now) never bounds the
  // clock advance — the per-stop Tick below handles it structurally —
  // mirroring the `next_due() > clock.Now()` guard of the old min-scan.
  if (service_ != nullptr && service_->trigger().next_due() > now) {
    calendar_.ArmTimer(CalendarQueue::Kind::kService,
                       service_->trigger().next_due());
  } else {
    calendar_.DisarmTimer(CalendarQueue::Kind::kService);
  }
  // Wake exactly when the earliest preemption backoff expires, so the
  // advance loop below re-dispatches at that instant.
  if (const auto ready = scheduler_.NextReadyTime(now)) {
    calendar_.ArmTimer(CalendarQueue::Kind::kSchedulerReady, *ready);
  } else {
    calendar_.DisarmTimer(CalendarQueue::Kind::kSchedulerReady);
  }
}

Status EventDriver::AdvanceTo(SimTime t) {
  SimulatedClock& clock = env_->clock();
  while (clock.Now() < t) {
    // Next interesting boundary: the earliest calendar-queue entry
    // (sample point, retention run, service trigger, compaction finish)
    // or the target. Entries at or before `now` never advance the clock;
    // the processing block below consumes them at the current stop,
    // exactly as the seed's min-scan did.
    ArmTimers(clock.Now());
    SimTime next = t;
    if (const auto peek = calendar_.PeekNext(); peek && *peek < next) {
      next = *peek;
    }
    if (next > clock.Now()) clock.AdvanceTo(next);

    FinalizeDueCompactions(clock.Now());
    if (clock.Now() >= next_sample_) {
      SampleNow();
      next_sample_ = clock.Now() + options_.sample_interval;
    }
    if (next_retention_ >= 0 && clock.Now() >= next_retention_) {
      (void)env_->control_plane().RunRetentionService();
      next_retention_ = clock.Now() + options_.retention_interval;
    }
    if (service_ != nullptr) {
      auto ran = service_->Tick(clock.Now());
      if (!ran.ok()) {
        LOG_WARN << "autocomp service tick failed: " << ran.status();
      } else if (ran->has_value()) {
        const core::PipelineRunReport& report = **ran;
        // Control-loop profiling: how long each OODA phase of this run
        // took in host wall-clock, plus stats-index traffic. These feed
        // the pipeline-throughput benchmarks and the CLI summary.
        if (options_.record_host_timings) {
          metrics_->Record(Id(kPipelineGenerateMs), clock.Now(),
                           report.timings.generate_ms);
          metrics_->Record(Id(kPipelineObserveMs), clock.Now(),
                           report.timings.observe_ms);
          metrics_->Record(Id(kPipelineOrientMs), clock.Now(),
                           report.timings.orient_ms);
          metrics_->Record(Id(kPipelineDecideMs), clock.Now(),
                           report.timings.decide_ms);
          metrics_->Record(Id(kPipelineActMs), clock.Now(),
                           report.timings.act_ms);
        }
        if (report.stats_index_hits > 0) {
          metrics_->Increment(Id(kStatsIndexHits), clock.Now(),
                              report.stats_index_hits);
        }
        if (report.stats_index_fallbacks > 0) {
          metrics_->Increment(Id(kStatsIndexFallbacks), clock.Now(),
                              report.stats_index_fallbacks);
        }
        if (options_.deferred_compaction) {
          ScheduleCompactions(report.selected);
        }
      }
    }
    if (scheduler_.queued() > 0) {
      // Backoff expiries (the kSchedulerReady timer) land here; ripe
      // units with free tables start at this stop.
      DispatchScheduled();
    }
  }
  FinalizeDueCompactions(clock.Now());
  return Status::OK();
}

Status EventDriver::Execute(const workload::QueryEvent& event) {
  const SimTime now = env_->clock().Now();
  ObserveTraffic(event, now);
  if (event.is_write) {
    metrics_->Increment(Id(kWriteQueries), now);
    auto result = env_->query_engine().ExecuteWrite(event.write, now);
    if (!result.ok()) {
      // Quota breaches and missing tables are workload-level failures; the
      // experiment records and continues (the paper's users see exactly
      // these failures pre-compaction).
      metrics_->Increment(Id(kWriteFailures), now);
      return Status::OK();
    }
    total_write_seconds_ += result->total_seconds;
    metrics_->Observe(Id(kWriteLatencyS), now, result->total_seconds);
    if (slo_active_) {
      metrics_->Observe(
          "sched.query_latency_s." +
              sched::MaintenanceScheduler::TenantOf(event.write.table),
          now, result->total_seconds);
    }
    if (result->commit_retries > 0) {
      metrics_->Increment(Id(kClientConflicts), now,
                          result->commit_retries);
    }
    if (result->conflict_failed) {
      metrics_->Increment(Id(kClientConflicts), now);
      metrics_->Increment(Id(kWriteFailures), now);
      return Status::OK();
    }
    if (hook_ != nullptr) {
      const std::optional<std::string> partition =
          event.write.partitions.size() == 1
              ? std::optional<std::string>(event.write.partitions.front())
              : std::nullopt;
      auto hooked = hook_->OnWrite(event.write.table, partition, now);
      if (!hooked.ok()) {
        LOG_WARN << "optimize-after-write hook failed: " << hooked.status();
      }
    }
  } else {
    auto result =
        env_->query_engine().ExecuteRead(event.table, event.read_partition,
                                         now);
    if (!result.ok()) {
      metrics_->Increment(Id(kReadFailures), now);
      return Status::OK();
    }
    total_read_seconds_ += result->total_seconds;
    metrics_->Observe(Id(kReadLatencyS), now, result->total_seconds);
    if (slo_active_) {
      metrics_->Observe("sched.query_latency_s." +
                            sched::MaintenanceScheduler::TenantOf(event.table),
                        now, result->total_seconds);
    }
    if (result->open_timeouts > 0) {
      metrics_->Increment(Id(kOpenTimeouts), now, result->open_timeouts);
    }
  }
  return Status::OK();
}

void EventDriver::FinishRun() {
  // Flush inflight rewrites so their output files do not linger as
  // orphans; they commit at their natural end times (past the clock).
  // Pop order (end time, then table name) keeps the finalize sequence —
  // and the metric series appended by it — deterministic. No further
  // queued units start past the end of the experiment.
  FinalizeDueCompactions(std::numeric_limits<SimTime>::max(),
                         /*dispatch=*/false);
  // Queued-but-undispatched units are dropped; the usage ledger survives
  // (it is part of the checkpointed state).
  scheduler_.Clear();
  // Surface per-site fault-injection counters as hourly counters. The
  // injector's counter map is sorted by site name and every count is a
  // pure function of the lane's serial execution, so the recorded values
  // merge deterministically across lanes and shard layouts.
  const fault::FaultInjector& injector = env_->fault_injector();
  if (injector.enabled()) {
    const SimTime now = env_->clock().Now();
    for (const auto& [site, counters] : injector.Counters()) {
      if (counters.injected > 0) {
        metrics_->Increment(metrics_->Intern("fault_injected." + site), now,
                            counters.injected);
      }
    }
  }
  SampleNow();
}

Status EventDriver::Run(const std::vector<workload::QueryEvent>& events,
                        SimTime end_time) {
  for (const workload::QueryEvent& event : events) {
    AUTOCOMP_RETURN_NOT_OK(AdvanceTo(event.time));
    AUTOCOMP_RETURN_NOT_OK(Execute(event));
  }
  AUTOCOMP_RETURN_NOT_OK(AdvanceTo(end_time));
  FinishRun();
  return Status::OK();
}

Status EventDriver::SaveState(common::BlobWriter* w) const {
  if (!Quiescent()) {
    return Status::Internal("cannot checkpoint a non-quiescent driver");
  }
  w->WriteI64(next_sample_);
  w->WriteI64(next_retention_);
  w->WriteF64(total_read_seconds_);
  w->WriteF64(total_write_seconds_);
  // Table-id interner in id order: the restore re-interns identically,
  // so NameLess tie-breaks (calendar pop order) survive bit for bit.
  const int64_t tables = table_ids_.size();
  w->WriteI64(tables);
  for (int64_t id = 0; id < tables; ++id) {
    w->WriteString(table_ids_.NameOf(static_cast<common::TableId>(id)));
  }
  scheduler_.SaveState(w);
  return Status::OK();
}

Status EventDriver::RestoreState(common::BlobReader* r) {
  if (!Quiescent() || table_ids_.size() != 0) {
    return Status::Internal("EventDriver::RestoreState requires a fresh driver");
  }
  next_sample_ = r->ReadI64();
  next_retention_ = r->ReadI64();
  total_read_seconds_ = r->ReadF64();
  total_write_seconds_ = r->ReadF64();
  const int64_t tables = r->ReadI64();
  for (int64_t id = 0; id < tables && r->ok(); ++id) {
    const common::TableId got = table_ids_.Intern(r->ReadString());
    if (got != static_cast<common::TableId>(id)) {
      return Status::Internal("driver checkpoint: interner id mismatch");
    }
  }
  if (!r->ok()) return Status::Internal("truncated driver checkpoint");
  return scheduler_.RestoreState(r);
}

}  // namespace autocomp::sim
