/// \file scheduler.h
/// \brief Fleet-level maintenance scheduler: the arbitration layer
/// between the OODA decide phase and the executor clusters.
///
/// Every deferred compaction unit the EventDriver runs is dispatched
/// through one of these. The default discipline (fifo) starts each
/// decided unit as soon as its table is free — first-come-first-served
/// with no notion of who the work belongs to. At fleet scale (paper §2,
/// §7) compaction is a shared-resource problem: tenants compete for
/// cluster GBHr, a noisy tenant's backlog can starve everyone else's
/// time-to-compact, and maintenance I/O fights foreground query traffic.
/// The other knobs add that arbitration:
///
///  * **Per-tenant queues** — decided units are bucketed by tenant (the
///    database prefix of "db.table") in admission order.
///  * **Disciplines** — kFifo starts units in per-table plan order (its
///    metric hashes are pinned in tests/scheduler_test.cc); kDrr serves tenants
///    deficit-round-robin weighted by `tenant_weights`, so long-run GBHr
///    shares converge to the configured ratios; kPriority serves the
///    highest effective priority first, with optional aging so starved
///    low-priority units eventually win.
///  * **Admission control** — with `tenant_budget_gb_hours` set, a
///    tenant whose cumulative GBHr usage exceeds its accrued allowance
///    (budget × weight × elapsed days, day one granted up front) has new
///    units rejected at admission until the allowance catches up.
///  * **Preemption** — a running unit can be preempted (traffic spike or
///    an injected `engine.preempt` fault); it re-enters its tenant queue
///    with a deterministic exponential backoff (fault::RetryPolicy
///    machinery) and its burned GBHr charged to the tenant.
///
/// Determinism (NFR2): every decision is a pure function of the
/// scheduler's own serial call sequence. Tenant iteration uses
/// name-sorted maps, ties break on a monotone admission sequence number,
/// the DRR rotation offset and preemption backoff jitter come from
/// CounterRng streams keyed by (seed, counter) — nothing depends on
/// shard count, pool size, or host ordering, so a lane's schedule
/// replays bit-identically (DESIGN.md §12).

#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/blob.h"
#include "common/units.h"
#include "core/candidate.h"
#include "fault/retry_policy.h"

namespace autocomp::sched {

/// \brief Dispatch discipline over the per-tenant queues.
enum class SchedulerPolicy : int {
  /// Per-table FIFO kicks in plan order: a table's next unit starts when
  /// its previous one finalizes. The default.
  kFifo = 0,
  /// Deficit round-robin over tenants, weighted by `tenant_weights`.
  kDrr = 1,
  /// Strict priority by `tenant_priorities`, aged by `aging_per_hour`.
  kPriority = 2,
};

/// Stable lower-case name ("fifo" / "drr" / "priority").
const char* SchedulerPolicyName(SchedulerPolicy policy);
/// Parses a policy name; nullopt for unknown names.
std::optional<SchedulerPolicy> ParseSchedulerPolicy(std::string_view name);

/// \brief Scheduler configuration, threaded from the CLI / presets
/// through DriverOptions.
struct SchedulerOptions {
  SchedulerPolicy policy = SchedulerPolicy::kFifo;

  /// DRR refill per visit, scaled by the tenant's weight. Long-run GBHr
  /// shares converge to weight ratios regardless of the quantum; smaller
  /// quanta interleave tenants more finely.
  double quantum_gb_hours = 1.0;

  /// Per-tenant GBHr/day allowance for admission control; 0 disables it.
  /// A tenant's allowance accrues as budget × weight × elapsed days with
  /// day one granted up front; units admitted while usage exceeds the
  /// allowance are rejected (counted, never queued).
  double tenant_budget_gb_hours = 0;

  /// Enables preemption of running units: the injected `engine.preempt`
  /// fault site is armed per started unit, and query-traffic spikes
  /// (below) preempt the lowest-score running unit of the busy tenant.
  bool preemption = false;

  /// Queries/hour per tenant above which its lowest-value running
  /// compaction is preempted (once per tenant-hour); 0 disables the
  /// traffic trigger.
  int64_t spike_queries_per_hour = 0;

  /// Preemption backoff shape (fault::RetryPolicy): base doubles per
  /// preemption of the same unit, clamped, with deterministic jitter.
  double preempt_backoff_s = 300;
  double preempt_max_backoff_s = 3600;

  /// kPriority: effective priority grows by this much per queued hour,
  /// so starved low-priority units eventually outrank fresh high-priority
  /// ones. 0 = strict (starvation possible by design).
  double aging_per_hour = 0;

  /// Seed for the DRR rotation and backoff-jitter CounterRng streams.
  uint64_t seed = 0x5c4edu;

  /// Record the per-tenant SLO metric series (sched.* — see DESIGN.md
  /// §12). The bench parity legs turn this off to compare a non-default
  /// discipline hash-for-hash against fifo.
  bool record_slo = true;

  /// Tenant -> DRR weight (default 1.0; clamped to a small positive
  /// minimum so a zero weight cannot starve the round loop).
  std::map<std::string, double> tenant_weights;
  /// Tenant -> priority class (default 0; higher runs first).
  std::map<std::string, int> tenant_priorities;

  /// True when any knob departs from plain fifo. The CLI uses it to
  /// reject scheduler knobs outside deferred mode.
  bool Engaged() const {
    return policy != SchedulerPolicy::kFifo || preemption ||
           tenant_budget_gb_hours > 0;
  }

  double WeightOf(const std::string& tenant) const;
  int PriorityOf(const std::string& tenant) const;
};

/// \brief One admitted unit of maintenance work.
struct QueuedUnit {
  core::Candidate candidate;
  /// Estimated cost from the decide phase's "compute_cost_gbhr" trait
  /// (0 when the trait pipeline does not compute it); the DRR deficit
  /// currency and the budget charge fallback.
  double cost_gb_hours = 0;
  /// Decide-phase score — preemption picks the lowest-score victim.
  double score = 0;
  SimTime admitted_at = 0;
  /// Earliest dispatch time; preemption backoff pushes it forward.
  SimTime not_before = 0;
  /// Monotone admission sequence number — the universal tie-break.
  int64_t seq = 0;
  int preemptions = 0;
};

/// \brief Admission outcome of one decided plan.
struct AdmitOutcome {
  int64_t admitted = 0;
  int64_t rejected = 0;
};

/// \brief The scheduler proper. Single-threaded, like the EventDriver
/// that owns it; fleet runs get one per lane.
///
/// Call protocol: Admit() a decided plan, then loop NextUnit() — for
/// each returned unit either report OnStarted() (the unit ran) or drop
/// it (prepare failed; the unit is consumed either way). OnFinished()
/// when a running unit finalizes, Preempt() to push a running unit back
/// into its queue. NextUnit() never returns a unit whose table is
/// already running or whose backoff has not elapsed.
class MaintenanceScheduler {
 public:
  explicit MaintenanceScheduler(SchedulerOptions options);

  /// Tenant of "db.table" = the database prefix (whole name when there
  /// is no dot, e.g. bare tables in unit tests).
  static std::string TenantOf(const std::string& table);

  const SchedulerOptions& options() const { return options_; }

  /// Buckets a decided plan into tenant queues (admission order), minus
  /// units rejected by budget admission control.
  AdmitOutcome Admit(const std::vector<core::ScoredCandidate>& plan,
                     SimTime now);

  /// Pops the next dispatchable unit under the configured discipline, or
  /// nullopt when nothing can start now. The unit is removed from its
  /// queue — a dropped unit (failed prepare) is simply gone.
  std::optional<QueuedUnit> NextUnit(SimTime now);

  /// The unit returned by NextUnit() actually started running.
  void OnStarted(const QueuedUnit& unit, SimTime now);

  /// A running unit finalized (committed or lost); `gb_hours` is charged
  /// to the tenant's budget usage.
  void OnFinished(const std::string& table, double gb_hours, SimTime now);

  /// Preempts the running unit of `table`: charges `gb_hours_charged`
  /// (the work burned before cancellation), re-queues the unit with a
  /// deterministic exponential backoff. Caller is responsible for the
  /// engine-side cleanup (CompactionRunner::Abandon).
  void Preempt(const std::string& table, double gb_hours_charged,
               SimTime now);

  /// Running unit for `table` (nullopt when none) — SLO bookkeeping and
  /// preemption victim selection.
  std::optional<QueuedUnit> RunningUnit(const std::string& table) const;

  /// Name-sorted tables of `tenant` with a running unit.
  std::vector<std::string> RunningTablesOf(const std::string& tenant) const;

  /// Earliest strictly-future not_before among queued units — the
  /// driver's wake-up timer for backoff expiry. nullopt when every
  /// queued unit is already ripe (or nothing is queued).
  std::optional<SimTime> NextReadyTime(SimTime now) const;

  /// GBHr debt of `tenant` at `now`: usage minus accrued allowance
  /// (negative = credit). Always 0 when admission control is off.
  double DebtGbHours(const std::string& tenant, SimTime now) const;
  double UsageGbHours(const std::string& tenant) const;

  int64_t queued() const { return queued_; }
  bool Quiescent() const { return queued_ == 0 && running_.empty(); }

  /// Name-sorted tenants that have ever queued work (usage survives
  /// queue drain — it is the admission-control ledger).
  std::vector<std::string> Tenants() const;

  /// Drops all queued work and bookkeeping except the per-tenant usage
  /// ledger (EventDriver::FinishRun semantics).
  void Clear();

  /// \name Lane checkpoint (DESIGN.md §10/§12)
  /// Serializes the persistent arbitration state of a *quiescent*
  /// scheduler: admission counters, DRR round counter, and the
  /// per-tenant usage/deficit ledgers — everything a restored lane needs
  /// to reproduce future tie-breaks and admission decisions bit for bit.
  /// @{
  void SaveState(common::BlobWriter* w) const;
  Status RestoreState(common::BlobReader* r);
  /// @}

 private:
  struct Tenant {
    std::deque<QueuedUnit> queue;  // admission order
    double deficit = 0;
    double usage_gb_hours = 0;
  };

  /// True when the unit's backoff has elapsed.
  bool Ripe(const QueuedUnit& unit, SimTime now) const {
    return unit.preemptions == 0 || unit.not_before <= now;
  }
  /// True when the unit could be dispatched right now.
  bool Dispatchable(const QueuedUnit& unit, SimTime now) const {
    return Ripe(unit, now) && running_.count(unit.candidate.table) == 0;
  }
  std::deque<QueuedUnit>::iterator FirstDispatchable(Tenant& tenant,
                                                     SimTime now);
  std::optional<QueuedUnit> NextFifo(SimTime now);
  std::optional<QueuedUnit> NextDrr(SimTime now);
  std::optional<QueuedUnit> NextPriority(SimTime now);
  /// Pops a requeued (preempted) unit whose backoff elapsed — the fifo
  /// discipline's only non-kick dispatch source.
  std::optional<QueuedUnit> PopRipeRequeued(SimTime now);
  QueuedUnit Take(Tenant* tenant, std::deque<QueuedUnit>::iterator it);

  SchedulerOptions options_;
  fault::RetryPolicy backoff_;
  std::map<std::string, Tenant> tenants_;      // name-sorted
  std::map<std::string, QueuedUnit> running_;  // by table name
  /// kFifo only: pending per-table start kicks in plan order (one per
  /// table with no running unit at admission; re-kicked at finalize).
  std::deque<std::string> kicks_;
  int64_t next_seq_ = 0;
  uint64_t drr_rounds_ = 0;
  /// kDrr: tenant holding the round-robin turn; empty before the first
  /// dispatch. The holder keeps dispatching while its banked deficit
  /// funds its head unit — the streak that makes long-run GBHr shares
  /// track weights.
  std::string drr_turn_;
  int64_t queued_ = 0;
  /// Queued units with preemptions > 0 — the only units a backoff scan
  /// (NextReadyTime / PopRipeRequeued) can match. Zero in any run that
  /// never preempts, which turns those per-stop scans into one compare.
  int64_t backed_off_ = 0;
};

}  // namespace autocomp::sched
