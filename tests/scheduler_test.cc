// Maintenance-scheduler battery (DESIGN.md §12), three tiers:
//  * property tests on the MaintenanceScheduler itself — DRR long-run
//    GBHr shares converge to the configured weights, no tenant starves
//    under extreme weight skew, priority order respects classes and
//    aging, budget admission control accrues correctly, preemption
//    requeues with deterministic backoff;
//  * single-environment differential runs — default fifo dispatch is
//    pinned to a metric hash, arming preemption without any spike or
//    fault must reproduce it metric-for-metric, and scripted
//    `engine.preempt` injections must hold the safety invariants (no
//    live-file loss, no orphan outputs) while replaying bit-identically;
//  * fleet differential runs — default fifo is pinned to a metric hash,
//    every discipline must be bit-identical between the sequential
//    reference and any shard/pool geometry (NFR2 extends to the
//    scheduler), and a non-default configuration must actually change
//    behaviour (knobs are wired, not decorative).

#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/blob.h"
#include "common/thread_pool.h"
#include "fault/fault_injector.h"
#include "fault/fault_sites.h"
#include "fault/invariant_checker.h"
#include "sched/scheduler.h"
#include "sim/driver.h"
#include "sim/environment.h"
#include "sim/fleet_driver.h"
#include "sim/metrics.h"
#include "sim/presets.h"
#include "workload/cab.h"
#include "workload/tpch.h"

namespace autocomp {
namespace {

using sched::MaintenanceScheduler;
using sched::SchedulerOptions;
using sched::SchedulerPolicy;

// ------------------------------------------------------ unit helpers

core::ScoredCandidate MakeUnit(const std::string& table, double score,
                               double cost_gb_hours) {
  core::ScoredCandidate scored;
  scored.traited.observed.candidate.table = table;
  scored.traited.traits["compute_cost_gbhr"] = cost_gb_hours;
  scored.score = score;
  return scored;
}

/// Admits `per_tenant` unit-cost units for each tenant, one table per
/// unit so table-busy exclusion never interferes with the discipline.
void AdmitMany(MaintenanceScheduler* sched,
               const std::vector<std::string>& tenants, int per_tenant,
               SimTime now) {
  std::vector<core::ScoredCandidate> plan;
  for (const std::string& tenant : tenants) {
    for (int i = 0; i < per_tenant; ++i) {
      char buf[16];
      std::snprintf(buf, sizeof(buf), "t%04d", i);
      plan.push_back(MakeUnit(tenant + "." + buf, 1.0, 1.0));
    }
  }
  const auto outcome = sched->Admit(plan, now);
  ASSERT_EQ(outcome.rejected, 0);
}

/// Dispatches `n` units, finishing each immediately (charging its cost),
/// and returns the per-tenant dispatch counts.
std::map<std::string, int> Dispatch(MaintenanceScheduler* sched, int n,
                                    SimTime now) {
  std::map<std::string, int> counts;
  for (int i = 0; i < n; ++i) {
    auto unit = sched->NextUnit(now);
    if (!unit) break;
    sched->OnStarted(*unit, now);
    sched->OnFinished(unit->candidate.table, unit->cost_gb_hours, now);
    ++counts[MaintenanceScheduler::TenantOf(unit->candidate.table)];
  }
  return counts;
}

TEST(SchedulerTest, ParsePolicyNamesRoundTrip) {
  for (const auto policy : {SchedulerPolicy::kFifo, SchedulerPolicy::kDrr,
                            SchedulerPolicy::kPriority}) {
    const auto parsed =
        sched::ParseSchedulerPolicy(sched::SchedulerPolicyName(policy));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(*parsed, policy);
  }
  EXPECT_FALSE(sched::ParseSchedulerPolicy("round-robin").has_value());
}

TEST(SchedulerTest, EngagedOnlyWhenKnobsDepartFromDefaults) {
  SchedulerOptions options;
  EXPECT_FALSE(options.Engaged());
  options.policy = SchedulerPolicy::kDrr;
  EXPECT_TRUE(options.Engaged());
  options = SchedulerOptions();
  options.preemption = true;
  EXPECT_TRUE(options.Engaged());
  options = SchedulerOptions();
  options.tenant_budget_gb_hours = 1.0;
  EXPECT_TRUE(options.Engaged());
}

TEST(SchedulerTest, TenantOfSplitsOnDatabasePrefix) {
  EXPECT_EQ(MaintenanceScheduler::TenantOf("tenant003.tbl001"), "tenant003");
  EXPECT_EQ(MaintenanceScheduler::TenantOf("bare_table"), "bare_table");
}

// ------------------------------------------- discipline property tests

TEST(SchedulerTest, DrrLongRunSharesConvergeToWeights) {
  SchedulerOptions options;
  options.policy = SchedulerPolicy::kDrr;
  options.quantum_gb_hours = 1.0;
  options.tenant_weights = {{"a", 1.0}, {"b", 2.0}, {"c", 4.0}};
  MaintenanceScheduler sched(options);
  AdmitMany(&sched, {"a", "b", "c"}, 60, /*now=*/0);

  // Dispatch well short of any queue running dry so the shares reflect
  // the discipline, not queue exhaustion.
  const int dispatched = 70;
  const auto counts = Dispatch(&sched, dispatched, /*now=*/0);
  const double total_weight = 1.0 + 2.0 + 4.0;
  for (const auto& [tenant, weight] :
       std::map<std::string, double>{{"a", 1.0}, {"b", 2.0}, {"c", 4.0}}) {
    const double share =
        static_cast<double>(counts.at(tenant)) / dispatched;
    const double expected = weight / total_weight;
    EXPECT_NEAR(share, expected, 0.15 * expected + 0.02)
        << tenant << " got " << counts.at(tenant) << "/" << dispatched;
  }
}

TEST(SchedulerTest, DrrNeverStarvesLightTenants) {
  // 50:1 weight skew: the light tenant's deficit still accrues a full
  // quantum per round, so it dispatches at least once per weight-ratio
  // window — DRR's O(weight ratio) starvation bound.
  SchedulerOptions options;
  options.policy = SchedulerPolicy::kDrr;
  options.tenant_weights = {{"heavy", 50.0}};
  MaintenanceScheduler sched(options);
  AdmitMany(&sched, {"heavy"}, 120, /*now=*/0);
  AdmitMany(&sched, {"light"}, 5, /*now=*/0);

  const auto counts = Dispatch(&sched, 102, /*now=*/0);
  EXPECT_GE(counts.count("light") ? counts.at("light") : 0, 1)
      << "the light tenant starved under 50:1 weight skew";
}

TEST(SchedulerTest, PriorityRunsHigherClassesFirst) {
  SchedulerOptions options;
  options.policy = SchedulerPolicy::kPriority;
  options.tenant_priorities = {{"hi", 5}};
  MaintenanceScheduler sched(options);
  // Low admitted first; strict priority must still run all of hi first.
  AdmitMany(&sched, {"lo"}, 3, /*now=*/0);
  AdmitMany(&sched, {"hi"}, 3, /*now=*/0);

  std::vector<std::string> order;
  for (int i = 0; i < 6; ++i) {
    auto unit = sched.NextUnit(0);
    ASSERT_TRUE(unit.has_value());
    sched.OnStarted(*unit, 0);
    sched.OnFinished(unit->candidate.table, 1.0, 0);
    order.push_back(MaintenanceScheduler::TenantOf(unit->candidate.table));
  }
  EXPECT_EQ(order, (std::vector<std::string>{"hi", "hi", "hi", "lo", "lo",
                                             "lo"}));
}

TEST(SchedulerTest, AgingLetsStarvedLowPriorityWorkOutrankFreshHigh) {
  SchedulerOptions options;
  options.policy = SchedulerPolicy::kPriority;
  options.tenant_priorities = {{"hi", 5}};
  options.aging_per_hour = 1.0;
  MaintenanceScheduler sched(options);
  AdmitMany(&sched, {"lo"}, 1, /*now=*/0);
  AdmitMany(&sched, {"hi"}, 1, /*now=*/6 * kHour);

  // At 6h the low unit aged to effective 0 + 6 > 5: it dispatches first.
  auto unit = sched.NextUnit(6 * kHour);
  ASSERT_TRUE(unit.has_value());
  EXPECT_EQ(MaintenanceScheduler::TenantOf(unit->candidate.table), "lo");
}

TEST(SchedulerTest, BudgetAdmissionAccruesDaily) {
  SchedulerOptions options;
  options.tenant_budget_gb_hours = 1.0;  // engaged via budget alone
  MaintenanceScheduler sched(options);

  auto first = sched.Admit({MakeUnit("a.t0", 1.0, 1.0)}, /*now=*/0);
  EXPECT_EQ(first.admitted, 1);
  auto unit = sched.NextUnit(0);
  ASSERT_TRUE(unit.has_value());
  sched.OnStarted(*unit, 0);
  sched.OnFinished("a.t0", /*gb_hours=*/5.0, 0);
  EXPECT_DOUBLE_EQ(sched.UsageGbHours("a"), 5.0);

  // Usage 5 against a day-one allowance of 1: rejected until the
  // allowance accrues past the usage (1 GBHr per elapsed day).
  auto rejected = sched.Admit({MakeUnit("a.t1", 1.0, 1.0)}, /*now=*/0);
  EXPECT_EQ(rejected.admitted, 0);
  EXPECT_EQ(rejected.rejected, 1);
  EXPECT_GT(sched.DebtGbHours("a", 0), 0);

  auto later = sched.Admit({MakeUnit("a.t1", 1.0, 1.0)}, /*now=*/5 * kDay);
  EXPECT_EQ(later.admitted, 1);
  EXPECT_LT(sched.DebtGbHours("a", 5 * kDay), 0);
}

TEST(SchedulerTest, PreemptionRequeuesWithDeterministicBackoff) {
  SchedulerOptions options;
  options.preemption = true;
  MaintenanceScheduler sched(options);
  ASSERT_EQ(sched.Admit({MakeUnit("a.t0", 2.0, 1.0)}, 0).admitted, 1);
  auto unit = sched.NextUnit(0);
  ASSERT_TRUE(unit.has_value());
  sched.OnStarted(*unit, 0);
  ASSERT_TRUE(sched.RunningUnit("a.t0").has_value());

  sched.Preempt("a.t0", /*gb_hours_charged=*/0.7, /*now=*/0);
  EXPECT_FALSE(sched.RunningUnit("a.t0").has_value());
  EXPECT_EQ(sched.queued(), 1);
  EXPECT_DOUBLE_EQ(sched.UsageGbHours("a"), 0.7);

  // Backed off: not dispatchable now, and the ready time is within the
  // configured (jittered) backoff envelope.
  EXPECT_FALSE(sched.NextUnit(0).has_value());
  const auto ready = sched.NextReadyTime(0);
  ASSERT_TRUE(ready.has_value());
  EXPECT_GT(*ready, 0);
  EXPECT_LE(*ready, static_cast<SimTime>(2 * options.preempt_backoff_s));

  auto retry = sched.NextUnit(*ready);
  ASSERT_TRUE(retry.has_value());
  EXPECT_EQ(retry->candidate.table, "a.t0");
  EXPECT_EQ(retry->preemptions, 1);

  // The same call sequence replays to the same backoff (CounterRng).
  MaintenanceScheduler replay(options);
  ASSERT_EQ(replay.Admit({MakeUnit("a.t0", 2.0, 1.0)}, 0).admitted, 1);
  auto unit2 = replay.NextUnit(0);
  ASSERT_TRUE(unit2.has_value());
  replay.OnStarted(*unit2, 0);
  replay.Preempt("a.t0", 0.7, 0);
  EXPECT_EQ(replay.NextReadyTime(0), ready);
}

TEST(SchedulerTest, CheckpointRoundTripsLedgersAndRejectsTruncation) {
  SchedulerOptions options;
  options.tenant_budget_gb_hours = 2.0;
  MaintenanceScheduler sched(options);
  ASSERT_EQ(sched.Admit({MakeUnit("a.t0", 1.0, 1.0)}, 0).admitted, 1);
  auto unit = sched.NextUnit(0);
  ASSERT_TRUE(unit.has_value());
  sched.OnStarted(*unit, 0);
  sched.OnFinished("a.t0", 1.5, 0);
  ASSERT_TRUE(sched.Quiescent());

  common::BlobWriter w;
  sched.SaveState(&w);
  const std::string blob = w.Take();

  MaintenanceScheduler restored(options);
  common::BlobReader r(blob);
  ASSERT_TRUE(restored.RestoreState(&r).ok());
  EXPECT_DOUBLE_EQ(restored.UsageGbHours("a"), 1.5);
  EXPECT_DOUBLE_EQ(restored.DebtGbHours("a", kDay),
                   sched.DebtGbHours("a", kDay));

  MaintenanceScheduler truncated(options);
  common::BlobReader short_r(std::string_view(blob).substr(0, blob.size() / 2));
  EXPECT_FALSE(truncated.RestoreState(&short_r).ok());
}

// ------------------------------------- single-env differential (CAB)

// Metric hashes of default-knob fifo dispatch, recorded at commit
// f54bd52 — the last one whose EventDriver ran these default-knob runs
// through its own per-table deferred queue instead of the scheduler.
// They pin the deferred dispatch order; the golden trace runs
// synchronous act and does not.
constexpr uint64_t kCabDefaultFifoHash = 0x77c614ed75af594dull;
constexpr uint64_t kFleetDefaultFifoHash = 0xb953f46724ee4f07ull;

struct CabOutcome {
  sim::MetricsRecorder metrics;
  std::map<std::string, std::string> end_state;
  int64_t abandoned = 0;
  int64_t committed = 0;
  int64_t injected = 0;
};

/// A 3-hour deferred CAB run with the given scheduler knobs and fault
/// schedule, invariant-audited at the end.
CabOutcome RunCab(const SchedulerOptions& scheduler,
                  const fault::FaultSchedule& schedule = {}) {
  sim::EnvironmentOptions env_options;
  env_options.fault.enabled = !schedule.entries.empty();
  env_options.fault.seed = 5;
  env_options.fault.schedule = schedule;
  sim::SimEnvironment env(env_options);

  env.fault_injector().set_armed(false);
  workload::CabOptions cab_options;
  cab_options.num_databases = 3;
  cab_options.duration = 3 * kHour;
  workload::CabWorkload cab(cab_options);
  for (const std::string& db : cab.DatabaseNames()) {
    EXPECT_TRUE(workload::SetupTpchDatabase(
                    &env.catalog(), &env.query_engine(), db, 4 * kGiB,
                    engine::UntunedUserJobProfile(), 0)
                    .ok());
  }
  env.fault_injector().set_armed(true);

  sim::StrategyPreset preset;
  preset.scope = sim::ScopeStrategy::kTable;
  preset.k = 50;
  preset.deferred_act = true;
  auto service = sim::MakeMoopService(&env, preset);

  CabOutcome out;
  sim::DriverOptions driver_options;
  driver_options.deferred_compaction = true;
  // Host wall-clock series would differ between otherwise-identical
  // runs; every comparison here is about simulated behaviour.
  driver_options.record_host_timings = false;
  driver_options.scheduler = scheduler;
  sim::EventDriver driver(&env, &out.metrics, driver_options);
  driver.AttachService(service.get());
  const Status run = driver.Run(cab.GenerateEvents(), 3 * kHour);
  EXPECT_TRUE(run.ok()) << run;

  const fault::InvariantChecker checker;
  const Status invariants = checker.CheckOrFail(env.catalog());
  EXPECT_TRUE(invariants.ok()) << invariants;

  out.end_state = fault::CatalogEndState(env.catalog());
  out.abandoned = env.compaction_runner().total_abandoned();
  out.committed = env.compaction_runner().total_committed();
  out.injected = env.fault_injector().total_injected();
  return out;
}

TEST(SchedulerDiffTest, PreemptionArmedFifoMatchesDefaultFifo) {
  // preemption=true arms the engine.preempt fault site for every started
  // unit, but with no fault schedule and no spike threshold nothing ever
  // preempts — the run must be metric-for-metric identical to default
  // fifo, whose hash is pinned.
  const CabOutcome plain = RunCab(SchedulerOptions{});
  ASSERT_GT(plain.committed, 0) << "no compactions ran; vacuous diff";
  EXPECT_EQ(plain.metrics.ContentHash(), kCabDefaultFifoHash);

  SchedulerOptions armed;
  armed.preemption = true;
  const CabOutcome scheduled = RunCab(armed);
  EXPECT_EQ(plain.committed, scheduled.committed);
  EXPECT_EQ(plain.end_state, scheduled.end_state);
  std::string why;
  EXPECT_TRUE(plain.metrics.Equals(scheduled.metrics, &why)) << why;
  EXPECT_EQ(plain.metrics.ContentHash(), scheduled.metrics.ContentHash());
}

TEST(SchedulerDiffTest, ScriptedPreemptionsHoldInvariantsAndReplay) {
  // Preempt-at-kth-hit chaos: for several k, cancel the k-th started
  // unit mid-flight. The invariant audit inside RunCab proves no live
  // file was lost and no orphan outputs survived; the second run proves
  // the whole cascade (abandon, requeue, backoff, re-dispatch) replays
  // bit-identically.
  for (const uint64_t k : {1ull, 2ull, 5ull}) {
    SchedulerOptions engaged;
    engaged.preemption = true;
    fault::FaultSchedule schedule;
    schedule.Add(fault::kSiteEnginePreempt, k, fault::FaultKind::kPreempt);
    const CabOutcome first = RunCab(engaged, schedule);
    if (first.injected == 0) continue;  // fewer than k units started
    EXPECT_GT(first.abandoned, 0) << "k=" << k;
    EXPECT_GT(first.metrics.TotalCount("compaction_preempted"), 0);

    const CabOutcome again = RunCab(engaged, schedule);
    EXPECT_EQ(first.end_state, again.end_state) << "k=" << k;
    std::string why;
    EXPECT_TRUE(first.metrics.Equals(again.metrics, &why))
        << "k=" << k << ": " << why;
  }
}

TEST(SchedulerDiffTest, PreemptedUnitIsRetriedAfterBackoff) {
  // A single early preemption must not permanently lose the unit: the
  // requeued unit re-dispatches after its backoff and work still lands
  // (commits happen despite the injected cancellation).
  SchedulerOptions engaged;
  engaged.preemption = true;
  fault::FaultSchedule schedule;
  schedule.Add(fault::kSiteEnginePreempt, 1, fault::FaultKind::kPreempt);
  const CabOutcome out = RunCab(engaged, schedule);
  ASSERT_GT(out.injected, 0);
  EXPECT_GT(out.abandoned, 0);
  EXPECT_GT(out.committed, 0)
      << "the preempted unit never came back — requeue/backoff is broken";
}

// --------------------------------------------------- fleet differential

sim::FleetSimOptions SchedFleet(uint64_t seed) {
  sim::FleetSimOptions options;
  options.days = 2;
  options.seed = seed;
  options.fleet.num_databases = 6;
  options.fleet.tables_per_db = 3;
  options.fleet.new_tables_per_day = 2;
  options.fleet.seed = 77;
  options.env.namenode.rpc_capacity_per_hour = 200;
  options.driver.sample_interval = 4 * kHour;
  options.driver.retention_interval = kDay;
  options.driver.record_host_timings = false;
  options.driver.deferred_compaction = true;
  sim::StrategyPreset preset;
  preset.scope = sim::ScopeStrategy::kTable;
  preset.k = 5;
  preset.deferred_act = true;
  options.preset = preset;
  return options;
}

sim::FleetSimResult RunFleet(sim::FleetSimOptions options) {
  sim::FleetSimulation simulation(std::move(options));
  auto result = simulation.Run();
  EXPECT_TRUE(result.ok()) << result.status();
  return result.ok() ? std::move(*result) : sim::FleetSimResult{};
}

TEST(SchedulerDiffTest, PreemptionArmedFifoBitIdenticalAcrossGeometries) {
  // Preemption-armed fifo must be hash-identical to the pinned default
  // fifo at every shard/pool geometry — the fleet-scale version of the
  // single-env parity above.
  sim::FleetSimOptions plain_options = SchedFleet(7);
  plain_options.sharded = false;
  const sim::FleetSimResult plain = RunFleet(std::move(plain_options));
  ASSERT_GT(plain.events_executed, 0);
  const uint64_t plain_hash = plain.metrics.ContentHash();
  EXPECT_EQ(plain_hash, kFleetDefaultFifoHash);

  for (const int shards : {1, 4, 8}) {
    for (const int workers : {0, 2, 4}) {
      std::unique_ptr<ThreadPool> pool;
      if (workers > 0) pool = std::make_unique<ThreadPool>(workers);
      sim::FleetSimOptions options = SchedFleet(7);
      options.driver.scheduler.preemption = true;  // armed, inert
      options.sharded = true;
      options.shards = shards;
      options.pool = pool.get();
      const sim::FleetSimResult scheduled = RunFleet(std::move(options));
      std::string why;
      EXPECT_TRUE(plain.metrics.Equals(scheduled.metrics, &why))
          << "shards=" << shards << " workers=" << workers << ": " << why;
      EXPECT_EQ(plain_hash, scheduled.metrics.ContentHash());
      EXPECT_EQ(plain.total_files, scheduled.total_files);
    }
  }
}

TEST(SchedulerDiffTest, NonDefaultDisciplinesDeterministicAcrossGeometries) {
  // drr and priority change dispatch order, so they cannot be compared
  // to fifo — instead each must agree with ITSELF between
  // the sequential reference and every shard/pool geometry, SLO series
  // included (record_slo stays on).
  for (const SchedulerPolicy policy :
       {SchedulerPolicy::kDrr, SchedulerPolicy::kPriority}) {
    SchedulerOptions sched_options;
    sched_options.policy = policy;
    sched_options.quantum_gb_hours = 0.5;
    sched_options.tenant_weights = {{"tenant000", 2.0}, {"tenant003", 4.0}};
    sched_options.tenant_priorities = {{"tenant001", 3}};
    sched_options.aging_per_hour = 0.5;
    sched_options.tenant_budget_gb_hours = 50.0;  // loose; SLO debt rows on

    sim::FleetSimOptions seq_options = SchedFleet(7);
    seq_options.driver.scheduler = sched_options;
    seq_options.sharded = false;
    const sim::FleetSimResult seq = RunFleet(std::move(seq_options));
    ASSERT_GT(seq.events_executed, 0);
    const uint64_t seq_hash = seq.metrics.ContentHash();

    for (const int shards : {1, 4, 8}) {
      for (const int workers : {0, 2, 4}) {
        std::unique_ptr<ThreadPool> pool;
        if (workers > 0) pool = std::make_unique<ThreadPool>(workers);
        sim::FleetSimOptions options = SchedFleet(7);
        options.driver.scheduler = sched_options;
        options.sharded = true;
        options.shards = shards;
        options.pool = pool.get();
        const sim::FleetSimResult sharded = RunFleet(std::move(options));
        std::string why;
        EXPECT_TRUE(seq.metrics.Equals(sharded.metrics, &why))
            << sched::SchedulerPolicyName(policy) << " shards=" << shards
            << " workers=" << workers << ": " << why;
        EXPECT_EQ(seq_hash, sharded.metrics.ContentHash());
      }
    }
  }
}

TEST(SchedulerDiffTest, TightBudgetActuallyChangesBehavior) {
  // Guard against a decorative scheduler: a tight tenant budget must
  // reject admissions and diverge from the default-knob run.
  sim::FleetSimOptions plain_options = SchedFleet(7);
  plain_options.sharded = false;
  const sim::FleetSimResult plain = RunFleet(std::move(plain_options));

  sim::FleetSimOptions tight_options = SchedFleet(7);
  tight_options.driver.scheduler.tenant_budget_gb_hours = 1e-6;
  tight_options.sharded = false;
  const sim::FleetSimResult tight = RunFleet(std::move(tight_options));

  EXPECT_GT(tight.metrics.TotalCount("sched.rejected"), 0)
      << "a near-zero budget admitted everything — admission control is "
         "not reaching the dispatch path";
  EXPECT_NE(plain.metrics.ContentHash(), tight.metrics.ContentHash());
}

}  // namespace
}  // namespace autocomp
