// Exact checks that an idle hook costs nothing but its guard. Both
// count instead of timing, so they hold on any host:
//  * fault injector — an enabled injector with an empty profile and an
//    empty schedule ends a replay with no hit counted at any site:
//    Arm() returns on its configured-sites filter, before the lock and
//    the counters;
//  * trace recorder — a recorder armed at kOff, or at kPhases, is never
//    called for an event it would not record. BeginSpan and Instant
//    below its level and EndSpan(0, ...) are what
//    TraceRecorder::unguarded_calls() counts; every call site guards
//    them, so no detail or outcome string is built for nothing.
// Both run over one replay (ReplayScenario) that reaches every Arm()
// site and every trace emission site a fault-free run can reach. The two
// controls prove it: each fault site scheduled at an unreachable hit
// index counts hits, and a kFull recorder sees phase, decision, runner,
// commit and storage events.

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <utility>

#include "catalog/control_plane.h"
#include "fault/fault_injector.h"
#include "fault/fault_sites.h"
#include "obs/trace.h"
#include "sim/driver.h"
#include "sim/environment.h"
#include "sim/metrics.h"
#include "sim/presets.h"
#include "workload/cab.h"
#include "workload/tpch.h"

namespace autocomp {
namespace {

constexpr SimTime kDuration = 4 * kHour;

/// The injector's per-site counters at the end of a replay.
using SiteCounts = std::map<std::string, fault::SiteCounters>;

/// A deferred CAB replay over three TPC-H databases, observed by `trace`
/// (may be null) with the injector enabled on `schedule`:
///  * hourly TABLE-50 cycles plan rewrites (phase and decision events)
///    that run on the timeline through a preemption-armed fifo
///    scheduler (engine.runner, engine.preempt, runner spans);
///  * user writes and rewrites commit (lst.commit, storage.create,
///    catalog.commit_event, commit events);
///  * a NameNode budget just below the read traffic makes some reads
///    time out (storage.open, storage events);
///  * a one-hour snapshot retention lets the hourly retention service
///    expire snapshots (retention.expire).
SiteCounts ReplayScenario(fault::FaultSchedule schedule,
                          obs::TraceRecorder* trace) {
  sim::EnvironmentOptions env_options;
  env_options.fault.enabled = true;
  env_options.fault.schedule = std::move(schedule);
  env_options.namenode.rpc_capacity_per_hour = 60'000;
  env_options.trace = trace;
  sim::SimEnvironment env(env_options);

  // Setup loads treat failures as fatal, so every driver disarms the
  // injector around them.
  env.fault_injector().set_armed(false);
  workload::CabOptions cab_options;
  cab_options.num_databases = 3;
  cab_options.duration = kDuration;
  const workload::CabWorkload cab(cab_options);
  for (const std::string& db : cab.DatabaseNames()) {
    EXPECT_TRUE(workload::SetupTpchDatabase(
                    &env.catalog(), &env.query_engine(), db, 4 * kGiB,
                    engine::UntunedUserJobProfile(), 0)
                    .ok());
  }
  catalog::TablePolicy policy;
  policy.snapshot_retention = kHour;
  for (const std::string& table : env.catalog().ListAllTables()) {
    env.control_plane().SetPolicy(table, policy);
  }
  env.fault_injector().set_armed(true);

  sim::StrategyPreset preset;
  preset.scope = sim::ScopeStrategy::kTable;
  preset.k = 50;
  preset.deferred_act = true;
  preset.trace = trace;
  auto service = sim::MakeMoopService(&env, preset);

  sim::MetricsRecorder metrics;
  sim::DriverOptions driver_options;
  driver_options.deferred_compaction = true;
  driver_options.scheduler.preemption = true;
  sim::EventDriver driver(&env, &metrics, driver_options);
  driver.AttachService(service.get());
  const Status run = driver.Run(cab.GenerateEvents(), kDuration);
  EXPECT_TRUE(run.ok()) << run;
  EXPECT_GT(metrics.TotalCount("compaction_commits"), 0)
      << "no rewrite committed: the runner's exits went unexercised";
  return env.fault_injector().Counters();
}

obs::TraceRecorder Recorder(obs::TraceLevel level) {
  obs::TraceRecorder::Options options;
  options.level = level;
  return obs::TraceRecorder(options);
}

bool TracingCompiledOut() {
  return !Recorder(obs::TraceLevel::kFull).enabled(obs::TraceLevel::kPhases);
}

TEST(IdleHookTest, EmptyInjectorCountsNoHit) {
  const SiteCounts counts = ReplayScenario({}, nullptr);
  int64_t hits = 0;
  for (const auto& [site, counters] : counts) hits += counters.hits;
  EXPECT_EQ(hits, 0);
  EXPECT_TRUE(counts.empty()) << counts.size() << " sites counted hits, "
                              << "first " << counts.begin()->first;
}

/// Non-vacuity control of EmptyInjectorCountsNoHit: with every site of
/// fault/fault_sites.h scheduled at a hit index the replay never
/// reaches, each site counts hits and nothing is injected.
TEST(IdleHookTest, ScenarioReachesEveryFaultSite) {
  constexpr uint64_t kUnreachable = std::numeric_limits<uint64_t>::max();
  const struct {
    const char* site;
    fault::FaultKind kind;
  } kEverySite[] = {
      {fault::kSiteStorageOpen, fault::FaultKind::kTimeout},
      {fault::kSiteStorageCreate, fault::FaultKind::kQuotaExceeded},
      {fault::kSiteLstCommit, fault::FaultKind::kCasRaceConflict},
      {fault::kSiteEngineRunner, fault::FaultKind::kRunnerCrash},
      {fault::kSiteRetentionExpire, fault::FaultKind::kCasRaceConflict},
      {fault::kSiteCatalogCommitEvent, fault::FaultKind::kDropEvent},
      {fault::kSiteEnginePreempt, fault::FaultKind::kPreempt},
  };
  fault::FaultSchedule schedule;
  for (const auto& entry : kEverySite) {
    schedule.Add(entry.site, kUnreachable, entry.kind);
  }
  const SiteCounts counts = ReplayScenario(std::move(schedule), nullptr);
  for (const auto& entry : kEverySite) {
    const auto it = counts.find(entry.site);
    ASSERT_NE(it, counts.end()) << entry.site << " was never armed";
    EXPECT_GT(it->second.hits, 0) << entry.site;
    EXPECT_EQ(it->second.injected, 0) << entry.site;
  }
}

TEST(IdleHookTest, RecordersBelowASiteLevelAreNeverCalled) {
  for (const obs::TraceLevel level :
       {obs::TraceLevel::kOff, obs::TraceLevel::kPhases}) {
    obs::TraceRecorder trace = Recorder(level);
    ReplayScenario({}, &trace);
    EXPECT_EQ(trace.unguarded_calls(), 0)
        << "a recorder at " << obs::TraceLevelName(level)
        << " was called for events it does not record";
    if (level == obs::TraceLevel::kOff || TracingCompiledOut()) {
      EXPECT_EQ(trace.digest().events, 0);
    } else {
      EXPECT_GT(trace.digest().events, 0) << "recorder never installed";
    }
  }
}

/// Non-vacuity control of RecordersBelowASiteLevelAreNeverCalled: the
/// same replay at kFull emits every category a fault-free run has.
TEST(IdleHookTest, ScenarioReachesEveryTraceCategory) {
  if (TracingCompiledOut()) GTEST_SKIP() << "tracing compiled out";
  obs::TraceRecorder trace = Recorder(obs::TraceLevel::kFull);
  ReplayScenario({}, &trace);
  ASSERT_EQ(trace.events_dropped(), 0) << "raise the recorder's capacity";
  std::set<obs::SpanCategory> seen;
  for (const obs::TraceEvent& event : trace.Events()) {
    seen.insert(event.category);
  }
  for (const obs::SpanCategory category :
       {obs::SpanCategory::kPhase, obs::SpanCategory::kDecision,
        obs::SpanCategory::kRunner, obs::SpanCategory::kCommit,
        obs::SpanCategory::kStorage}) {
    EXPECT_EQ(seen.count(category), 1u) << obs::SpanCategoryName(category);
  }
}

}  // namespace
}  // namespace autocomp
