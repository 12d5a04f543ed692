// Eager reference replay of a fleet, independent of FleetSimulation's
// lane lifecycle. Every lane is built and loaded at setup, every lane
// advances through every hour, and each hour is sealed with a full
// re-sum of the lanes' NameNode tallies (EpochLoadModel::PublishHour).
//
// It shares only the public layers with the driver under test:
// SimEnvironment, EventDriver, FleetWorkload, MakeMoopService,
// EpochLoadModel and MetricsRecorder::Merge. It has no wake queue, no
// delta barriers (the load model's per-lane delta calls), no planned
// estimates, and no eviction, retirement, ghost or shared replays. A bug
// in any of those therefore shows up as a difference from this replay
// instead of being repeated by it.
//
// Options that change only how FleetSimulation gets its result are
// ignored: shards, sharded, pool, check_invariants, trace_out,
// on_lane_residency, max_resident_lanes and evict_after_idle_hours.

#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/counter_rng.h"
#include "sim/driver.h"
#include "sim/environment.h"
#include "sim/fleet_driver.h"
#include "sim/metrics.h"
#include "sim/presets.h"
#include "storage/epoch_load.h"
#include "workload/fleet.h"

namespace autocomp::sim {

/// Replays `options` lane by lane, hour by hour, on the calling thread.
/// A failing step is reported as a test failure and ends the replay.
inline FleetSimResult EagerFleetReplay(const FleetSimOptions& options) {
  struct Lane {
    std::string db;
    std::unique_ptr<obs::TraceRecorder> trace;
    std::unique_ptr<SimEnvironment> env;
    MetricsRecorder metrics;
    std::unique_ptr<core::AutoCompService> service;
    std::unique_ptr<EventDriver> driver;
    std::vector<workload::QueryEvent> day_events;
    size_t next_event = 0;
  };
  const auto ok = [](const Status& st) {
    EXPECT_TRUE(st.ok()) << "eager reference: " << st;
    return st.ok();
  };
  const auto targets = [](Lane& lane) {
    return workload::LaneTargets{&lane.env->catalog(),
                                 &lane.env->query_engine(),
                                 &lane.env->control_plane()};
  };

  FleetSimResult result;
  storage::EpochLoadModel load(options.env.namenode);
  const bool tracing =
      options.trace_armed || options.trace_level != obs::TraceLevel::kOff;

  // One lane per tenant database, each built from the per-lane recipe:
  // seeds derived from (master seed, database name), writer and runner
  // ids pinned to 1, and the injector disarmed until the loads are done.
  std::vector<Lane> lanes(static_cast<size_t>(options.fleet.num_databases));
  std::map<std::string, size_t> lane_by_db;
  for (size_t i = 0; i < lanes.size(); ++i) {
    Lane& lane = lanes[i];
    char db[32];
    std::snprintf(db, sizeof(db), "tenant%03d", static_cast<int>(i));
    lane.db = db;
    lane_by_db[lane.db] = i;
    if (tracing) {
      obs::TraceRecorder::Options trace_options;
      trace_options.level = options.trace_level;
      trace_options.lane = lane.db;
      lane.trace = std::make_unique<obs::TraceRecorder>(trace_options);
    }
    EnvironmentOptions env = options.env;
    const uint64_t key = CounterRng::HashString(lane.db);
    env.seed = CounterRng::At(options.seed, key, 0);
    if (env.fault.enabled) {
      env.fault.seed = CounterRng::At(options.env.fault.seed, key, 1);
    }
    env.engine.writer_id = 1;
    env.runner_id = 1;
    env.trace = lane.trace.get();
    lane.env = std::make_unique<SimEnvironment>(env);
    lane.env->dfs().SetEpochLoadView(&load);
    lane.driver = std::make_unique<EventDriver>(lane.env.get(), &lane.metrics,
                                                options.driver);
    if (options.preset) {
      StrategyPreset preset = *options.preset;
      preset.trace = lane.trace.get();
      lane.service = MakeMoopService(lane.env.get(), preset);
      lane.driver->AttachService(lane.service.get());
    }
    lane.env->fault_injector().set_armed(false);
    if (!ok(lane.env->catalog().CreateDatabase(
            lane.db, options.fleet.quota_objects_per_db))) {
      return result;
    }
  }

  // Loads a table into its lane at `at`, with the lane's injector off.
  const auto materialize = [&](const workload::FleetWorkload::TableOp& op,
                               SimTime at) {
    Lane& lane = lanes[lane_by_db.at(op.db)];
    lane.env->fault_injector().set_armed(false);
    Status st = lane.driver->AdvanceTo(at);
    if (st.ok()) st = workload::FleetWorkload::Materialize(targets(lane), op);
    lane.env->fault_injector().set_armed(true);
    return ok(st);
  };
  workload::FleetWorkload fleet(options.fleet);
  for (const workload::FleetWorkload::TableOp& op : fleet.PlanSetup(0)) {
    if (!materialize(op, op.at)) return result;
  }
  for (Lane& lane : lanes) lane.env->fault_injector().set_armed(true);

  const SimTime end_time =
      static_cast<SimTime>(std::max(options.days, 1)) * kDay;
  for (SimTime epoch = 0; epoch < end_time; epoch += kHour) {
    if (epoch % kDay == 0) {
      const int day = static_cast<int>(epoch / kDay);
      for (const workload::FleetWorkload::TableOp& op :
           fleet.PlanOnboard(day, epoch)) {
        if (!materialize(op, epoch)) return result;
      }
      for (Lane& lane : lanes) {
        lane.day_events.clear();
        lane.next_event = 0;
      }
      for (workload::QueryEvent& event : fleet.EventsForDay(day)) {
        const auto it =
            lane_by_db.find(workload::FleetWorkload::DatabaseOf(event));
        if (it == lane_by_db.end()) continue;
        lanes[it->second].day_events.push_back(std::move(event));
      }
    }
    const SimTime epoch_end = epoch + kHour;
    int64_t fleet_rpcs = 0;
    for (Lane& lane : lanes) {
      for (; lane.next_event < lane.day_events.size() &&
             lane.day_events[lane.next_event].time < epoch_end;
           ++lane.next_event) {
        const workload::QueryEvent& event = lane.day_events[lane.next_event];
        if (!ok(lane.driver->AdvanceTo(event.time)) ||
            !ok(lane.driver->Execute(event))) {
          return result;
        }
        ++result.events_executed;
      }
      if (!ok(lane.driver->AdvanceTo(epoch_end))) return result;
      fleet_rpcs += lane.env->dfs().RpcsInHour(epoch);
    }
    load.PublishHour(epoch, fleet_rpcs);
  }

  std::vector<const MetricsRecorder*> recorders;
  for (Lane& lane : lanes) {
    lane.driver->FinishRun();
    result.total_files += lane.env->TotalFileCount();
    result.open_calls += lane.env->dfs().AggregateStats().open_calls;
    result.faults_injected += lane.env->fault_injector().total_injected();
    recorders.push_back(&lane.metrics);
    if (lane.trace != nullptr) {
      result.trace_digest.Combine(lane.trace->digest());
    }
  }
  result.metrics = MetricsRecorder::Merge(recorders);
  result.lanes_total = static_cast<int64_t>(lanes.size());
  result.lanes_hydrated = result.lanes_total;
  result.peak_resident_lanes = result.lanes_total;
  return result;
}

}  // namespace autocomp::sim
