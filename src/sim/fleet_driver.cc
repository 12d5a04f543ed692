#include "sim/fleet_driver.h"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <cstdio>
#include <utility>

#include "common/counter_rng.h"
#include "common/logging.h"
#include "sim/lane_checkpoint.h"
#include "engine/write_planner.h"
#include "fault/invariant_checker.h"
#include "format/columnar.h"
#include "obs/trace_export.h"

namespace autocomp::sim {

/// One tenant database's complete simulated deployment. A lane starts
/// cold — just its name and a queue of planned-but-unmaterialised table
/// loads — and is hydrated into the full stack (clock, storage, catalog,
/// clusters, engine, recorder, driver) on first due work. Hydrated lanes
/// share no mutable state, so shards advance them concurrently; the only
/// cross-lane read is the EpochLoadModel, immutable between barriers.
struct FleetSimulation::Lane {
  std::string db;
  int index = 0;
  int shard = 0;

  /// Cold state: planned table loads queued until hydration, with each
  /// op's exact CreateFile count (engine::PlannedFileCount) so the lane
  /// contributes to epoch barriers before its environment exists.
  std::vector<workload::FleetWorkload::TableOp> pending;
  std::vector<int64_t> pending_rpcs;
  bool ever_had_events = false;

  /// Hot state (null until hydrated). The recorder is constructed before
  /// the environment (which wires it through the stack); all of this
  /// lane's spans land there, on its own timeline.
  std::unique_ptr<obs::TraceRecorder> trace;
  std::unique_ptr<SimEnvironment> env;
  MetricsRecorder metrics;
  /// Per-lane AutoComp control loop (only with FleetSimOptions::preset).
  std::unique_ptr<core::AutoCompService> service;
  std::unique_ptr<EventDriver> driver;

  /// This day's events for this lane, time-sorted; `next_event` is the
  /// cursor of the first not-yet-executed one.
  std::vector<workload::QueryEvent> day_events;
  size_t next_event = 0;
  int64_t executed = 0;
  /// First failure while advancing (surfaced at the next barrier; the
  /// parallel section itself never propagates errors across threads).
  Status status = Status::OK();

  /// Active-lane scheduling: the authoritative wake-up time (-1 =
  /// unarmed). Wake-queue entries at any other time are stale tombstones.
  SimTime next_wake = -1;
  /// Popped for the current epoch but not yet advanced: the pre-wave
  /// budget pass must not evict a lane that a later wave is about to run.
  bool awaiting_advance = false;
  bool hydrated = false;
  bool finalized = false;
  /// Eviction state (DESIGN.md §10): a dehydrated lane keeps `hydrated`
  /// true (its planned loads were consumed) but its environment/driver
  /// are gone, replaced by this compact resumable blob. `last_active` is
  /// the end of the last epoch the lane was due in; `restore_host_ms`
  /// accumulates the O(state) rebuild cost (parallel-safe: each lane
  /// only ever writes its own).
  std::string checkpoint;
  bool evicted = false;
  SimTime last_active = 0;
  double restore_host_ms = 0;
  /// Time of this lane's last planned workload event across *all* days
  /// (-1 = none), precomputed at setup when eviction is on —
  /// EventsForDay forks a per-day RNG, so scanning the full horizon up
  /// front draws nothing the replay will draw again. The evictor may
  /// finalize a lane early only when this is in the past: day_events
  /// alone only proves the *current* day is drained, and a retired
  /// lane cannot be re-activated when tomorrow's Zipf picks land on it.
  SimTime last_event_time = -1;
  /// Earliest instant the lane could become retire-eligible again: the
  /// blocking mutating retention tick found by the last failed
  /// TryRetireLane. A lane past its last workload touch only changes
  /// state by executing that tick, so re-checking before it has run is
  /// a wasted catalog scan. -1 = never checked (always attempt).
  SimTime retire_blocked_until = -1;
  /// Delta-barrier bookkeeping: RPCs this lane already published for
  /// `spill_hour` (work finalizing exactly at an epoch boundary posts
  /// into the *next* hour's bucket), subtracted from the next tally so
  /// nothing double-counts.
  SimTime spill_hour = -1;
  int64_t spill_amount = 0;

  /// Results captured by FinalizeLane (the environment may be destroyed
  /// right after — transient finalization of cold lanes).
  int64_t total_files = 0;
  int64_t open_calls = 0;
  int64_t faults_injected = 0;
};

namespace {

workload::LaneTargets TargetsOf(SimEnvironment* env) {
  return {&env->catalog(), &env->query_engine(), &env->control_plane()};
}

}  // namespace

int FleetSimulation::ShardOf(const std::string& db, int shards) {
  assert(shards > 0);
  return static_cast<int>(CounterRng::HashString(db) %
                          static_cast<uint64_t>(shards));
}

FleetSimulation::FleetSimulation(FleetSimOptions options)
    : options_(std::move(options)), epoch_load_(options_.env.namenode) {
  if (options_.shards < 1) options_.shards = 1;
  if (options_.days < 1) options_.days = 1;
}

FleetSimulation::~FleetSimulation() = default;

void FleetSimulation::PrepareHydration(Lane* lane, int64_t from_hour) {
  // The lane's actual tallies take over from here: retract its planned
  // contributions for hours the barrier has not sealed yet. (Estimates
  // for already-sealed hours were consumed by their barriers; the replay
  // recreates the same counts in those old buckets, which nothing reads
  // again.)
  for (size_t i = 0; i < lane->pending.size(); ++i) {
    const SimTime hour = (lane->pending[i].at / kHour) * kHour;
    if (hour < from_hour) continue;
    const auto it = pending_rpcs_by_hour_.find(hour);
    if (it == pending_rpcs_by_hour_.end()) continue;
    it->second -= lane->pending_rpcs[i];
    if (it->second <= 0) pending_rpcs_by_hour_.erase(it);
  }
  ++lanes_hydrated_;
  AdjustResidency(lane, +1);
}

void FleetSimulation::AdjustResidency(Lane* lane, int64_t delta) {
  resident_lanes_ += delta;
  peak_resident_lanes_ = std::max(peak_resident_lanes_, resident_lanes_);
  if (options_.on_lane_residency) {
    options_.on_lane_residency(lane->db, resident_lanes_,
                               peak_resident_lanes_);
  }
}

void FleetSimulation::BuildLane(Lane* lane) {
  lane->env = std::make_unique<SimEnvironment>(LaneEnvironmentOptions(lane));
  lane->env->dfs().SetEpochLoadView(&epoch_load_);
  lane->driver = std::make_unique<EventDriver>(lane->env.get(),
                                               &lane->metrics,
                                               options_.driver);
}

void FleetSimulation::DropLane(Lane* lane) {
  // The service and the driver hold pointers into the environment.
  lane->service.reset();
  lane->driver.reset();
  lane->env.reset();
}

void FleetSimulation::ForEachShard(
    const std::function<void(int64_t)>& per_shard) {
  const int64_t shards = static_cast<int64_t>(options_.shards);
  if (options_.sharded && options_.pool != nullptr) {
    options_.pool->ParallelFor(shards, per_shard);
  } else {
    for (int64_t s = 0; s < shards; ++s) per_shard(s);
  }
}

EnvironmentOptions FleetSimulation::LaneEnvironmentOptions(Lane* lane) const {
  EnvironmentOptions env = options_.env;
  // Per-lane seed is a pure function of (master seed, database name):
  // independent of lane enumeration, shard count, pool size — and of
  // *when* the lane hydrates.
  env.seed = CounterRng::At(options_.seed, CounterRng::HashString(lane->db),
                            /*index=*/0);
  // Pin writer/runner ids so file names do not depend on how many
  // engines this *process* constructed before (each lane has its own
  // catalog, so ids need not be unique across lanes).
  env.engine.writer_id = 1;
  env.runner_id = 1;
  // Per-lane fault seed, same construction as the environment seed:
  // injections are a pure function of (fault seed, database name, the
  // lane's serial hit counts), never of shard count or pool size.
  if (env.fault.enabled) {
    env.fault.seed = CounterRng::At(options_.env.fault.seed,
                                    CounterRng::HashString(lane->db),
                                    /*index=*/1);
  }
  // A restored lane keeps recording into the recorder it had before
  // eviction — the digest stream continues seamlessly.
  env.trace = lane->trace.get();
  return env;
}

void FleetSimulation::HydrateLane(Lane* lane) {
  if (lane->hydrated) return;
  lane->hydrated = true;

  // Lane recorder: built even at level kOff when armed, so every
  // emission site runs its guard (TraceGoldenTest's armed-off replay).
  const bool tracing =
      options_.trace_armed || options_.trace_level != obs::TraceLevel::kOff;
  if (tracing) {
    obs::TraceRecorder::Options trace_options;
    trace_options.level = options_.trace_level;
    trace_options.lane = lane->db;
    lane->trace = std::make_unique<obs::TraceRecorder>(trace_options);
  }
  BuildLane(lane);
  if (options_.preset) {
    // Per-lane AutoComp control loop; the lane recorder takes the
    // OODA/decision spans.
    StrategyPreset preset = *options_.preset;
    preset.trace = lane->trace.get();
    lane->service = MakeMoopService(lane->env.get(), preset);
    lane->driver->AttachService(lane->service.get());
  }

  // Replay the planned loads: database first, then ops in plan order,
  // each at its original time (AdvanceTo replays any deferred sample /
  // retention ticks on the way — a dozing lane's state cannot change, so
  // the deferred ticks reproduce exactly what hourly ticking records).
  // The injector stays disarmed through the loads: table loads draw no
  // faults.
  lane->env->fault_injector().set_armed(false);
  Status st = lane->env->catalog().CreateDatabase(
      lane->db, options_.fleet.quota_objects_per_db);
  for (const workload::FleetWorkload::TableOp& op : lane->pending) {
    if (!st.ok()) break;
    st = lane->driver->AdvanceTo(op.at);
    if (st.ok()) {
      st = workload::FleetWorkload::Materialize(TargetsOf(lane->env.get()),
                                                op);
    }
  }
  if (!st.ok()) lane->status = std::move(st);
  lane->pending.clear();
  lane->pending.shrink_to_fit();
  lane->pending_rpcs.clear();
  lane->pending_rpcs.shrink_to_fit();
  lane->env->fault_injector().set_armed(fault_armed_);
}

void FleetSimulation::AdvanceLane(Lane* lane, SimTime epoch_end) {
  if (!lane->status.ok()) return;
  while (lane->next_event < lane->day_events.size() &&
         lane->day_events[lane->next_event].time < epoch_end) {
    const workload::QueryEvent& event = lane->day_events[lane->next_event];
    Status st = lane->driver->AdvanceTo(event.time);
    if (st.ok()) st = lane->driver->Execute(event);
    if (!st.ok()) {
      lane->status = std::move(st);
      return;
    }
    ++lane->next_event;
    ++lane->executed;
  }
  Status st = lane->driver->AdvanceTo(epoch_end);
  if (!st.ok()) lane->status = std::move(st);
}

int64_t FleetSimulation::PublishLaneDeltas(Lane* lane, SimTime epoch) {
  const int64_t tally = lane->env->dfs().RpcsInHour(epoch);
  const int64_t already =
      lane->spill_hour == epoch ? lane->spill_amount : 0;
  epoch_load_.AddDelta(epoch, tally - already);
  // Work finalizing exactly at the epoch boundary posts its RPCs into
  // the *next* hour's bucket; publish that spillover now and remember it
  // so the next touch of this lane does not count it twice.
  const SimTime next_hour = epoch + kHour;
  const int64_t spill = lane->env->dfs().RpcsInHour(next_hour);
  if (spill > 0) epoch_load_.AddDelta(next_hour, spill);
  lane->spill_hour = next_hour;
  lane->spill_amount = spill;
  return tally;
}

void FleetSimulation::MaybeArm(Lane* lane, SimTime at) {
  if (lane->next_wake >= 0 && lane->next_wake <= at) return;
  lane->next_wake = at;
  wake_queue_.ScheduleCompaction(at, lane->index);
}

void FleetSimulation::FinalizeLane(Lane* lane, SimTime end_time) {
  if (lane->finalized || !lane->status.ok()) return;
  AdvanceLane(lane, end_time);
  if (!lane->status.ok()) return;
  lane->driver->FinishRun();
  lane->total_files = lane->env->TotalFileCount();
  lane->open_calls = lane->env->dfs().AggregateStats().open_calls;
  lane->faults_injected = lane->env->fault_injector().total_injected();
  if (options_.check_invariants) {
    const fault::InvariantChecker checker;
    if (Status s = checker.CheckOrFail(lane->env->catalog()); !s.ok()) {
      lane->status = Status::Internal("after final flush, lane " + lane->db +
                                      ": " + s.message());
      return;
    }
  }
  lane->finalized = true;
  // Keep only what the merge reads — the recorder and the trace. The
  // environment goes so peak residency stays bounded; the drained event
  // buffer goes too.
  DropLane(lane);
  lane->day_events.clear();
  lane->day_events.shrink_to_fit();
  lane->next_event = 0;
}

SimTime FleetSimulation::EffectiveRetentionBound(Lane* lane) const {
  const SimTime next_tick = lane->driver->next_retention();
  if (next_tick < 0) return -1;  // retention disabled
  const SimTime interval = options_.driver.retention_interval;
  // Earliest instant any snapshot of this lane becomes expirable.
  // ExpireSnapshots (keep_last=1) retains a snapshot iff it is the
  // lineage tail, the current snapshot, or `timestamp >= now -
  // retention`; so snapshot i (i < size-1, id != current) first expires
  // at `timestamp + retention + 1`. While the lane is evicted its
  // catalog is frozen — no new snapshot can appear before a wake — so
  // this threshold can only be conservative.
  SimTime threshold = -1;
  for (const std::string& name : lane->env->catalog().ListAllTables()) {
    auto metadata = lane->env->catalog().LoadTable(name);
    if (!metadata.ok()) continue;  // surfaced by the next real operation
    const auto& snapshots = (*metadata)->snapshots();
    if (snapshots.size() < 2) continue;
    const SimTime retention =
        lane->env->control_plane().GetPolicy(name).snapshot_retention;
    for (size_t i = 0; i + 1 < snapshots.size(); ++i) {
      if (snapshots[i].snapshot_id == (*metadata)->current_snapshot_id()) {
        continue;
      }
      const SimTime t = snapshots[i].timestamp + retention;
      if (threshold < 0 || t < threshold) threshold = t;
      break;  // snapshots are chronological; later ones expire later
    }
  }
  if (threshold < 0) return -1;  // nothing can ever expire while frozen
  // First tick of the cadence {next_tick, next_tick+interval, ...} at or
  // after threshold+1. Every tick before it observes an empty expired
  // set and commits nothing — a provable no-op the restore replays.
  SimTime tick = next_tick;
  if (tick <= threshold) {
    tick += ((threshold + 1 - tick + interval - 1) / interval) * interval;
  }
  return tick;
}

bool FleetSimulation::TryRetireLane(Lane* lane, SimTime now, SimTime end_time,
                                    SimTime* next_due) {
  // The lane's next forced residency: its next workload event and the
  // first retention tick that could actually mutate state. This
  // deliberately replaces the driver's hourly retention arming — the
  // skipped ticks are no-ops, which is exactly what makes eviction pay
  // off.
  SimTime next = -1;
  if (lane->next_event < lane->day_events.size()) {
    next = lane->day_events[lane->next_event].time;
  }
  const SimTime retention = EffectiveRetentionBound(lane);
  if (retention >= 0 && (next < 0 || retention < next)) next = retention;
  if (next_due != nullptr) *next_due = next;

  // Nothing can ever wake this lane again before the run ends: no
  // workload event or onboard load left on any remaining day
  // (`last_event_time` covers the full horizon — `next` alone only
  // drains the current day) and no retention tick that could mutate
  // state. Checkpointing it would buy a guaranteed wrap-up restore (the
  // single largest eviction cost at fleet scale — most lanes end the
  // replay cold). Its finalization result is already determined — the
  // only replay left is metric samples, which are value-stable while a
  // lane dozes — so retire it on the spot: same computation wrap-up
  // would run, no blob, no restore.
  if (!((next < 0 || next >= end_time) && lane->last_event_time < now)) {
    return false;
  }
  FinalizeLane(lane, end_time);
  // On a finalization error the env survives FinalizeLane; drop it
  // anyway so residency accounting stays truthful (the lane's status
  // carries the failure to collection).
  DropLane(lane);
  ++lanes_retired_;
  lane->next_wake = -1;
  AdjustResidency(lane, -1);
  return true;
}

Status FleetSimulation::EvictLane(Lane* lane, SimTime now,
                                  SimTime end_time) {
  // Retire-or-checkpoint: the replacement wake is computed *before*
  // dropping the driver.
  SimTime next = -1;
  if (TryRetireLane(lane, now, end_time, &next)) return Status::OK();

  auto blob = SaveLaneState(lane->env.get(), lane->driver.get());
  if (!blob.ok()) return blob.status();
  lane->checkpoint = std::move(*blob);
  DropLane(lane);
  lane->evicted = true;
  ++lanes_evicted_;
  checkpoint_bytes_now_ += static_cast<int64_t>(lane->checkpoint.size());
  checkpoint_bytes_peak_ =
      std::max(checkpoint_bytes_peak_, checkpoint_bytes_now_);
  AdjustResidency(lane, -1);
  // Authoritative wake replacement: unlike MaybeArm this may *loosen*
  // the arming (the hourly tick entries already queued become stale
  // tombstones, skipped on pop).
  lane->next_wake = next >= 0 && next < end_time ? next : -1;
  if (lane->next_wake >= 0) {
    wake_queue_.ScheduleCompaction(lane->next_wake, lane->index);
  }
  return Status::OK();
}

Status FleetSimulation::EvictColdLanes(SimTime now, SimTime end_time,
                                       bool idle_rule) {
  // Eviction requires a quiescent driver (a PendingCompaction holds an
  // open lst::Transaction — not checkpointable) and skips lanes still
  // awaiting their wave this epoch (they would restore at once).
  std::vector<Lane*> candidates;
  for (const auto& lane : lanes_) {
    if (!lane->hydrated || lane->evicted || lane->finalized ||
        lane->env == nullptr || !lane->status.ok() ||
        lane->awaiting_advance || !lane->driver->Quiescent()) {
      continue;
    }
    // Idle rule, with a near-wake guard: a lane that has been idle past
    // the threshold but is due to wake *within* it would restore almost
    // immediately — dehydrating it pays a full save+restore cycle for
    // one window of residency. Daily writers live exactly in this
    // regime (idle 23–24 h, due again within 24 h), so without the
    // guard every hot lane thrashes once per simulated day.
    const SimTime idle_window =
        static_cast<SimTime>(options_.evict_after_idle_hours) * kHour;
    if (idle_rule && options_.evict_after_idle_hours > 0 &&
        now - lane->last_active >= idle_window &&
        (lane->next_wake < 0 || lane->next_wake - now >= idle_window)) {
      AUTOCOMP_RETURN_NOT_OK(EvictLane(lane.get(), now, end_time));
      continue;
    }
    candidates.push_back(lane.get());
  }
  if (options_.max_resident_lanes <= 0 ||
      resident_lanes_ <= options_.max_resident_lanes) {
    return Status::OK();
  }
  // LRU by next-due distance: evict the lanes woken furthest in the
  // future first, unarmed lanes (nothing scheduled at all) before any
  // armed one; ties broken by lane index for determinism.
  std::sort(candidates.begin(), candidates.end(), [](Lane* a, Lane* b) {
    const bool a_armed = a->next_wake >= 0;
    const bool b_armed = b->next_wake >= 0;
    if (a_armed != b_armed) return !a_armed;
    if (a_armed && a->next_wake != b->next_wake) {
      return a->next_wake > b->next_wake;
    }
    return a->index < b->index;
  });
  for (Lane* lane : candidates) {
    if (resident_lanes_ <= options_.max_resident_lanes) break;
    AUTOCOMP_RETURN_NOT_OK(EvictLane(lane, now, end_time));
  }
  return Status::OK();
}

void FleetSimulation::PrepareRestore(Lane* lane) {
  ++lanes_restored_;
  checkpoint_bytes_now_ -= static_cast<int64_t>(lane->checkpoint.size());
  AdjustResidency(lane, +1);
}

void FleetSimulation::RestoreLane(Lane* lane) {
  assert(lane->evicted && lane->env == nullptr);
  const auto start = std::chrono::steady_clock::now();
  BuildLane(lane);
  Status st = RestoreLaneState(lane->checkpoint, lane->env.get(),
                               lane->driver.get());
  if (!st.ok() && lane->status.ok()) {
    lane->status = Status::Internal("restoring lane " + lane->db + ": " +
                                    st.message());
  }
  lane->checkpoint.clear();
  lane->checkpoint.shrink_to_fit();
  lane->evicted = false;
  lane->env->fault_injector().set_armed(fault_armed_);
  lane->restore_host_ms +=
      std::chrono::duration<double, std::milli>(
          std::chrono::steady_clock::now() - start)
          .count();
}

Result<FleetSimResult> FleetSimulation::Run() {
  if (ran_) {
    return Status::FailedPrecondition("FleetSimulation::Run called twice");
  }
  ran_ = true;
  const auto host_start = std::chrono::steady_clock::now();

  // A Chrome export needs one track per lane, so every lane hydrates up
  // front; active scheduling (and its delta barriers) still applies.
  const bool hydrate_all = !options_.trace_out.empty();
  // Eviction needs no per-lane service: a preset wakes every lane at the
  // trigger cadence anyway, so dehydration would thrash.
  const bool evictor_on = !options_.preset &&
                          (options_.max_resident_lanes > 0 ||
                           options_.evict_after_idle_hours > 0);

  // --- Lane descriptors (one per tenant database, in database order). ---
  std::map<std::string, int> lane_by_db;
  char db_buf[32];
  for (int d = 0; d < options_.fleet.num_databases; ++d) {
    std::snprintf(db_buf, sizeof(db_buf), "tenant%03d", d);
    auto lane = std::make_unique<Lane>();
    lane->db = db_buf;
    lane->index = static_cast<int>(lanes_.size());
    lane->shard = ShardOf(lane->db, options_.shards);
    lane_by_db.emplace(lane->db, lane->index);
    lanes_.push_back(std::move(lane));
  }
  shard_lanes_.assign(static_cast<size_t>(options_.shards), {});
  for (const auto& lane : lanes_) {
    shard_lanes_[static_cast<size_t>(lane->shard)].push_back(lane->index);
  }

  // --- Plan the initial fleet load (serial; the generator's rng is one
  // shared sequence) and queue it on the lanes. ---
  workload::FleetWorkload fleet(options_.fleet);
  const format::ColumnarFileModel format(options_.env.engine.format_options);
  const auto queue_op = [&](workload::FleetWorkload::TableOp&& op) {
    const auto it = lane_by_db.find(op.db);
    assert(it != lane_by_db.end());
    Lane* lane = lanes_[static_cast<size_t>(it->second)].get();
    const int64_t planned = engine::PlannedFileCount(
        op.load.logical_bytes, static_cast<size_t>(op.months),
        op.load.profile, format);
    pending_rpcs_by_hour_[(op.at / kHour) * kHour] += planned;
    lane->pending_rpcs.push_back(planned);
    lane->pending.push_back(std::move(op));
  };
  for (workload::FleetWorkload::TableOp& op : fleet.PlanSetup(0)) {
    queue_op(std::move(op));
  }

  // Early-retirement horizon: with eviction on, scan the full workload
  // plan once so each lane knows the last instant anything can touch it
  // — a daily event or an onboarded table. Both generators fork per-day
  // RNGs, but PlanOnboard registers the new tables it draws (EventsForDay
  // must be able to target them), so the pre-scan runs on a *throwaway*
  // workload instance that replays the exact PlanSetup → per-day
  // PlanOnboard → EventsForDay sequence of the day loop below; the live
  // `fleet` draws nothing here.
  if (evictor_on) {
    workload::FleetWorkload horizon(options_.fleet);
    horizon.PlanSetup(0);
    const auto touch = [&](const std::string& db, SimTime at) {
      const auto it = lane_by_db.find(db);
      if (it == lane_by_db.end()) return;
      Lane* lane = lanes_[static_cast<size_t>(it->second)].get();
      lane->last_event_time = std::max(lane->last_event_time, at);
    };
    for (int day = 0; day < options_.days; ++day) {
      const SimTime day_start = static_cast<SimTime>(day) * kDay;
      for (const workload::FleetWorkload::TableOp& op :
           horizon.PlanOnboard(day, day_start)) {
        touch(op.db, op.at);
      }
      for (const workload::QueryEvent& event : horizon.EventsForDay(day)) {
        touch(workload::FleetWorkload::DatabaseOf(event), event.time);
      }
    }
  }

  if (hydrate_all) {
    for (const auto& lane : lanes_) {
      PrepareHydration(lane.get(), 0);
      HydrateLane(lane.get());
      AUTOCOMP_RETURN_NOT_OK(lane->status);
    }
  }
  fault_armed_ = true;
  for (const auto& lane : lanes_) {
    if (lane->hydrated) lane->env->fault_injector().set_armed(true);
  }
  // Initial wake-ups: the control loop (when present) must observe
  // every lane at the trigger cadence; hydrated lanes also wake for
  // retention / service / compaction boundaries. Unhydrated lanes are
  // otherwise passive until their first event — their queued loads feed
  // the barriers through the planned estimates, and their deferred
  // retention runs are no-ops (single-snapshot tables expire nothing),
  // so nothing can happen on them before an event does.
  for (const auto& lane : lanes_) {
    if (options_.preset) MaybeArm(lane.get(), options_.preset->first_trigger);
    if (lane->hydrated) {
      if (const auto bound = lane->driver->NextActivityBound()) {
        MaybeArm(lane.get(), *bound);
      }
    }
  }
  FleetSimResult result;
  result.setup_ms =
      std::chrono::duration<double, std::milli>(
          std::chrono::steady_clock::now() - host_start)
          .count();

  // --- Lockstep hour epochs. ---
  const SimTime end_time = static_cast<SimTime>(options_.days) * kDay;
  const size_t evict_wave_size = static_cast<size_t>(
      options_.max_resident_lanes > 0
          ? std::min(kEvictWaveSize, options_.max_resident_lanes)
          : kEvictWaveSize);
  std::vector<int> due;  // lanes advancing this epoch, by lane index
  std::vector<std::vector<int>> due_by_shard(
      static_cast<size_t>(options_.shards));
  for (SimTime epoch = 0; epoch < end_time; epoch += kHour) {
    if (epoch % kDay == 0) {
      // Day boundary: onboard the day's new tables and deal this day's
      // events out to lanes. Both are serial — the workload generator
      // draws from one sequence.
      const int day = static_cast<int>(epoch / kDay);
      for (workload::FleetWorkload::TableOp& op :
           fleet.PlanOnboard(day, epoch)) {
        Lane* lane =
            lanes_[static_cast<size_t>(lane_by_db.at(op.db))].get();
        if (lane->hydrated) {
          if (lane->evicted) {
            // The onboard op needs a live catalog right now (serial
            // section): restore before materializing.
            PrepareRestore(lane);
            RestoreLane(lane);
            AUTOCOMP_RETURN_NOT_OK(lane->status);
          }
          // Materialize immediately (serial section), injector paused
          // as for every table load. The catch-up advance runs the
          // lane's clock to the boundary first, so creation timestamps
          // match a lane that was advanced every hour.
          lane->env->fault_injector().set_armed(false);
          Status st = lane->driver->AdvanceTo(epoch);
          if (st.ok()) {
            st = workload::FleetWorkload::Materialize(
                TargetsOf(lane->env.get()), op);
          }
          lane->env->fault_injector().set_armed(fault_armed_);
          AUTOCOMP_RETURN_NOT_OK(st);
          // The load's RPCs just landed in this epoch's bucket; make the
          // lane due now so the barrier publishes them this hour.
          MaybeArm(lane, epoch);
        } else {
          queue_op(std::move(op));
        }
      }
      for (const auto& lane : lanes_) {
        assert(lane->next_event == lane->day_events.size());
        lane->day_events.clear();
        lane->next_event = 0;
      }
      for (workload::QueryEvent& event : fleet.EventsForDay(day)) {
        const auto it = lane_by_db.find(workload::FleetWorkload::DatabaseOf(
            event));
        if (it == lane_by_db.end()) continue;  // not a lane table
        lanes_[static_cast<size_t>(it->second)]->day_events.push_back(
            std::move(event));
      }
      for (const auto& lane : lanes_) {
        if (lane->day_events.empty()) continue;
        lane->ever_had_events = true;
        MaybeArm(lane.get(), lane->day_events.front().time);
      }
    }

    // Collect this epoch's due lanes: pop the fleet wake queue, dropping
    // stale tombstones. The cutoff is *inclusive* of epoch_end: a lane
    // advanced every hour processes boundaries landing exactly on the
    // epoch edge in AdvanceTo(epoch_end), before this hour's barrier
    // publishes — so a lane armed right on the edge must advance now, not
    // next epoch (its timeout draws would see a newer load view). An
    // *event* exactly on the edge still executes next epoch (AdvanceLane
    // only runs events strictly before epoch_end); the lane just re-arms
    // at the same time and wakes again.
    const SimTime epoch_end = epoch + kHour;
    due.clear();
    while (const auto entry = wake_queue_.PopCompactionDue(epoch_end)) {
      Lane* lane = lanes_[static_cast<size_t>(entry->table)].get();
      if (lane->next_wake != entry->time) continue;  // superseded
      lane->next_wake = -1;
      lane->awaiting_advance = true;
      due.push_back(lane->index);
    }
    // Same-instant wakes pop off the wheel in bucket-insertion order,
    // which depends on arming history (evict/restore cycles re-insert
    // entries). Sort by database *name*, not lane index: index order
    // tracks enumeration order, which diverges from name order past 1000
    // lanes ("tenant1000" < "tenant101" lexicographically), and the
    // advance order of same-instant lanes must be a pure function of
    // fleet membership. Barrier folds are additive, so this pins only the
    // observable orderings (residency callbacks, hydration sequence),
    // never the published tallies.
    std::sort(due.begin(), due.end(), [&](int a, int b) {
      return lanes_[static_cast<size_t>(a)]->db <
             lanes_[static_cast<size_t>(b)]->db;
    });

    // Advance the due lanes to the end of the epoch, sharded. Lanes are
    // mutually independent here: the epoch load view is frozen, and each
    // lane's timeout draws are counter-based (lane seed, path, index) —
    // so the set can be processed in bounded *waves*. With the evictor
    // on, mass wakes (retention ticks cluster at day boundaries, so
    // hundreds of dozing lanes can restore in one epoch) would otherwise
    // all be resident simultaneously before the post-epoch sweep. So
    // before each wave hydrates, the budget rule evicts quiescent lanes —
    // earlier waves' done lanes and lanes not due this epoch — back down
    // to the budget, and waves are no larger than the budget: residency
    // stays within budget + one wave + the lanes the day's onboarding
    // restored (due now, so not evictable before they run). Serial
    // bookkeeping (eviction, Prepare*, barrier deltas, retire) brackets
    // the parallel advance of each wave.
    const size_t wave_size = evictor_on ? evict_wave_size
                                        : std::max<size_t>(due.size(), 1);
    for (size_t wave_begin = 0; wave_begin < due.size();
         wave_begin += wave_size) {
      const size_t wave_end = std::min(due.size(), wave_begin + wave_size);
      if (evictor_on && options_.max_resident_lanes > 0 &&
          resident_lanes_ > options_.max_resident_lanes) {
        AUTOCOMP_RETURN_NOT_OK(
            EvictColdLanes(epoch_end, end_time, /*idle_rule=*/false));
      }
      for (size_t i = wave_begin; i < wave_end; ++i) {
        Lane* lane = lanes_[static_cast<size_t>(due[i])].get();
        if (!lane->hydrated) {
          PrepareHydration(lane, epoch);
        } else if (lane->evicted) {
          PrepareRestore(lane);
        }
      }
      for (auto& shard : due_by_shard) shard.clear();
      for (size_t i = wave_begin; i < wave_end; ++i) {
        const int lane_index = due[i];
        due_by_shard[static_cast<size_t>(
                         lanes_[static_cast<size_t>(lane_index)]->shard)]
            .push_back(lane_index);
      }
      const auto advance_shard = [&](int64_t s) {
        for (const int lane_index : due_by_shard[static_cast<size_t>(s)]) {
          Lane* lane = lanes_[static_cast<size_t>(lane_index)].get();
          if (!lane->hydrated) {
            HydrateLane(lane);
          } else if (lane->evicted) {
            RestoreLane(lane);
          }
          AdvanceLane(lane, epoch_end);
        }
      };
      ForEachShard(advance_shard);

      // Barrier bookkeeping for the wave: fold the touched lanes' tally
      // deltas (the hour itself is published once, after all waves), and
      // retire lanes that can never wake again rather than carrying them
      // to the sweep. O(touched), not O(lanes).
      for (size_t i = wave_begin; i < wave_end; ++i) {
        Lane* lane = lanes_[static_cast<size_t>(due[i])].get();
        lane->awaiting_advance = false;
        AUTOCOMP_RETURN_NOT_OK(lane->status);
        const int64_t tally = PublishLaneDeltas(lane, epoch);
        // Activity signal for the idle evictor: RPCs issued or work
        // still inflight. A wake that only replayed no-op ticks leaves
        // last_active alone, so perpetual hourly retention arming cannot
        // keep a lane artificially "hot".
        if (tally != 0 || !lane->driver->Quiescent()) {
          lane->last_active = epoch_end;
        }
        // The horizon gates first: they are plain compares and rule out
        // every lane with workload left or a known future blocking tick,
        // so the catalog scan inside TryRetireLane only runs for genuine
        // retire candidates. The blocking-tick compare is *inclusive* of
        // epoch_end for the same reason the wake cutoff is: a tick
        // landing exactly on the epoch edge has already executed by now.
        if (evictor_on && lane->last_event_time < epoch_end &&
            lane->retire_blocked_until <= epoch_end &&
            lane->driver->Quiescent()) {
          SimTime next = -1;
          if (TryRetireLane(lane, epoch_end, end_time, &next)) {
            continue;  // finalized: nothing left to arm
          }
          lane->retire_blocked_until = next;
        }
        SimTime next = -1;
        if (lane->next_event < lane->day_events.size()) {
          next = lane->day_events[lane->next_event].time;
        }
        if (const auto bound = lane->driver->NextActivityBound()) {
          if (next < 0 || *bound < next) next = *bound;
        }
        if (next >= 0 && next < end_time) MaybeArm(lane, next);
      }
    }
    int64_t planned_this_hour = 0;
    if (const auto it = pending_rpcs_by_hour_.find(epoch);
        it != pending_rpcs_by_hour_.end()) {
      planned_this_hour = it->second;
      pending_rpcs_by_hour_.erase(it);
    }
    epoch_load_.PublishAccumulated(epoch, planned_this_hour);

    // Safety oracle under fault injection: no hydrated lane may have
    // lost or duplicated a live file, broken its snapshot lineage, or
    // drifted its quota/object accounting — checked after EVERY epoch so
    // a violation is caught at the hour it happened, not at the end.
    // (Cold lanes have no metadata to audit yet; they are audited at
    // their finalization.)
    if (options_.check_invariants) {
      const fault::InvariantChecker checker;
      for (const auto& lane : lanes_) {
        // Evicted lanes have no live catalog; their state is frozen, so
        // the audit that passed before eviction still holds — they are
        // re-audited on restore paths and at finalization.
        if (!lane->hydrated || lane->env == nullptr) continue;
        if (Status s = checker.CheckOrFail(lane->env->catalog()); !s.ok()) {
          return Status::Internal("after epoch hour " +
                                  std::to_string(epoch / kHour) + ", lane " +
                                  lane->db + ": " + s.message());
        }
      }
    }

    // Post-barrier eviction pass: dehydrate idle lanes, then enforce the
    // LRU budget.
    if (evictor_on) {
      AUTOCOMP_RETURN_NOT_OK(
          EvictColdLanes(epoch_end, end_time, /*idle_rule=*/true));
    }
  }

  // --- Wrap up. Resident lanes catch up to end_time and finish; cold
  // lanes with queued loads are served by one transient replay per
  // distinct planned-load signature (environment destroyed after its
  // totals are captured — at most one transient lane per shard is
  // resident at a time); truly idle lanes (no tables, no events, ever)
  // share one ghost replay of an empty lane, whose metric stream is
  // identical to each of theirs by construction. Ghosting is disabled
  // under a preset: the control loop gives even empty lanes per-lane
  // pipeline telemetry.
  const bool can_ghost = !options_.preset;

  // Cold-lane replay sharing: a never-touched lane's finalization replay
  // is a pure function of its planned loads' (hour, CreateFile count,
  // policy) signature — the lane's seed only jitters file *sizes*, and
  // no metric, total, or RPC visible after the epochs ever reads a size
  // from an untouched table. One transient replay per distinct signature
  // stands in for every cold lane that shares it (the same argument as
  // the ghost replay, extended to lanes that own tables), which turns
  // wrap-up cost from O(fleet) environment builds into O(activity +
  // distinct signatures). Disabled whenever a per-lane artifact could
  // differ: fault injection (per-lane draw streams), tracing (per-lane
  // tracks/digests), invariant audits (must inspect every catalog).
  const bool tracing_on =
      options_.trace_armed || options_.trace_level != obs::TraceLevel::kOff;
  const bool can_share = can_ghost && !options_.env.fault.enabled &&
                         !tracing_on && !options_.check_invariants;
  std::vector<int> rep_of(lanes_.size(), -1);
  if (can_share) {
    std::map<std::string, int> reps_by_signature;
    for (size_t i = 0; i < lanes_.size(); ++i) {
      const Lane& lane = *lanes_[i];
      if (lane.hydrated || lane.ever_had_events || lane.pending.empty()) {
        continue;
      }
      std::string signature;
      for (size_t k = 0; k < lane.pending.size(); ++k) {
        signature += std::to_string(lane.pending[k].at);
        signature += ':';
        signature += std::to_string(lane.pending_rpcs[k]);
        signature += lane.pending[k].set_policy ? "p;" : ";";
      }
      const auto [it, inserted] =
          reps_by_signature.emplace(std::move(signature), static_cast<int>(i));
      if (!inserted) rep_of[i] = it->second;
    }
  }
  const auto shares_replay = [&](int lane_index) {
    return rep_of[static_cast<size_t>(lane_index)] >= 0;
  };

  int64_t shards_with_cold = 0;
  for (const auto& shard : shard_lanes_) {
    for (const int lane_index : shard) {
      const Lane& lane = *lanes_[static_cast<size_t>(lane_index)];
      // Evicted lanes restore transiently at wrap-up (finalized then
      // dropped, one at a time per shard) — same peak contribution as a
      // cold transient hydration.
      const bool cold_transient =
          !lane.hydrated && !shares_replay(lane_index) &&
          !(can_ghost && lane.pending.empty() && !lane.ever_had_events);
      if (!cold_transient && !lane.evicted) continue;
      ++shards_with_cold;
      break;
    }
  }
  // Serial restore bookkeeping for the parallel finalization below.
  for (const auto& lane : lanes_) {
    if (!lane->evicted) continue;
    ++lanes_restored_;
    checkpoint_bytes_now_ -= static_cast<int64_t>(lane->checkpoint.size());
  }
  peak_resident_lanes_ =
      std::max(peak_resident_lanes_, resident_lanes_ + shards_with_cold);
  int64_t transient_hydrations = 0;
  const auto finalize_shard = [&](int64_t s) {
    for (const int lane_index : shard_lanes_[static_cast<size_t>(s)]) {
      Lane* lane = lanes_[static_cast<size_t>(lane_index)].get();
      if (!lane->hydrated) {
        if (shares_replay(lane_index)) continue;  // representative stands in
        if (can_ghost && lane->pending.empty() && !lane->ever_had_events) {
          continue;  // served by the ghost
        }
        HydrateLane(lane);
        FinalizeLane(lane, end_time);
        continue;
      }
      if (lane->evicted) RestoreLane(lane);
      FinalizeLane(lane, end_time);
    }
  };
  for (size_t i = 0; i < lanes_.size(); ++i) {
    const Lane& lane = *lanes_[i];
    if (!lane.hydrated && rep_of[i] < 0 &&
        !(can_ghost && lane.pending.empty() && !lane.ever_had_events)) {
      ++transient_hydrations;
    }
  }
  ForEachShard(finalize_shard);
  lanes_hydrated_ += transient_hydrations;

  // Ghost replay: one empty environment advanced over the whole horizon.
  // Its recorder stands in for every idle lane in the merge — each idle
  // lane, built and advanced on its own, records exactly this stream
  // (file-count samples of an empty deployment).
  MetricsRecorder ghost_metrics;
  bool ghost_built = false;
  const auto ghost_recorder = [&]() -> const MetricsRecorder* {
    if (!ghost_built) {
      ghost_built = true;
      EnvironmentOptions env = options_.env;
      env.seed = options_.seed;  // never drawn from: no tables, no events
      env.engine.writer_id = 1;
      env.runner_id = 1;
      SimEnvironment ghost_env(env);
      ghost_env.dfs().SetEpochLoadView(&epoch_load_);
      EventDriver ghost_driver(&ghost_env, &ghost_metrics, options_.driver);
      if (Status st = ghost_driver.AdvanceTo(end_time); !st.ok()) {
        LOG_WARN << "ghost lane advance failed: " << st;
      }
      ghost_driver.FinishRun();
    }
    return &ghost_metrics;
  };

  // --- Merge in lane order (deterministic), folding trace digests
  // incrementally as we go. ---
  std::vector<const MetricsRecorder*> recorders;
  recorders.reserve(lanes_.size());
  std::vector<const obs::TraceRecorder*> tracks;
  result.lanes_total = static_cast<int64_t>(lanes_.size());
  for (size_t i = 0; i < lanes_.size(); ++i) {
    const auto& lane = lanes_[i];
    if (rep_of[i] >= 0) {
      // Cold lane sharing a representative's replay: identical metric
      // stream and totals by construction (same planned-load signature).
      const Lane* rep = lanes_[static_cast<size_t>(rep_of[i])].get();
      AUTOCOMP_RETURN_NOT_OK(rep->status);
      ++result.lanes_ghosted;
      result.total_files += rep->total_files;
      result.open_calls += rep->open_calls;
      recorders.push_back(&rep->metrics);
      continue;
    }
    if (!lane->hydrated) {
      ++result.lanes_ghosted;
      recorders.push_back(ghost_recorder());
      continue;
    }
    AUTOCOMP_RETURN_NOT_OK(lane->status);
    result.events_executed += lane->executed;
    result.total_files += lane->total_files;
    result.open_calls += lane->open_calls;
    result.faults_injected += lane->faults_injected;
    result.restore_ms += lane->restore_host_ms;
    recorders.push_back(&lane->metrics);
    if (lane->trace != nullptr) {
      result.trace_digest.Combine(lane->trace->digest());
      tracks.push_back(lane->trace.get());
    }
  }
  result.metrics = MetricsRecorder::Merge(recorders);
  result.lanes_hydrated = lanes_hydrated_;
  result.peak_resident_lanes = peak_resident_lanes_;
  result.lanes_evicted = lanes_evicted_;
  result.lanes_restored = lanes_restored_;
  result.lanes_retired = lanes_retired_;
  result.checkpoint_bytes = checkpoint_bytes_peak_;

  if (!tracks.empty() && !options_.trace_out.empty()) {
    AUTOCOMP_RETURN_NOT_OK(obs::WriteChromeTrace(tracks, options_.trace_out));
  }
  return result;
}

}  // namespace autocomp::sim
