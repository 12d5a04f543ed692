/// \file fleet_driver.h
/// \brief Shard-parallel discrete-event replay of the table fleet.
///
/// The classic EventDriver replays every event of the whole fleet on one
/// timeline. This driver exploits the fleet's real coupling structure:
/// tenant databases only interact through the NameNode's *hourly*
/// RPC-load/timeout model (namespace quotas are per database, tables
/// never span databases). Each database becomes a **lane** — a complete
/// SimEnvironment (clock, storage, catalog, clusters, engine) plus its
/// own MetricsRecorder and EventDriver. Lanes are grouped into K
/// deterministic shards (stable hash of the database name), and all
/// shards advance concurrently on a common::ThreadPool in lockstep
/// epochs aligned to the NameNode's hour buckets.
///
/// Cross-lane coupling is reduced to one number per epoch: at every hour
/// barrier the coordinator publishes the fleet's NameNode RPC tally for
/// the completed hour to a shared storage::EpochLoadModel. During the
/// next epoch every lane's NameNode derives its timeout probability from
/// that published (epoch-start) load — constant within the epoch — and
/// draws timeouts from a counter-based RNG stream keyed by (seed, file
/// path, per-lane open index). No draw depends on the interleaving of
/// lanes, so the run is **bit-identical at any shard count and any pool
/// size** (NFR2): metrics from a sequential run (shards advanced one
/// after another) equal those of a parallel run exactly, series for
/// series, sample for sample.
///
/// Replay cost is proportional to *activity*, not fleet size (DESIGN.md
/// §10):
///  * **Lazy hydration** — lanes start as lightweight descriptors; the
///    workload's table loads are *planned* (all random draws taken
///    up front from the shared sequence) but only *materialised* when a
///    lane first has work. A planned-but-unhydrated load still feeds the
///    epoch barrier exactly, because a plan's CreateFile count is pure
///    arithmetic (engine::PlannedFileCount).
///  * **Active-lane scheduling** — a fleet-level calendar queue keyed by
///    each lane's next due boundary (next workload event, or the
///    driver's NextActivityBound: retention / service trigger / inflight
///    compaction end) replaces the advance-all-lanes loop. A dozing
///    lane's deferred metric samples replay identically when it next
///    wakes, because its state cannot change while it dozes.
///  * **O(changed) barriers** — woken lanes publish RPC-tally *deltas*
///    (EpochLoadModel::AddDelta, including the next-hour spillover of
///    work finalizing exactly at the boundary) and the barrier seals the
///    hour with the accumulated deltas plus the planned contribution of
///    still-unhydrated lanes; untouched lanes cost nothing.
///
/// The merged result is deterministic: per-lane recorders are merged in
/// lane order with a stable sort by time (MetricsRecorder::Merge); lanes
/// that never had any work share one "ghost" replay of an empty lane
/// (their metric streams are identical by construction). The tests hold
/// this lifecycle to an independent eager replay (tests/fleet_reference.h)
/// that builds every lane at setup, advances every lane every hour and
/// seals each hour with a full re-sum of the lanes' tallies.

#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/thread_pool.h"
#include "obs/trace.h"
#include "sim/calendar_queue.h"
#include "sim/driver.h"
#include "sim/environment.h"
#include "sim/metrics.h"
#include "sim/presets.h"
#include "storage/epoch_load.h"
#include "workload/fleet.h"

namespace autocomp::sim {

/// \brief Configuration for a shard-parallel fleet replay.
struct FleetSimOptions {
  /// Simulated days to replay.
  int days = 7;
  /// Deterministic shard count K (lane = database, shard = hash(db) % K).
  /// The *results* do not depend on K — only wall-clock does.
  int shards = 4;
  /// When false, shards are advanced one after another on the calling
  /// thread — the sequential reference the determinism tests compare
  /// against. Results are identical either way.
  bool sharded = true;
  /// Pool for concurrent shard advancement (nullptr = inline, i.e.
  /// sequential even when `sharded`).
  ThreadPool* pool = nullptr;
  /// Master seed; per-lane environment seeds are derived from it and the
  /// database name, independent of lane/shard enumeration order.
  uint64_t seed = 7;
  /// Environment template instantiated once per lane (the seed and the
  /// engine writer id are overridden per lane).
  EnvironmentOptions env = {};
  workload::FleetOptions fleet = {};
  DriverOptions driver = {};
  /// Run the fault::InvariantChecker over every hydrated lane at every
  /// hour barrier (and over every lane at its finalization); the replay
  /// fails fast with Internal on the first violation. Test-only — a
  /// full-metadata audit per lane per epoch is far too slow for
  /// benchmarking.
  bool check_invariants = false;
  /// Per-lane AutoComp service built from this preset (the preset's
  /// trace is overridden per lane). nullopt replays the workload
  /// with no compaction control loop — the pre-tracing behaviour. With a
  /// preset, every lane wakes at the trigger cadence (the control loop
  /// must observe every lane), so the lifecycle degrades gracefully to
  /// near-eager scheduling while staying bit-identical.
  std::optional<StrategyPreset> preset;
  /// Trace detail recorded per lane. kOff records nothing (and, unless
  /// `trace_armed`, no recorders are even constructed).
  obs::TraceLevel trace_level = obs::TraceLevel::kOff;
  /// Install per-lane recorders even at kOff, so every emission site
  /// runs its guard against a live recorder.
  /// TraceGoldenTest.TracingIsAPureObserver replays this armed-but-off
  /// configuration; IdleHookTest counts, over a single-deployment
  /// replay, that such a recorder is never called.
  bool trace_armed = false;
  /// When non-empty, the merged Chrome trace-event JSON is written here
  /// at the end of the run (one thread track per lane). Forces every
  /// lane to hydrate (so every lane has a track), but active scheduling
  /// still applies.
  std::string trace_out;
  /// Memory-accounting hook: called from serial coordinator sections as
  /// lanes hydrate, restore, or are evicted during the replay, with the
  /// lane's database, the current number of resident (hydrated) lanes,
  /// and the peak so far. Transient end-of-run finalizations are
  /// summarized in the result counters instead. The eviction and
  /// wake-order tests observe residency through it.
  std::function<void(const std::string& db, int64_t resident, int64_t peak)>
      on_lane_residency;
  /// Resident-lane budget (DESIGN.md §10): when > 0, before every wave
  /// of due lanes and after every epoch the evictor dehydrates the
  /// coldest quiescent lanes — LRU by next-due distance, unarmed lanes
  /// first — into compact checkpoints until at most this many lanes are
  /// resident, and waves hold at most this many lanes. Lanes due in the
  /// current epoch are not evicted before they run, so residency peaks
  /// at most at budget + one wave + the lanes the day's onboarding
  /// restored (plus one transient lane per shard at wrap-up). 0 =
  /// unbounded (the historical monotone ramp). Results are bit-identical
  /// at any budget: an evicted lane restores in O(state) on its next due
  /// event and replays its deferred no-op ticks exactly.
  /// No eviction happens with a `preset`: its service wakes every lane
  /// at the trigger cadence and is not checkpointable, so this budget and
  /// `evict_after_idle_hours` are ignored there (`autocomp_cli fleetsim`
  /// rejects the combination).
  int64_t max_resident_lanes = 0;
  /// Idle-based eviction: a quiescent lane untouched for this many
  /// simulated hours is dehydrated regardless of the budget (0 = off).
  int evict_after_idle_hours = 0;
};

/// \brief The totals and lane accounting of a fleet replay: plain
/// numbers, trivially copyable, so a replay run in a forked child can
/// hand them back whole.
struct FleetSimTotals {
  /// Workload events executed across all lanes.
  int64_t events_executed = 0;
  /// Fleet-wide data file count at end of run.
  int64_t total_files = 0;
  /// Fleet-wide NameNode open() calls across the run.
  int64_t open_calls = 0;
  /// Faults injected across all lanes (0 in fault-free runs).
  int64_t faults_injected = 0;
  /// Host milliseconds spent in setup: lane descriptors and workload
  /// planning, plus every lane's table loads when `trace_out` hydrates
  /// all lanes up front.
  double setup_ms = 0;
  /// Lanes in the fleet, one per tenant database.
  int64_t lanes_total = 0;
  /// Lanes ever hydrated into a full SimEnvironment.
  int64_t lanes_hydrated = 0;
  /// Peak simultaneously-resident hydrated lanes.
  int64_t peak_resident_lanes = 0;
  /// Lanes served by a shared replay instead of their own environment:
  /// truly idle lanes (no tables, no events, ever) share one ghost
  /// replay of an empty lane, and never-touched lanes with queued loads
  /// share one transient replay per distinct planned-load signature —
  /// their metric streams are identical by construction.
  int64_t lanes_ghosted = 0;
  /// Evictor activity (0 with an unbounded budget): dehydrations into
  /// checkpoints, restores from them (mid-run wakes and end-of-run
  /// finalizations both count), the peak bytes held in checkpoints at
  /// any instant, and the host milliseconds spent restoring (summed
  /// across lanes; restores run inside the parallel shard sections).
  int64_t lanes_evicted = 0;
  int64_t lanes_restored = 0;
  /// Lanes the evictor finalized early instead of checkpointing: a lane
  /// with no future workload event and no retention tick that could
  /// mutate state can never wake again, so its wrap-up result is
  /// already determined — it is retired on the spot (no blob, no
  /// restore). Not counted in lanes_evicted/lanes_restored.
  int64_t lanes_retired = 0;
  int64_t checkpoint_bytes = 0;
  double restore_ms = 0;
};

/// \brief Outcome of a fleet replay.
struct FleetSimResult : FleetSimTotals {
  /// Lane recorders merged in lane order (deterministic).
  MetricsRecorder metrics;
  /// Per-lane trace digests merged (order-insensitive, accumulated
  /// incrementally as lanes finalize). Empty (zero events) when tracing
  /// was off; bit-identical across shard counts and pool sizes
  /// otherwise — the golden-trace tests' oracle.
  obs::TraceDigest trace_digest;
};

/// \brief Lockstep epoch driver over per-database lanes.
class FleetSimulation {
 public:
  explicit FleetSimulation(FleetSimOptions options);
  ~FleetSimulation();

  FleetSimulation(const FleetSimulation&) = delete;
  FleetSimulation& operator=(const FleetSimulation&) = delete;

  /// Builds the fleet and replays `options.days` days of workload.
  /// Call at most once per instance.
  Result<FleetSimResult> Run();

  /// Stable lane→shard assignment (hash of the database name, invariant
  /// across processes and enumeration orders).
  static int ShardOf(const std::string& db, int shards);

  /// Most due lanes advanced per wave when the evictor is on; a smaller
  /// `max_resident_lanes` caps the wave at the budget. Retention ticks
  /// cluster at day boundaries (a fleet loaded together expires
  /// together), so one epoch can wake hundreds of dozing lanes; the
  /// budget pass before every wave bounds how many are resident at once.
  static constexpr int64_t kEvictWaveSize = 256;

 private:
  struct Lane;

  /// Per-lane environment options: the template with the lane's derived
  /// seeds, pinned writer/runner ids and trace recorder applied — the
  /// same construction whether the lane hydrates fresh or restores from
  /// a checkpoint (restores must rebuild an *identical* deployment).
  EnvironmentOptions LaneEnvironmentOptions(Lane* lane) const;

  /// Hydrates `lane`: constructs its environment/driver/service, creates
  /// its database, and replays its pending table ops in plan order (with
  /// the lane's injector disarmed: table loads draw no faults). Safe to
  /// call from parallel shard sections — all shared-map bookkeeping
  /// happens before, in PrepareHydration.
  void HydrateLane(Lane* lane);
  /// Serial pre-hydration bookkeeping: retracts the lane's pending
  /// barrier estimates for hours >= `from_hour` (its actual tallies take
  /// over) and updates the residency accounting.
  void PrepareHydration(Lane* lane, int64_t from_hour);
  /// Residency accounting for `lane` entering (+1) or leaving (-1) the
  /// resident set: the count, its peak, and the on_lane_residency hook.
  /// Serial coordinator sections only.
  void AdjustResidency(Lane* lane, int64_t delta);
  /// Constructs the lane's environment (reading the shared epoch-load
  /// view) and its driver — the same deployment whether the lane
  /// hydrates fresh or restores from a checkpoint.
  void BuildLane(Lane* lane);
  /// Destroys the lane's service, driver and environment, in that order.
  void DropLane(Lane* lane);
  /// Runs `per_shard(s)` for every shard s: on the pool when sharded
  /// with one, inline otherwise.
  void ForEachShard(const std::function<void(int64_t)>& per_shard);
  /// Advances one lane to `epoch_end`, executing its due events.
  void AdvanceLane(Lane* lane, SimTime epoch_end);
  /// O(changed) barrier contribution of a lane advanced through the
  /// epoch starting at `epoch`: publishes this hour's tally delta and
  /// the next hour's boundary spillover into the load model. Returns
  /// the lane's RPC tally for the hour — the evictor's activity signal
  /// (a wake that only replayed no-op ticks tallies zero).
  int64_t PublishLaneDeltas(Lane* lane, SimTime epoch);
  /// Arms (or tightens) the lane's wake-up in the fleet calendar.
  void MaybeArm(Lane* lane, SimTime at);
  /// Catch-up to `end_time` + FinishRun + totals/digest accounting, then
  /// destroys the environment (bounding peak residency) and keeps only
  /// what the merge reads: the trace recorder and the metrics recorder,
  /// minus its interned-but-empty slots.
  void FinalizeLane(Lane* lane, SimTime end_time);

  /// \name Lane eviction (DESIGN.md §10)
  /// @{
  /// First future retention tick at which this lane's retention service
  /// could actually expire a snapshot (and thus mutate state): the
  /// earliest per-table `snapshot timestamp + policy retention`
  /// threshold, rounded up to the driver's tick cadence. -1 when no
  /// snapshot can ever expire (retention off, or every table holds only
  /// its current lineage head) — the deferred ticks in between are
  /// provable no-ops and replay identically on restore.
  SimTime EffectiveRetentionBound(Lane* lane) const;
  /// Finalizes a quiescent lane on the spot when nothing (event, onboard
  /// load, or mutating retention tick) can ever wake it again before
  /// `end_time` — no checkpoint, no wrap-up restore. Returns whether the
  /// lane was retired; `*next_due` (optional) receives the lane's next
  /// forced-residency instant either way. Serial coordinator sections
  /// only.
  bool TryRetireLane(Lane* lane, SimTime now, SimTime end_time,
                     SimTime* next_due);
  /// Dehydrates a quiescent lane into `lane->checkpoint`, replaces its
  /// (hourly) retention arming with the effective bound, and drops the
  /// environment; retires it instead when TryRetireLane applies. Serial
  /// coordinator sections only.
  Status EvictLane(Lane* lane, SimTime now, SimTime end_time);
  /// Eviction pass over the quiescent resident lanes not awaiting a wave
  /// of the current epoch: the idle rule first (when `idle_rule`), then
  /// the LRU budget rule (victims unarmed first, then furthest next wake,
  /// ties by lane index) until at most `max_resident_lanes` are resident.
  /// Runs after every epoch barrier, and budget-only before every wave.
  Status EvictColdLanes(SimTime now, SimTime end_time, bool idle_rule);
  /// Serial bookkeeping before a restore: residency/peak accounting,
  /// restore counters, checkpoint-byte release.
  void PrepareRestore(Lane* lane);
  /// Rebuilds the lane's environment/driver from its checkpoint (same
  /// per-lane options as HydrateLane). Safe to call from parallel shard
  /// sections — all shared bookkeeping happened in PrepareRestore.
  void RestoreLane(Lane* lane);
  /// @}

  FleetSimOptions options_;
  storage::EpochLoadModel epoch_load_;
  std::vector<std::unique_ptr<Lane>> lanes_;
  /// lane indices grouped by shard
  std::vector<std::vector<int>> shard_lanes_;
  /// Fleet-level wake queue: one kCompactionEnd entry per armed lane,
  /// carrying the lane index. Entries are tombstoned by comparing
  /// against the lane's authoritative next_wake on pop.
  CalendarQueue wake_queue_;
  /// Planned CreateFile counts of still-pending (unhydrated) table
  /// loads, bucketed by the hour of their `at` — the barrier adds the
  /// bucket for the sealed hour so deferred lanes are indistinguishable
  /// from hydrated ones in the load model.
  std::map<int64_t, int64_t> pending_rpcs_by_hour_;
  /// Desired injector arming for lanes hydrated mid-run.
  bool fault_armed_ = false;
  int64_t resident_lanes_ = 0;
  int64_t peak_resident_lanes_ = 0;
  int64_t lanes_hydrated_ = 0;
  int64_t lanes_evicted_ = 0;
  int64_t lanes_restored_ = 0;
  int64_t lanes_retired_ = 0;
  int64_t checkpoint_bytes_now_ = 0;
  int64_t checkpoint_bytes_peak_ = 0;
  bool ran_ = false;
};

}  // namespace autocomp::sim
