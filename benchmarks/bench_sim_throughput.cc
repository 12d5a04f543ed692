/// \file bench_sim_throughput.cc
/// \brief Data-plane replay throughput of the shard-parallel fleet driver
/// (sim::FleetSimulation): the north-star replay numbers — events/sec of
/// a ~2000-table fleet, and events/sec and peak RSS of a cold-fleet
/// scale tier — each with the parity checks of its own configs.
///
/// Each tier is stated as options (BaseOptions, SchedOptions or
/// ScaleOptions, plus a variant's edits) and checks; the timing, pairing
/// and forking discipline is benchmarks/harness.h's. Contracts that
/// tier-1 checks exactly are not re-run here: bit-identity at every
/// shard/pool geometry and against the eager reference replay of
/// tests/fleet_reference.h (FleetSimulationTest), idle fault and trace
/// hooks (IdleHookTest, FaultFuzzTest, TraceGoldenTest) and eviction
/// across geometries (FleetEvictionTest).
///
/// The **2000-table tier** replays 40 tenant databases x 50 tables as
/// "seq" (the sequential reference; CI floors its events/sec) and
/// "shard4" (four shards on a pool of min(4, hardware_concurrency)
/// workers), which must be **bit-identical** to seq (NFR2): the merged
/// MetricsRecorder is compared series for series, sample for sample,
/// and the run aborts on any divergence. Every config gets one untimed
/// warmup replay, so allocator and page-cache warmup lands on no config
/// in particular, then the best of AUTOCOMP_BENCH_SIM_RUNS timed reps.
///
/// The **scheduler tier** reruns the fleet with a deferred compaction
/// preset (the only path the maintenance scheduler dispatches on):
/// "seq-sched" (preemption-armed but inert fifo — bit-identical to the
/// default-knob fifo baseline "sched-fifo", its arming cost reported)
/// and "seq-drr" (deficit-round-robin + per-tenant budget, SLO
/// recording on — its host CPU time over the fifo leg is budgeted at <2%
/// under AUTOCOMP_BENCH_SCHED_MAX_OVERHEAD_PCT, and its per-tenant p99
/// query latency / time-to-compact / budget-debt rows land in
/// BENCH_sim.json under "sched_tenant_slo"). Both legs are timed as
/// forked alternating pairs (bench::RunPaired); the gate fails only when
/// the median per-pair ratio is over its budget and either the ratios'
/// interquartile range is under the budget or their lower quartile is
/// over it, and otherwise reports `unresolved`.
/// No exact count stands in for a discipline's host cost yet.
///
/// The **scale tier** then replays a cold-fleet configuration —
/// AUTOCOMP_BENCH_SCALE_TABLES one-table tenant databases (default
/// 20000) for AUTOCOMP_BENCH_SCALE_DAYS days (default 7; 50000 x 30 is
/// the supported upper shape) with *absolute* daily activity held
/// constant, the paper's hot-subset skew — as "seq" and "shard4-pool2".
/// Every config runs in a forked child so getrusage ru_maxrss gives a
/// clean per-config peak RSS; results are compared across processes via
/// MetricsRecorder::ContentHash and must match seq exactly. A half-scale
/// "seq-half" run (same activity, half the lanes) documents the
/// sublinear-footprint claim: lanes_hydrated and peak RSS track
/// activity, not fleet size.
///
/// The **eviction tier** (AUTOCOMP_BENCH_SCALE_EVICT_LANES; 0 skips)
/// reruns the scale fleet under a hard resident-lane budget + idle rule
/// (DESIGN.md §10): cold lanes dehydrate into checkpoints and restore on
/// their next due event. Unset, the budget is half the peak residency of
/// a sequential probe that runs the idle rule alone (the rule's early
/// retirement already holds residency far below the unbounded run's).
/// Both a sequential and a shard4-pool2 eviction config must evict, must
/// stay within the documented residency bound and must hash-equal the
/// unbounded seq run; the JSON records peak RSS vs unbounded, the
/// wall-clock penalty, and the eviction/restore/checkpoint-bytes
/// accounting. CI gates the evicting footprint under
/// AUTOCOMP_BENCH_SCALE_EVICT_MAX_RSS_MB.
///
/// Results land in BENCH_sim.json:
///   {"fleet_tables": N, "days": D, "hardware_concurrency": H,
///    "events_per_sec": ..., "runs": [
///      {"name": "seq", "shards": 0, "pool_workers": 0, "wall_ms": ...,
///       "events": ..., "events_per_sec": ..., "speedup_vs_seq": 1.0,
///       "metrics_equal": true}, {"name": "shard4", ...}],
///    "sched_runs": [...], "sched_fifo_overhead_pct": ...,
///    "sched_drr_overhead_pct": ..., "sched_drr_overhead_iqr_pct": ...,
///    "sched_drr_overhead_q1_pct": ...,
///    "sched_overhead_target_pct": 2.0,
///    "sched_tenant_slo": [...],
///    "scale": {"tables": N, "days": D, "configs": [seq, shard4-pool2],
///       "events_per_sec": ..., "peak_rss_mb": ...,
///       "wall_ms_per_event": ..., "base_wall_ms_per_event": ...,
///       "half_scale": {...}, "evict": {...}, "identical": true}}

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "benchmarks/harness.h"
#include "common/json.h"
#include "common/logging.h"
#include "common/thread_pool.h"
#include "sched/scheduler.h"
#include "sim/fleet_driver.h"
#include "sim/metrics.h"
#include "sim/presets.h"

using namespace autocomp;

namespace {

// ~2000 tables: 40 tenant databases x 50 tables, the scale the
// acceptance bar names. One simulated day keeps the default turnaround
// tolerable on small hosts; each config takes the best of three timed
// reps (after an untimed warmup). AUTOCOMP_BENCH_SIM_DAYS and
// AUTOCOMP_BENCH_SIM_RUNS scale the horizon / rep count for hardware at
// either extreme.
constexpr int kDatabases = 40;
constexpr int kTablesPerDb = 50;
const int kDays = bench::EnvInt("AUTOCOMP_BENCH_SIM_DAYS", 1, 1);
const int kRunsPerConfig = bench::EnvInt("AUTOCOMP_BENCH_SIM_RUNS", 3, 1);

// ---- scale tier knobs ------------------------------------------------
// AUTOCOMP_BENCH_SCALE_TABLES=0 skips the tier entirely.
const int kScaleTables =
    bench::EnvInt("AUTOCOMP_BENCH_SCALE_TABLES", 20'000, 0);
const int kScaleDays = bench::EnvInt("AUTOCOMP_BENCH_SCALE_DAYS", 7, 1);
// Eviction-tier knobs: the bounded-residency configs run the same fleet
// under FleetSimOptions::max_resident_lanes / evict_after_idle_hours
// (DESIGN.md §10) and must stay bit-identical to the unbounded seq run
// while holding peak RSS to a fraction of it. EVICT_LANES=0 skips the
// eviction configs; unset (-1) derives the budget from an idle-rule-only
// probe run.
const int kScaleEvictLanes =
    bench::EnvInt("AUTOCOMP_BENCH_SCALE_EVICT_LANES", -1, 0);
const int kScaleEvictIdleHours =
    bench::EnvInt("AUTOCOMP_BENCH_SCALE_EVICT_IDLE_HOURS", 36, 0);
// Absolute daily activity, held constant as the fleet grows: this is the
// paper's fleet shape (a small, Zipf-skewed hot subset doing nearly all
// the writing while the long tail sits cold), and it is what makes the
// sublinearity claim testable — doubling the fleet must not double the
// wall clock or the footprint, because the work didn't double.
constexpr double kScaleDailyWrites = 1000.0;
constexpr double kScaleDailyReads = 250.0;

// ---- options ---------------------------------------------------------

/// `options` replayed as `shards` shards on `pool` (nullptr = inline);
/// shards 0 is the sequential reference.
sim::FleetSimOptions Sharded(sim::FleetSimOptions options, int shards,
                             ThreadPool* pool) {
  options.sharded = shards > 0;
  options.shards = std::max(shards, 1);
  options.pool = shards > 0 ? pool : nullptr;
  return options;
}

/// The 2000-table fleet, sequential.
sim::FleetSimOptions BaseOptions() {
  sim::FleetSimOptions options;
  options.days = kDays;
  options.seed = 7;
  options.fleet.num_databases = kDatabases;
  options.fleet.tables_per_db = kTablesPerDb;
  // Throughput here is events through the driver, not bytes through the
  // simulated DFS: shrink the lognormal table sizes so a 2000-table
  // replay finishes in minutes, not hours, on a laptop-class host. The
  // file-count distribution keeps its shape, just a smaller median.
  options.fleet.size_mu = std::log(128.0 * kMiB);
  options.fleet.size_sigma = 1.2;
  // Give the NameNode model some pressure so the epoch-load/timeout path
  // is actually exercised (fleet RPC totals overflow per-hour capacity).
  options.env.namenode.rpc_capacity_per_hour = 2'000;
  options.driver.sample_interval = 4 * kHour;
  options.driver.retention_interval = kDay;
  return Sharded(std::move(options), 0, nullptr);
}

// ---- scheduler tier --------------------------------------------------
// The maintenance scheduler only dispatches on the deferred-execution
// path (it sits between decide and the deferred executor, DESIGN.md
// §12), which the 2000-table tier never takes — BaseOptions has no
// preset, so those replays never compact. The scheduler tier therefore
// runs its own preset-enabled fleet: every config plans top-5 table
// compactions each hour and executes them on the timeline. Three
// configurations:
//   sched-fifo    SchedOptions(), the default knobs: plain fifo
//                 (baseline);
//   seq-sched     ArmedFifo: preemption-armed but inert fifo (no faults,
//                 no spike threshold, SLO recording off) — the
//                 preemption fault site is armed per started unit but no
//                 dispatch decision changes, so it must stay
//                 bit-identical to sched-fifo; its CPU-time delta is
//                 reported;
//   seq-drr       Drr: deficit-round-robin with a (loose) per-tenant
//                 GBHr budget — admission control and SLO recording on;
//                 per-tenant p99 query latency / time-to-compact /
//                 budget-debt rows land in BENCH_sim.json. Its overhead
//                 vs the seq-sched leg prices the DRR queue walk and the
//                 SLO series appends, budgeted at <2%.
sim::FleetSimOptions SchedOptions() {
  sim::FleetSimOptions options = BaseOptions();
  options.driver.deferred_compaction = true;
  // The preset activates the OODA pipeline, whose host wall-clock
  // series (pipeline_*_ms) differ per rep; every comparison in this
  // tier is about simulated behaviour.
  options.driver.record_host_timings = false;
  sim::StrategyPreset preset;
  preset.scope = sim::ScopeStrategy::kTable;
  preset.k = 5;
  preset.deferred_act = true;
  options.preset = preset;
  return options;
}

sim::FleetSimOptions ArmedFifo(sim::FleetSimOptions options) {
  options.driver.scheduler.preemption = true;
  options.driver.scheduler.record_slo = false;
  return options;
}

sim::FleetSimOptions Drr(sim::FleetSimOptions options) {
  options.driver.scheduler.policy = sched::SchedulerPolicy::kDrr;
  options.driver.scheduler.quantum_gb_hours = 0.5;
  // Loose budget: admission control runs on every plan but rarely
  // binds, so the leg prices the machinery, not a throttled fleet.
  options.driver.scheduler.tenant_budget_gb_hours = 50.0;
  return options;
}

// ---- scale tier ------------------------------------------------------

sim::FleetSimOptions ScaleOptions(int tables) {
  sim::FleetSimOptions options;
  options.days = kScaleDays;
  options.seed = 7;
  // One table per tenant database = one lane per table: the sharpest
  // possible residency accounting (a lane hydrates iff *its* table is
  // ever touched).
  options.fleet.num_databases = tables;
  options.fleet.tables_per_db = 1;
  options.fleet.size_mu = std::log(128.0 * kMiB);
  options.fleet.size_sigma = 1.2;
  options.fleet.daily_write_fraction =
      kScaleDailyWrites / static_cast<double>(tables);
  options.fleet.daily_reads_per_table =
      kScaleDailyReads / static_cast<double>(tables);
  options.fleet.new_tables_per_day = 20;
  options.env.namenode.rpc_capacity_per_hour = tables;
  // 12h samples keep the merged per-lane series (lanes x days x 2 points
  // each) modest even at 50k x 30; dozing lanes defer these ticks, so
  // the cadence does not wake anyone.
  options.driver.sample_interval = 12 * kHour;
  options.driver.retention_interval = kDay;
  return options;
}

/// The scale fleet under a resident-lane budget (0 = none) and the
/// tier's idle rule.
sim::FleetSimOptions Evicting(sim::FleetSimOptions options,
                              int64_t max_resident_lanes) {
  options.max_resident_lanes = max_resident_lanes;
  options.evict_after_idle_hours = kScaleEvictIdleHours;
  return options;
}

// ---- one replay path -------------------------------------------------

/// One configuration of a tier.
struct Outcome {
  std::string name;
  int shards = 0;        // 0 = sequential reference
  int pool_workers = 0;  // 0 = no pool (inline)
  double wall_ms = 0;    // the best timed rep
  /// The replay's totals; in-process replays also keep the last rep's
  /// merged metrics and trace digest.
  sim::FleetSimResult result;
  /// Scale configs: the merged metrics' ContentHash, all their replay
  /// hands back (parity compares it), and whether the replay ran in a
  /// forked child, so that peak_rss_mb is that config's own.
  std::optional<uint64_t> metrics_hash;
  bool forked = false;
  double peak_rss_mb = 0;
  /// Parity with the tier's reference (CheckParity).
  bool identical = true;
  /// CPU-time cost over the tier's baseline, in percent (the median of
  /// the per-pair ratios), their interquartile range and lower quartile.
  double overhead_pct = 0;
  double overhead_iqr_pct = 0;
  double overhead_q1_pct = 0;

  double events_per_sec() const {
    return wall_ms > 0 ? result.events_executed / (wall_ms / 1e3) : 0;
  }
};

Outcome InProcess(std::string name, sim::FleetSimResult result,
                  double wall_ms) {
  Outcome out;
  out.name = std::move(name);
  out.wall_ms = wall_ms;
  out.result = std::move(result);
  return out;
}

/// One in-process configuration: an untimed warmup replay (allocator
/// arenas and code pages get hot once per config, so no config's timing
/// carries the process's cold start, which used to make later configs
/// look *faster* than seq), then the best of kRunsPerConfig timed reps.
Outcome Replay(const std::string& name, const sim::FleetSimOptions& options) {
  double best_ms = 0;
  bench::TimedReplay last;
  for (int run = -1; run < kRunsPerConfig; ++run) {
    bench::TimedReplay timed = bench::TimeReplay(options);
    if (run < 0) {
      std::printf("  %s warmup: %.1f ms\n", name.c_str(), timed.ms);
      continue;
    }
    if (best_ms == 0 || timed.ms < best_ms) best_ms = timed.ms;
    std::printf("  %s run %d/%d: %.1f ms (%lld events)\n", name.c_str(),
                run + 1, kRunsPerConfig, timed.ms,
                static_cast<long long>(timed.result.events_executed));
    last = std::move(timed);
  }
  Outcome out = InProcess(name, std::move(last.result), best_ms);
  out.shards = options.sharded ? options.shards : 0;
  out.pool_workers = options.pool != nullptr ? options.pool->worker_count() : 0;
  return out;
}

/// A paired tier (bench::RunPaired): `variant` timed against `base`.
/// Returns both sides' warmup replays; the variant carries the overhead
/// and its best rep's wall clock, the base its warmup's.
std::pair<Outcome, Outcome> Paired(const std::string& base_name,
                                   const std::string& name,
                                   const sim::FleetSimOptions& base,
                                   const sim::FleetSimOptions& variant) {
  bench::PairedRuns runs =
      bench::RunPaired(name, kRunsPerConfig, base, variant);
  Outcome variant_out =
      InProcess(name, std::move(runs.variant.result), runs.best_variant_ms);
  variant_out.overhead_pct = runs.overhead_pct;
  variant_out.overhead_iqr_pct = runs.overhead_iqr_pct;
  variant_out.overhead_q1_pct = runs.overhead_q1_pct;
  return {InProcess(base_name, std::move(runs.base.result), runs.base.ms),
          std::move(variant_out)};
}

/// One scale-tier configuration, forked so its peak RSS is its own.
/// Parity uses the returned MetricsRecorder::ContentHash; the scale
/// fleet runs without a preset, so no host-wall-clock metric exists to
/// perturb the hash.
Outcome ScaleReplay(const std::string& name,
                    const sim::FleetSimOptions& options, int shards,
                    int pool_workers) {
  struct Forked {
    sim::FleetSimTotals totals;
    double wall_ms;
    uint64_t metrics_hash;
  };
  const auto run = bench::RunForked("scale config " + name, [&] {
    std::unique_ptr<ThreadPool> pool;
    if (pool_workers > 0) pool = std::make_unique<ThreadPool>(pool_workers);
    const bench::TimedReplay timed =
        bench::TimeReplay(Sharded(options, shards, pool.get()));
    return Forked{timed.result, timed.ms, timed.result.metrics.ContentHash()};
  });
  Outcome out;
  out.name = name;
  out.shards = shards;
  out.pool_workers = pool_workers;
  out.wall_ms = run.value.wall_ms;
  static_cast<sim::FleetSimTotals&>(out.result) = run.value.totals;
  out.forked = run.forked;
  out.metrics_hash = run.value.metrics_hash;
  out.peak_rss_mb = run.usage.peak_rss_mb;
  const sim::FleetSimTotals& s = out.result;
  std::printf(
      "  %s: %.1f ms (%lld events, setup %.1f ms, %lld/%lld lanes hydrated, "
      "peak resident %lld, evicted %lld, restored %lld, rss %.1f MB)\n",
      name.c_str(), out.wall_ms, static_cast<long long>(s.events_executed),
      s.setup_ms,
      static_cast<long long>(s.lanes_hydrated),
      static_cast<long long>(s.lanes_total),
      static_cast<long long>(s.peak_resident_lanes),
      static_cast<long long>(s.lanes_evicted),
      static_cast<long long>(s.lanes_restored), out.peak_rss_mb);
  return out;
}

/// Parity of `run` with its tier's reference `ref`: the merged metrics
/// (MetricsRecorder::Equals in-process; for scale configs ContentHash,
/// order-stable over exactly the surface Equals compares) and the
/// event, file and open totals. Records the verdict in run->identical
/// and aborts the bench on divergence, the message led by `what`.
void CheckParity(const Outcome& ref, Outcome* run, const std::string& what) {
  std::string why;
  bool same = false;
  const sim::FleetSimResult& a = ref.result;
  const sim::FleetSimResult& b = run->result;
  if (ref.metrics_hash && run->metrics_hash) {
    same = *run->metrics_hash == *ref.metrics_hash;
    if (!same) {
      why = "hash " + std::to_string(*run->metrics_hash) + " vs " +
            std::to_string(*ref.metrics_hash);
    }
  } else {
    same = a.metrics.Equals(b.metrics, &why);
  }
  run->identical = same && b.events_executed == a.events_executed &&
                   b.total_files == a.total_files &&
                   b.open_calls == a.open_calls;
  AUTOCOMP_CHECK(run->identical)
      << what << ": " << (why.empty() ? "aggregate totals differ" : why);
}

}  // namespace

int main() {
  std::setvbuf(stdout, nullptr, _IOLBF, 0);  // live progress when piped
  const int hw = static_cast<int>(std::thread::hardware_concurrency());
  std::printf("hardware_concurrency = %d\n", hw);

  // --- Scale tier replays run FIRST, while this process is still small:
  // each config forks a child whose wait4 ru_maxrss is that replay's own
  // peak RSS. Forking after the 2000-table tier would hand every child
  // a ~300 MB inherited high-water mark and flatten the comparison.
  // Cross-process bit-identity (ContentHash) of the sharded config is
  // checked here; no speedup is claimed from these runs. A half-fleet
  // seq run with the same absolute activity documents the sublinear
  // wall/footprint claim.
  const bool scale_enabled = kScaleTables > 0;
  const bool evict_enabled = scale_enabled && kScaleEvictLanes != 0;
  std::vector<Outcome> scale_runs;
  std::vector<Outcome> evict_runs;
  std::optional<Outcome> evict_probe;
  int64_t evict_budget = kScaleEvictLanes;
  Outcome scale_half;
  bool scale_identical = true;
  if (scale_enabled) {
    std::printf(
        "scale tier: %d one-table databases, %d day(s), ~%.0f writes + "
        "%.0f reads per day fleet-wide...\n",
        kScaleTables, kScaleDays, kScaleDailyWrites, kScaleDailyReads);
    const sim::FleetSimOptions scale = ScaleOptions(kScaleTables);
    scale_runs.push_back(ScaleReplay("seq", scale, 0, 0));
    scale_runs.push_back(ScaleReplay("shard4-pool2", scale, 4, 2));
    const Outcome& sseq = scale_runs.front();
    const auto check_scale = [&](Outcome& r) {
      CheckParity(sseq, &r,
                  "scale config " + r.name + " diverged from scale seq");
      scale_identical = scale_identical && r.identical;
    };
    check_scale(scale_runs.back());
    // Bounded-residency configs: the evictor dehydrates cold lanes into
    // checkpoints under a budget + idle rule; metrics must still
    // hash-equal the unbounded seq run while peak RSS drops. One
    // sequential and one sharded+pooled config, so the cross-process
    // identity check covers eviction interleaved with shard parallelism.
    if (evict_enabled) {
      if (evict_budget < 0) {
        // Early retirement only runs with the evictor on, so the unbounded
        // seq peak says nothing about the residency the evict configs
        // reach: probe it with the idle rule alone, then halve it so the
        // budget really binds.
        std::printf("eviction tier: probing idle rule %d h alone...\n",
                    kScaleEvictIdleHours);
        evict_probe = ScaleReplay("seq-idle", Evicting(scale, 0), 0, 0);
        check_scale(*evict_probe);
        evict_budget =
            std::max<int64_t>(1, evict_probe->result.peak_resident_lanes / 2);
      }
      std::printf(
          "eviction tier: budget %lld resident lanes, idle rule %d h...\n",
          static_cast<long long>(evict_budget), kScaleEvictIdleHours);
      const sim::FleetSimOptions evicting = Evicting(scale, evict_budget);
      evict_runs.push_back(ScaleReplay("seq-evict", evicting, 0, 0));
      evict_runs.push_back(
          ScaleReplay("shard4-pool2-evict", evicting, 4, 2));
    }
    // The documented residency bound (DESIGN.md §10): budget + one wave
    // (capped at the budget) + the lanes the day's onboarding restored.
    // Wrap-up's one transient lane per shard sits on a post-sweep
    // residency within the budget, so it stays below this too.
    const int64_t evict_bound =
        evict_budget +
        std::min(sim::FleetSimulation::kEvictWaveSize, evict_budget) +
        scale.fleet.new_tables_per_day;
    for (Outcome& r : evict_runs) {
      check_scale(r);
      AUTOCOMP_CHECK(r.result.lanes_evicted > 0)
          << "eviction config " << r.name << " never evicted a lane";
      AUTOCOMP_CHECK(r.result.peak_resident_lanes <= evict_bound)
          << "eviction config " << r.name << " peaked at "
          << r.result.peak_resident_lanes << " resident lanes, over the bound "
          << evict_bound << " for budget " << evict_budget;
    }
    scale_half = ScaleReplay("seq-half", ScaleOptions(kScaleTables / 2), 0, 0);
  } else {
    std::printf("scale tier: skipped (AUTOCOMP_BENCH_SCALE_TABLES=0)\n");
  }

  std::printf(
      "replaying %d-table fleet for %d day(s), %d run(s) per config...\n",
      kDatabases * kTablesPerDb, kDays, kRunsPerConfig);
  std::vector<Outcome> runs;
  runs.push_back(Replay("seq", BaseOptions()));
  {
    ThreadPool pool(std::clamp(hw, 1, 4));
    runs.push_back(Replay("shard4", Sharded(BaseOptions(), 4, &pool)));
  }
  const Outcome& seq = runs.front();
  // NFR2: the sharded configuration reproduces the sequential run
  // exactly — same merged metrics, same fleet end state.
  CheckParity(seq, &runs.back(),
              "sharded run shard4 diverged from the sequential driver");

  sim::TablePrinter table({"config", "shards", "pool", "wall ms", "events",
                           "events/s", "speedup", "files", "opens",
                           "identical"});
  JsonValue json_runs = JsonValue::Array();
  for (const Outcome& r : runs) {
    const sim::FleetSimTotals& s = r.result;
    const double speedup = r.wall_ms > 0 ? seq.wall_ms / r.wall_ms : 0;
    table.AddRow({r.name, std::to_string(r.shards),
                  std::to_string(r.pool_workers), sim::Fmt(r.wall_ms, 1),
                  std::to_string(s.events_executed),
                  sim::Fmt(r.events_per_sec(), 0), sim::Fmt(speedup, 2),
                  std::to_string(s.total_files), std::to_string(s.open_calls),
                  r.identical ? "yes" : "NO"});
    JsonValue entry = JsonValue::Object();
    entry.Set("name", r.name);
    entry.Set("shards", r.shards);
    entry.Set("pool_workers", r.pool_workers);
    entry.Set("wall_ms", r.wall_ms);
    entry.Set("events", s.events_executed);
    entry.Set("events_per_sec", r.events_per_sec());
    entry.Set("speedup_vs_seq", speedup);
    entry.Set("metrics_equal", r.identical);
    json_runs.Append(std::move(entry));
  }
  std::printf("%s", table.ToString().c_str());

  // --- Scheduler tier: preemption-armed but inert fifo must be
  // bit-identical to default-knob fifo (its CPU-time delta is
  // reported); the DRR config prices fair-share dispatch + SLO recording
  // against the fifo leg under a <2% budget and emits the per-tenant SLO
  // rows.
  std::printf(
      "scheduler tier: top-5 deferred compactions per cycle, %d day(s)...\n",
      kDays);
  auto [sched_plain, sched_fifo] = Paired(
      "sched-fifo", "seq-sched", SchedOptions(), ArmedFifo(SchedOptions()));
  CheckParity(sched_plain, &sched_fifo,
              "arming preemption perturbed the fifo deferred path");
  AUTOCOMP_CHECK(sched_fifo.result.metrics.TotalCount("compaction_commits") > 0)
      << "scheduler tier never committed a compaction — the parity "
         "comparison is vacuous";
  Outcome sched_drr =
      Paired("seq-sched", "seq-drr", ArmedFifo(SchedOptions()),
             Drr(SchedOptions()))
          .second;
  const sim::MetricsRecorder& drr_metrics = sched_drr.result.metrics;
  AUTOCOMP_CHECK(drr_metrics.TotalCount("sched.admitted") > 0)
      << "DRR config admitted nothing through the scheduler";
  AUTOCOMP_CHECK(drr_metrics.TotalCount("compaction_commits") > 0)
      << "DRR config never committed a compaction";
  constexpr double kSchedOverheadTargetPct = 2.0;
  sim::TablePrinter sched_table(
      {"config", "wall ms", "events", "commits", "overhead %", "identical"});
  JsonValue sched_runs = JsonValue::Array();
  for (const Outcome* r : {&sched_plain, &sched_fifo, &sched_drr}) {
    const int64_t commits = r->result.metrics.TotalCount("compaction_commits");
    sched_table.AddRow(
        {r->name, sim::Fmt(r->wall_ms, 1),
         std::to_string(r->result.events_executed), std::to_string(commits),
         r == &sched_plain ? "-" : sim::Fmt(r->overhead_pct, 2),
         r == &sched_plain  ? "baseline"
         : r == &sched_fifo ? (r->identical ? "yes" : "NO")
                            : "n/a"});
    JsonValue entry = JsonValue::Object();
    entry.Set("name", r->name);
    entry.Set("wall_ms", r->wall_ms);
    entry.Set("events", r->result.events_executed);
    entry.Set("compaction_commits", commits);
    if (r == &sched_drr) {
      entry.Set("sched_admitted", drr_metrics.TotalCount("sched.admitted"));
      entry.Set("sched_rejected", drr_metrics.TotalCount("sched.rejected"));
    }
    if (r != &sched_plain) entry.Set("overhead_pct", r->overhead_pct);
    if (r == &sched_fifo) {
      entry.Set("metrics_equal_to_plain_fifo", sched_fifo.identical);
    }
    sched_runs.Append(std::move(entry));
  }
  std::printf("%s", sched_table.ToString().c_str());
  std::printf(
      "scheduler overhead: fifo (inert) %.2f%% (reported), drr vs fifo "
      "%.2f%% (target < %.0f%%)\n",
      sched_fifo.overhead_pct, sched_drr.overhead_pct,
      kSchedOverheadTargetPct);

  // Per-tenant SLO rows from the DRR run (the config that records
  // them): p99 simulated query latency, p99 time-to-compact (admission
  // to commit), and the closing budget-debt gauge. All tenants land in
  // the JSON; the console table shows the first few.
  JsonValue sched_slo_rows = JsonValue::Array();
  sim::TablePrinter slo_table({"tenant", "queries", "p99 query s",
                               "compactions", "p99 ttc s", "debt gbhr"});
  int slo_tenants = 0;
  constexpr int kSloTableRows = 6;
  for (int d = 0; d < kDatabases; ++d) {
    char tenant_name[16];
    std::snprintf(tenant_name, sizeof tenant_name, "tenant%03d", d);
    const std::string tenant = tenant_name;
    const Sample queries =
        drr_metrics.AllObservations("sched.query_latency_s." + tenant);
    const Sample ttc =
        drr_metrics.AllObservations("sched.time_to_compact_s." + tenant);
    const auto& debt = drr_metrics.Series("sched.budget_debt_gbhr." + tenant);
    if (queries.empty() && ttc.empty() && debt.empty()) continue;
    const double p99_query = queries.empty() ? 0 : queries.Quantile(0.99);
    const double p99_ttc = ttc.empty() ? 0 : ttc.Quantile(0.99);
    const double closing_debt = debt.empty() ? 0 : debt.back().value;
    JsonValue row = JsonValue::Object();
    row.Set("tenant", tenant);
    row.Set("queries", queries.count());
    row.Set("p99_query_latency_s", p99_query);
    row.Set("compactions", ttc.count());
    row.Set("p99_time_to_compact_s", p99_ttc);
    row.Set("budget_debt_gbhr", closing_debt);
    sched_slo_rows.Append(std::move(row));
    if (slo_tenants < kSloTableRows) {
      slo_table.AddRow({tenant, std::to_string(queries.count()),
                        sim::Fmt(p99_query, 3), std::to_string(ttc.count()),
                        sim::Fmt(p99_ttc, 0), sim::Fmt(closing_debt, 2)});
    }
    ++slo_tenants;
  }
  AUTOCOMP_CHECK(slo_tenants > 0)
      << "DRR config recorded no per-tenant SLO series";
  std::printf("%s", slo_table.ToString().c_str());
  if (slo_tenants > kSloTableRows) {
    std::printf("(%d tenants total; full SLO rows in BENCH_sim.json)\n",
                slo_tenants);
  }

  // --- Scale-tier report (the replays themselves ran first, above).
  JsonValue scale_json = JsonValue::Object();
  const Outcome* sevict = evict_runs.empty() ? nullptr : &evict_runs.front();
  double evict_rss_vs_unbounded = 0;
  double evict_wall_penalty_pct = 0;
  if (scale_enabled) {
    const Outcome& sseq = scale_runs.front();
    const Outcome& half = scale_half;

    sim::TablePrinter scale_table(
        {"config", "shards", "pool", "wall ms", "setup ms", "events",
         "events/s", "hydrated", "peak res", "evicted", "rss MB",
         "identical"});
    const auto add_scale_row = [&](const Outcome& r, const char* identical) {
      const sim::FleetSimTotals& s = r.result;
      scale_table.AddRow(
          {r.name, std::to_string(r.shards), std::to_string(r.pool_workers),
           sim::Fmt(r.wall_ms, 1), sim::Fmt(s.setup_ms, 1),
           std::to_string(s.events_executed), sim::Fmt(r.events_per_sec(), 0),
           std::to_string(s.lanes_hydrated) + "/" +
               std::to_string(s.lanes_total),
           std::to_string(s.peak_resident_lanes),
           std::to_string(s.lanes_evicted), sim::Fmt(r.peak_rss_mb, 1),
           identical});
    };
    for (const Outcome& r : scale_runs) {
      add_scale_row(r, &r == &sseq ? "ref" : (r.identical ? "yes" : "NO"));
    }
    if (evict_probe) add_scale_row(*evict_probe, "yes");
    for (const Outcome& r : evict_runs) {
      add_scale_row(r, r.identical ? "yes" : "NO");
    }
    add_scale_row(half, "n/a");
    std::printf("%s", scale_table.ToString().c_str());

    const auto wall_per_event = [](const Outcome& r) {
      const int64_t events = r.result.events_executed;
      return events > 0 ? r.wall_ms / static_cast<double>(events) : 0;
    };
    const double scale_wall_per_event = wall_per_event(sseq);
    const double base_wall_per_event = wall_per_event(seq);
    const double rss_full_vs_half =
        half.peak_rss_mb > 0 ? sseq.peak_rss_mb / half.peak_rss_mb : 0;
    const double wall_full_vs_half =
        half.wall_ms > 0 ? sseq.wall_ms / half.wall_ms : 0;
    std::printf(
        "scale: %.3f ms/event (2000-table tier: %.3f); 2x lanes => %.2fx "
        "wall, %.2fx rss; %lld of %lld lanes ever hydrated\n",
        scale_wall_per_event, base_wall_per_event, wall_full_vs_half,
        rss_full_vs_half, static_cast<long long>(sseq.result.lanes_hydrated),
        static_cast<long long>(sseq.result.lanes_total));

    const auto scale_entry = [](const Outcome& r, bool is_ref) {
      const sim::FleetSimTotals& s = r.result;
      JsonValue entry = JsonValue::Object();
      entry.Set("name", r.name);
      entry.Set("shards", r.shards);
      entry.Set("pool_workers", r.pool_workers);
      entry.Set("wall_ms", r.wall_ms);
      entry.Set("setup_ms", s.setup_ms);
      entry.Set("events", s.events_executed);
      entry.Set("events_per_sec", r.events_per_sec());
      entry.Set("lanes_total", s.lanes_total);
      entry.Set("lanes_hydrated", s.lanes_hydrated);
      entry.Set("peak_resident_lanes", s.peak_resident_lanes);
      entry.Set("lanes_ghosted", s.lanes_ghosted);
      entry.Set("lanes_evicted", s.lanes_evicted);
      entry.Set("lanes_restored", s.lanes_restored);
      entry.Set("lanes_retired", s.lanes_retired);
      entry.Set("checkpoint_bytes", s.checkpoint_bytes);
      entry.Set("restore_ms", s.restore_ms);
      entry.Set("peak_rss_mb", r.peak_rss_mb);
      entry.Set("metrics_hash", std::to_string(*r.metrics_hash));
      if (!is_ref) entry.Set("identical_to_seq", r.identical);
      return entry;
    };
    JsonValue scale_configs = JsonValue::Array();
    for (const Outcome& r : scale_runs) {
      scale_configs.Append(scale_entry(r, &r == &sseq));
    }
    scale_json.Set("tables", kScaleTables);
    scale_json.Set("days", kScaleDays);
    scale_json.Set("daily_writes", kScaleDailyWrites);
    scale_json.Set("daily_reads", kScaleDailyReads);
    scale_json.Set("per_config_rss", sseq.forked);
    scale_json.Set("configs", std::move(scale_configs));
    scale_json.Set("half_scale", scale_entry(half, true));
    scale_json.Set("events_per_sec", sseq.events_per_sec());
    scale_json.Set("peak_rss_mb", sseq.peak_rss_mb);
    scale_json.Set("setup_ms", sseq.result.setup_ms);
    scale_json.Set("wall_ms_per_event", scale_wall_per_event);
    scale_json.Set("base_wall_ms_per_event", base_wall_per_event);
    scale_json.Set("wall_full_vs_half", wall_full_vs_half);
    scale_json.Set("rss_full_vs_half", rss_full_vs_half);
    scale_json.Set("lanes_total", sseq.result.lanes_total);
    scale_json.Set("lanes_hydrated", sseq.result.lanes_hydrated);
    scale_json.Set("peak_resident_lanes", sseq.result.peak_resident_lanes);
    scale_json.Set("identical", scale_identical);

    if (sevict != nullptr) {
      const sim::FleetSimTotals& ev = sevict->result;
      evict_rss_vs_unbounded = sseq.peak_rss_mb > 0 && sevict->forked
                                   ? sevict->peak_rss_mb / sseq.peak_rss_mb
                                   : 0;
      evict_wall_penalty_pct =
          sseq.wall_ms > 0
              ? (sevict->wall_ms - sseq.wall_ms) / sseq.wall_ms * 100.0
              : 0;
      std::printf(
          "evict: rss %.1f MB vs unbounded %.1f MB (%.0f%%), wall penalty "
          "%.1f%%, %lld evictions / %lld restores / %lld retired, checkpoint "
          "peak %.1f MB, restore %.1f ms total\n",
          sevict->peak_rss_mb, sseq.peak_rss_mb, evict_rss_vs_unbounded * 100.0,
          evict_wall_penalty_pct, static_cast<long long>(ev.lanes_evicted),
          static_cast<long long>(ev.lanes_restored),
          static_cast<long long>(ev.lanes_retired),
          static_cast<double>(ev.checkpoint_bytes) / (1024.0 * 1024.0),
          ev.restore_ms);
      JsonValue evict_json = JsonValue::Object();
      evict_json.Set("max_resident_lanes", evict_budget);
      evict_json.Set("evict_after_idle_hours", kScaleEvictIdleHours);
      if (evict_probe) {
        evict_json.Set("budget_probe", scale_entry(*evict_probe, false));
      }
      JsonValue evict_configs = JsonValue::Array();
      for (const Outcome& r : evict_runs) {
        evict_configs.Append(scale_entry(r, false));
      }
      evict_json.Set("configs", std::move(evict_configs));
      evict_json.Set("peak_rss_mb", sevict->peak_rss_mb);
      evict_json.Set("rss_vs_unbounded", evict_rss_vs_unbounded);
      evict_json.Set("wall_penalty_pct", evict_wall_penalty_pct);
      evict_json.Set("lanes_evicted", ev.lanes_evicted);
      evict_json.Set("lanes_restored", ev.lanes_restored);
      evict_json.Set("lanes_retired", ev.lanes_retired);
      evict_json.Set("checkpoint_bytes", ev.checkpoint_bytes);
      evict_json.Set("restore_ms", ev.restore_ms);
      scale_json.Set("evict", std::move(evict_json));
    }
  } else {
    scale_json.Set("skipped", true);
  }

  // Pre-overhaul reference (PR 5 seed, same 2000-table/1-day config on a
  // 1-vCPU container): the "before" side of the hot-path rework. Kept as
  // constants so regenerating this file never loses the comparison.
  JsonValue baseline = JsonValue::Object();
  baseline.Set("label", std::string("pr5-pre-overhaul"));
  baseline.Set("seq_wall_ms", 45976.1);
  baseline.Set("seq_events", static_cast<int64_t>(901));
  baseline.Set("seq_events_per_sec", 19.6);

  JsonValue doc = JsonValue::Object();
  doc.Set("baseline", std::move(baseline));
  doc.Set("events_per_sec", seq.events_per_sec());
  doc.Set("speedup_vs_baseline", seq.events_per_sec() / 19.6);
  doc.Set("scale", std::move(scale_json));
  doc.Set("sched_runs", std::move(sched_runs));
  doc.Set("sched_fifo_overhead_pct", sched_fifo.overhead_pct);
  doc.Set("sched_drr_overhead_pct", sched_drr.overhead_pct);
  doc.Set("sched_drr_overhead_iqr_pct", sched_drr.overhead_iqr_pct);
  doc.Set("sched_drr_overhead_q1_pct", sched_drr.overhead_q1_pct);
  doc.Set("sched_overhead_target_pct", kSchedOverheadTargetPct);
  doc.Set("sched_tenant_slo", std::move(sched_slo_rows));
  doc.Set("fleet_tables", kDatabases * kTablesPerDb);
  doc.Set("days", kDays);
  doc.Set("hardware_concurrency", hw);
  doc.Set("runs", std::move(json_runs));
  bench::WriteJson("BENCH_sim.json", doc);

  // --- Perf gates (CI perf-smoke, perf-scale, perf-scale-evict).
  // Throughput may only regress to the checked-in floor, the DRR
  // discipline must stay inside its budget, and the scale footprints
  // under their ceilings. The inert-fifo scheduler leg is report-only:
  // its contract is the bit-identity check above, and its CPU-time
  // delta (a few percent of queue indirection) sits inside pair
  // jitter, so gating it would only flap. The eviction ceiling is the
  // bounded-memory contract of DESIGN.md §10, not just a regression
  // guard.
  const Outcome* sscale = scale_enabled ? &scale_runs.front() : nullptr;
  const std::string evict_note =
      " (" + sim::Fmt(evict_rss_vs_unbounded * 100.0, 0) +
      "% of unbounded, wall penalty " + sim::Fmt(evict_wall_penalty_pct, 1) +
      "%)";
  const auto limit = [](const char* env) { return bench::EnvDouble(env, 0); };
  using bench::Gate;
  const Gate gates[] = {
      {Gate::kFloor, "seq events/s", seq.events_per_sec(),
       limit("AUTOCOMP_BENCH_MIN_EVENTS_PER_SEC")},
      {Gate::kBudgetPct, "scheduler drr overhead", sched_drr.overhead_pct,
       limit("AUTOCOMP_BENCH_SCHED_MAX_OVERHEAD_PCT"), true, "",
       sched_drr.overhead_iqr_pct, sched_drr.overhead_q1_pct},
      {Gate::kFloor, "scale events/s", sscale ? sscale->events_per_sec() : 0,
       limit("AUTOCOMP_BENCH_SCALE_MIN_EVENTS_PER_SEC"), sscale != nullptr},
      {Gate::kCeilingMb, "scale peak rss", sscale ? sscale->peak_rss_mb : 0,
       limit("AUTOCOMP_BENCH_SCALE_MAX_RSS_MB"),
       sscale != nullptr && sscale->forked},
      {Gate::kCeilingMb, "evict peak rss", sevict ? sevict->peak_rss_mb : 0,
       limit("AUTOCOMP_BENCH_SCALE_EVICT_MAX_RSS_MB"),
       sevict != nullptr && sevict->forked, evict_note.c_str()},
  };
  int gate_failures = 0;
  bool any_limit = false;
  for (const Gate& gate : gates) {
    gate_failures += bench::Breached(gate) ? 1 : 0;
    any_limit = any_limit || gate.limit > 0;
  }
  if (any_limit) {
    std::printf("perf gates: %s (floor %.0f ev/s, sched overhead budget "
                "%.2f%%, scale floor %.0f ev/s, scale rss ceiling %.1f MB, "
                "evict rss ceiling %.1f MB)\n",
                gate_failures == 0 ? "PASS" : "FAIL", gates[0].limit,
                gates[1].limit, gates[2].limit, gates[3].limit,
                gates[4].limit);
  }
  return gate_failures == 0 ? 0 : 1;
}
