// Driver-scheduling and shard-parallel replay tests: deferred-compaction
// finalize ordering (min-heap discipline), end-of-run orphan flushing,
// counter-based RNG / epoch-load invariants, deterministic metrics
// merge/equality, and the NFR2 bar for the fleet driver — bit-identical
// metrics for sequential vs sharded runs across seeds, shard counts and
// pool sizes, and against the eager reference replay
// (fleet_reference.h). Labeled "concurrency" so TSan builds cover the
// parallel shard advancement.

#include <gtest/gtest.h>

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "common/counter_rng.h"
#include "common/thread_pool.h"
#include "fleet_reference.h"
#include "sim/driver.h"
#include "sim/environment.h"
#include "sim/fleet_driver.h"
#include "sim/metrics.h"
#include "sim/presets.h"
#include "storage/epoch_load.h"
#include "workload/fleet.h"
#include "workload/tpch.h"

namespace autocomp::sim {
namespace {

// ------------------------------------------------------------ CounterRng

TEST(CounterRngTest, PureFunctionOfInputs) {
  const uint64_t key = CounterRng::HashString("/data/db/t/f1.parquet");
  const double a = CounterRng::Uniform01(7, key, 3);
  // Unrelated draws in between must not affect the stream.
  (void)CounterRng::Uniform01(7, key, 4);
  (void)CounterRng::Uniform01(9, CounterRng::HashString("other"), 0);
  EXPECT_EQ(a, CounterRng::Uniform01(7, key, 3));
}

TEST(CounterRngTest, StreamsAreDistinctAndUniform) {
  const uint64_t key = CounterRng::HashString("path");
  double sum = 0;
  for (int i = 0; i < 1000; ++i) {
    const double u = CounterRng::Uniform01(7, key, static_cast<uint64_t>(i));
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    sum += u;
  }
  EXPECT_NEAR(sum / 1000.0, 0.5, 0.05);
  EXPECT_NE(CounterRng::Uniform01(7, key, 0), CounterRng::Uniform01(8, key, 0));
  EXPECT_NE(CounterRng::Uniform01(7, key, 0),
            CounterRng::Uniform01(7, CounterRng::HashString("path2"), 0));
}

// ------------------------------------------------------------- EpochLoad

TEST(EpochLoadModelTest, ServesNewestCompletedHour) {
  storage::NameNodeOptions options;
  options.rpc_capacity_per_hour = 1000;
  storage::EpochLoadModel model(options);
  EXPECT_EQ(model.LoadAt(10 * kMinute), 0);  // nothing published yet
  model.PublishHour(0, 500);
  // During hour 1 the epoch-start view is hour 0's tally.
  EXPECT_EQ(model.LoadAt(kHour + kMinute), 500);
  // Within hour 0 itself nothing earlier exists.
  EXPECT_EQ(model.LoadAt(30 * kMinute), 0);
  model.PublishHour(kHour, 2500);
  EXPECT_EQ(model.LoadAt(2 * kHour + 1), 2500);
  // Hours without a publish fall back to the newest one before them.
  EXPECT_EQ(model.LoadAt(5 * kHour), 2500);
}

TEST(EpochLoadModelTest, TimeoutProbabilityRampsWithLoad) {
  storage::NameNodeOptions options;
  options.rpc_capacity_per_hour = 1000;
  storage::EpochLoadModel model(options);
  EXPECT_EQ(model.TimeoutProbabilityAt(kHour), 0.0);  // no load published
  model.PublishHour(0, options.rpc_capacity_per_hour / 2);
  EXPECT_EQ(model.TimeoutProbabilityAt(kHour), 0.0);  // under capacity
  model.PublishHour(kHour, options.rpc_capacity_per_hour * 100);
  EXPECT_GT(model.TimeoutProbabilityAt(2 * kHour), 0.0);
  EXPECT_LE(model.TimeoutProbabilityAt(2 * kHour),
            options.max_timeout_probability);
}

// -------------------------------------------------------- Metrics compare

TEST(MetricsEqualityTest, DetectsDivergence) {
  MetricsRecorder a;
  MetricsRecorder b;
  a.Record("files", 0, 100);
  b.Record("files", 0, 100);
  EXPECT_TRUE(a.Equals(b));
  b.Record("files", kHour, 90);
  std::string why;
  EXPECT_FALSE(a.Equals(b, &why));
  EXPECT_NE(why.find("files"), std::string::npos);
  a.Record("files", kHour, 91);
  EXPECT_FALSE(a.Equals(b));
}

TEST(MetricsEqualityTest, IgnoresInternedButEmptyMetrics) {
  MetricsRecorder a;
  MetricsRecorder b;
  (void)a.Intern("never_recorded");
  a.Increment("conflicts", kMinute);
  b.Increment("conflicts", kMinute);
  EXPECT_TRUE(a.Equals(b));
  EXPECT_TRUE(b.Equals(a));
}

TEST(MetricsEqualityTest, ContentHashTracksEquality) {
  MetricsRecorder a;
  MetricsRecorder b;
  a.Record("files", 0, 100);
  a.Increment("conflicts", kMinute, 2);
  a.Observe("latency", kHour, 12.5);
  b.Record("files", 0, 100);
  b.Increment("conflicts", kMinute, 2);
  b.Observe("latency", kHour, 12.5);
  (void)b.Intern("never_recorded");  // empty slots must not perturb it
  EXPECT_EQ(a.ContentHash(), b.ContentHash());
  b.Record("files", kHour, 90);
  EXPECT_NE(a.ContentHash(), b.ContentHash());
}

TEST(MetricsMergeTest, LaneMergeMatchesSingleRecorder) {
  // Record the same logical stream once into one recorder and once split
  // across two lanes; the lane-order merge must reproduce it exactly.
  MetricsRecorder whole;
  MetricsRecorder lane0;
  MetricsRecorder lane1;
  whole.Record("files", 0, 10);
  whole.Record("files", kHour, 20);
  whole.Record("files", kHour, 30);  // same-time points keep lane order
  whole.Observe("lat", kMinute, 1.5);
  whole.Observe("lat", kMinute, 0.5);
  whole.Increment("conflicts", kMinute, 2);
  lane0.Record("files", 0, 10);
  lane0.Record("files", kHour, 20);
  lane1.Record("files", kHour, 30);
  lane1.Observe("lat", kMinute, 1.5);
  lane0.Observe("lat", kMinute, 0.5);
  lane0.Increment("conflicts", kMinute);
  lane1.Increment("conflicts", kMinute);
  const MetricsRecorder merged = MetricsRecorder::Merge({&lane0, &lane1});
  std::string why;
  EXPECT_TRUE(merged.Equals(whole, &why)) << why;
  ASSERT_EQ(merged.Series("files").size(), 3u);
  EXPECT_EQ(merged.Series("files")[1].value, 20);
  EXPECT_EQ(merged.TotalCount("conflicts"), 2);
}

// ----------------------------------------- deferred compaction ordering

std::unique_ptr<core::AutoCompService> MakeDeferredService(
    SimEnvironment* env, ScopeStrategy scope, int64_t k) {
  StrategyPreset preset;
  preset.scope = scope;
  preset.k = k;
  preset.deferred_act = true;
  return MakeMoopService(env, preset);
}

TEST(DeferredQueueTest, FinalizesInEndTimeOrder) {
  SimEnvironment env;
  ASSERT_TRUE(workload::SetupTpchDatabase(
                  &env.catalog(), &env.query_engine(), "db", 6 * kGiB,
                  engine::UntunedUserJobProfile(), 0)
                  .ok());
  auto service = MakeDeferredService(&env, ScopeStrategy::kPartition, 20);
  MetricsRecorder metrics;
  DriverOptions options;
  options.deferred_compaction = true;
  EventDriver driver(&env, &metrics, options);
  driver.AttachService(service.get());
  ASSERT_TRUE(driver.Run({}, 6 * kHour).ok());
  // Every finalized unit appends one compaction_gbhr point at its end
  // time; the min-heap must pop them in non-decreasing time order.
  const auto& series = metrics.Series("compaction_gbhr");
  ASSERT_GT(series.size(), 1u);
  for (size_t i = 1; i < series.size(); ++i) {
    EXPECT_GE(series[i].time, series[i - 1].time)
        << "finalize order regressed at point " << i;
  }
}

TEST(DeferredQueueTest, WithinTableUnitsStaySequenced) {
  SimEnvironment env;
  ASSERT_TRUE(workload::SetupTpchDatabase(
                  &env.catalog(), &env.query_engine(), "db", 6 * kGiB,
                  engine::UntunedUserJobProfile(), 0)
                  .ok());
  auto service = MakeDeferredService(&env, ScopeStrategy::kPartition, 20);
  MetricsRecorder metrics;
  DriverOptions options;
  options.deferred_compaction = true;
  EventDriver driver(&env, &metrics, options);
  driver.AttachService(service.get());
  ASSERT_TRUE(driver.Run({}, 6 * kHour).ok());
  // Strict table-level validation + within-table serialization: no unit
  // of the same table may overlap another, so no cluster conflicts.
  EXPECT_GT(metrics.TotalCount("compaction_commits"), 5);
  EXPECT_EQ(metrics.TotalCount("cluster_conflicts"), 0);
}

// Flushing must commit or abort every inflight unit: afterwards all live
// metadata points at existing storage files and commits were recorded.
void FinishRunAndCheck(EventDriver* driver, SimEnvironment* env,
                       MetricsRecorder* metrics) {
  driver->FinishRun();
  EXPECT_GT(metrics->TotalCount("compaction_commits") +
                metrics->TotalCount("cluster_conflicts"),
            0);
  for (const std::string& name : env->catalog().ListAllTables()) {
    auto meta = env->catalog().LoadTable(name);
    ASSERT_TRUE(meta.ok());
    for (const lst::DataFile& f : (*meta)->LiveFiles()) {
      EXPECT_TRUE(env->dfs().Exists(f.path)) << f.path;
    }
  }
  // A second FinishRun is a no-op on an already-drained heap.
  driver->FinishRun();
}

TEST(DeferredQueueTest, FinishRunFlushesOrphans) {
  SimEnvironment env;
  ASSERT_TRUE(workload::SetupTpchDatabase(
                  &env.catalog(), &env.query_engine(), "db", 8 * kGiB,
                  engine::UntunedUserJobProfile(), 0)
                  .ok());
  auto service = MakeDeferredService(&env, ScopeStrategy::kTable, 5);
  MetricsRecorder metrics;
  DriverOptions options;
  options.deferred_compaction = true;
  EventDriver driver(&env, &metrics, options);
  driver.AttachService(service.get());
  // Stop right after the trigger, while rewrites are inflight, using the
  // incremental API the fleet driver uses (AdvanceTo + FinishRun instead
  // of Run).
  ASSERT_TRUE(driver.AdvanceTo(kHour + kMinute).ok());
  FinishRunAndCheck(&driver, &env, &metrics);
}

// ------------------------------------------------- shard-parallel fleet

FleetSimOptions SmallFleet(uint64_t seed) {
  FleetSimOptions options;
  options.days = 2;
  options.seed = seed;
  options.fleet.num_databases = 6;
  options.fleet.tables_per_db = 3;
  options.fleet.new_tables_per_day = 2;
  // Low capacity so fleet-wide load crosses it and the epoch-load timeout
  // path actually fires (otherwise the test would pass vacuously).
  options.env.namenode.rpc_capacity_per_hour = 200;
  options.driver.sample_interval = 4 * kHour;
  options.driver.retention_interval = kDay;
  return options;
}

MetricsRecorder RunFleet(FleetSimOptions options, int64_t* events_out,
                         int64_t* timeouts_out = nullptr) {
  FleetSimulation simulation(std::move(options));
  auto result = simulation.Run();
  EXPECT_TRUE(result.ok()) << result.status();
  if (events_out != nullptr) *events_out = result->events_executed;
  if (timeouts_out != nullptr) {
    *timeouts_out = result->metrics.TotalCount("open_timeouts");
  }
  return std::move(result->metrics);
}

TEST(FleetSimulationTest, ShardAssignmentIsStableAndCompletes) {
  EXPECT_EQ(FleetSimulation::ShardOf("tenant000", 4),
            FleetSimulation::ShardOf("tenant000", 4));
  bool differs = false;
  for (int d = 0; d < 16 && !differs; ++d) {
    char buf[16];
    std::snprintf(buf, sizeof(buf), "tenant%03d", d);
    differs = FleetSimulation::ShardOf(buf, 4) !=
              FleetSimulation::ShardOf("tenant000", 4);
  }
  EXPECT_TRUE(differs) << "hash degenerated to one shard";
}

TEST(FleetSimulationTest, SequentialRunIsReproducible) {
  FleetSimOptions options = SmallFleet(7);
  options.sharded = false;
  int64_t events_a = 0;
  int64_t events_b = 0;
  const MetricsRecorder a = RunFleet(options, &events_a);
  const MetricsRecorder b = RunFleet(SmallFleet(7), &events_b);
  // Note: run B uses the default (sharded, but null pool => inline).
  std::string why;
  EXPECT_TRUE(a.Equals(b, &why)) << why;
  EXPECT_EQ(events_a, events_b);
  EXPECT_GT(events_a, 0);
}

TEST(FleetSimulationTest, TimeoutPathIsExercised) {
  int64_t events = 0;
  int64_t timeouts = 0;
  FleetSimOptions options = SmallFleet(7);
  options.sharded = false;
  (void)RunFleet(std::move(options), &events, &timeouts);
  EXPECT_GT(timeouts, 0) << "epoch-load timeout model never fired; the "
                            "determinism matrix would be vacuous";
}

TEST(FleetSimulationTest, ShardedBitIdenticalAcrossSeedsShardsAndPools) {
  for (const uint64_t seed : {7ull, 99ull}) {
    FleetSimOptions seq_options = SmallFleet(seed);
    seq_options.sharded = false;
    int64_t seq_events = 0;
    const MetricsRecorder seq = RunFleet(std::move(seq_options), &seq_events);
    for (const int shards : {1, 2, 4, 8}) {
      for (const int workers : {0, 2, 4}) {
        std::unique_ptr<ThreadPool> pool;
        if (workers > 0) pool = std::make_unique<ThreadPool>(workers);
        FleetSimOptions options = SmallFleet(seed);
        options.sharded = true;
        options.shards = shards;
        options.pool = pool.get();
        int64_t events = 0;
        const MetricsRecorder metrics = RunFleet(std::move(options), &events);
        std::string why;
        EXPECT_TRUE(seq.Equals(metrics, &why))
            << "seed=" << seed << " shards=" << shards
            << " workers=" << workers << ": " << why;
        EXPECT_EQ(seq_events, events);
      }
    }
  }
}

FleetSimResult RunFleetFull(FleetSimOptions options) {
  FleetSimulation simulation(std::move(options));
  auto result = simulation.Run();
  EXPECT_TRUE(result.ok()) << result.status();
  return std::move(*result);
}

// The NFR2 bar for the lazy path: hydrate-on-demand + active-lane
// scheduling + delta barriers must reproduce the eager reference
// (EagerFleetReplay: hydrate everything, advance everything, every epoch,
// each hour sealed with a full re-sum) bit for bit — per series, per
// hour, per sample — at every shard count and pool size.
TEST(FleetSimulationTest, LazyMatchesEagerReferenceAcrossSeedsShardsAndPools) {
  for (const uint64_t seed : {7ull, 99ull}) {
    const FleetSimResult eager = EagerFleetReplay(SmallFleet(seed));
    EXPECT_EQ(eager.lanes_hydrated, eager.lanes_total);
    for (const int shards : {1, 4, 8}) {
      for (const int workers : {0, 2, 4}) {
        std::unique_ptr<ThreadPool> pool;
        if (workers > 0) pool = std::make_unique<ThreadPool>(workers);
        FleetSimOptions options = SmallFleet(seed);
        options.shards = shards;
        options.pool = pool.get();
        const FleetSimResult lazy = RunFleetFull(std::move(options));
        std::string why;
        EXPECT_TRUE(eager.metrics.Equals(lazy.metrics, &why))
            << "seed=" << seed << " shards=" << shards
            << " workers=" << workers << ": " << why;
        EXPECT_EQ(eager.metrics.ContentHash(), lazy.metrics.ContentHash());
        EXPECT_EQ(eager.events_executed, lazy.events_executed);
        EXPECT_EQ(eager.total_files, lazy.total_files);
        EXPECT_EQ(eager.open_calls, lazy.open_calls);
      }
    }
  }
}

// Same bar with the per-lane AutoComp control loop attached: the preset
// wakes every lane at the trigger cadence, so the lazy path degrades to
// near-eager scheduling — and its outputs must still match exactly. The
// pipeline's host-time phase series would differ run to run, so both
// sides leave them out and every remaining series must match.
TEST(FleetSimulationTest, LazyMatchesEagerWithControlLoop) {
  const auto with_preset = [](uint64_t seed) {
    FleetSimOptions options = SmallFleet(seed);
    options.driver.record_host_timings = false;
    StrategyPreset preset;
    preset.scope = ScopeStrategy::kTable;
    preset.k = 5;
    options.preset = preset;
    return options;
  };
  const FleetSimResult eager = EagerFleetReplay(with_preset(7));
  for (const int shards : {1, 4}) {
    for (const int workers : {0, 2}) {
      std::unique_ptr<ThreadPool> pool;
      if (workers > 0) pool = std::make_unique<ThreadPool>(workers);
      FleetSimOptions options = with_preset(7);
      options.shards = shards;
      options.pool = pool.get();
      const FleetSimResult lazy = RunFleetFull(std::move(options));
      const std::string label = "shards=" + std::to_string(shards) +
                                " workers=" + std::to_string(workers);
      std::string why;
      EXPECT_TRUE(eager.metrics.Equals(lazy.metrics, &why))
          << label << ": " << why;
      EXPECT_EQ(eager.metrics.ContentHash(), lazy.metrics.ContentHash())
          << label;
      EXPECT_EQ(eager.events_executed, lazy.events_executed) << label;
      EXPECT_EQ(eager.total_files, lazy.total_files) << label;
      EXPECT_EQ(eager.open_calls, lazy.open_calls) << label;
      // Under a preset every lane must wake for the control loop, so
      // nothing can be ghosted.
      EXPECT_EQ(lazy.lanes_ghosted, 0);
    }
  }
}

// The footprint claim behind 100×-scale replays: lanes that never have
// any work are never hydrated into environments — they share one ghost
// replay — and the results still match the eager reference exactly.
// The onboarded tables are written and read within the same hours, at an
// RPC capacity their opens overrun, so timeout draws consult the epoch
// load model and a barrier that seals the wrong hour changes the replay.
TEST(FleetSimulationTest, IdleLanesAreNeverHydrated) {
  const auto sparse_fleet = [] {
    FleetSimOptions options = SmallFleet(7);
    options.fleet.num_databases = 8;
    options.fleet.tables_per_db = 0;  // all activity comes from onboards
    options.fleet.new_tables_per_day = 1;
    options.fleet.daily_write_fraction = 4;  // 4 writes per table a day
    options.fleet.daily_reads_per_table = 8;
    options.env.namenode.rpc_capacity_per_hour = 50;
    return options;
  };
  const FleetSimResult eager = EagerFleetReplay(sparse_fleet());
  EXPECT_EQ(eager.lanes_hydrated, 8);
  EXPECT_GT(eager.metrics.TotalCount("open_timeouts"), 0);

  const FleetSimResult lazy = RunFleetFull(sparse_fleet());
  EXPECT_GT(lazy.metrics.TotalCount("open_timeouts"), 0);
  // One onboarded table per day for two days: at most two databases ever
  // see work.
  EXPECT_LE(lazy.lanes_hydrated, 2);
  EXPECT_GE(lazy.lanes_ghosted, 6);
  EXPECT_EQ(lazy.lanes_ghosted + lazy.lanes_hydrated, lazy.lanes_total);
  EXPECT_LE(lazy.peak_resident_lanes, lazy.lanes_hydrated);
  std::string why;
  EXPECT_TRUE(eager.metrics.Equals(lazy.metrics, &why)) << why;
  EXPECT_EQ(eager.events_executed, lazy.events_executed);
  EXPECT_EQ(eager.total_files, lazy.total_files);
}

}  // namespace
}  // namespace autocomp::sim
