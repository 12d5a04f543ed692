// Unit tests for src/sim: metrics recorder, table printer, environment
// wiring, the event driver, and strategy presets.

#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "sim/driver.h"
#include "sim/environment.h"
#include "sim/metrics.h"
#include "sim/presets.h"
#include "workload/cab.h"
#include "workload/fleet.h"
#include "workload/tpch.h"

namespace autocomp::sim {
namespace {

// ---------------------------------------------------------------- Metrics

TEST(MetricsTest, SeriesRecordsInOrder) {
  MetricsRecorder metrics;
  metrics.Record("files", 0, 100);
  metrics.Record("files", kHour, 90);
  const auto& series = metrics.Series("files");
  ASSERT_EQ(series.size(), 2u);
  EXPECT_EQ(series[0].value, 100);
  EXPECT_EQ(series[1].time, kHour);
  EXPECT_TRUE(metrics.Series("unknown").empty());
}

TEST(MetricsTest, HourlyObservationsBucketed) {
  MetricsRecorder metrics;
  metrics.Observe("lat", 10 * kMinute, 1.0);
  metrics.Observe("lat", 50 * kMinute, 3.0);
  metrics.Observe("lat", kHour + kMinute, 10.0);
  const auto summaries = metrics.HourlySummaries("lat");
  ASSERT_EQ(summaries.size(), 2u);
  EXPECT_EQ(summaries[0].first, 0);
  EXPECT_EQ(summaries[0].second.count, 2);
  EXPECT_DOUBLE_EQ(summaries[0].second.median, 2.0);
  EXPECT_EQ(summaries[1].second.count, 1);
  EXPECT_EQ(metrics.AllObservations("lat").count(), 3);
}

TEST(MetricsTest, HourlyCounters) {
  MetricsRecorder metrics;
  metrics.Increment("conflicts", 5 * kMinute);
  metrics.Increment("conflicts", 6 * kMinute, 2);
  metrics.Increment("conflicts", 3 * kHour);
  const auto counts = metrics.HourlyCounts("conflicts");
  ASSERT_EQ(counts.size(), 2u);
  EXPECT_EQ(counts[0].second, 3);
  EXPECT_EQ(counts[1].first, 3 * kHour);
  EXPECT_EQ(metrics.TotalCount("conflicts"), 4);
  EXPECT_EQ(metrics.TotalCount("none"), 0);
}

TEST(TablePrinterTest, AlignsColumns) {
  TablePrinter printer({"name", "value"});
  printer.AddRow({"a", "1"});
  printer.AddRow({"long-name", "22"});
  const std::string out = printer.ToString();
  EXPECT_NE(out.find("| name"), std::string::npos);
  EXPECT_NE(out.find("| long-name"), std::string::npos);
  // Header rule present.
  EXPECT_NE(out.find("|-"), std::string::npos);
}

TEST(FmtTest, Decimals) {
  EXPECT_EQ(Fmt(3.14159, 2), "3.14");
  EXPECT_EQ(Fmt(3.0, 0), "3");
}

// ------------------------------------------------------------ Environment

TEST(EnvironmentTest, DefaultsMatchPaperSetup) {
  SimEnvironment env;
  EXPECT_EQ(env.query_cluster().options().executors, 15);
  EXPECT_EQ(env.compaction_cluster().options().executors, 3);
  EXPECT_EQ(env.TotalFileCount(), 0);
  EXPECT_EQ(env.clock().Now(), 0);
}

TEST(EnvironmentTest, FileCountTracksStorage) {
  SimEnvironment env;
  ASSERT_TRUE(env.dfs().CreateFile("/x/f", 1, 1).ok());
  EXPECT_EQ(env.TotalFileCount(), 1);
}

// ----------------------------------------------------------------- Driver

TEST(DriverTest, RunsEventsAndRecordsMetrics) {
  SimEnvironment env;
  ASSERT_TRUE(workload::SetupTpchDatabase(
                  &env.catalog(), &env.query_engine(), "db", kGiB,
                  engine::UntunedUserJobProfile(), 0)
                  .ok());
  MetricsRecorder metrics;
  EventDriver driver(&env, &metrics);

  std::vector<workload::QueryEvent> events(2);
  events[0].time = 10 * kMinute;
  events[0].table = "db.lineitem";
  events[1].time = 20 * kMinute;
  events[1].is_write = true;
  events[1].write.table = "db.orders";
  events[1].write.logical_bytes = 8 * kMiB;
  ASSERT_TRUE(driver.Run(events, kHour).ok());

  EXPECT_EQ(env.clock().Now(), kHour);
  EXPECT_EQ(metrics.AllObservations("read_latency_s").count(), 1);
  EXPECT_EQ(metrics.AllObservations("write_latency_s").count(), 1);
  EXPECT_GT(driver.total_read_seconds(), 0);
  // files_total sampled repeatedly.
  EXPECT_GE(metrics.Series("files_total").size(), 5u);
}

TEST(DriverTest, ServiceTickedWhenDue) {
  SimEnvironment env;
  ASSERT_TRUE(workload::SetupTpchDatabase(
                  &env.catalog(), &env.query_engine(), "db", kGiB,
                  engine::UntunedUserJobProfile(), 0)
                  .ok());
  StrategyPreset preset;
  preset.scope = ScopeStrategy::kTable;
  preset.k = 10;
  preset.trigger_interval = kHour;
  preset.first_trigger = kHour;
  auto service = MakeMoopService(&env, preset);

  MetricsRecorder metrics;
  EventDriver driver(&env, &metrics);
  driver.AttachService(service.get());
  const int64_t before = env.TotalFileCount();
  ASSERT_TRUE(driver.Run({}, 2 * kHour).ok());
  ASSERT_GE(service->history().size(), 1u);
  EXPECT_GT(service->history()[0].committed_count(), 0);
  EXPECT_LT(env.TotalFileCount(), before);
}

TEST(DriverTest, FailedWritesRecordedNotFatal) {
  SimEnvironment env;
  MetricsRecorder metrics;
  EventDriver driver(&env, &metrics);
  workload::QueryEvent bad;
  bad.time = kMinute;
  bad.is_write = true;
  bad.write.table = "ghost.table";
  bad.write.logical_bytes = kMiB;
  ASSERT_TRUE(driver.Run({bad}, 2 * kMinute).ok());
  EXPECT_EQ(metrics.TotalCount("write_failures"), 1);
}

// ---------------------------------------------------------------- Presets

TEST(PresetTest, BudgetedPresetUsesDynamicK) {
  SimEnvironment env;
  ASSERT_TRUE(workload::SetupTpchDatabase(
                  &env.catalog(), &env.query_engine(), "db", 2 * kGiB,
                  engine::UntunedUserJobProfile(), 0)
                  .ok());
  StrategyPreset preset;
  preset.scope = ScopeStrategy::kHybrid;
  preset.budget_gb_hours = 0.05;  // tiny: selects only a few units
  auto service = MakeMoopService(&env, preset);
  env.clock().AdvanceTo(kHour);
  auto report = service->RunNow();
  ASSERT_TRUE(report.ok());
  EXPECT_GT(report->ranked.size(), report->selected.size());
  double cost = 0;
  for (const auto& sc : report->selected) {
    cost += sc.traited.traits.at("compute_cost_gbhr");
  }
  EXPECT_LE(cost, 0.05 + 1e-9);
}

TEST(PresetTest, TableScopePresetCompacts) {
  SimEnvironment env;
  ASSERT_TRUE(workload::SetupTpchDatabase(
                  &env.catalog(), &env.query_engine(), "db", kGiB,
                  engine::UntunedUserJobProfile(), 0)
                  .ok());
  StrategyPreset preset;
  preset.scope = ScopeStrategy::kTable;
  preset.k = 3;
  auto service = MakeMoopService(&env, preset);
  env.clock().AdvanceTo(kHour);
  auto report = service->RunNow();
  ASSERT_TRUE(report.ok());
  EXPECT_LE(report->selected.size(), 3u);
  EXPECT_GT(report->committed_count(), 0);
}


// ------------------------------------------------ manifest path footprint

/// What the distinct manifests of `catalog` (every retained snapshot of
/// every table) spend on paths: file names plus a 4-byte name end and a
/// 4-byte directory index per entry, and a 16-byte view per
/// directory-table entry. `full_paths` gets the same entries stored as
/// whole paths with a 4-byte end each.
int64_t ManifestPathBytes(catalog::Catalog& catalog, int64_t* full_paths) {
  std::set<const lst::Manifest*> seen;
  int64_t bytes = 0;
  *full_paths = 0;
  for (const std::string& name : catalog.ListAllTables()) {
    auto meta = catalog.LoadTable(name);
    EXPECT_TRUE(meta.ok()) << name;
    if (!meta.ok()) continue;
    for (const lst::Snapshot& s : (*meta)->snapshots()) {
      for (const lst::ManifestPtr& m : s.manifests) {
        if (!seen.insert(m.get()).second) continue;
        bytes += static_cast<int64_t>(m->name_bytes()) +
                 8 * m->file_count() +
                 16 * static_cast<int64_t>(m->directory_count());
        for (size_t i = 0; i < static_cast<size_t>(m->file_count()); ++i) {
          *full_paths += static_cast<int64_t>(m->path(i).size()) + 4;
        }
      }
    }
  }
  return bytes;
}

// The perfbench control_loop catalog at smoke scale (4 databases of 10
// tables, one day, hourly Table-10 MOOP with synchronous act), sub-seed
// 7000, after its fragmented initial load and after the day. The bytes
// are a pure function of simulated state, so a regression in how
// manifests store paths fails here on any host. Stored as whole paths
// (before directories were interned), the same entries took 605,799 and
// 18,686 bytes.
constexpr int64_t kLoadedCatalogManifestPathBytes = 286'354;
constexpr int64_t kReplayedCatalogManifestPathBytes = 13'765;

TEST(ManifestFootprintTest, ControlLoopSmokeCatalogStoresEachDirectoryOnce) {
  SimEnvironment env(EnvironmentOptions{});
  workload::FleetOptions fleet_options;
  fleet_options.num_databases = 4;
  fleet_options.tables_per_db = 10;
  fleet_options.size_mu = std::log(128.0 * kMiB);
  fleet_options.size_sigma = 1.2;
  fleet_options.seed = 7000;
  workload::FleetWorkload fleet(fleet_options);
  ASSERT_TRUE(fleet.Setup(&env.catalog(), &env.query_engine(),
                          &env.control_plane(), 0)
                  .ok());
  ASSERT_TRUE(fleet.OnboardNewTables(&env.catalog(), &env.query_engine(), 0,
                                     env.clock().Now())
                  .ok());
  const auto expect_at_most = [&env](int64_t pinned, const char* when) {
    int64_t full_paths = 0;
    const int64_t bytes = ManifestPathBytes(env.catalog(), &full_paths);
    EXPECT_LE(bytes, pinned + pinned / 50)
        << when << "; whole paths would take " << full_paths;
    EXPECT_LT(bytes, full_paths) << when;
  };
  expect_at_most(kLoadedCatalogManifestPathBytes, "after the initial load");
  StrategyPreset preset;
  preset.scope = ScopeStrategy::kTable;
  preset.k = 10;
  auto service = MakeMoopService(&env, preset);
  MetricsRecorder metrics;
  DriverOptions driver_options;
  driver_options.sample_interval = 4 * kHour;
  driver_options.retention_interval = kDay;
  driver_options.record_host_timings = false;
  EventDriver driver(&env, &metrics, driver_options);
  driver.AttachService(service.get());
  for (const workload::QueryEvent& event : fleet.EventsForDay(0)) {
    ASSERT_TRUE(driver.AdvanceTo(event.time).ok());
    (void)driver.Execute(event);  // conflicts are part of the workload
  }
  ASSERT_TRUE(driver.AdvanceTo(kDay).ok());
  driver.FinishRun();
  ASSERT_GT(service->history().size(), 0u);
  expect_at_most(kReplayedCatalogManifestPathBytes, "after the day");
}

// ------------------------------------------------- deferred compaction

TEST(DeferredDriverTest, PlansExecuteOnTheTimeline) {
  SimEnvironment env;
  ASSERT_TRUE(workload::SetupTpchDatabase(
                  &env.catalog(), &env.query_engine(), "db", 4 * kGiB,
                  engine::UntunedUserJobProfile(), 0)
                  .ok());
  StrategyPreset preset;
  preset.scope = ScopeStrategy::kTable;
  preset.k = 3;
  preset.deferred_act = true;  // decide-only pipeline
  auto service = MakeMoopService(&env, preset);

  MetricsRecorder metrics;
  DriverOptions options;
  options.deferred_compaction = true;
  EventDriver driver(&env, &metrics, options);
  driver.AttachService(service.get());
  const int64_t before = env.TotalFileCount();
  ASSERT_TRUE(driver.Run({}, 4 * kHour).ok());

  // The service itself executed nothing (null executor)...
  for (const core::PipelineRunReport& report : service->history()) {
    EXPECT_TRUE(report.executed.empty());
    EXPECT_FALSE(report.selected.empty());
  }
  // ...but the driver finalized the rewrites on the timeline.
  EXPECT_GT(metrics.TotalCount("compaction_commits"), 0);
  EXPECT_LT(env.TotalFileCount(), before);
  // Commits happen strictly after the trigger (nonzero rewrite window).
  const auto commits = metrics.HourlyCounts("compaction_commits");
  ASSERT_FALSE(commits.empty());
  EXPECT_GE(commits.front().first, kHour - kHour % kHour);
}

TEST(DeferredDriverTest, PerTableUnitsSerialized) {
  SimEnvironment env;
  ASSERT_TRUE(workload::SetupTpchDatabase(
                  &env.catalog(), &env.query_engine(), "db", 6 * kGiB,
                  engine::UntunedUserJobProfile(), 0)
                  .ok());
  StrategyPreset preset;
  preset.scope = ScopeStrategy::kPartition;  // many units on one table
  preset.k = 20;
  preset.deferred_act = true;
  auto service = MakeMoopService(&env, preset);
  MetricsRecorder metrics;
  DriverOptions options;
  options.deferred_compaction = true;
  EventDriver driver(&env, &metrics, options);
  driver.AttachService(service.get());
  ASSERT_TRUE(driver.Run({}, 3 * kHour).ok());
  // With within-table serialization and strict validation, none of the
  // partition rewrites conflict with each other.
  EXPECT_GT(metrics.TotalCount("compaction_commits"), 5);
  EXPECT_EQ(metrics.TotalCount("cluster_conflicts"), 0);
}

TEST(DeferredDriverTest, InflightUnitsFlushedAtRunEnd) {
  SimEnvironment env;
  ASSERT_TRUE(workload::SetupTpchDatabase(
                  &env.catalog(), &env.query_engine(), "db", 8 * kGiB,
                  engine::UntunedUserJobProfile(), 0)
                  .ok());
  StrategyPreset preset;
  preset.scope = ScopeStrategy::kTable;
  preset.k = 5;
  preset.deferred_act = true;
  auto service = MakeMoopService(&env, preset);
  MetricsRecorder metrics;
  DriverOptions options;
  options.deferred_compaction = true;
  EventDriver driver(&env, &metrics, options);
  driver.AttachService(service.get());
  // End the run right after the trigger: big rewrites are still inflight
  // and must be finalized (no orphan outputs left dangling).
  ASSERT_TRUE(driver.Run({}, kHour + kMinute).ok());
  int64_t live_total = 0;
  for (const std::string& name : env.catalog().ListAllTables()) {
    auto meta = env.catalog().LoadTable(name);
    for (const lst::DataFile& f : (*meta)->LiveFiles()) {
      EXPECT_TRUE(env.dfs().Exists(f.path));
      ++live_total;
    }
  }
  EXPECT_GT(live_total, 0);
}

}  // namespace
}  // namespace autocomp::sim
