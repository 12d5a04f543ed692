// Unit tests for src/engine: cluster slot scheduling, the write planner's
// file-count model, query execution costs, and the compaction runner.

#include <gtest/gtest.h>

#include <memory>

#include "catalog/catalog.h"
#include "catalog/control_plane.h"
#include "common/clock.h"
#include "common/counter_rng.h"
#include "engine/cluster.h"
#include "engine/compaction_runner.h"
#include "engine/query_engine.h"
#include "engine/write_planner.h"
#include "fault/fault_injector.h"
#include "workload/tpch.h"

namespace autocomp::engine {
namespace {

// --------------------------------------------------------------- Cluster

TEST(ClusterTest, SlotsAndMemory) {
  SimulatedClock clock(0);
  ClusterOptions opts;
  opts.executors = 3;
  opts.cores_per_executor = 8;
  opts.executor_memory_gb = 64;
  Cluster cluster("c", opts, &clock);
  EXPECT_EQ(cluster.total_slots(), 24);
  EXPECT_DOUBLE_EQ(cluster.total_memory_gb(), 192);
}

TEST(ClusterTest, SingleTaskRunsImmediately) {
  SimulatedClock clock(0);
  ClusterOptions opts;
  opts.executors = 1;
  opts.cores_per_executor = 2;
  Cluster cluster("c", opts, &clock);
  const TaskBagResult r = cluster.RunTasks(100, {10.0});
  EXPECT_EQ(r.start_time, 100);
  EXPECT_EQ(r.end_time, 110);
  EXPECT_DOUBLE_EQ(r.queue_wait_seconds, 0.0);
  EXPECT_DOUBLE_EQ(r.busy_seconds, 10.0);
}

TEST(ClusterTest, TasksQueueWhenSlotsBusy) {
  SimulatedClock clock(0);
  ClusterOptions opts;
  opts.executors = 1;
  opts.cores_per_executor = 1;  // single slot
  Cluster cluster("c", opts, &clock);
  const TaskBagResult r = cluster.RunTasks(0, {10.0, 10.0, 10.0});
  EXPECT_EQ(r.end_time, 30);
  EXPECT_DOUBLE_EQ(r.queue_wait_seconds, 10.0 + 20.0);
}

TEST(ClusterTest, ParallelismBoundsMakespan) {
  SimulatedClock clock(0);
  ClusterOptions opts;
  opts.executors = 1;
  opts.cores_per_executor = 4;
  Cluster cluster("c", opts, &clock);
  const TaskBagResult r = cluster.RunTasks(0, std::vector<double>(8, 5.0));
  EXPECT_EQ(r.end_time, 10);  // 8 tasks / 4 slots * 5s
}

TEST(ClusterTest, ContentionAcrossJobs) {
  SimulatedClock clock(0);
  ClusterOptions opts;
  opts.executors = 1;
  opts.cores_per_executor = 1;
  Cluster cluster("c", opts, &clock);
  (void)cluster.RunTasks(0, {100.0});
  const TaskBagResult later = cluster.RunTasks(10, {1.0});
  // Must wait for the first job's task to finish.
  EXPECT_EQ(later.end_time, 101);
  EXPECT_GT(later.queue_wait_seconds, 0);
}

TEST(ClusterTest, GbHoursAccounting) {
  SimulatedClock clock(0);
  ClusterOptions opts;
  opts.executors = 1;
  opts.cores_per_executor = 8;
  opts.executor_memory_gb = 64;
  Cluster cluster("c", opts, &clock);
  // 8 GB per slot; 3600 busy seconds = 8 GBHr.
  EXPECT_DOUBLE_EQ(cluster.GbHoursFor(3600.0), 8.0);
  (void)cluster.RunTasks(0, {3600.0});
  EXPECT_DOUBLE_EQ(cluster.total_gb_hours(), 8.0);
}

TEST(ClusterTest, ResetFreesSlots) {
  SimulatedClock clock(0);
  ClusterOptions opts;
  opts.executors = 1;
  opts.cores_per_executor = 1;
  Cluster cluster("c", opts, &clock);
  (void)cluster.RunTasks(0, {1000.0});
  clock.AdvanceTo(10);
  cluster.Reset();
  const TaskBagResult r = cluster.RunTasks(10, {1.0});
  EXPECT_EQ(r.end_time, 11);
}

// ----------------------------------------------------------- WritePlanner

TEST(WritePlannerTest, TunedWriterHitsTargetSize) {
  format::ColumnarFileModel model;
  Rng rng(1);
  WriterProfile tuned = TunedPipelineProfile();
  tuned.size_jitter_sigma = 0;  // exact sizes for the assertion
  const auto files = PlanWriteFiles(6 * kGiB, {}, tuned, model, &rng);
  ASSERT_FALSE(files.empty());
  // 6GiB logical ≈ 2GiB stored at ratio 3 → ~4 files of ~512MiB.
  EXPECT_LE(files.size(), 6u);
  for (const PlannedFile& f : files) {
    EXPECT_GT(f.stored_bytes, 256 * kMiB);
  }
}

TEST(WritePlannerTest, UntunedWriterSpraysSmallFiles) {
  format::ColumnarFileModel model;
  Rng rng(1);
  const auto files =
      PlanWriteFiles(1 * kGiB, {}, UntunedUserJobProfile(), model, &rng);
  EXPECT_GE(files.size(), 60u);  // ~64 tasks all flush
  int64_t small = 0;
  for (const PlannedFile& f : files) {
    if (f.stored_bytes < 128 * kMiB) ++small;
  }
  EXPECT_GT(static_cast<double>(small) / files.size(), 0.9);
}

TEST(WritePlannerTest, SplitsAcrossPartitions) {
  format::ColumnarFileModel model;
  Rng rng(1);
  const std::vector<std::string> parts = {"p=1", "p=2", "p=3"};
  const auto files =
      PlanWriteFiles(300 * kMiB, parts, UntunedUserJobProfile(), model, &rng);
  std::set<std::string> seen;
  for (const PlannedFile& f : files) seen.insert(f.partition);
  EXPECT_EQ(seen.size(), 3u);
}

TEST(WritePlannerTest, ZeroBytesProducesNothing) {
  format::ColumnarFileModel model;
  Rng rng(1);
  EXPECT_TRUE(PlanWriteFiles(0, {}, TunedPipelineProfile(), model, &rng)
                  .empty());
}

TEST(WritePlannerTest, TinyWriteCapsFileCount) {
  format::ColumnarFileModel model;
  Rng rng(1);
  // 1MiB write cannot produce 64 files (min chunk 256KiB → ≤4).
  const auto files =
      PlanWriteFiles(1 * kMiB, {}, UntunedUserJobProfile(), model, &rng);
  EXPECT_LE(files.size(), 4u);
  EXPECT_GE(files.size(), 1u);
}

TEST(WritePlannerTest, PlannedFileCountMatchesPlanExactly) {
  // The lazy fleet driver publishes epoch-load estimates for unhydrated
  // lanes straight from PlannedFileCount; any drift from the real plan
  // would silently break the bit-identity guarantee. Sweep the count
  // model's regimes: zero/tiny/huge sizes, coalesce boundaries, task
  // caps, partitioned and not, both profiles, several rng seeds (the rng
  // must only ever jitter sizes, never the count).
  format::ColumnarFileModel model;
  const std::vector<int64_t> sizes = {
      0,         1,          kMiB - 1,       kMiB,          13 * kMiB,
      100 * kMiB, 512 * kMiB, kGiB,          6 * kGiB,
      37 * kGiB + 12345,      512 * kGiB};
  const std::vector<size_t> partition_counts = {0, 1, 3, 7, 24};
  for (const WriterProfile& profile :
       {TunedPipelineProfile(), UntunedUserJobProfile()}) {
    for (const int64_t bytes : sizes) {
      for (const size_t parts : partition_counts) {
        std::vector<std::string> partitions;
        for (size_t p = 0; p < parts; ++p) {
          partitions.push_back("p=" + std::to_string(p));
        }
        for (const uint64_t seed : {1ull, 42ull, 9001ull}) {
          Rng rng(seed);
          const auto files =
              PlanWriteFiles(bytes, partitions, profile, model, &rng);
          EXPECT_EQ(PlannedFileCount(bytes, parts, profile, model),
                    static_cast<int64_t>(files.size()))
              << "bytes=" << bytes << " parts=" << parts
              << " coalesce=" << profile.coalesce_output << " seed=" << seed;
        }
      }
    }
  }
}

TEST(WritePlannerTest, DeterministicForSeed) {
  format::ColumnarFileModel model;
  Rng r1(9), r2(9);
  const auto a =
      PlanWriteFiles(1 * kGiB, {"p=1"}, UntunedUserJobProfile(), model, &r1);
  const auto b =
      PlanWriteFiles(1 * kGiB, {"p=1"}, UntunedUserJobProfile(), model, &r2);
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].stored_bytes, b[i].stored_bytes);
  }
}

// ------------------------------------------------------------ QueryEngine

class EngineFixture : public ::testing::Test {
 protected:
  EngineFixture()
      : nn_(&clock_),
        catalog_(&clock_, &nn_),
        cluster_("q", MakeClusterOptions(), &clock_),
        engine_(&cluster_, &catalog_, &clock_) {
    EXPECT_TRUE(catalog_.CreateDatabase("db").ok());
    auto table = catalog_.CreateTable(
        "db", "t",
        lst::Schema(0, {{1, "d", lst::FieldType::kDate, true}}),
        lst::PartitionSpec(1, {{1, lst::Transform::kMonth, "m"}}));
    EXPECT_TRUE(table.ok());
  }

  static ClusterOptions MakeClusterOptions() {
    ClusterOptions opts;
    opts.executors = 2;
    opts.cores_per_executor = 4;
    return opts;
  }

  SimulatedClock clock_{0};
  storage::NameNode nn_;
  catalog::Catalog catalog_;
  Cluster cluster_;
  QueryEngine engine_;
};

TEST_F(EngineFixture, WriteCreatesFilesAndCommits) {
  WriteSpec spec;
  spec.table = "db.t";
  spec.logical_bytes = 256 * kMiB;
  spec.partitions = {"m=2024-01"};
  auto result = engine_.ExecuteWrite(spec, 0);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_GT(result->files_written, 0);
  EXPECT_FALSE(result->conflict_failed);
  auto meta = catalog_.LoadTable("db.t");
  EXPECT_EQ((*meta)->live_file_count(), result->files_written);
  // Storage layer holds the same files.
  EXPECT_EQ(nn_.AggregateStats().file_count, result->files_written);
}

TEST_F(EngineFixture, ReadCostScalesWithFileCount) {
  // Fragmented write.
  WriteSpec frag;
  frag.table = "db.t";
  frag.logical_bytes = 512 * kMiB;
  frag.partitions = {"m=2024-01"};
  frag.profile = UntunedUserJobProfile();
  ASSERT_TRUE(engine_.ExecuteWrite(frag, 0).ok());
  auto fragmented = engine_.ExecuteRead("db.t", std::nullopt, kMinute);
  ASSERT_TRUE(fragmented.ok());

  // Same data volume, tuned write, fresh table.
  auto table2 = catalog_.CreateTable(
      "db", "t2", lst::Schema(0, {{1, "d", lst::FieldType::kDate, true}}),
      lst::PartitionSpec(1, {{1, lst::Transform::kMonth, "m"}}));
  ASSERT_TRUE(table2.ok());
  WriteSpec tuned = frag;
  tuned.table = "db.t2";
  tuned.profile = TunedPipelineProfile();
  ASSERT_TRUE(engine_.ExecuteWrite(tuned, 2 * kHour).ok());
  auto compact = engine_.ExecuteRead("db.t2", std::nullopt, 3 * kHour);
  ASSERT_TRUE(compact.ok());

  EXPECT_GT(fragmented->files_scanned, compact->files_scanned * 4);
  EXPECT_GT(fragmented->total_seconds, compact->total_seconds);
}

TEST_F(EngineFixture, PartitionScanPrunes) {
  WriteSpec spec;
  spec.table = "db.t";
  spec.logical_bytes = 128 * kMiB;
  spec.partitions = {"m=2024-01", "m=2024-02"};
  ASSERT_TRUE(engine_.ExecuteWrite(spec, 0).ok());
  auto full = engine_.ExecuteRead("db.t", std::nullopt, kMinute);
  auto pruned =
      engine_.ExecuteRead("db.t", std::string("m=2024-01"), 2 * kMinute);
  ASSERT_TRUE(full.ok());
  ASSERT_TRUE(pruned.ok());
  EXPECT_LT(pruned->files_scanned, full->files_scanned);
}

TEST_F(EngineFixture, OverwriteReplacesSomeFiles) {
  WriteSpec initial;
  initial.table = "db.t";
  initial.logical_bytes = 256 * kMiB;
  initial.partitions = {"m=2024-01"};
  ASSERT_TRUE(engine_.ExecuteWrite(initial, 0).ok());
  const int64_t before = (*catalog_.LoadTable("db.t"))->live_file_count();

  WriteSpec over;
  over.table = "db.t";
  over.kind = WriteKind::kOverwrite;
  over.logical_bytes = 32 * kMiB;
  over.partitions = {"m=2024-01"};
  over.replace_fraction = 0.3;
  auto result = engine_.ExecuteWrite(over, kHour);
  ASSERT_TRUE(result.ok());
  EXPECT_GT(result->files_replaced, 0);
  EXPECT_GT(result->files_written, 0);
  auto meta = catalog_.LoadTable("db.t");
  EXPECT_EQ((*meta)->live_file_count(),
            before - result->files_replaced + result->files_written);
}

TEST_F(EngineFixture, WriteToMissingTableFails) {
  WriteSpec spec;
  spec.table = "db.ghost";
  spec.logical_bytes = kMiB;
  EXPECT_TRUE(engine_.ExecuteWrite(spec, 0).status().IsNotFound());
}

TEST_F(EngineFixture, ReadOfMissingTableFails) {
  EXPECT_TRUE(
      engine_.ExecuteRead("db.ghost", std::nullopt, 0).status().IsNotFound());
}

// ------------------------------------------------------- CompactionRunner

class CompactionFixture : public EngineFixture {
 protected:
  CompactionFixture()
      : compaction_cluster_("c", MakeClusterOptions(), &clock_),
        runner_(&compaction_cluster_, &catalog_, &clock_) {}

  void Fragment(const std::string& partition, int64_t logical = 512 * kMiB) {
    WriteSpec spec;
    spec.table = "db.t";
    spec.logical_bytes = logical;
    spec.partitions = {partition};
    spec.profile = UntunedUserJobProfile();
    ASSERT_TRUE(engine_.ExecuteWrite(spec, clock_.Now()).ok());
  }

  Cluster compaction_cluster_;
  CompactionRunner runner_;
};

TEST_F(CompactionFixture, RewriteReducesFileCount) {
  Fragment("m=2024-01");
  const int64_t before = (*catalog_.LoadTable("db.t"))->live_file_count();
  CompactionRequest request;
  request.table = "db.t";
  auto result = runner_.Run(request, kHour);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->attempted);
  ASSERT_TRUE(result->committed) << result->status;
  EXPECT_GT(result->files_rewritten, result->files_produced);
  auto meta = catalog_.LoadTable("db.t");
  EXPECT_LT((*meta)->live_file_count(), before);
  EXPECT_GT(result->gb_hours, 0);
  EXPECT_EQ(runner_.total_committed(), 1);
}

TEST_F(CompactionFixture, CompactionSavesStorageBytes) {
  Fragment("m=2024-01");
  CompactionRequest request;
  request.table = "db.t";
  auto result = runner_.Run(request, kHour);
  ASSERT_TRUE(result.ok() && result->committed);
  // Merged files re-encode at peak efficiency: fewer stored bytes.
  EXPECT_LT(result->bytes_produced, result->bytes_rewritten);
}

TEST_F(CompactionFixture, PartitionScopeOnlyTouchesThatPartition) {
  Fragment("m=2024-01");
  Fragment("m=2024-02");
  const auto before_other =
      (*catalog_.LoadTable("db.t"))->LiveFiles(std::string("m=2024-02"));
  CompactionRequest request;
  request.table = "db.t";
  request.partition = "m=2024-01";
  auto result = runner_.Run(request, kHour);
  ASSERT_TRUE(result.ok() && result->committed);
  const auto after_other =
      (*catalog_.LoadTable("db.t"))->LiveFiles(std::string("m=2024-02"));
  EXPECT_EQ(before_other.size(), after_other.size());
}

TEST_F(CompactionFixture, NeverMergesAcrossPartitions) {
  Fragment("m=2024-01", 64 * kMiB);
  Fragment("m=2024-02", 64 * kMiB);
  CompactionRequest request;
  request.table = "db.t";  // table scope over both partitions
  auto result = runner_.Run(request, kHour);
  ASSERT_TRUE(result.ok() && result->committed);
  for (const lst::DataFile& f : (*catalog_.LoadTable("db.t"))->LiveFiles()) {
    // Every output carries exactly one partition key.
    EXPECT_TRUE(f.partition == "m=2024-01" || f.partition == "m=2024-02");
  }
  // At least one output per partition (no cross-partition merge into one).
  EXPECT_GE((*catalog_.LoadTable("db.t"))->LivePartitions().size(), 2u);
}

TEST_F(CompactionFixture, NothingToDoWhenFilesAreLarge) {
  WriteSpec tuned;
  tuned.table = "db.t";
  tuned.logical_bytes = 6 * kGiB;  // packs into ~410MiB+ files (> cutoff)
  tuned.partitions = {"m=2024-01"};
  tuned.profile = TunedPipelineProfile();
  tuned.profile.size_jitter_sigma = 0;
  ASSERT_TRUE(engine_.ExecuteWrite(tuned, 0).ok());
  CompactionRequest request;
  request.table = "db.t";
  auto result = runner_.Run(request, kHour);
  ASSERT_TRUE(result.ok());
  EXPECT_FALSE(result->attempted);
  EXPECT_FALSE(result->committed);
}

TEST_F(CompactionFixture, ConcurrentOverwriteAbortsInflightCompaction) {
  // Prepare/Finalize splits the rewrite so a user overwrite can land in
  // between — this is the mechanism behind Table 1's cluster-side
  // conflicts.
  Fragment("m=2024-01");
  CompactionRequest request;
  request.table = "db.t";
  auto pending = runner_.Prepare(request, kHour);
  ASSERT_TRUE(pending.ok());
  ASSERT_TRUE(pending->result.attempted);

  // A user overwrite removes some of the rewrite's input files while the
  // rewrite is "running".
  WriteSpec over;
  over.table = "db.t";
  over.kind = WriteKind::kOverwrite;
  over.logical_bytes = 16 * kMiB;
  over.partitions = {"m=2024-01"};
  over.replace_fraction = 0.5;
  auto write = engine_.ExecuteWrite(over, kHour + kMinute);
  ASSERT_TRUE(write.ok());
  ASSERT_GT(write->files_replaced, 0);

  const CompactionResult result = runner_.Finalize(std::move(pending).value());
  EXPECT_FALSE(result.committed);
  EXPECT_TRUE(result.conflict) << result.status;
  EXPECT_EQ(runner_.total_conflicts(), 1);
  // The conflicted rewrite's outputs were cleaned up: every live file in
  // storage belongs to the table's current snapshot.
  for (const lst::DataFile& f : (*catalog_.LoadTable("db.t"))->LiveFiles()) {
    EXPECT_TRUE(nn_.Exists(f.path));
  }
}

TEST_F(CompactionFixture, ConcurrentAppendDoesNotAbortCompaction) {
  Fragment("m=2024-01");
  CompactionRequest request;
  request.table = "db.t";
  auto pending = runner_.Prepare(request, kHour);
  ASSERT_TRUE(pending.ok() && pending->result.attempted);
  // An append lands mid-rewrite: harmless.
  Fragment("m=2024-01", 16 * kMiB);
  const CompactionResult result = runner_.Finalize(std::move(pending).value());
  EXPECT_TRUE(result.committed) << result.status;
}

TEST_F(CompactionFixture, SnapshotScopeCompactsOnlyFreshFiles) {
  Fragment("m=2024-01");
  const int64_t snap =
      (*catalog_.LoadTable("db.t"))->current_snapshot_id();
  Fragment("m=2024-02");
  CompactionRequest request;
  request.table = "db.t";
  request.after_snapshot_id = snap;
  auto result = runner_.Run(request, kHour);
  ASSERT_TRUE(result.ok() && result->committed);
  // Old partition untouched: still fragmented.
  const auto old_files =
      (*catalog_.LoadTable("db.t"))->LiveFiles(std::string("m=2024-01"));
  EXPECT_GT(old_files.size(), 10u);
}

TEST_F(CompactionFixture, GbHoursCoverReadAndWriteWork) {
  Fragment("m=2024-01");
  CompactionRequest request;
  request.table = "db.t";
  auto result = runner_.Run(request, kHour);
  ASSERT_TRUE(result.ok() && result->committed);
  // Measured cost covers input read + output write at the §4.2 rate; the
  // §4.2 estimate (input bytes only) is therefore a lower bound — the
  // production underestimation the paper reports.
  const double measured = result->gb_hours;
  const double estimate =
      compaction_cluster_.total_memory_gb() *
      (static_cast<double>(result->bytes_rewritten) /
       compaction_cluster_.options().rewrite_bytes_per_hour);
  const double full =
      compaction_cluster_.total_memory_gb() *
      (static_cast<double>(result->bytes_rewritten + result->bytes_produced) /
       compaction_cluster_.options().rewrite_bytes_per_hour);
  EXPECT_DOUBLE_EQ(measured, full);
  EXPECT_GT(measured, estimate);
}

// --------------------------------------- CompactionRunner under faults

class FaultedCompactionFixture : public CompactionFixture {
 protected:
  /// Installs an enabled injector with `schedule` into storage, catalog
  /// (commit site), and the runner. Called AFTER the workload is staged
  /// so scheduled hit counts start at the first compaction-path arm.
  void ArmFaults(fault::FaultSchedule schedule) {
    fault::FaultInjectorOptions options;
    options.enabled = true;
    options.schedule = std::move(schedule);
    injector_ = std::make_unique<fault::FaultInjector>(options);
    nn_.SetFaultInjector(injector_.get());
    catalog_.SetFaultInjector(injector_.get());
    runner_.SetFaultInjector(injector_.get());
  }

  std::unique_ptr<fault::FaultInjector> injector_;
};

TEST_F(FaultedCompactionFixture, InjectedCasRaceIsRetriedWithBackoff) {
  Fragment("m=2024-01");
  fault::FaultSchedule schedule;
  schedule.Add(fault::kSiteLstCommit, 1, fault::FaultKind::kCasRaceConflict);
  ArmFaults(std::move(schedule));

  CompactionRequest request;
  request.table = "db.t";
  auto pending = runner_.Prepare(request, kHour);
  ASSERT_TRUE(pending.ok() && pending->result.attempted);
  const SimTime end_before = pending->result.end_time;

  const CompactionResult result = runner_.Finalize(std::move(pending).value());
  EXPECT_TRUE(result.committed) << result.status;
  EXPECT_EQ(result.commit_retries, 1);
  EXPECT_GT(result.backoff_seconds, 0.0);
  // Backoff is charged to duration, never to the simulated landing time —
  // the differential convergence contract.
  EXPECT_EQ(result.end_time, end_before);
  EXPECT_GE(result.duration_seconds, result.backoff_seconds);
  EXPECT_EQ(runner_.total_retries(), 1);
  EXPECT_EQ(runner_.total_abandoned(), 0);
  EXPECT_EQ(runner_.total_conflicts(), 0) << "a recovered race is no conflict";
}

TEST_F(FaultedCompactionFixture, BackoffIsDeterministicAcrossRuns) {
  Fragment("m=2024-01");
  fault::FaultSchedule schedule;
  schedule.Add(fault::kSiteLstCommit, 1, fault::FaultKind::kCasRaceConflict);
  ArmFaults(std::move(schedule));
  CompactionRequest request;
  request.table = "db.t";
  auto pending = runner_.Prepare(request, kHour);
  ASSERT_TRUE(pending.ok());
  const CompactionResult result = runner_.Finalize(std::move(pending).value());
  ASSERT_TRUE(result.committed);
  // Same (table, submit time, attempt) => the policy must reproduce the
  // identical jittered delay.
  const uint64_t key =
      CounterRng::Mix(CounterRng::HashString(request.table)) ^
      static_cast<uint64_t>(result.start_time);
  EXPECT_DOUBLE_EQ(result.backoff_seconds,
                   runner_.retry_policy().BackoffSeconds(key, 1));
}

TEST_F(FaultedCompactionFixture, InjectedValidationAbortIsTerminal) {
  Fragment("m=2024-01");
  fault::FaultSchedule schedule;
  schedule.Add(fault::kSiteLstCommit, 1, fault::FaultKind::kValidationAbort);
  ArmFaults(std::move(schedule));

  CompactionRequest request;
  request.table = "db.t";
  auto pending = runner_.Prepare(request, kHour);
  ASSERT_TRUE(pending.ok() && pending->result.attempted);
  const std::vector<lst::DataFile> outputs = pending->outputs;
  ASSERT_FALSE(outputs.empty());

  const CompactionResult result = runner_.Finalize(std::move(pending).value());
  EXPECT_FALSE(result.committed);
  EXPECT_TRUE(result.conflict);
  EXPECT_TRUE(result.abandoned);
  EXPECT_EQ(result.commit_retries, 0) << "terminal aborts must not retry";
  EXPECT_EQ(runner_.total_abandoned(), 1);
  // Orphan outputs were reaped; the inputs are still the live set.
  for (const lst::DataFile& f : outputs) {
    EXPECT_FALSE(nn_.Exists(f.path)) << f.path;
  }
  for (const lst::DataFile& f : (*catalog_.LoadTable("db.t"))->LiveFiles()) {
    EXPECT_TRUE(nn_.Exists(f.path));
  }
}

TEST_F(FaultedCompactionFixture, RunnerCrashRewritesAndCommits) {
  Fragment("m=2024-01");
  const int64_t live_before = (*catalog_.LoadTable("db.t"))->live_file_count();
  fault::FaultSchedule schedule;
  schedule.Add(fault::kSiteEngineRunner, 1, fault::FaultKind::kRunnerCrash);
  ArmFaults(std::move(schedule));

  CompactionRequest request;
  request.table = "db.t";
  auto pending = runner_.Prepare(request, kHour);
  ASSERT_TRUE(pending.ok() && pending->result.attempted);
  EXPECT_GT(pending->result.backoff_seconds, 0.0) << "crash retry is free?";
  EXPECT_EQ(runner_.total_retries(), 1);

  const CompactionResult result = runner_.Finalize(std::move(pending).value());
  EXPECT_TRUE(result.committed) << result.status;
  EXPECT_LT((*catalog_.LoadTable("db.t"))->live_file_count(), live_before);
  // Nothing the crashed attempt wrote survives in storage: every file is
  // either live or an input awaiting retention.
  for (const lst::DataFile& f : (*catalog_.LoadTable("db.t"))->LiveFiles()) {
    EXPECT_TRUE(nn_.Exists(f.path));
  }
  EXPECT_EQ(runner_.total_abandoned(), 0);
}

TEST_F(FaultedCompactionFixture, RepeatedCrashesExhaustBudgetAndAbandon) {
  Fragment("m=2024-01");
  const int64_t files_before = nn_.AggregateStats().file_count;
  fault::FaultSchedule schedule;
  // Crash every attempt the default policy (max_attempts = 4) will make.
  for (uint64_t hit = 1; hit <= 4; ++hit) {
    schedule.Add(fault::kSiteEngineRunner, hit, fault::FaultKind::kRunnerCrash);
  }
  ArmFaults(std::move(schedule));

  CompactionRequest request;
  request.table = "db.t";
  auto pending = runner_.Prepare(request, kHour);
  ASSERT_TRUE(pending.ok());
  EXPECT_FALSE(pending->result.attempted);
  EXPECT_TRUE(pending->result.abandoned);
  EXPECT_FALSE(pending->result.status.ok());
  EXPECT_EQ(pending->result.bytes_produced, 0);
  EXPECT_EQ(runner_.total_abandoned(), 1);
  // All partial outputs of every attempt were deleted.
  EXPECT_EQ(nn_.AggregateStats().file_count, files_before);
}

TEST_F(FaultedCompactionFixture, InjectedQuotaExhaustionAbandons) {
  Fragment("m=2024-01");
  const int64_t files_before = nn_.AggregateStats().file_count;
  fault::FaultSchedule schedule;
  schedule.Add(fault::kSiteStorageCreate, 1, fault::FaultKind::kQuotaExceeded);
  ArmFaults(std::move(schedule));

  CompactionRequest request;
  request.table = "db.t";
  auto pending = runner_.Prepare(request, kHour);
  ASSERT_TRUE(pending.ok());
  EXPECT_FALSE(pending->result.attempted);
  EXPECT_TRUE(pending->result.abandoned);
  EXPECT_TRUE(pending->result.status.IsResourceExhausted());
  EXPECT_EQ(nn_.AggregateStats().file_count, files_before);
}

}  // namespace
}  // namespace autocomp::engine
