// Tests for the §8 extensions: clustering (Z-order-style) rewrites with
// selective-scan row-group skipping, and workload-aware traits fed by the
// catalog's access telemetry.

#include <gtest/gtest.h>

#include "core/act.h"
#include "core/observe.h"
#include "core/traits.h"
#include "sim/driver.h"
#include "sim/environment.h"
#include "sim/metrics.h"
#include "sim/presets.h"
#include "workload/tpch.h"

namespace autocomp {
namespace {

class LayoutTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(env_.catalog().CreateDatabase("db").ok());
    auto table = env_.catalog().CreateTable(
        "db", "t", lst::Schema(0, {{1, "d", lst::FieldType::kDate, true}}),
        lst::PartitionSpec(1, {{1, lst::Transform::kMonth, "m"}}));
    ASSERT_TRUE(table.ok());
    engine::WriteSpec spec;
    spec.table = "db.t";
    spec.logical_bytes = 1 * kGiB;
    spec.partitions = {"m=2024-01"};
    spec.profile = engine::UntunedUserJobProfile();
    ASSERT_TRUE(env_.query_engine().ExecuteWrite(spec, 0).ok());
  }

  engine::CompactionResult Compact(bool cluster) {
    engine::CompactionRequest request;
    request.table = "db.t";
    request.cluster_output = cluster;
    auto result = env_.compaction_runner().Run(request, env_.clock().Now());
    EXPECT_TRUE(result.ok());
    if (result->committed) {
      (void)env_.control_plane().RunRetentionFor("db.t", SimTime{0});
    }
    env_.clock().Advance(kHour);
    return result.ok() ? *result : engine::CompactionResult{};
  }

  /// Two hours of the preset service over db.t, whose TablePolicy asks
  /// for clustering, in one act mode. Returns the committed rewrites.
  int64_t CompactWithClusteringPolicy(bool deferred) {
    catalog::TablePolicy policy;
    policy.clustering_enabled = true;
    env_.control_plane().SetPolicy("db.t", policy);
    sim::StrategyPreset preset;
    preset.deferred_act = deferred;
    auto service = sim::MakeMoopService(&env_, preset);
    sim::DriverOptions options;
    options.deferred_compaction = deferred;
    sim::MetricsRecorder metrics;
    sim::EventDriver driver(&env_, &metrics, options);
    driver.AttachService(service.get());
    EXPECT_TRUE(driver.Run({}, 2 * kHour).ok());
    return env_.compaction_runner().total_committed();
  }

  void ExpectLiveFilesClustered() {
    for (const lst::DataFile& f :
         (*env_.catalog().LoadTable("db.t"))->LiveFiles()) {
      EXPECT_TRUE(f.clustered) << f.path;
    }
  }

  sim::SimEnvironment env_;
};

TEST_F(LayoutTest, ClusteringRewriteMarksOutputs) {
  const auto result = Compact(/*cluster=*/true);
  ASSERT_TRUE(result.committed);
  for (const lst::DataFile& f : (*env_.catalog().LoadTable("db.t"))
                                    ->LiveFiles()) {
    EXPECT_TRUE(f.clustered) << f.path;
  }
}

TEST_F(LayoutTest, PlainRewriteLeavesOutputsUnclustered) {
  const auto result = Compact(/*cluster=*/false);
  ASSERT_TRUE(result.committed);
  for (const lst::DataFile& f : (*env_.catalog().LoadTable("db.t"))
                                    ->LiveFiles()) {
    EXPECT_FALSE(f.clustered);
  }
}

TEST_F(LayoutTest, ClusteringCostsMore) {
  // Same inputs, fresh tables: clustered rewrite pays the layout passes.
  sim::SimEnvironment env2;
  ASSERT_TRUE(env2.catalog().CreateDatabase("db").ok());
  auto table = env2.catalog().CreateTable(
      "db", "t", lst::Schema(0, {{1, "d", lst::FieldType::kDate, true}}),
      lst::PartitionSpec(1, {{1, lst::Transform::kMonth, "m"}}));
  ASSERT_TRUE(table.ok());
  engine::WriteSpec spec;
  spec.table = "db.t";
  spec.logical_bytes = 1 * kGiB;
  spec.partitions = {"m=2024-01"};
  spec.profile = engine::UntunedUserJobProfile();
  ASSERT_TRUE(env2.query_engine().ExecuteWrite(spec, 0).ok());

  engine::CompactionRequest plain;
  plain.table = "db.t";
  auto plain_result = env2.compaction_runner().Run(plain, kHour);
  ASSERT_TRUE(plain_result.ok() && plain_result->committed);

  const auto clustered_result = Compact(/*cluster=*/true);
  ASSERT_TRUE(clustered_result.committed);
  EXPECT_GT(clustered_result.gb_hours, plain_result->gb_hours * 1.3);
  EXPECT_GT(clustered_result.duration_seconds,
            plain_result->duration_seconds * 1.3);
}

TEST_F(LayoutTest, SelectiveScansSkipRowGroupsInClusteredFiles) {
  // Unclustered: selectivity does not matter (no skipping possible).
  auto full_before = env_.query_engine().ExecuteRead(
      "db.t", std::nullopt, env_.clock().Now(), 1.0);
  auto selective_before = env_.query_engine().ExecuteRead(
      "db.t", std::nullopt, env_.clock().Now() + kMinute, 0.1);
  ASSERT_TRUE(full_before.ok() && selective_before.ok());
  EXPECT_EQ(full_before->bytes_scanned, selective_before->bytes_scanned);

  ASSERT_TRUE(Compact(/*cluster=*/true).committed);

  auto full_after = env_.query_engine().ExecuteRead(
      "db.t", std::nullopt, env_.clock().Now(), 1.0);
  auto selective_after = env_.query_engine().ExecuteRead(
      "db.t", std::nullopt, env_.clock().Now() + kMinute, 0.1);
  ASSERT_TRUE(full_after.ok() && selective_after.ok());
  EXPECT_LT(selective_after->bytes_scanned, full_after->bytes_scanned / 5);
  EXPECT_LE(selective_after->total_seconds, full_after->total_seconds);
}

TEST_F(LayoutTest, StatsTrackUnclusteredBytes) {
  core::StatsCollector collector(&env_.catalog(), &env_.control_plane(),
                                 &env_.clock());
  core::Candidate candidate;
  candidate.table = "db.t";
  auto before = collector.Collect(candidate);
  ASSERT_TRUE(before.ok());
  EXPECT_EQ(before->unclustered_bytes, before->total_bytes);
  EXPECT_GT(core::ClusteringBenefitTrait().Compute(
                core::ObservedCandidate{candidate, *before}),
            0.0);

  ASSERT_TRUE(Compact(/*cluster=*/true).committed);
  auto after = collector.Collect(candidate);
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after->unclustered_bytes, 0);
}

TEST_F(LayoutTest, PolicyDrivenClusteringViaScheduler) {
  catalog::TablePolicy policy;
  policy.clustering_enabled = true;
  env_.control_plane().SetPolicy("db.t", policy);
  core::Candidate candidate;
  candidate.table = "db.t";
  const engine::CompactionRequest request = core::RequestFor(
      candidate, engine::RewriteMovement::kPartial, &env_.control_plane());
  EXPECT_TRUE(request.cluster_output);
}

// Both act modes build their requests with core::RequestFor, so the
// policy's clustering reaches the rewrite whether the service's executor
// runs it inside the tick or the driver runs it on the timeline.
TEST_F(LayoutTest, PolicyDrivenClusteringInSynchronousAct) {
  ASSERT_GT(CompactWithClusteringPolicy(/*deferred=*/false), 0);
  ExpectLiveFilesClustered();
}

TEST_F(LayoutTest, PolicyDrivenClusteringInDeferredAct) {
  ASSERT_GT(CompactWithClusteringPolicy(/*deferred=*/true), 0);
  ExpectLiveFilesClustered();
}

// ------------------------------------------------- workload awareness

TEST_F(LayoutTest, CatalogTracksReads) {
  EXPECT_EQ(env_.catalog().GetAccessStats("db.t").read_count, 0);
  ASSERT_TRUE(
      env_.query_engine().ExecuteRead("db.t", std::nullopt, kMinute).ok());
  ASSERT_TRUE(env_.query_engine()
                  .ExecuteRead("db.t", std::nullopt, 2 * kMinute)
                  .ok());
  const catalog::TableAccessStats stats =
      env_.catalog().GetAccessStats("db.t");
  EXPECT_EQ(stats.read_count, 2);
  EXPECT_GE(stats.last_read_at, 0);
}

TEST_F(LayoutTest, WorkloadAwareTraitPrefersHotTables) {
  // A second, identical-but-cold table.
  auto cold = env_.catalog().CreateTable(
      "db", "cold", lst::Schema(0, {{1, "d", lst::FieldType::kDate, true}}),
      lst::PartitionSpec(1, {{1, lst::Transform::kMonth, "m"}}));
  ASSERT_TRUE(cold.ok());
  engine::WriteSpec spec;
  spec.table = "db.cold";
  spec.logical_bytes = 1 * kGiB;
  spec.partitions = {"m=2024-01"};
  spec.profile = engine::UntunedUserJobProfile();
  ASSERT_TRUE(env_.query_engine().ExecuteWrite(spec, 0).ok());

  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(env_.query_engine()
                    .ExecuteRead("db.t", std::nullopt, (i + 1) * kMinute)
                    .ok());
  }
  core::StatsCollector collector(&env_.catalog(), &env_.control_plane(),
                                 &env_.clock());
  core::WorkloadAwareReductionTrait trait;
  core::Candidate hot_candidate, cold_candidate;
  hot_candidate.table = "db.t";
  cold_candidate.table = "db.cold";
  auto hot_stats = collector.Collect(hot_candidate);
  auto cold_stats = collector.Collect(cold_candidate);
  ASSERT_TRUE(hot_stats.ok() && cold_stats.ok());
  EXPECT_EQ(hot_stats->custom.GetInt("read_count", -1), 20);
  const double hot = trait.Compute({hot_candidate, *hot_stats});
  const double cold_score = trait.Compute({cold_candidate, *cold_stats});
  EXPECT_GT(hot, 0);
  EXPECT_DOUBLE_EQ(cold_score, 0);  // never read -> zero priority
}

}  // namespace
}  // namespace autocomp
