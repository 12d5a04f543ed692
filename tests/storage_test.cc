// Unit tests for src/storage: NameNode namespace, quotas, RPC/timeout
// model and checkpoint.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "common/blob.h"
#include "common/clock.h"
#include "storage/namenode.h"

namespace autocomp::storage {
namespace {

class NameNodeTest : public ::testing::Test {
 protected:
  SimulatedClock clock_{0};
  NameNode nn_{&clock_};
};

TEST_F(NameNodeTest, CreateStatDelete) {
  ASSERT_TRUE(nn_.CreateFile("/data/db/t/f1.parquet", 100, 10).ok());
  EXPECT_TRUE(nn_.Exists("/data/db/t/f1.parquet"));
  auto info = nn_.Stat("/data/db/t/f1.parquet");
  ASSERT_TRUE(info.ok());
  EXPECT_EQ(info->size_bytes, 100);
  EXPECT_EQ(info->record_count, 10);
  ASSERT_TRUE(nn_.DeleteFile("/data/db/t/f1.parquet").ok());
  EXPECT_FALSE(nn_.Exists("/data/db/t/f1.parquet"));
}

TEST_F(NameNodeTest, CreateRejectsDuplicatesAndBadPaths) {
  ASSERT_TRUE(nn_.CreateFile("/a/b", 1, 1).ok());
  EXPECT_TRUE(nn_.CreateFile("/a/b", 1, 1).IsAlreadyExists());
  EXPECT_TRUE(nn_.CreateFile("relative/path", 1, 1).IsInvalidArgument());
  EXPECT_TRUE(nn_.CreateFile("/a/neg", -5, 1).IsInvalidArgument());
}

TEST_F(NameNodeTest, DeleteMissingIsNotFound) {
  EXPECT_TRUE(nn_.DeleteFile("/nope").IsNotFound());
}

TEST_F(NameNodeTest, ObjectCountsIncludeDirectories) {
  ASSERT_TRUE(nn_.CreateFile("/data/db/t/f1", 1, 1).ok());
  // Objects: /data, /data/db, /data/db/t, and the file = 4.
  EXPECT_EQ(nn_.AggregateStats().total_objects, 4);
  ASSERT_TRUE(nn_.CreateFile("/data/db/t/f2", 1, 1).ok());
  // Only the new file adds an object.
  EXPECT_EQ(nn_.AggregateStats().total_objects, 5);
  EXPECT_EQ(nn_.AggregateStats().file_count, 2);
}

TEST_F(NameNodeTest, ListFilesByPrefix) {
  // Created out of path order: listings come back in path order, the
  // order metadata-footprint expiry deletes in.
  ASSERT_TRUE(nn_.CreateFile("/data/db/t1/b", 2, 1).ok());
  ASSERT_TRUE(nn_.CreateFile("/data/db/t2/c", 3, 1).ok());
  ASSERT_TRUE(nn_.CreateFile("/data/db/t1/a", 1, 1).ok());
  const auto t1 = nn_.ListFiles("/data/db/t1");
  ASSERT_EQ(t1.size(), 2u);
  EXPECT_LT(t1[0].path, t1[1].path);
  const auto all = nn_.ListFiles("/data/db");
  ASSERT_EQ(all.size(), 3u);
  EXPECT_TRUE(std::is_sorted(
      all.begin(), all.end(),
      [](const FileInfo& a, const FileInfo& b) { return a.path < b.path; }));
  EXPECT_TRUE(nn_.ListFiles("/data/db/t3").empty());
}

TEST_F(NameNodeTest, ListDoesNotMatchSiblingPrefix) {
  ASSERT_TRUE(nn_.CreateFile("/data/db/t1/a", 1, 1).ok());
  ASSERT_TRUE(nn_.CreateFile("/data/db/t10/b", 1, 1).ok());
  EXPECT_EQ(nn_.ListFiles("/data/db/t1").size(), 1u);
}

TEST_F(NameNodeTest, NamespaceQuotaEnforced) {
  nn_.SetNamespaceQuota("/data/db", 3);
  // First file: dir /data/db/t + the file = 2 objects under /data/db.
  ASSERT_TRUE(nn_.CreateFile("/data/db/t/f1", 1, 1).ok());
  // Second file adds 1 object -> total 3, at the limit.
  ASSERT_TRUE(nn_.CreateFile("/data/db/t/f2", 1, 1).ok());
  // Third file would exceed.
  EXPECT_TRUE(nn_.CreateFile("/data/db/t/f3", 1, 1).IsResourceExhausted());
  // Deleting frees quota.
  ASSERT_TRUE(nn_.DeleteFile("/data/db/t/f1").ok());
  EXPECT_TRUE(nn_.CreateFile("/data/db/t/f3", 1, 1).ok());
  // Files directly under a quota root are one object each.
  nn_.SetNamespaceQuota("/data/flat", 1);
  ASSERT_TRUE(nn_.CreateFile("/data/flat/f", 1, 1).ok());
  EXPECT_TRUE(nn_.CreateFile("/data/flat/g", 1, 1).IsResourceExhausted());
  EXPECT_EQ(nn_.GetQuota("/data/flat").used_objects, 1);
}

TEST_F(NameNodeTest, QuotaDoesNotApplyOutsideSubtree) {
  nn_.SetNamespaceQuota("/data/db", 1);
  EXPECT_TRUE(nn_.CreateFile("/other/f", 1, 1).ok());
  EXPECT_TRUE(nn_.CreateFile("/other/g", 1, 1).ok());
}

TEST_F(NameNodeTest, QuotaStatusReportsUsage) {
  nn_.SetNamespaceQuota("/data/db", 100);
  ASSERT_TRUE(nn_.CreateFile("/data/db/t/f1", 1, 1).ok());
  const QuotaStatus q = nn_.GetQuota("/data/db");
  EXPECT_EQ(q.total_objects, 100);
  EXPECT_EQ(q.used_objects, 2);  // dir t + file
  EXPECT_NEAR(q.utilization(), 0.02, 1e-9);
}

TEST_F(NameNodeTest, ClearingQuotaRemovesLimit) {
  nn_.SetNamespaceQuota("/data/db", 1);
  nn_.SetNamespaceQuota("/data/db", 0);
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(nn_.CreateFile("/data/db/t/f" + std::to_string(i), 1, 1).ok());
  }
}

TEST_F(NameNodeTest, OpenCountsCallsPerHour) {
  ASSERT_TRUE(nn_.CreateFile("/a/f", 1, 1).ok());
  ASSERT_TRUE(nn_.Open("/a/f").ok());
  ASSERT_TRUE(nn_.Open("/a/f").ok());
  EXPECT_EQ(nn_.AggregateStats().open_calls, 2);
  EXPECT_EQ(nn_.RpcsInHour(0), 3);  // the create and both opens
  clock_.AdvanceTo(kHour + 1);
  ASSERT_TRUE(nn_.Open("/a/f").ok());
  EXPECT_EQ(nn_.AggregateStats().open_calls, 3);
  EXPECT_EQ(nn_.RpcsInHour(kHour), 1);
  EXPECT_EQ(nn_.RpcsInHour(0), 3);
}

TEST_F(NameNodeTest, OpenMissingIsNotFound) {
  EXPECT_TRUE(nn_.Open("/ghost").status().IsNotFound());
}

TEST(NameNodeTimeoutTest, NoTimeoutsBelowCapacity) {
  SimulatedClock clock(0);
  NameNodeOptions opts;
  opts.rpc_capacity_per_hour = 1000;
  NameNode nn(&clock, opts);
  ASSERT_TRUE(nn.CreateFile("/a/f", 1, 1).ok());
  for (int i = 0; i < 500; ++i) {
    EXPECT_TRUE(nn.Open("/a/f").ok());
  }
  EXPECT_EQ(nn.AggregateStats().timeouts, 0);
  EXPECT_DOUBLE_EQ(nn.CurrentTimeoutProbability(), 0.0);
}

TEST(NameNodeTimeoutTest, OverloadCausesTimeouts) {
  SimulatedClock clock(0);
  NameNodeOptions opts;
  opts.rpc_capacity_per_hour = 100;
  opts.max_timeout_probability = 0.5;
  opts.overload_factor = 2.0;
  NameNode nn(&clock, opts);
  ASSERT_TRUE(nn.CreateFile("/a/f", 1, 1).ok());
  int timeouts = 0;
  for (int i = 0; i < 2000; ++i) {
    if (!nn.Open("/a/f").ok()) ++timeouts;
  }
  EXPECT_GT(timeouts, 100);  // heavily overloaded
  EXPECT_GT(nn.CurrentTimeoutProbability(), 0.0);
  EXPECT_LE(nn.CurrentTimeoutProbability(), 0.5);
}

TEST(NameNodeTimeoutTest, TimeoutProbabilityCapped) {
  SimulatedClock clock(0);
  NameNodeOptions opts;
  opts.rpc_capacity_per_hour = 10;
  opts.max_timeout_probability = 0.3;
  NameNode nn(&clock, opts);
  ASSERT_TRUE(nn.CreateFile("/a/f", 1, 1).ok());
  for (int i = 0; i < 1000; ++i) (void)nn.Open("/a/f");
  EXPECT_DOUBLE_EQ(nn.CurrentTimeoutProbability(), 0.3);
}

TEST(NameNodeTimeoutTest, LoadResetsNextHour) {
  SimulatedClock clock(0);
  NameNodeOptions opts;
  opts.rpc_capacity_per_hour = 10;
  NameNode nn(&clock, opts);
  ASSERT_TRUE(nn.CreateFile("/a/f", 1, 1).ok());
  for (int i = 0; i < 100; ++i) (void)nn.Open("/a/f");
  EXPECT_GT(nn.CurrentTimeoutProbability(), 0.0);
  clock.AdvanceTo(kHour);
  EXPECT_DOUBLE_EQ(nn.CurrentTimeoutProbability(), 0.0);
}

TEST(NameNodeTimeoutTest, ObserverNameNodesAbsorbReadTraffic) {
  // §1: observer NameNodes add read capacity; the same load that
  // overloads a lone NameNode stays under capacity with observers.
  SimulatedClock clock(0);
  NameNodeOptions lone;
  lone.rpc_capacity_per_hour = 100;
  NameNodeOptions scaled = lone;
  scaled.observer_namenodes = 3;  // 4x read capacity

  NameNode without(&clock, lone);
  NameNode with(&clock, scaled);
  ASSERT_TRUE(without.CreateFile("/a/f", 1, 1).ok());
  ASSERT_TRUE(with.CreateFile("/a/f", 1, 1).ok());
  for (int i = 0; i < 300; ++i) {
    (void)without.Open("/a/f");
    (void)with.Open("/a/f");
  }
  EXPECT_GT(without.CurrentTimeoutProbability(), 0.0);
  EXPECT_DOUBLE_EQ(with.CurrentTimeoutProbability(), 0.0);
}

TEST(NameNodeCheckpointTest, SaveRestoreSaveIsByteIdentical) {
  struct FileSpec {
    std::string path;
    int64_t size_bytes;
    int64_t record_count;
    SimTime created_at;
  };
  SimulatedClock clock(0);
  NameNode original(&clock);
  original.SetNamespaceQuota("/data/db1", 50);
  const std::vector<std::string> paths = {
      "/data/db1/t1/m=2024-01/a.parquet", "/data/db1/t1/m=2024-02/b.parquet",
      "/data/db1/t2/c.parquet",           "/data/db2/t3/d/e/f.parquet",
      "/data/db2/t3/g.parquet",           "/data/db1/t1/m=2024-01/gone"};
  // Creates and opens spread over two hours; one file is deleted again.
  std::vector<FileSpec> live;
  for (size_t i = 0; i < paths.size(); ++i) {
    clock.AdvanceTo(static_cast<SimTime>(i) * kHour / 3);
    const int64_t size = 1000 * static_cast<int64_t>(i + 1);
    const int64_t records = 10 * static_cast<int64_t>(i + 1);
    ASSERT_TRUE(original.CreateFile(paths[i], size, records).ok());
    ASSERT_TRUE(original.Open(paths[i / 2]).ok());
    live.push_back({paths[i], size, records, clock.Now()});
  }
  clock.AdvanceTo(2 * kHour - 1);
  ASSERT_TRUE(original.DeleteFile(paths.back()).ok());
  live.pop_back();
  ASSERT_TRUE(original.Open(paths[0]).ok());
  ASSERT_GT(original.RpcsInHour(0), 0);
  ASSERT_GT(original.RpcsInHour(kHour), 0);

  common::BlobWriter first;
  original.SaveState(&first);
  const std::string blob = first.Take();

  NameNode restored(&clock);
  common::BlobReader reader(blob);
  ASSERT_TRUE(restored.RestoreState(&reader).ok());
  common::BlobWriter second;
  restored.SaveState(&second);
  EXPECT_EQ(second.Take(), blob);

  EXPECT_TRUE(restored.AuditAccounting().ok());
  EXPECT_EQ(restored.AggregateStats().file_count,
            original.AggregateStats().file_count);
  EXPECT_EQ(restored.AggregateStats().total_objects,
            original.AggregateStats().total_objects);
  EXPECT_EQ(restored.GetQuota("/data/db1").total_objects, 50);
  EXPECT_EQ(restored.GetQuota("/data/db1").used_objects,
            original.GetQuota("/data/db1").used_objects);
  EXPECT_EQ(restored.AggregateStats().open_calls,
            original.AggregateStats().open_calls);
  EXPECT_EQ(restored.RpcsInHour(0), original.RpcsInHour(0));
  EXPECT_EQ(restored.RpcsInHour(kHour), original.RpcsInHour(kHour));
  EXPECT_FALSE(restored.Exists(paths.back()));

  const auto expect_file = [](const FileInfo& got, const FileSpec& want) {
    EXPECT_EQ(got.path, want.path);
    EXPECT_EQ(got.size_bytes, want.size_bytes) << want.path;
    EXPECT_EQ(got.record_count, want.record_count) << want.path;
    EXPECT_EQ(got.created_at, want.created_at) << want.path;
  };
  for (const FileSpec& want : live) {
    const Result<FileInfo> stat = restored.Stat(want.path);
    ASSERT_TRUE(stat.ok()) << want.path;
    expect_file(*stat, want);
    const Result<FileInfo> open = restored.Open(want.path);
    ASSERT_TRUE(open.ok()) << want.path;
    expect_file(*open, want);
  }
  std::vector<FileSpec> by_path = live;
  std::sort(by_path.begin(), by_path.end(),
            [](const FileSpec& a, const FileSpec& b) { return a.path < b.path; });
  const std::vector<FileInfo> listed = restored.ListFiles("/data");
  ASSERT_EQ(listed.size(), by_path.size());
  for (size_t i = 0; i < listed.size(); ++i) expect_file(listed[i], by_path[i]);
}

}  // namespace
}  // namespace autocomp::storage
