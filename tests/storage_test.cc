// Unit tests for src/storage: NameNode namespace, quotas, RPC/timeout
// model and checkpoint, plus a differential run against a path-keyed
// reference model.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "common/blob.h"
#include "common/clock.h"
#include "common/counter_rng.h"
#include "common/random.h"
#include "storage/epoch_load.h"
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
  EXPECT_TRUE(nn_.Open("/ghost").IsNotFound());
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
    ASSERT_TRUE(restored.Open(want.path).ok()) << want.path;
  }
  std::vector<FileSpec> by_path = live;
  std::sort(by_path.begin(), by_path.end(),
            [](const FileSpec& a, const FileSpec& b) { return a.path < b.path; });
  const std::vector<FileInfo> listed = restored.ListFiles("/data");
  ASSERT_EQ(listed.size(), by_path.size());
  for (size_t i = 0; i < listed.size(); ++i) expect_file(listed[i], by_path[i]);
}

// A namespace with nested directories, a quota that rejects a create,
// deletes, re-creates, files directly under "/" and the ordering case
// "/a/b-c/y" < "/a/b/x" (byte order of full paths, not (dir, basename)).
void BuildPinnedNamespace(SimulatedClock* clock, NameNode* nn) {
  nn->SetNamespaceQuota("/data/db1", 7);
  const std::vector<std::string> paths = {
      "/a/b/x",          "/a/b-c/y",       "/a/b/c/z",
      "/top-file",       "/data/db1/t1/m=2024-01/p0.parquet",
      "/data/db1/t1/m=2024-02/p1.parquet",  "/data/db1/t2/q.parquet",
      "/data/db2/t3/d/e/f.parquet",         "/a/b/w"};
  for (size_t i = 0; i < paths.size(); ++i) {
    clock->AdvanceTo(static_cast<SimTime>(i) * kHour / 4);
    ASSERT_TRUE(nn->CreateFile(paths[i], 100 * static_cast<int64_t>(i + 1),
                               static_cast<int64_t>(i + 1))
                    .ok())
        << paths[i];
    ASSERT_TRUE(nn->Open(paths[i / 2]).ok());
  }
  ASSERT_TRUE(nn->CreateFile("/data/db1/t2/over.parquet", 1, 1)
                  .IsResourceExhausted());
  ASSERT_TRUE(nn->DeleteFile("/a/b/x").ok());
  ASSERT_TRUE(nn->DeleteFile("/data/db1/t2/q.parquet").ok());
  clock->AdvanceTo(3 * kHour);
  ASSERT_TRUE(nn->CreateFile("/a/b/x", 7, 7).ok());  // re-created
  ASSERT_TRUE(nn->CreateFile("/data/db1/t2/q2.parquet", 8, 8).ok());
  (void)nn->ListFiles("/a");
}

// The checkpoint bytes of the namespace above, pinned (CounterRng::
// HashString of SaveState's output) so a change to how the NameNode
// stores files cannot move a lane blob.
TEST(NameNodeCheckpointTest, SaveStateBytesArePinned) {
  SimulatedClock clock(0);
  NameNode nn(&clock);
  BuildPinnedNamespace(&clock, &nn);
  ASSERT_TRUE(nn.AuditAccounting().ok());
  std::vector<std::string> order;
  nn.ForEachFile([&order](const std::string& path) { order.push_back(path); });
  ASSERT_GE(order.size(), 3u);
  EXPECT_EQ(order[0], "/a/b-c/y");
  EXPECT_EQ(order[1], "/a/b/c/z");
  EXPECT_EQ(order[2], "/a/b/w");

  common::BlobWriter writer;
  nn.SaveState(&writer);
  const std::string blob = writer.Take();
  // Front-coded strings (blob format v5) moved this pin; the v4 bytes
  // hashed to 0x76e5f0e9b822a9a3.
  EXPECT_EQ(CounterRng::HashString(blob), 0x45b17bde2852785cULL);

  NameNode restored(&clock);
  common::BlobReader reader(blob);
  ASSERT_TRUE(restored.RestoreState(&reader).ok());
  EXPECT_TRUE(reader.exhausted());
  common::BlobWriter again;
  restored.SaveState(&again);
  EXPECT_EQ(again.Take(), blob);
}

// Deleting most files reclaims the deleted basenames' arena bytes; the
// checkpoint of the survivors is unchanged by that, and a restored node
// saves the same bytes and serves the same files.
TEST(NameNodeCheckpointTest, SaveRestoreSaveAfterMassDeletes) {
  SimulatedClock clock(0);
  NameNode nn(&clock);
  std::vector<std::string> paths;
  for (int i = 0; i < 2000; ++i) {
    paths.push_back("/data/db" + std::to_string(i % 3) + "/t" +
                    std::to_string(i % 7) + "/part-" + std::to_string(i) +
                    ".parquet");
    ASSERT_TRUE(nn.CreateFile(paths.back(), i + 1, 1).ok());
  }
  for (int i = 0; i < 2000; ++i) {
    if (i % 4 != 0) {
      ASSERT_TRUE(nn.DeleteFile(paths[i]).ok());
    }
  }
  ASSERT_TRUE(nn.AuditAccounting().ok());
  common::BlobWriter writer;
  nn.SaveState(&writer);
  const std::string blob = writer.Take();
  // v5 front coding moved this pin (v4: 0x7252fe837ccede72).
  EXPECT_EQ(CounterRng::HashString(blob), 0x9e1eb44a4ce7f29eULL);

  NameNode restored(&clock);
  common::BlobReader reader(blob);
  ASSERT_TRUE(restored.RestoreState(&reader).ok());
  ASSERT_TRUE(restored.AuditAccounting().ok());
  common::BlobWriter again;
  restored.SaveState(&again);
  EXPECT_EQ(again.Take(), blob);
  for (int i = 0; i < 2000; ++i) {
    const Result<FileInfo> stat = restored.Stat(paths[i]);
    ASSERT_EQ(stat.ok(), i % 4 == 0) << paths[i];
    if (stat.ok()) {
      EXPECT_EQ(stat->size_bytes, i + 1);
    }
  }
}

// Enough files to fill many slot and basename pages, one basename longer
// than a name page, and deletes that reclaim names across pages: every
// survivor keeps its metadata and path order, re-creates reuse slots,
// and a checkpoint round-trips.
TEST(NameNodeCheckpointTest, PagedTableSurvivesMassDeletes) {
  SimulatedClock clock(0);
  NameNode nn(&clock);
  std::map<std::string, int64_t> live;  // path -> size
  const auto create = [&](const std::string& path, int64_t size) {
    ASSERT_TRUE(nn.CreateFile(path, size, 1).ok()) << path;
    live[path] = size;
  };
  create("/huge/" + std::string(70'000, 'h'), 1);
  for (int i = 0; i < 30'000; ++i) {
    create("/data/db" + std::to_string(i % 5) + "/t" + std::to_string(i % 11) +
               "/append-w1-" + std::to_string(i) +
               std::string(static_cast<size_t>(i % 40), 'x') + ".parquet",
           i);
  }
  for (int round = 0; round < 3; ++round) {
    int n = 0;
    for (auto it = live.begin(); it != live.end();) {
      if (++n % 4 != 0 && it->first.size() < 1000) {
        ASSERT_TRUE(nn.DeleteFile(it->first).ok()) << it->first;
        it = live.erase(it);
      } else {
        ++it;
      }
    }
    ASSERT_TRUE(nn.AuditAccounting().ok()) << nn.AuditAccounting();
    for (int i = 0; i < 2'000; ++i) {
      create("/data/re" + std::to_string(round) + "/f" + std::to_string(i),
             round * 10'000 + i);
    }
  }
  ASSERT_TRUE(nn.AuditAccounting().ok()) << nn.AuditAccounting();
  std::vector<std::string> order;
  nn.ForEachFile([&order](const std::string& path) { order.push_back(path); });
  ASSERT_EQ(order.size(), live.size());
  size_t i = 0;
  for (const auto& [path, size] : live) {
    ASSERT_EQ(order[i++], path);
    const Result<FileInfo> stat = nn.Stat(path);
    ASSERT_TRUE(stat.ok()) << path;
    EXPECT_EQ(stat->size_bytes, size) << path;
  }

  common::BlobWriter writer;
  nn.SaveState(&writer);
  const std::string blob = writer.Take();
  NameNode restored(&clock);
  common::BlobReader reader(blob);
  ASSERT_TRUE(restored.RestoreState(&reader).ok());
  ASSERT_TRUE(restored.AuditAccounting().ok());
  common::BlobWriter again;
  restored.SaveState(&again);
  EXPECT_EQ(again.Take(), blob);
  for (const auto& [path, size] : live) {
    ASSERT_TRUE(restored.Exists(path)) << path;
  }

  // Listings walk the per-directory file lists, which every round's
  // deletes and re-creates rewired and the restore rebuilt.
  const auto expect_listing = [&live](NameNode& node, const std::string& dir) {
    std::vector<std::string> want;
    for (const auto& [path, size] : live) {
      if (path.rfind(dir + "/", 0) == 0) want.push_back(path);
    }
    std::vector<std::string> got;
    for (const FileInfo& info : node.ListFiles(dir)) got.push_back(info.path);
    EXPECT_EQ(got, want) << dir;
  };
  for (NameNode* node : {&nn, &restored}) {
    expect_listing(*node, "/data");
    expect_listing(*node, "/data/db1/t1");
    expect_listing(*node, "/data/re2");
  }
}

// --- Differential run against a reference model -------------------------

/// The NameNode's contract re-stated over a path-keyed std::map: quotas
/// and directory objects by brute-force prefix scans, the same RPC
/// accounting and the same timeout draws.
class ReferenceNameNode {
 public:
  ReferenceNameNode(const Clock* clock, NameNodeOptions options,
                    const EpochLoadView* epoch)
      : clock_(clock), options_(options), epoch_(epoch), rng_(options.seed) {}

  Status Create(const std::string& path, int64_t size, int64_t records) {
    if (path.empty() || path.front() != '/') {
      return Status::InvalidArgument("path must be absolute: " + path);
    }
    if (size < 0 || records < 0) {
      return Status::InvalidArgument("negative size or record count");
    }
    if (files_.count(path) > 0) {
      return Status::AlreadyExists("file exists: " + path);
    }
    const std::vector<std::string> chain = Parents(path);  // shallowest first
    for (size_t i = 0; i < chain.size(); ++i) {
      const auto quota = quotas_.find(chain[i]);
      if (quota == quotas_.end()) continue;
      int64_t added = 1;
      for (size_t j = i + 1; j < chain.size(); ++j) {
        if (dirs_.count(chain[j]) == 0) ++added;
      }
      const int64_t used = Used(chain[i]);
      if (used + added > quota->second) {
        return Status::ResourceExhausted(
            "namespace quota exceeded for " + chain[i] + " (" +
            std::to_string(used) + "+" + std::to_string(added) + " > " +
            std::to_string(quota->second) + ")");
      }
    }
    for (const std::string& dir : chain) {
      if (dirs_.insert(dir).second) ++stats_.total_objects;
    }
    files_[path] = FileInfo{path, size, records, clock_->Now()};
    ++stats_.total_objects;
    ++stats_.file_count;
    ++stats_.create_calls;
    CountRpc(1);
    return Status::OK();
  }

  Status Delete(const std::string& path) {
    if (files_.erase(path) == 0) {
      return Status::NotFound("no such file: " + path);
    }
    --stats_.total_objects;
    --stats_.file_count;
    ++stats_.delete_calls;
    CountRpc(1);
    return Status::OK();
  }

  Status Open(const std::string& path) {
    ++stats_.open_calls;
    CountRpc(1);
    const double p =
        epoch_ != nullptr
            ? epoch_->TimeoutProbabilityAt(clock_->Now())
            : TimeoutProbabilityForLoad(
                  options_, static_cast<double>(RpcsInHour(clock_->Now())));
    bool timed_out = false;
    if (p > 0.0) {
      timed_out = epoch_ != nullptr
                      ? CounterRng::Uniform01(
                            options_.seed, CounterRng::HashString(path),
                            static_cast<uint64_t>(stats_.open_calls)) < p
                      : rng_.Bernoulli(p);
    }
    if (timed_out) {
      ++stats_.timeouts;
      return Status::TimedOut("read timeout under NameNode RPC pressure: " +
                              path);
    }
    if (files_.count(path) == 0) {
      return Status::NotFound("no such file: " + path);
    }
    return Status::OK();
  }

  Result<FileInfo> Stat(const std::string& path) const {
    const auto it = files_.find(path);
    if (it == files_.end()) return Status::NotFound("no such file: " + path);
    return it->second;
  }

  std::vector<FileInfo> List(const std::string& dir) {
    std::vector<FileInfo> out;
    for (const auto& [path, info] : files_) {
      if (path.rfind(dir + "/", 0) == 0) out.push_back(info);
    }
    ++stats_.list_calls;
    CountRpc(1 + static_cast<int64_t>(out.size()) / 1000);
    return out;
  }

  void SetQuota(const std::string& dir, int64_t max_objects) {
    if (max_objects <= 0) {
      quotas_.erase(dir);
    } else {
      quotas_[dir] = max_objects;
    }
  }

  QuotaStatus GetQuota(const std::string& dir) const {
    QuotaStatus q;
    const auto quota = quotas_.find(dir);
    q.total_objects = quota == quotas_.end() ? 0 : quota->second;
    q.used_objects = Used(dir);
    return q;
  }

  int64_t RpcsInHour(SimTime t) const {
    const auto it = rpcs_.find(t / kHour * kHour);
    return it == rpcs_.end() ? 0 : it->second;
  }

  const NameNodeStats& stats() const { return stats_; }
  const std::map<std::string, FileInfo>& files() const { return files_; }

 private:
  static std::vector<std::string> Parents(const std::string& path) {
    std::vector<std::string> out;
    for (size_t pos = path.find('/', 1); pos != std::string::npos;
         pos = path.find('/', pos + 1)) {
      out.push_back(path.substr(0, pos));
    }
    return out;
  }

  /// Files and existing directories strictly under `dir`.
  int64_t Used(const std::string& dir) const {
    const std::string prefix = dir + "/";
    int64_t used = 0;
    for (const auto& [path, _] : files_) used += path.rfind(prefix, 0) == 0;
    for (const std::string& d : dirs_) used += d.rfind(prefix, 0) == 0;
    return used;
  }

  void CountRpc(int64_t n) { rpcs_[clock_->Now() / kHour * kHour] += n; }

  const Clock* clock_;
  NameNodeOptions options_;
  const EpochLoadView* epoch_;
  Rng rng_;
  std::map<std::string, FileInfo> files_;
  std::set<std::string> dirs_;  // directories that became objects
  std::map<std::string, int64_t> quotas_;
  std::map<SimTime, int64_t> rpcs_;
  NameNodeStats stats_;
};

/// Timeout probability by hour, constant within each hour.
class FixedEpochLoad final : public EpochLoadView {
 public:
  double TimeoutProbabilityAt(SimTime now) const override {
    static constexpr double kByHour[] = {0.0, 0.2, 0.45};
    return kByHour[(now / kHour) % 3];
  }
};

void ExpectSameInfo(const FileInfo& got, const FileInfo& want) {
  EXPECT_EQ(got.path, want.path);
  EXPECT_EQ(got.size_bytes, want.size_bytes) << want.path;
  EXPECT_EQ(got.record_count, want.record_count) << want.path;
  EXPECT_EQ(got.created_at, want.created_at) << want.path;
}

void ExpectSameStatus(const Status& got, const Status& want,
                      const std::string& op) {
  EXPECT_EQ(got.code(), want.code()) << op;
  EXPECT_EQ(got.message(), want.message()) << op;
}

void RunDifferential(bool epoch_mode) {
  constexpr int kBatches = 110;
  constexpr int kOpsPerBatch = 200;  // 22,000 operations
  SimulatedClock clock(0);
  NameNodeOptions options;
  options.rpc_capacity_per_hour = 60;  // local mode: late-hour timeouts
  FixedEpochLoad epoch;
  const EpochLoadView* view = epoch_mode ? &epoch : nullptr;
  auto nn = std::make_unique<NameNode>(&clock, options);
  nn->SetEpochLoadView(view);
  ReferenceNameNode ref(&clock, options, view);

  const std::vector<std::string> dirs = {
      "",      "/a",       "/a/b",       "/a/b-c",   "/a/b/c",
      "/a/bc", "/data/db1/t1/m=2024-01", "/data/db1/t1", "/data/db2/t3/d/e",
      "/z"};
  const std::vector<std::string> bases = {"x", "y", "f0", "f1", "f10",
                                          "f2", "part-00001.parquet", "b"};
  std::vector<std::string> paths;
  for (const std::string& dir : dirs) {
    for (const std::string& base : bases) paths.push_back(dir + "/" + base);
  }
  paths.push_back("/long/" + std::string(294, 'q'));
  ASSERT_EQ(paths.back().size(), 300u);
  const std::vector<std::string> quota_dirs = {"/a",    "/a/b", "/data",
                                               "/data/db1", "/long", "/none"};
  const std::vector<std::string> list_dirs = {"",     "/a",        "/a/b",
                                              "/a/b-c", "/data/db1", "/long",
                                              "/a/b/x"};

  std::set<std::string> deleted;  // paths deleted at least once
  std::map<StatusCode, int> create_codes;
  int recreated = 0;
  Rng rng(epoch_mode ? 11 : 12);
  const auto pick = [&rng](const std::vector<std::string>& from) {
    return from[static_cast<size_t>(
        rng.UniformInt(0, static_cast<int64_t>(from.size()) - 1))];
  };
  for (int batch = 0; batch < kBatches; ++batch) {
    for (int op = 0; op < kOpsPerBatch; ++op) {
      clock.AdvanceTo(clock.Now() + rng.UniformInt(1, 40));
      const double u = rng.NextDouble();
      const std::string path = pick(paths);
      if (u < 0.34) {
        const int64_t size =
            rng.NextDouble() < 0.03 ? -1 : rng.UniformInt(0, 1 << 20);
        const int64_t records = rng.UniformInt(0, 1000);
        const Status want = ref.Create(path, size, records);
        ExpectSameStatus(nn->CreateFile(path, size, records), want,
                         "create " + path);
        ++create_codes[want.code()];
        recreated += want.ok() && deleted.count(path) > 0;
      } else if (u < 0.36) {
        ExpectSameStatus(nn->CreateFile(path.substr(1), 1, 1),
                         ref.Create(path.substr(1), 1, 1), "create relative");
      } else if (u < 0.56) {
        const Status want = ref.Delete(path);
        ExpectSameStatus(nn->DeleteFile(path), want, "delete " + path);
        if (want.ok()) deleted.insert(path);
      } else if (u < 0.76) {
        ExpectSameStatus(nn->Open(path), ref.Open(path), "open " + path);
      } else if (u < 0.84) {
        const Result<FileInfo> got = nn->Stat(path);
        const Result<FileInfo> want = ref.Stat(path);
        ExpectSameStatus(got.status(), want.status(), "stat " + path);
        if (got.ok() && want.ok()) ExpectSameInfo(*got, *want);
      } else if (u < 0.90) {
        EXPECT_EQ(nn->Exists(path), ref.Stat(path).ok()) << path;
      } else if (u < 0.95) {
        const std::string dir = pick(list_dirs);
        const std::vector<FileInfo> got = nn->ListFiles(dir);
        const std::vector<FileInfo> want = ref.List(dir);
        ASSERT_EQ(got.size(), want.size()) << dir;
        for (size_t i = 0; i < got.size(); ++i) ExpectSameInfo(got[i], want[i]);
      } else {
        const std::string dir = pick(quota_dirs);
        const int64_t max_objects = rng.UniformInt(-2, 60);
        nn->SetNamespaceQuota(dir, max_objects);
        ref.SetQuota(dir, max_objects);
      }
    }

    // Batch checks: counters, per-hour tallies, quotas, every path's
    // metadata, path-ordered listings and the table's own audit.
    const NameNodeStats& got = nn->AggregateStats();
    const NameNodeStats& want = ref.stats();
    EXPECT_EQ(got.total_objects, want.total_objects);
    EXPECT_EQ(got.file_count, want.file_count);
    EXPECT_EQ(got.open_calls, want.open_calls);
    EXPECT_EQ(got.create_calls, want.create_calls);
    EXPECT_EQ(got.delete_calls, want.delete_calls);
    EXPECT_EQ(got.list_calls, want.list_calls);
    EXPECT_EQ(got.timeouts, want.timeouts);
    for (SimTime hour = 0; hour <= clock.Now(); hour += kHour) {
      EXPECT_EQ(nn->RpcsInHour(hour), ref.RpcsInHour(hour)) << hour;
    }
    for (const std::string& dir : quota_dirs) {
      EXPECT_EQ(nn->GetQuota(dir).used_objects,
                ref.GetQuota(dir).used_objects) << dir;
      EXPECT_EQ(nn->GetQuota(dir).total_objects,
                ref.GetQuota(dir).total_objects) << dir;
    }
    for (const std::string& path : paths) {
      const Result<FileInfo> stat = nn->Stat(path);
      ASSERT_EQ(stat.ok(), ref.files().count(path) > 0) << path;
      if (stat.ok()) ExpectSameInfo(*stat, ref.files().at(path));
    }
    std::vector<std::string> visited;
    nn->ForEachFile([&visited](const std::string& p) { visited.push_back(p); });
    std::vector<std::string> expected;
    for (const auto& [p, _] : ref.files()) expected.push_back(p);
    ASSERT_EQ(visited, expected) << "batch " << batch;
    for (const std::string& dir : list_dirs) {
      const std::vector<FileInfo> listed = nn->ListFiles(dir);
      const std::vector<FileInfo> want_listed = ref.List(dir);
      ASSERT_EQ(listed.size(), want_listed.size()) << dir;
      for (size_t i = 0; i < listed.size(); ++i) {
        ExpectSameInfo(listed[i], want_listed[i]);
      }
    }
    const Status audit = nn->AuditAccounting();
    ASSERT_TRUE(audit.ok()) << audit;

    // Every tenth batch continues on a restored copy, so the restored
    // table (arena, index, free list) takes the later operations.
    if (batch % 10 == 9) {
      common::BlobWriter writer;
      nn->SaveState(&writer);
      const std::string blob = writer.Take();
      auto restored = std::make_unique<NameNode>(&clock, options);
      common::BlobReader reader(blob);
      ASSERT_TRUE(restored->RestoreState(&reader).ok());
      ASSERT_TRUE(reader.exhausted());
      restored->SetEpochLoadView(view);
      nn = std::move(restored);
    }
  }
  // The run covered every outcome it claims to compare.
  EXPECT_GT(ref.stats().timeouts, 0);
  EXPECT_GT(ref.stats().delete_calls, 2000);
  EXPECT_GT(recreated, 1000);
  EXPECT_GT(create_codes[StatusCode::kResourceExhausted], 0);
  EXPECT_GT(create_codes[StatusCode::kAlreadyExists], 0);
  EXPECT_GT(create_codes[StatusCode::kInvalidArgument], 0);
}

TEST(NameNodeDifferentialTest, MatchesReferenceModelLocalLoad) {
  RunDifferential(/*epoch_mode=*/false);
}

TEST(NameNodeDifferentialTest, MatchesReferenceModelEpochLoad) {
  RunDifferential(/*epoch_mode=*/true);
}

}  // namespace
}  // namespace autocomp::storage
