// Tests for the snapshot-history consistency validator: clean histories
// pass, synthetically corrupted ones are caught.

#include <gtest/gtest.h>

#include "catalog/catalog.h"
#include "common/clock.h"
#include "lst/history_validator.h"
#include "lst/table.h"
#include "lst/transaction.h"
#include "storage/namenode.h"

namespace autocomp::lst {
namespace {

class HistoryValidatorTest : public ::testing::Test {
 protected:
  HistoryValidatorTest() : nn_(&clock_), catalog_(&clock_, &nn_) {
    EXPECT_TRUE(catalog_.CreateDatabase("db").ok());
    auto table = catalog_.CreateTable(
        "db", "t", Schema(0, {{1, "d", FieldType::kDate, true}}),
        PartitionSpec(1, {{1, Transform::kMonth, "m"}}));
    EXPECT_TRUE(table.ok());
  }

  Table GetTable() { return *catalog_.GetTable("db.t"); }

  DataFile MakeFile(const std::string& path, int64_t size = 100) {
    DataFile f;
    f.path = path;
    f.partition = "m=2024-01";
    f.file_size_bytes = size;
    f.record_count = 1;
    return f;
  }

  void BuildHistory() {
    Table table = GetTable();
    {
      auto txn = table.NewTransaction();
      ASSERT_TRUE(txn->Append({MakeFile("/a"), MakeFile("/b")}).ok());
      ASSERT_TRUE(txn->Commit().ok());
    }
    clock_.Advance(kHour);
    {
      auto txn = table.NewTransaction();
      ASSERT_TRUE(txn->RewriteFiles({"/a", "/b"}, {MakeFile("/c")}).ok());
      ASSERT_TRUE(txn->Commit().ok());
    }
    clock_.Advance(kHour);
    {
      auto txn = table.NewTransaction();
      ASSERT_TRUE(txn->Append({MakeFile("/d")}).ok());
      ASSERT_TRUE(txn->Commit().ok());
    }
  }

  TableMetadataPtr Meta() { return *catalog_.LoadTable("db.t"); }

  SimulatedClock clock_{0};
  storage::NameNode nn_;
  catalog::Catalog catalog_;
};

TEST_F(HistoryValidatorTest, EmptyTableIsConsistent) {
  EXPECT_TRUE(CheckHistory(*Meta()).ok());
}

TEST_F(HistoryValidatorTest, RealHistoryIsConsistent) {
  BuildHistory();
  const auto violations = ValidateHistory(*Meta());
  EXPECT_TRUE(violations.empty())
      << (violations.empty() ? "" : violations.front().message);
  EXPECT_TRUE(CheckHistory(*Meta()).ok());
}

TEST_F(HistoryValidatorTest, HistoryAfterExpiryIsConsistent) {
  BuildHistory();
  clock_.Advance(10 * kHour);
  auto expired = ExpireSnapshots(&catalog_, "db.t", &clock_,
                                 /*older_than=*/clock_.Now() - kHour);
  ASSERT_TRUE(expired.ok());
  ASSERT_GT(expired->expired_snapshots, 0);
  EXPECT_TRUE(CheckHistory(*Meta()).ok());
}

// --- corruption cases: build broken metadata through the Builder and
// assert the validator flags each class of damage.

TEST_F(HistoryValidatorTest, DetectsBrokenParentChain) {
  BuildHistory();
  TableMetadataPtr meta = Meta();
  std::vector<Snapshot> snapshots = meta->snapshots();
  snapshots.back().parent_snapshot_id = 999;  // corrupt
  TableMetadata::Builder builder(*meta);
  Snapshot head = snapshots.back();
  snapshots.pop_back();
  builder.SetSnapshots(std::move(snapshots));
  builder.AddSnapshot(std::move(head));
  auto corrupted = builder.Build();
  ASSERT_TRUE(corrupted.ok());
  const auto violations = ValidateHistory(**corrupted);
  ASSERT_FALSE(violations.empty());
  EXPECT_NE(violations.front().message.find("parent"), std::string::npos);
}

TEST_F(HistoryValidatorTest, DetectsNonMonotonicSequence) {
  BuildHistory();
  TableMetadataPtr meta = Meta();
  std::vector<Snapshot> snapshots = meta->snapshots();
  snapshots.back().sequence_number = 1;  // duplicate of the first commit
  TableMetadata::Builder builder(*meta);
  Snapshot head = snapshots.back();
  snapshots.pop_back();
  builder.SetSnapshots(std::move(snapshots));
  builder.AddSnapshot(std::move(head));
  auto corrupted = builder.Build();
  ASSERT_TRUE(corrupted.ok());
  EXPECT_FALSE(CheckHistory(**corrupted).ok());
}

TEST_F(HistoryValidatorTest, DetectsFabricatedRemoval) {
  BuildHistory();
  TableMetadataPtr meta = Meta();
  std::vector<Snapshot> snapshots = meta->snapshots();
  // Claim the head removed a path that never existed.
  snapshots.back().removed_paths = SortedPathList::FromPaths({"/ghost"});
  TableMetadata::Builder builder(*meta);
  Snapshot head = snapshots.back();
  snapshots.pop_back();
  builder.SetSnapshots(std::move(snapshots));
  builder.AddSnapshot(std::move(head));
  auto corrupted = builder.Build();
  ASSERT_TRUE(corrupted.ok());
  const auto violations = ValidateHistory(**corrupted);
  ASSERT_FALSE(violations.empty());
  bool found = false;
  for (const HistoryViolation& v : violations) {
    if (v.message.find("was not live") != std::string::npos) found = true;
  }
  EXPECT_TRUE(found);
}

TEST_F(HistoryValidatorTest, DetectsWrongSummaryCounters) {
  BuildHistory();
  TableMetadataPtr meta = Meta();
  std::vector<Snapshot> snapshots = meta->snapshots();
  snapshots.back().added_files = 42;  // lie
  TableMetadata::Builder builder(*meta);
  Snapshot head = snapshots.back();
  snapshots.pop_back();
  builder.SetSnapshots(std::move(snapshots));
  builder.AddSnapshot(std::move(head));
  auto corrupted = builder.Build();
  ASSERT_TRUE(corrupted.ok());
  const auto violations = ValidateHistory(**corrupted);
  ASSERT_FALSE(violations.empty());
  EXPECT_NE(violations.front().message.find("added_files"),
            std::string::npos);
}

TEST_F(HistoryValidatorTest, DetectsDuplicateLivePath) {
  BuildHistory();
  TableMetadataPtr meta = Meta();
  // Fabricate a head snapshot whose manifests list one path twice.
  TableMetadata::Builder builder(*meta);
  Snapshot bad;
  bad.snapshot_id = builder.AllocateSnapshotId();
  bad.parent_snapshot_id = meta->current_snapshot_id();
  bad.sequence_number = builder.AllocateSequenceNumber();
  bad.timestamp = clock_.Now();
  bad.operation = SnapshotOperation::kAppend;
  DataFile dup = MakeFile("/dup");
  dup.added_snapshot_id = bad.snapshot_id;
  bad.manifests.push_back(std::make_shared<const Manifest>(
      builder.AllocateManifestId(), std::vector<DataFile>{dup, dup}));
  bad.added_files = 2;
  builder.AddSnapshot(std::move(bad));
  auto corrupted = builder.Build();
  ASSERT_TRUE(corrupted.ok());
  const auto violations = ValidateHistory(**corrupted);
  ASSERT_FALSE(violations.empty());
  EXPECT_NE(violations.front().message.find("twice"), std::string::npos);
}

TEST_F(HistoryValidatorTest, CheckHistoryMessageSummarizes) {
  BuildHistory();
  TableMetadataPtr meta = Meta();
  std::vector<Snapshot> snapshots = meta->snapshots();
  snapshots.back().added_files = 42;
  TableMetadata::Builder builder(*meta);
  Snapshot head = snapshots.back();
  snapshots.pop_back();
  builder.SetSnapshots(std::move(snapshots));
  builder.AddSnapshot(std::move(head));
  auto corrupted = builder.Build();
  const Status st = CheckHistory(**corrupted);
  EXPECT_TRUE(st.IsInternal());
  EXPECT_NE(st.message().find("db.t"), std::string::npos);
}

}  // namespace
}  // namespace autocomp::lst
