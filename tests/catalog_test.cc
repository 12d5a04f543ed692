// Unit tests for src/catalog: catalog CRUD, CAS commits, database quotas,
// and the control plane's policies + retention service.

#include <gtest/gtest.h>

#include "catalog/catalog.h"
#include "catalog/control_plane.h"
#include "lst/metadata_json.h"
#include "common/clock.h"
#include "lst/transaction.h"
#include "storage/namenode.h"

namespace autocomp::catalog {
namespace {

lst::Schema SimpleSchema() {
  return lst::Schema(0, {{1, "v", lst::FieldType::kInt64, true}});
}

class CatalogTest : public ::testing::Test {
 protected:
  CatalogTest() : nn_(&clock_), catalog_(&clock_, &nn_) {}

  lst::DataFile MakeAndStoreFile(const std::string& path, int64_t size) {
    EXPECT_TRUE(nn_.CreateFile(path, size, size / 100).ok());
    lst::DataFile f;
    f.path = path;
    f.file_size_bytes = size;
    f.record_count = size / 100;
    return f;
  }

  SimulatedClock clock_{0};
  storage::NameNode nn_;
  Catalog catalog_;
};

TEST(SplitQualifiedNameTest, ParsesAndRejects) {
  auto ok = SplitQualifiedName("db.table");
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(ok->first, "db");
  EXPECT_EQ(ok->second, "table");
  EXPECT_FALSE(SplitQualifiedName("noseparator").ok());
  EXPECT_FALSE(SplitQualifiedName(".table").ok());
  EXPECT_FALSE(SplitQualifiedName("db.").ok());
  EXPECT_FALSE(SplitQualifiedName("a.b.c").ok());
}

TEST_F(CatalogTest, DatabaseLifecycle) {
  ASSERT_TRUE(catalog_.CreateDatabase("db1").ok());
  EXPECT_TRUE(catalog_.DatabaseExists("db1"));
  EXPECT_TRUE(catalog_.CreateDatabase("db1").IsAlreadyExists());
  EXPECT_TRUE(catalog_.CreateDatabase("bad.name").IsInvalidArgument());
  EXPECT_EQ(catalog_.ListDatabases().size(), 1u);
}

TEST_F(CatalogTest, TableLifecycle) {
  ASSERT_TRUE(catalog_.CreateDatabase("db").ok());
  auto table = catalog_.CreateTable("db", "t", SimpleSchema(),
                                    lst::PartitionSpec::Unpartitioned());
  ASSERT_TRUE(table.ok());
  EXPECT_EQ(table->name(), "db.t");
  EXPECT_TRUE(catalog_.GetTable("db.t").ok());
  EXPECT_TRUE(catalog_
                  .CreateTable("db", "t", SimpleSchema(),
                               lst::PartitionSpec::Unpartitioned())
                  .status()
                  .IsAlreadyExists());
  EXPECT_TRUE(catalog_
                  .CreateTable("nodb", "t", SimpleSchema(),
                               lst::PartitionSpec::Unpartitioned())
                  .status()
                  .IsNotFound());
  EXPECT_EQ(catalog_.ListTables("db").size(), 1u);
  EXPECT_EQ(catalog_.ListAllTables().size(), 1u);
  ASSERT_TRUE(catalog_.DropTable("db.t").ok());
  EXPECT_TRUE(catalog_.GetTable("db.t").status().IsNotFound());
  EXPECT_TRUE(catalog_.DropTable("db.t").IsNotFound());
}

TEST_F(CatalogTest, TableLocationLayout) {
  EXPECT_EQ(Catalog::DatabaseLocation("db"), "/data/db");
  EXPECT_EQ(Catalog::TableLocation("db.t"), "/data/db/t");
}

TEST_F(CatalogTest, MetadataCreatedAtUsesClock) {
  clock_.AdvanceTo(1234);
  ASSERT_TRUE(catalog_.CreateDatabase("db").ok());
  auto table = catalog_.CreateTable("db", "t", SimpleSchema(),
                                    lst::PartitionSpec::Unpartitioned());
  ASSERT_TRUE(table.ok());
  auto meta = catalog_.LoadTable("db.t");
  EXPECT_EQ((*meta)->created_at(), 1234);
}

TEST_F(CatalogTest, CommitCasDetectsStaleVersion) {
  ASSERT_TRUE(catalog_.CreateDatabase("db").ok());
  ASSERT_TRUE(catalog_
                  .CreateTable("db", "t", SimpleSchema(),
                               lst::PartitionSpec::Unpartitioned())
                  .ok());
  auto base = catalog_.LoadTable("db.t");
  // Two successor versions built from the same base.
  lst::TableMetadata::Builder b1(**base);
  lst::TableMetadata::Builder b2(**base);
  auto m1 = b1.Build();
  auto m2 = b2.Build();
  ASSERT_TRUE(catalog_.CommitTable("db.t", (*base)->version(), *m1).ok());
  EXPECT_TRUE(catalog_.CommitTable("db.t", (*base)->version(), *m2)
                  .IsCommitConflict());
  EXPECT_EQ(catalog_.stats().commit_attempts, 2);
  EXPECT_EQ(catalog_.stats().commit_conflicts, 1);
}

TEST_F(CatalogTest, CommitRejectsNonAdvancingVersion) {
  ASSERT_TRUE(catalog_.CreateDatabase("db").ok());
  ASSERT_TRUE(catalog_
                  .CreateTable("db", "t", SimpleSchema(),
                               lst::PartitionSpec::Unpartitioned())
                  .ok());
  auto base = catalog_.LoadTable("db.t");
  EXPECT_TRUE(catalog_.CommitTable("db.t", (*base)->version(), *base)
                  .IsInvalidArgument());
}

TEST_F(CatalogTest, DatabaseQuotaWiredToStorage) {
  ASSERT_TRUE(catalog_.CreateDatabase("db", /*quota=*/100).ok());
  EXPECT_EQ(catalog_.DatabaseQuota("db").total_objects, 100);
  ASSERT_TRUE(nn_.CreateFile("/data/db/t/f", 1, 1).ok());
  EXPECT_EQ(catalog_.DatabaseQuota("db").used_objects, 2);  // dir + file
}

TEST_F(CatalogTest, TransactionsWorkThroughCatalog) {
  ASSERT_TRUE(catalog_.CreateDatabase("db").ok());
  auto table = catalog_.CreateTable("db", "t", SimpleSchema(),
                                    lst::PartitionSpec::Unpartitioned());
  ASSERT_TRUE(table.ok());
  auto txn = table->NewTransaction();
  ASSERT_TRUE(txn.ok());
  ASSERT_TRUE(txn->Append({MakeAndStoreFile("/data/db/t/f1", 100)}).ok());
  ASSERT_TRUE(txn->Commit().ok());
  auto meta = catalog_.LoadTable("db.t");
  EXPECT_EQ((*meta)->live_file_count(), 1);
}

// ----------------------------------------------------------- ControlPlane

class ControlPlaneTest : public CatalogTest {
 protected:
  ControlPlaneTest() : plane_(&catalog_) {}
  ControlPlane plane_;
};

TEST_F(ControlPlaneTest, PolicyDefaultsAndOverrides) {
  const TablePolicy fallback = plane_.GetPolicy("db.unknown");
  EXPECT_EQ(fallback.target_file_size_bytes, 512 * kMiB);
  EXPECT_TRUE(fallback.compaction_enabled);

  TablePolicy custom;
  custom.target_file_size_bytes = 128 * kMiB;
  custom.compaction_enabled = false;
  plane_.SetPolicy("db.t", custom);
  EXPECT_EQ(plane_.GetPolicy("db.t").target_file_size_bytes, 128 * kMiB);
  EXPECT_FALSE(plane_.GetPolicy("db.t").compaction_enabled);
}

TEST_F(ControlPlaneTest, RetentionExpiresAndDeletesOrphans) {
  ASSERT_TRUE(catalog_.CreateDatabase("db").ok());
  auto table = catalog_.CreateTable("db", "t", SimpleSchema(),
                                    lst::PartitionSpec::Unpartitioned());
  ASSERT_TRUE(table.ok());
  // Append s1, then rewrite it into c1: s1 stays on disk until retention.
  {
    auto txn = table->NewTransaction();
    ASSERT_TRUE(txn->Append({MakeAndStoreFile("/data/db/t/s1", 100)}).ok());
    ASSERT_TRUE(txn->Commit().ok());
  }
  clock_.AdvanceTo(kHour);
  {
    auto txn = table->NewTransaction();
    ASSERT_TRUE(txn->RewriteFiles({"/data/db/t/s1"},
                                  {MakeAndStoreFile("/data/db/t/c1", 90)})
                    .ok());
    ASSERT_TRUE(txn->Commit().ok());
  }
  EXPECT_TRUE(nn_.Exists("/data/db/t/s1"));

  TablePolicy policy;
  policy.snapshot_retention = kHour;  // everything older than 1h expires
  plane_.SetPolicy("db.t", policy);
  clock_.AdvanceTo(10 * kHour);
  auto report = plane_.RunRetentionFor("db.t");
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->snapshots_expired, 1);
  EXPECT_EQ(report->files_deleted, 1);
  EXPECT_EQ(report->bytes_deleted, 100);
  EXPECT_FALSE(nn_.Exists("/data/db/t/s1"));
  EXPECT_TRUE(nn_.Exists("/data/db/t/c1"));
}

TEST_F(ControlPlaneTest, RetentionServiceSweepsAllTables) {
  ASSERT_TRUE(catalog_.CreateDatabase("db").ok());
  for (int i = 0; i < 3; ++i) {
    auto table =
        catalog_.CreateTable("db", "t" + std::to_string(i), SimpleSchema(),
                             lst::PartitionSpec::Unpartitioned());
    ASSERT_TRUE(table.ok());
  }
  const RetentionReport report = plane_.RunRetentionService();
  EXPECT_EQ(report.tables_processed, 3);
  EXPECT_EQ(report.snapshots_expired, 0);
}


// ------------------------------------------------ metadata persistence

TEST(PersistedCatalogTest, CommitsWriteMetadataObjects) {
  SimulatedClock clock(0);
  storage::NameNode nn(&clock);
  CatalogOptions options;
  options.persist_metadata = true;
  options.metadata_versions_retained = 2;
  Catalog catalog(&clock, &nn, options);
  ASSERT_TRUE(catalog.CreateDatabase("db").ok());
  auto table = catalog.CreateTable("db", "t", SimpleSchema(),
                                   lst::PartitionSpec::Unpartitioned());
  ASSERT_TRUE(table.ok());
  // Table creation already persisted v1's metadata.json.
  EXPECT_TRUE(nn.Exists("/data/db/t/metadata/v000001.metadata.json"));

  // Each commit adds a metadata version + a manifest object; the §2
  // cause-iv mechanism - metadata itself grows the object count.
  const int64_t before = nn.AggregateStats().file_count;
  lst::DataFile f;
  f.path = "/data/db/t/f1";
  f.file_size_bytes = 100;
  f.record_count = 1;
  ASSERT_TRUE(nn.CreateFile(f.path, f.file_size_bytes, 1).ok());
  auto txn = table->NewTransaction();
  ASSERT_TRUE(txn->Append({f}).ok());
  ASSERT_TRUE(txn->Commit().ok());
  // +1 data file, +1 metadata.json, +1 manifest.
  EXPECT_EQ(nn.AggregateStats().file_count, before + 3);
  EXPECT_TRUE(nn.Exists("/data/db/t/metadata/v000002.metadata.json"));
}

TEST(PersistedCatalogTest, OldMetadataVersionsExpire) {
  SimulatedClock clock(0);
  storage::NameNode nn(&clock);
  CatalogOptions options;
  options.persist_metadata = true;
  options.metadata_versions_retained = 2;
  Catalog catalog(&clock, &nn, options);
  ASSERT_TRUE(catalog.CreateDatabase("db").ok());
  auto table = catalog.CreateTable("db", "t", SimpleSchema(),
                                   lst::PartitionSpec::Unpartitioned());
  ASSERT_TRUE(table.ok());
  for (int i = 0; i < 5; ++i) {
    lst::DataFile f;
    f.path = "/data/db/t/f" + std::to_string(i);
    f.file_size_bytes = 10;
    f.record_count = 1;
    ASSERT_TRUE(nn.CreateFile(f.path, 10, 1).ok());
    auto txn = table->NewTransaction();
    ASSERT_TRUE(txn->Append({f}).ok());
    ASSERT_TRUE(txn->Commit().ok());
  }
  // Version is now 6; only the last 2 metadata.json objects remain.
  EXPECT_FALSE(nn.Exists("/data/db/t/metadata/v000001.metadata.json"));
  EXPECT_FALSE(nn.Exists("/data/db/t/metadata/v000004.metadata.json"));
  EXPECT_TRUE(nn.Exists("/data/db/t/metadata/v000005.metadata.json"));
  EXPECT_TRUE(nn.Exists("/data/db/t/metadata/v000006.metadata.json"));
}

TEST(PersistedCatalogTest, PersistedDocumentRoundTrips) {
  SimulatedClock clock(0);
  storage::NameNode nn(&clock);
  CatalogOptions options;
  options.persist_metadata = true;
  Catalog catalog(&clock, &nn, options);
  ASSERT_TRUE(catalog.CreateDatabase("db").ok());
  auto table = catalog.CreateTable("db", "t", SimpleSchema(),
                                   lst::PartitionSpec::Unpartitioned());
  ASSERT_TRUE(table.ok());
  // The persisted JSON parses back into equivalent metadata.
  auto meta = catalog.LoadTable("db.t");
  ASSERT_TRUE(meta.ok());
  const std::string json = lst::TableMetadataToJson(**meta);
  auto restored = lst::TableMetadataFromJson(json);
  ASSERT_TRUE(restored.ok());
  EXPECT_EQ((*restored)->version(), (*meta)->version());
}

}  // namespace
}  // namespace autocomp::catalog
