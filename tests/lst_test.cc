// Unit tests for src/lst: schemas, partition transforms, table metadata,
// optimistic transactions (including the Iceberg v1.2.0 strict-conflict
// behaviour the paper documents), snapshot expiry, and metadata tables.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <ostream>
#include <set>
#include <string_view>
#include <vector>

#include "common/clock.h"
#include "common/counter_rng.h"
#include "common/random.h"
#include "fault/fault_injector.h"
#include "lst/metadata_tables.h"
#include "lst/partition.h"
#include "lst/table.h"
#include "lst/table_metadata.h"
#include "lst/transaction.h"
#include "lst/types.h"

namespace autocomp::lst {

// Test output prints a PathRef as its full path.
void PrintTo(const PathRef& path, std::ostream* os) { *os << path.str(); }

namespace {

// ---------------------------------------------------------------- Schema

TEST(SchemaTest, LookupByIdAndName) {
  Schema schema(0, {{1, "a", FieldType::kInt64, true},
                    {2, "b", FieldType::kDate, false}});
  EXPECT_EQ(schema.FindField(1)->name, "a");
  EXPECT_EQ(schema.FindFieldByName("b")->id, 2);
  EXPECT_TRUE(schema.FindField(9).status().IsNotFound());
  EXPECT_TRUE(schema.FindFieldByName("zz").status().IsNotFound());
}

TEST(SchemaTest, AddFieldEvolvesSchemaId) {
  Schema schema(3, {{1, "a", FieldType::kInt64, true}});
  auto evolved = schema.AddField({2, "b", FieldType::kString, false});
  ASSERT_TRUE(evolved.ok());
  EXPECT_EQ(evolved->schema_id(), 4);
  EXPECT_EQ(evolved->fields().size(), 2u);
  // Original untouched.
  EXPECT_EQ(schema.fields().size(), 1u);
}

TEST(SchemaTest, AddFieldRejectsDuplicates) {
  Schema schema(0, {{1, "a", FieldType::kInt64, true}});
  EXPECT_TRUE(schema.AddField({1, "x", FieldType::kInt64, false})
                  .status()
                  .IsInvalidArgument());
  EXPECT_TRUE(schema.AddField({2, "a", FieldType::kInt64, false})
                  .status()
                  .IsInvalidArgument());
}

TEST(SchemaTest, ToStringListsFields) {
  Schema schema(0, {{1, "a", FieldType::kInt64, true}});
  EXPECT_NE(schema.ToString().find("a:int64"), std::string::npos);
}

// ------------------------------------------------------------- Transforms

TEST(TransformTest, CivilDateRoundTrip) {
  // 1995-03-07 and a pre-1970 date.
  const int64_t days = DaysFromCivil(1995, 3, 7);
  const CivilDate c = CivilFromDays(days);
  EXPECT_EQ(c.year, 1995);
  EXPECT_EQ(c.month, 3);
  EXPECT_EQ(c.day, 7);
  EXPECT_EQ(DaysFromCivil(1970, 1, 1), 0);
  const CivilDate epoch = CivilFromDays(0);
  EXPECT_EQ(epoch.year, 1970);
}

// Parameterized round-trip sweep across many dates.
class CivilDateRoundTrip : public ::testing::TestWithParam<int64_t> {};

TEST_P(CivilDateRoundTrip, DaysToCivilAndBack) {
  const int64_t days = GetParam();
  const CivilDate c = CivilFromDays(days);
  EXPECT_EQ(DaysFromCivil(c.year, c.month, c.day), days);
  EXPECT_GE(c.month, 1);
  EXPECT_LE(c.month, 12);
  EXPECT_GE(c.day, 1);
  EXPECT_LE(c.day, 31);
}

INSTANTIATE_TEST_SUITE_P(DateSweep, CivilDateRoundTrip,
                         ::testing::Values(-719468, -1, 0, 1, 365, 8096,
                                           10000, 10957, 11016, 18000, 20000,
                                           25000, 40000));

TEST(TransformTest, MonthDayYearIdentity) {
  const int64_t days = DaysFromCivil(1995, 3, 7);
  EXPECT_EQ(ApplyTransform(Transform::kMonth, days), "1995-03");
  EXPECT_EQ(ApplyTransform(Transform::kDay, days), "1995-03-07");
  EXPECT_EQ(ApplyTransform(Transform::kYear, days), "1995");
  EXPECT_EQ(ApplyTransform(Transform::kIdentity, 42), "42");
}

TEST(TransformTest, BucketIsStableAndBounded) {
  const std::string b1 = ApplyTransform(Transform::kBucket, 12345, 8);
  const std::string b2 = ApplyTransform(Transform::kBucket, 12345, 8);
  EXPECT_EQ(b1, b2);
  EXPECT_EQ(b1.rfind("bucket_", 0), 0u);
}

TEST(PartitionSpecTest, PartitionKeyFor) {
  PartitionSpec spec(1, {{11, Transform::kMonth, "ship_month"}});
  const int64_t days = DaysFromCivil(1998, 12, 1);
  auto key = spec.PartitionKeyFor({days});
  ASSERT_TRUE(key.ok());
  EXPECT_EQ(*key, "ship_month=1998-12");
  EXPECT_TRUE(spec.PartitionKeyFor({}).status().IsInvalidArgument());
}

TEST(PartitionSpecTest, UnpartitionedKeyIsEmpty) {
  PartitionSpec spec = PartitionSpec::Unpartitioned();
  EXPECT_FALSE(spec.is_partitioned());
  EXPECT_EQ(spec.PartitionKeyFor({}).value(), "");
}

TEST(PartitionSpecTest, ValidateRequiresDateForDateTransforms) {
  Schema schema(0, {{1, "v", FieldType::kInt64, true},
                    {2, "d", FieldType::kDate, true}});
  PartitionSpec ok(1, {{2, Transform::kMonth, "m"}});
  EXPECT_TRUE(ok.Validate(schema).ok());
  PartitionSpec bad(1, {{1, Transform::kMonth, "m"}});
  EXPECT_TRUE(bad.Validate(schema).IsInvalidArgument());
  PartitionSpec missing(1, {{9, Transform::kIdentity, "x"}});
  EXPECT_TRUE(missing.Validate(schema).IsNotFound());
  PartitionSpec bucket_no_count(1, {{1, Transform::kBucket, "b", 0}});
  EXPECT_TRUE(bucket_no_count.Validate(schema).IsInvalidArgument());
}

TEST(SortedPathListTest, SortsDeduplicatesAndSearches) {
  const SortedPathList none;
  EXPECT_TRUE(none.empty());
  EXPECT_FALSE(none.Contains("/a"));
  EXPECT_TRUE(none.begin() == none.end());

  const SortedPathList list =
      SortedPathList::FromPaths({"/b/2", "/a", "/b/10", "/a", "/c"});
  ASSERT_EQ(list.size(), 4u);
  EXPECT_EQ(std::vector<std::string_view>(list.begin(), list.end()),
            (std::vector<std::string_view>{"/a", "/b/10", "/b/2", "/c"}));
  for (const std::string_view path : {"/a", "/b/10", "/b/2", "/c"}) {
    EXPECT_TRUE(list.Contains(path)) << path;
  }
  for (const std::string_view path : {"", "/", "/b", "/b/1", "/b/3", "/d"}) {
    EXPECT_FALSE(list.Contains(path)) << path;
  }
  // Copies share the packed buffer.
  const SortedPathList copy = list;
  EXPECT_EQ(copy[3].data(), list[3].data());
}

// ---------------------------------------------------------------- PathRef

int Sign(int c) { return (c > 0) - (c < 0); }

TEST(PathRefTest, OrdersEqualsSplitsAndHashesLikeTheWholeString) {
  Rng rng(24);
  const auto random_path = [&rng] {
    std::string s(static_cast<size_t>(rng.UniformInt(0, 12)), ' ');
    for (char& c : s) c = "/ab"[rng.UniformInt(0, 2)];
    return s;
  };
  // Two pieces of `s` cut at a random point: any split, not only the
  // one at the last '/', must behave as the whole string.
  const auto cut = [&rng](std::string_view s) {
    const auto at = static_cast<size_t>(
        rng.UniformInt(0, static_cast<int64_t>(s.size())));
    return PathRef{s.substr(0, at), s.substr(at)};
  };
  for (int trial = 0; trial < 20000; ++trial) {
    const std::string a = random_path();
    const std::string b = rng.Bernoulli(0.2) ? a : random_path();
    const PathRef ra = cut(a);
    const PathRef rb = cut(b);
    const int want = Sign(a.compare(b));
    EXPECT_EQ(ra.Compare(rb), want) << a << " vs " << b;
    EXPECT_EQ(rb.Compare(ra), -want) << a << " vs " << b;
    EXPECT_EQ(ra.Compare(std::string_view(b)), want) << a << " vs " << b;
    EXPECT_EQ(rb.Compare(std::string_view(a)), -want) << a << " vs " << b;
    EXPECT_EQ(ra == rb, want == 0);
    EXPECT_EQ(ra == std::string_view(b), want == 0);
    EXPECT_EQ(PathLess()(ra, rb), want < 0);
    EXPECT_EQ(PathLess()(ra, std::string_view(b)), want < 0);
    EXPECT_EQ(PathLess()(std::string_view(a), rb), want < 0);

    // One directory view shared by both sides (the interned case).
    const std::string dir = random_path();
    const std::string na = random_path();
    const std::string nb = random_path();
    EXPECT_EQ(PathRef({dir, na}).Compare(PathRef{dir, nb}),
              Sign((dir + na).compare(dir + nb)))
        << dir << " + " << na << " vs " << nb;

    const PathRef split = PathRef::Split(a);
    EXPECT_EQ(split.str(), a);
    EXPECT_EQ(split.size(), a.size());
    EXPECT_EQ(split.name.find('/'), std::string_view::npos) << a;
    EXPECT_TRUE(split.dir.empty() || split.dir.back() == '/') << a;
    std::string rendered = "stale contents";
    ra.AssignTo(&rendered);
    EXPECT_EQ(rendered, a);
    EXPECT_EQ(CounterRng::HashString(ra.str()), CounterRng::HashString(a));
  }
  // The byte order, not the (directory, name) order.
  EXPECT_LT(PathRef::Split("/a/b-c/y").Compare(PathRef::Split("/a/b/x")), 0);
  EXPECT_EQ(PathRef::Split("name").dir, "");
  EXPECT_EQ(PathRef::Split("/f").dir, "/");
  EXPECT_EQ(PathRef::Split("/f").name, "f");
  EXPECT_EQ(PathRef::Split("/d/").name, "");
}

// --------------------------------------------------------- Test fixtures

/// Minimal in-memory MetadataStore for transaction tests.
class FakeStore final : public MetadataStore {
 public:
  Result<TableMetadataPtr> LoadTable(const std::string& name) const override {
    const auto it = tables_.find(name);
    if (it == tables_.end()) return Status::NotFound(name);
    return it->second;
  }
  Status CommitTable(const std::string& name, int64_t base_version,
                     TableMetadataPtr new_metadata) override {
    auto it = tables_.find(name);
    if (it == tables_.end()) return Status::NotFound(name);
    if (it->second->version() != base_version) {
      return Status::CommitConflict("version moved");
    }
    it->second = std::move(new_metadata);
    return Status::OK();
  }
  void Put(const std::string& name, TableMetadataPtr meta) {
    tables_[name] = std::move(meta);
  }
  fault::FaultInjector* fault_injector() const override { return injector_; }
  void SetFaultInjector(fault::FaultInjector* injector) {
    injector_ = injector;
  }

 private:
  std::map<std::string, TableMetadataPtr> tables_;
  fault::FaultInjector* injector_ = nullptr;
};

DataFile MakeFile(const std::string& path, const std::string& partition,
                  int64_t size) {
  DataFile f;
  f.path = path;
  f.partition = partition;
  f.file_size_bytes = size;
  f.record_count = size / 100;
  return f;
}

class TransactionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Schema schema(0, {{1, "d", FieldType::kDate, true}});
    PartitionSpec spec(1, {{1, Transform::kMonth, "m"}});
    TableMetadata::Builder builder("db.t", "/data/db/t", schema, spec);
    builder.SetCreatedAt(0);
    auto meta = builder.Build();
    ASSERT_TRUE(meta.ok());
    store_.Put("db.t", *meta);
  }

  Table MakeTable() { return Table(&store_, "db.t", &clock_); }

  Status AppendFiles(const std::vector<DataFile>& files) {
    Table table = MakeTable();
    auto txn = table.NewTransaction();
    AUTOCOMP_RETURN_NOT_OK(txn.status());
    AUTOCOMP_RETURN_NOT_OK(txn->Append(files));
    return txn->Commit().status();
  }

  SimulatedClock clock_{0};
  FakeStore store_;
};

// ----------------------------------------------------------- Append path

TEST_F(TransactionTest, AppendCreatesSnapshot) {
  ASSERT_TRUE(AppendFiles({MakeFile("/f1", "m=1995-01", 100),
                           MakeFile("/f2", "m=1995-02", 200)})
                  .ok());
  auto meta = store_.LoadTable("db.t");
  EXPECT_EQ((*meta)->live_file_count(), 2);
  EXPECT_EQ((*meta)->live_bytes(), 300);
  const Snapshot* snap = (*meta)->current_snapshot();
  ASSERT_NE(snap, nullptr);
  EXPECT_EQ(snap->operation, SnapshotOperation::kAppend);
  EXPECT_EQ(snap->added_files, 2);
  EXPECT_EQ(snap->touched_partitions.size(), 2u);
}

TEST_F(TransactionTest, AppendStampsSnapshotIdAndSequence) {
  ASSERT_TRUE(AppendFiles({MakeFile("/f1", "p", 100)}).ok());
  ASSERT_TRUE(AppendFiles({MakeFile("/f2", "p", 100)}).ok());
  auto meta = store_.LoadTable("db.t");
  for (const DataFile& f : (*meta)->LiveFiles()) {
    EXPECT_GT(f.added_snapshot_id, 0);
    EXPECT_GT(f.sequence_number, 0);
  }
  // Second file added by a later snapshot.
  auto files = (*meta)->LiveFiles();
  ASSERT_EQ(files.size(), 2u);
  EXPECT_NE(files[0].added_snapshot_id, files[1].added_snapshot_id);
}

TEST_F(TransactionTest, EmptyAppendRejected) {
  Table table = MakeTable();
  auto txn = table.NewTransaction();
  EXPECT_TRUE(txn->Append({}).IsInvalidArgument());
}

TEST_F(TransactionTest, CommitWithoutStagingFails) {
  Table table = MakeTable();
  auto txn = table.NewTransaction();
  EXPECT_TRUE(txn->Commit().status().IsFailedPrecondition());
}

TEST_F(TransactionTest, MixedOperationsRejected) {
  Table table = MakeTable();
  auto txn = table.NewTransaction();
  ASSERT_TRUE(txn->Append({MakeFile("/f", "p", 1)}).ok());
  EXPECT_TRUE(
      txn->RewriteFiles({"/f"}, {}).IsFailedPrecondition());
}

TEST_F(TransactionTest, ConcurrentAppendsBothLand) {
  Table table = MakeTable();
  auto txn1 = table.NewTransaction();
  auto txn2 = table.NewTransaction();
  ASSERT_TRUE(txn1->Append({MakeFile("/f1", "p", 1)}).ok());
  ASSERT_TRUE(txn2->Append({MakeFile("/f2", "p", 1)}).ok());
  ASSERT_TRUE(txn1->Commit().ok());
  // txn2's base is stale; plain Commit validates the rebase (appends never
  // conflict) and lands.
  auto committed = txn2->Commit();
  ASSERT_TRUE(committed.ok());
  auto meta = store_.LoadTable("db.t");
  EXPECT_EQ((*meta)->live_file_count(), 2);
}

// -------------------------------------------------------------- Rewrites

TEST_F(TransactionTest, RewriteReplacesFiles) {
  ASSERT_TRUE(AppendFiles({MakeFile("/s1", "m=1995-01", 10),
                           MakeFile("/s2", "m=1995-01", 20),
                           MakeFile("/big", "m=1995-02", 900)})
                  .ok());
  Table table = MakeTable();
  auto txn = table.NewTransaction();
  ASSERT_TRUE(
      txn->RewriteFiles({"/s1", "/s2"}, {MakeFile("/c1", "m=1995-01", 30)})
          .ok());
  auto committed = txn->Commit();
  ASSERT_TRUE(committed.ok());
  auto meta = store_.LoadTable("db.t");
  EXPECT_EQ((*meta)->live_file_count(), 2);
  EXPECT_TRUE((*meta)->IsLive("/c1"));
  EXPECT_TRUE((*meta)->IsLive("/big"));
  EXPECT_FALSE((*meta)->IsLive("/s1"));
  const Snapshot* snap = (*meta)->current_snapshot();
  EXPECT_EQ(snap->operation, SnapshotOperation::kReplace);
  EXPECT_EQ(snap->deleted_files, 2);
  EXPECT_EQ(snap->removed_paths.size(), 2u);
  EXPECT_TRUE(snap->removed_paths.Contains("/s1"));
  EXPECT_TRUE(snap->removed_paths.Contains("/s2"));
  EXPECT_FALSE(snap->removed_paths.Contains("/big"));
}

TEST_F(TransactionTest, RewriteOfMissingFileConflicts) {
  ASSERT_TRUE(AppendFiles({MakeFile("/s1", "p", 10)}).ok());
  Table table = MakeTable();
  auto txn = table.NewTransaction();
  ASSERT_TRUE(txn->RewriteFiles({"/ghost"}, {MakeFile("/c", "p", 5)}).ok());
  EXPECT_TRUE(txn->Commit().status().IsCommitConflict());
}

TEST_F(TransactionTest, RewriteSurvivesConcurrentAppend) {
  // Fast-appends only add files; a rewrite rebases over them cleanly in
  // BOTH validation modes (matching Iceberg's behaviour).
  for (ValidationMode mode : {ValidationMode::kStrictTableLevel,
                              ValidationMode::kPartitionAware}) {
    SetUp();  // fresh table per mode
    ASSERT_TRUE(AppendFiles({MakeFile("/s1", "m=1995-01", 10),
                             MakeFile("/s2", "m=1995-01", 20)})
                    .ok());
    Table table = MakeTable();
    auto rewrite = table.NewTransaction(mode);
    ASSERT_TRUE(rewrite
                    ->RewriteFiles({"/s1", "/s2"},
                                   {MakeFile("/c", "m=1995-01", 30)})
                    .ok());
    ASSERT_TRUE(AppendFiles({MakeFile("/new", "m=1995-01", 5)}).ok());
    auto committed = rewrite->CommitWithRetries(3);
    ASSERT_TRUE(committed.ok()) << committed.status();
    auto meta = store_.LoadTable("db.t");
    EXPECT_TRUE((*meta)->IsLive("/c"));
    EXPECT_TRUE((*meta)->IsLive("/new"));
    EXPECT_FALSE((*meta)->IsLive("/s1"));
  }
}

TEST_F(TransactionTest, StrictRewriteConflictsWithDisjointConcurrentRewrite) {
  // The paper's §4.4 observation: concurrent REWRITES of the same table
  // conflict under Iceberg v1.2.0 even for DISTINCT partitions.
  ASSERT_TRUE(AppendFiles({MakeFile("/a1", "m=1995-01", 10),
                           MakeFile("/a2", "m=1995-01", 20),
                           MakeFile("/b1", "m=1997-09", 10),
                           MakeFile("/b2", "m=1997-09", 20)})
                  .ok());
  Table table = MakeTable();
  auto rewrite_a = table.NewTransaction(ValidationMode::kStrictTableLevel);
  ASSERT_TRUE(rewrite_a
                  ->RewriteFiles({"/a1", "/a2"},
                                 {MakeFile("/ca", "m=1995-01", 30)})
                  .ok());
  // A concurrent rewrite of the OTHER partition lands first.
  {
    auto rewrite_b = table.NewTransaction(ValidationMode::kStrictTableLevel);
    ASSERT_TRUE(rewrite_b
                    ->RewriteFiles({"/b1", "/b2"},
                                   {MakeFile("/cb", "m=1997-09", 30)})
                    .ok());
    ASSERT_TRUE(rewrite_b->Commit().ok());
  }
  EXPECT_TRUE(rewrite_a->CommitWithRetries(3).status().IsCommitConflict());
}

TEST_F(TransactionTest, PartitionAwareRewriteSurvivesDisjointRewrite) {
  // The §8 "conflict filtering" fix: disjoint-partition rewrites coexist.
  ASSERT_TRUE(AppendFiles({MakeFile("/a1", "m=1995-01", 10),
                           MakeFile("/a2", "m=1995-01", 20),
                           MakeFile("/b1", "m=1997-09", 10),
                           MakeFile("/b2", "m=1997-09", 20)})
                  .ok());
  Table table = MakeTable();
  auto rewrite_a = table.NewTransaction(ValidationMode::kPartitionAware);
  ASSERT_TRUE(rewrite_a
                  ->RewriteFiles({"/a1", "/a2"},
                                 {MakeFile("/ca", "m=1995-01", 30)})
                  .ok());
  {
    auto rewrite_b = table.NewTransaction(ValidationMode::kPartitionAware);
    ASSERT_TRUE(rewrite_b
                    ->RewriteFiles({"/b1", "/b2"},
                                   {MakeFile("/cb", "m=1997-09", 30)})
                    .ok());
    ASSERT_TRUE(rewrite_b->Commit().ok());
  }
  auto committed = rewrite_a->CommitWithRetries(3);
  ASSERT_TRUE(committed.ok()) << committed.status();
  auto meta = store_.LoadTable("db.t");
  EXPECT_TRUE((*meta)->IsLive("/ca"));
  EXPECT_TRUE((*meta)->IsLive("/cb"));
}

TEST_F(TransactionTest, PartitionAwareRewriteConflictsOnSamePartitionRewrite) {
  ASSERT_TRUE(AppendFiles({MakeFile("/s1", "m=1995-01", 10),
                           MakeFile("/s2", "m=1995-01", 20),
                           MakeFile("/s3", "m=1995-01", 25)})
                  .ok());
  Table table = MakeTable();
  auto rewrite = table.NewTransaction(ValidationMode::kPartitionAware);
  ASSERT_TRUE(rewrite
                  ->RewriteFiles({"/s1", "/s2"},
                                 {MakeFile("/c", "m=1995-01", 30)})
                  .ok());
  // A concurrent rewrite of a DIFFERENT file in the SAME partition.
  {
    auto other = table.NewTransaction(ValidationMode::kPartitionAware);
    ASSERT_TRUE(
        other->RewriteFiles({"/s3"}, {MakeFile("/c3", "m=1995-01", 25)}).ok());
    ASSERT_TRUE(other->Commit().ok());
  }
  EXPECT_TRUE(rewrite->CommitWithRetries(3).status().IsCommitConflict());
}

TEST_F(TransactionTest, RewriteConflictsWhenOverwriteRemovesInput) {
  // A concurrent user overwrite that replaces one of the rewrite's input
  // files aborts it in both modes — Table 1's cluster-side conflicts.
  ASSERT_TRUE(AppendFiles({MakeFile("/s1", "m=1995-01", 10),
                           MakeFile("/s2", "m=1995-01", 20)})
                  .ok());
  Table table = MakeTable();
  auto rewrite = table.NewTransaction(ValidationMode::kStrictTableLevel);
  ASSERT_TRUE(rewrite
                  ->RewriteFiles({"/s1", "/s2"},
                                 {MakeFile("/c", "m=1995-01", 30)})
                  .ok());
  {
    auto user = table.NewTransaction();
    ASSERT_TRUE(user->Overwrite({"/s1"}, {MakeFile("/u", "m=1995-01", 9)})
                    .ok());
    ASSERT_TRUE(user->Commit().ok());
  }
  EXPECT_TRUE(rewrite->CommitWithRetries(3).status().IsCommitConflict());
}

TEST_F(TransactionTest, PartitionAwareRewriteConflictsWhenInputRemoved) {
  ASSERT_TRUE(AppendFiles({MakeFile("/s1", "m=1995-01", 10),
                           MakeFile("/s2", "m=1995-01", 20)})
                  .ok());
  Table table = MakeTable();
  auto rewrite = table.NewTransaction(ValidationMode::kPartitionAware);
  ASSERT_TRUE(
      rewrite->RewriteFiles({"/s1"}, {MakeFile("/c", "m=1995-01", 9)}).ok());
  // A concurrent delete removes the rewrite's input.
  {
    auto del = table.NewTransaction();
    ASSERT_TRUE(del->DeleteFiles({"/s1"}).ok());
    ASSERT_TRUE(del->Commit().ok());
  }
  EXPECT_TRUE(rewrite->CommitWithRetries(3).status().IsCommitConflict());
}

// ---------------------------------------------------- Overwrites/deletes

TEST_F(TransactionTest, OverwriteReplacesAndAdds) {
  ASSERT_TRUE(AppendFiles({MakeFile("/a", "p", 10)}).ok());
  Table table = MakeTable();
  auto txn = table.NewTransaction();
  ASSERT_TRUE(txn->Overwrite({"/a"}, {MakeFile("/b", "p", 15)}).ok());
  ASSERT_TRUE(txn->Commit().ok());
  auto meta = store_.LoadTable("db.t");
  EXPECT_FALSE((*meta)->IsLive("/a"));
  EXPECT_TRUE((*meta)->IsLive("/b"));
  EXPECT_EQ((*meta)->current_snapshot()->operation,
            SnapshotOperation::kOverwrite);
}

TEST_F(TransactionTest, OverwriteConflictsWhenFileCompactedAway) {
  // This is the client-side conflict users see when compaction races
  // their write (Table 1).
  ASSERT_TRUE(AppendFiles({MakeFile("/a", "p", 10),
                           MakeFile("/a2", "p", 12)})
                  .ok());
  Table table = MakeTable();
  auto user_write = table.NewTransaction();
  ASSERT_TRUE(user_write->Overwrite({"/a"}, {MakeFile("/b", "p", 15)}).ok());
  // Compaction rewrites /a before the user commits.
  {
    auto compact = table.NewTransaction();
    ASSERT_TRUE(
        compact->RewriteFiles({"/a", "/a2"}, {MakeFile("/c", "p", 22)}).ok());
    ASSERT_TRUE(compact->Commit().ok());
  }
  EXPECT_TRUE(user_write->CommitWithRetries(3).status().IsCommitConflict());
}

TEST_F(TransactionTest, DeleteRemovesFiles) {
  ASSERT_TRUE(AppendFiles({MakeFile("/a", "p", 10),
                           MakeFile("/b", "p", 20)})
                  .ok());
  Table table = MakeTable();
  auto txn = table.NewTransaction();
  ASSERT_TRUE(txn->DeleteFiles({"/a"}).ok());
  ASSERT_TRUE(txn->Commit().ok());
  auto meta = store_.LoadTable("db.t");
  EXPECT_EQ((*meta)->live_file_count(), 1);
  EXPECT_EQ((*meta)->current_snapshot()->operation,
            SnapshotOperation::kDelete);
}

// ---------------------------------------------- Structured conflicts

/// Delegating store whose next commits fail with CommitConflict even
/// though the version matched at load time — the raw pointer-swap (CAS)
/// race a single-threaded test cannot produce organically.
class RacyStore final : public MetadataStore {
 public:
  explicit RacyStore(FakeStore* inner) : inner_(inner) {}
  Result<TableMetadataPtr> LoadTable(const std::string& name) const override {
    return inner_->LoadTable(name);
  }
  Status CommitTable(const std::string& name, int64_t base_version,
                     TableMetadataPtr new_metadata) override {
    if (fail_commits_ > 0) {
      --fail_commits_;
      return Status::CommitConflict("metadata pointer moved");
    }
    return inner_->CommitTable(name, base_version, std::move(new_metadata));
  }
  void FailNextCommits(int n) { fail_commits_ = n; }

 private:
  FakeStore* inner_;
  int fail_commits_ = 0;
};

TEST_F(TransactionTest, CasRaceIsRecordedAsRetryableAndClearedOnSuccess) {
  ASSERT_TRUE(AppendFiles({MakeFile("/a", "p", 1)}).ok());
  RacyStore racy(&store_);
  Table table(&racy, "db.t", &clock_);
  auto txn = table.NewTransaction();
  ASSERT_TRUE(txn.ok());
  ASSERT_TRUE(txn->Append({MakeFile("/b", "p", 1)}).ok());
  racy.FailNextCommits(1);
  EXPECT_TRUE(txn->Commit().status().IsCommitConflict());
  EXPECT_EQ(txn->last_conflict().kind, ConflictKind::kCasRace);
  EXPECT_TRUE(txn->last_conflict().retryable());
  EXPECT_EQ(txn->last_conflict().table, "db.t");
  // The next attempt reloads, lands, and clears the conflict record.
  ASSERT_TRUE(txn->Commit().ok());
  EXPECT_EQ(txn->last_conflict().kind, ConflictKind::kNone);
}

TEST_F(TransactionTest, PersistentRacesReportRetriesExhausted) {
  ASSERT_TRUE(AppendFiles({MakeFile("/a", "p", 1)}).ok());
  RacyStore racy(&store_);
  Table table(&racy, "db.t", &clock_);
  auto txn = table.NewTransaction();
  ASSERT_TRUE(txn->Append({MakeFile("/b", "p", 1)}).ok());
  racy.FailNextCommits(10);
  EXPECT_TRUE(txn->CommitWithRetries(2).status().IsCommitConflict());
  EXPECT_EQ(txn->last_conflict().kind, ConflictKind::kRetriesExhausted);
  // The budget is spent: reporting this retryable would loop callers.
  EXPECT_FALSE(txn->last_conflict().retryable());
}

TEST_F(TransactionTest, GhostRewriteReportsReplacedNotLive) {
  ASSERT_TRUE(AppendFiles({MakeFile("/s1", "p", 10)}).ok());
  Table table = MakeTable();
  auto txn = table.NewTransaction();
  ASSERT_TRUE(txn->RewriteFiles({"/ghost"}, {MakeFile("/c", "p", 5)}).ok());
  EXPECT_TRUE(txn->Commit().status().IsCommitConflict());
  EXPECT_EQ(txn->last_conflict().kind, ConflictKind::kReplacedNotLive);
  EXPECT_FALSE(txn->last_conflict().retryable());
}

TEST_F(TransactionTest, RemovedInputReportsInputRemoved) {
  ASSERT_TRUE(AppendFiles({MakeFile("/s1", "m=1995-01", 10),
                           MakeFile("/s2", "m=1995-01", 20)})
                  .ok());
  Table table = MakeTable();
  auto rewrite = table.NewTransaction(ValidationMode::kPartitionAware);
  ASSERT_TRUE(
      rewrite->RewriteFiles({"/s1"}, {MakeFile("/c", "m=1995-01", 9)}).ok());
  {
    auto user = table.NewTransaction();
    ASSERT_TRUE(
        user->Overwrite({"/s1"}, {MakeFile("/u", "m=1995-01", 9)}).ok());
    ASSERT_TRUE(user->Commit().ok());
  }
  EXPECT_TRUE(rewrite->Commit().status().IsCommitConflict());
  EXPECT_EQ(rewrite->last_conflict().kind, ConflictKind::kInputRemoved);
  EXPECT_FALSE(rewrite->last_conflict().retryable());
  EXPECT_NE(rewrite->last_conflict().detail.find("/s1"), std::string::npos);
}

TEST_F(TransactionTest, StrictModeDisjointRewriteReportsStrictTableLevel) {
  ASSERT_TRUE(AppendFiles({MakeFile("/a1", "m=1995-01", 10),
                           MakeFile("/b1", "m=1997-09", 10)})
                  .ok());
  Table table = MakeTable();
  auto rewrite = table.NewTransaction(ValidationMode::kStrictTableLevel);
  ASSERT_TRUE(
      rewrite->RewriteFiles({"/a1"}, {MakeFile("/ca", "m=1995-01", 10)}).ok());
  {
    auto other = table.NewTransaction(ValidationMode::kStrictTableLevel);
    ASSERT_TRUE(
        other->RewriteFiles({"/b1"}, {MakeFile("/cb", "m=1997-09", 10)}).ok());
    ASSERT_TRUE(other->Commit().ok());
  }
  EXPECT_TRUE(rewrite->Commit().status().IsCommitConflict());
  EXPECT_EQ(rewrite->last_conflict().kind, ConflictKind::kStrictTableLevel);
  EXPECT_FALSE(rewrite->last_conflict().retryable());
}

TEST_F(TransactionTest, OverlappingRewriteReportsPartitionOverlap) {
  ASSERT_TRUE(AppendFiles({MakeFile("/s1", "m=1995-01", 10),
                           MakeFile("/s2", "m=1995-01", 20)})
                  .ok());
  Table table = MakeTable();
  auto rewrite = table.NewTransaction(ValidationMode::kPartitionAware);
  ASSERT_TRUE(
      rewrite->RewriteFiles({"/s1"}, {MakeFile("/c", "m=1995-01", 10)}).ok());
  {
    auto other = table.NewTransaction(ValidationMode::kPartitionAware);
    ASSERT_TRUE(
        other->RewriteFiles({"/s2"}, {MakeFile("/c2", "m=1995-01", 20)}).ok());
    ASSERT_TRUE(other->Commit().ok());
  }
  EXPECT_TRUE(rewrite->Commit().status().IsCommitConflict());
  EXPECT_EQ(rewrite->last_conflict().kind, ConflictKind::kPartitionOverlap);
}

TEST_F(TransactionTest, CompactedAwayOverwriteReportsStaleOverwrite) {
  ASSERT_TRUE(AppendFiles({MakeFile("/a", "p", 10),
                           MakeFile("/a2", "p", 12)})
                  .ok());
  Table table = MakeTable();
  auto user = table.NewTransaction();
  ASSERT_TRUE(user->Overwrite({"/a"}, {MakeFile("/b", "p", 15)}).ok());
  {
    auto compact = table.NewTransaction();
    ASSERT_TRUE(
        compact->RewriteFiles({"/a", "/a2"}, {MakeFile("/c", "p", 22)}).ok());
    ASSERT_TRUE(compact->Commit().ok());
  }
  EXPECT_TRUE(user->Commit().status().IsCommitConflict());
  EXPECT_EQ(user->last_conflict().kind, ConflictKind::kStaleOverwrite);
  EXPECT_FALSE(user->last_conflict().retryable());
}

TEST_F(TransactionTest, InjectedCasRaceRecordsRetryableKind) {
  ASSERT_TRUE(AppendFiles({MakeFile("/a", "p", 1)}).ok());
  fault::FaultInjectorOptions options;
  options.enabled = true;
  options.schedule.Add(fault::kSiteLstCommit, 1,
                       fault::FaultKind::kCasRaceConflict);
  fault::FaultInjector injector(options);
  store_.SetFaultInjector(&injector);
  Table table = MakeTable();
  auto txn = table.NewTransaction();
  ASSERT_TRUE(txn->Append({MakeFile("/b", "p", 1)}).ok());
  EXPECT_TRUE(txn->Commit().status().IsCommitConflict());
  EXPECT_EQ(txn->last_conflict().kind, ConflictKind::kInjectedCasRace);
  EXPECT_TRUE(txn->last_conflict().retryable());
  EXPECT_NE(txn->last_conflict().detail.find("injected"), std::string::npos);
  store_.SetFaultInjector(nullptr);
}

TEST_F(TransactionTest, InjectedCasRaceRecoversUnderCommitWithRetries) {
  ASSERT_TRUE(AppendFiles({MakeFile("/a", "p", 1)}).ok());
  fault::FaultInjectorOptions options;
  options.enabled = true;
  options.schedule.Add(fault::kSiteLstCommit, 1,
                       fault::FaultKind::kCasRaceConflict);
  fault::FaultInjector injector(options);
  store_.SetFaultInjector(&injector);
  Table table = MakeTable();
  auto txn = table.NewTransaction();
  ASSERT_TRUE(txn->Append({MakeFile("/b", "p", 1)}).ok());
  auto committed = txn->CommitWithRetries(3);
  ASSERT_TRUE(committed.ok()) << committed.status();
  EXPECT_EQ(committed->retries, 1);
  EXPECT_EQ(txn->last_conflict().kind, ConflictKind::kNone);
  auto meta = store_.LoadTable("db.t");
  EXPECT_TRUE((*meta)->IsLive("/b"));
  store_.SetFaultInjector(nullptr);
}

TEST_F(TransactionTest, InjectedValidationAbortIsTerminal) {
  ASSERT_TRUE(AppendFiles({MakeFile("/a", "p", 1)}).ok());
  fault::FaultInjectorOptions options;
  options.enabled = true;
  options.schedule.Add(fault::kSiteLstCommit, 1,
                       fault::FaultKind::kValidationAbort);
  fault::FaultInjector injector(options);
  store_.SetFaultInjector(&injector);
  Table table = MakeTable();
  auto txn = table.NewTransaction();
  ASSERT_TRUE(txn->Append({MakeFile("/b", "p", 1)}).ok());
  EXPECT_TRUE(txn->CommitWithRetries(3).status().IsCommitConflict());
  EXPECT_EQ(txn->last_conflict().kind, ConflictKind::kInjectedValidation);
  EXPECT_FALSE(txn->last_conflict().retryable());
  // A terminal abort must not burn the retry budget: exactly one commit
  // attempt armed the site.
  EXPECT_EQ(injector.total_hits(), 1);
  store_.SetFaultInjector(nullptr);
}

TEST_F(TransactionTest, DisjointRewriteQuirkOnlyFiresForRewrites) {
  // kDisjointRewriteAbort models the Iceberg v1.2.0 strict-validation
  // quirk; it only applies to kReplace operations and degrades to no
  // fault for anything else.
  ASSERT_TRUE(AppendFiles({MakeFile("/s1", "p", 10)}).ok());
  fault::FaultInjectorOptions options;
  options.enabled = true;
  options.schedule.Add(fault::kSiteLstCommit, 1,
                       fault::FaultKind::kDisjointRewriteAbort);
  options.schedule.Add(fault::kSiteLstCommit, 2,
                       fault::FaultKind::kDisjointRewriteAbort);
  fault::FaultInjector injector(options);
  store_.SetFaultInjector(&injector);
  Table table = MakeTable();
  {
    // Hit 1 fires on an append: inert, the commit lands.
    auto append = table.NewTransaction();
    ASSERT_TRUE(append->Append({MakeFile("/s2", "p", 10)}).ok());
    ASSERT_TRUE(append->Commit().ok());
    EXPECT_EQ(append->last_conflict().kind, ConflictKind::kNone);
  }
  // Hit 2 fires on a rewrite: terminal validation abort.
  auto rewrite = table.NewTransaction();
  ASSERT_TRUE(
      rewrite->RewriteFiles({"/s1", "/s2"}, {MakeFile("/c", "p", 20)}).ok());
  EXPECT_TRUE(rewrite->Commit().status().IsCommitConflict());
  EXPECT_EQ(rewrite->last_conflict().kind, ConflictKind::kInjectedValidation);
  store_.SetFaultInjector(nullptr);
}

TEST(ConflictKindTest, NamesAreStable) {
  EXPECT_STREQ(ConflictKindName(ConflictKind::kNone), "none");
  EXPECT_STREQ(ConflictKindName(ConflictKind::kCasRace), "cas_race");
  EXPECT_STREQ(ConflictKindName(ConflictKind::kInputRemoved),
               "input_removed");
  EXPECT_STREQ(ConflictKindName(ConflictKind::kStrictTableLevel),
               "strict_table_level");
  EXPECT_STREQ(ConflictKindName(ConflictKind::kPartitionOverlap),
               "partition_overlap");
  EXPECT_STREQ(ConflictKindName(ConflictKind::kStaleOverwrite),
               "stale_overwrite");
  EXPECT_STREQ(ConflictKindName(ConflictKind::kReplacedNotLive),
               "replaced_not_live");
  EXPECT_STREQ(ConflictKindName(ConflictKind::kInjectedCasRace),
               "injected_cas_race");
  EXPECT_STREQ(ConflictKindName(ConflictKind::kInjectedValidation),
               "injected_validation");
  EXPECT_STREQ(ConflictKindName(ConflictKind::kRetriesExhausted),
               "retries_exhausted");
}

// ------------------------------------------------------------- Metadata

TEST_F(TransactionTest, VersionAdvancesPerCommit) {
  auto v1 = store_.LoadTable("db.t");
  ASSERT_TRUE(AppendFiles({MakeFile("/a", "p", 1)}).ok());
  auto v2 = store_.LoadTable("db.t");
  EXPECT_EQ((*v2)->version(), (*v1)->version() + 1);
}

TEST_F(TransactionTest, LiveFilesByPartition) {
  ASSERT_TRUE(AppendFiles({MakeFile("/a", "m=1995-01", 1),
                           MakeFile("/b", "m=1995-02", 2),
                           MakeFile("/c", "m=1995-01", 3)})
                  .ok());
  auto meta = store_.LoadTable("db.t");
  EXPECT_EQ((*meta)->LiveFiles(std::string("m=1995-01")).size(), 2u);
  EXPECT_EQ((*meta)->LiveFiles(std::string("m=1999-12")).size(), 0u);
  EXPECT_EQ((*meta)->LivePartitions().size(), 2u);
}

TEST_F(TransactionTest, SnapshotsAfterReturnsSuffix) {
  ASSERT_TRUE(AppendFiles({MakeFile("/a", "p", 1)}).ok());
  auto mid = store_.LoadTable("db.t");
  const int64_t mid_snap = (*mid)->current_snapshot_id();
  ASSERT_TRUE(AppendFiles({MakeFile("/b", "p", 1)}).ok());
  ASSERT_TRUE(AppendFiles({MakeFile("/c", "p", 1)}).ok());
  auto meta = store_.LoadTable("db.t");
  EXPECT_EQ((*meta)->SnapshotsAfter(mid_snap).size(), 2u);
  EXPECT_EQ((*meta)->SnapshotsAfter(0).size(), 3u);
}

TEST_F(TransactionTest, ManifestMergeBoundsManifestCount) {
  // Lower the merge threshold via table property.
  {
    auto meta = store_.LoadTable("db.t");
    TableMetadata::Builder builder(**meta);
    builder.SetProperty(kPropMaxManifests, "5");
    auto next = builder.Build();
    ASSERT_TRUE(next.ok());
    ASSERT_TRUE(store_.CommitTable("db.t", (*meta)->version(), *next).ok());
  }
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(
        AppendFiles({MakeFile("/f" + std::to_string(i), "p", 1)}).ok());
  }
  auto meta = store_.LoadTable("db.t");
  EXPECT_LE((*meta)->current_snapshot()->manifests.size(), 5u);
  EXPECT_EQ((*meta)->live_file_count(), 20);
}

// ---------------------------------------------------------------- Expiry

TEST_F(TransactionTest, ExpireSnapshotsDropsOldAndFindsOrphans) {
  ASSERT_TRUE(AppendFiles({MakeFile("/s1", "p", 1),
                           MakeFile("/s2", "p", 2)})
                  .ok());
  clock_.AdvanceTo(kHour);
  // Compaction replaces s1+s2 with c1.
  {
    Table table = MakeTable();
    auto txn = table.NewTransaction();
    ASSERT_TRUE(txn->RewriteFiles({"/s1", "/s2"}, {MakeFile("/c1", "p", 3)})
                    .ok());
    ASSERT_TRUE(txn->Commit().ok());
  }
  clock_.AdvanceTo(10 * kHour);
  auto expired = ExpireSnapshots(&store_, "db.t", &clock_,
                                 /*older_than=*/5 * kHour, /*keep_last=*/1);
  ASSERT_TRUE(expired.ok()) << expired.status();
  EXPECT_EQ(expired->expired_snapshots, 1);
  // s1/s2 are only referenced by the expired append snapshot.
  EXPECT_EQ(expired->orphaned_paths.size(), 2u);
  auto meta = store_.LoadTable("db.t");
  EXPECT_EQ((*meta)->snapshots().size(), 1u);
  EXPECT_TRUE((*meta)->IsLive("/c1"));
}

TEST_F(TransactionTest, ExpireKeepsCurrentSnapshot) {
  ASSERT_TRUE(AppendFiles({MakeFile("/a", "p", 1)}).ok());
  clock_.AdvanceTo(100 * kHour);
  auto expired = ExpireSnapshots(&store_, "db.t", &clock_,
                                 /*older_than=*/50 * kHour);
  ASSERT_TRUE(expired.ok());
  EXPECT_EQ(expired->expired_snapshots, 0);  // current is always retained
  auto meta = store_.LoadTable("db.t");
  EXPECT_TRUE((*meta)->IsLive("/a"));
}

TEST_F(TransactionTest, ExpireNoSnapshotsIsNoop) {
  auto expired = ExpireSnapshots(&store_, "db.t", &clock_, 0);
  ASSERT_TRUE(expired.ok());
  EXPECT_EQ(expired->expired_snapshots, 0);
}

TEST_F(TransactionTest, ExpireSharedFilesNotOrphaned) {
  ASSERT_TRUE(AppendFiles({MakeFile("/keep", "p", 1)}).ok());
  clock_.AdvanceTo(kHour);
  ASSERT_TRUE(AppendFiles({MakeFile("/fresh", "p", 2)}).ok());
  clock_.AdvanceTo(10 * kHour);
  auto expired = ExpireSnapshots(&store_, "db.t", &clock_, 5 * kHour);
  ASSERT_TRUE(expired.ok());
  EXPECT_EQ(expired->expired_snapshots, 1);
  // /keep is still live in the retained snapshot: not an orphan.
  EXPECT_TRUE(expired->orphaned_paths.empty());
}

/// The orphan set as ExpireSnapshots computed it before it stopped
/// sorting every retained path: the sorted difference of the expired and
/// the retained snapshots' paths, under the same retention rule.
std::vector<std::string> ReferenceOrphans(const TableMetadata& meta,
                                          SimTime older_than, int keep_last,
                                          int64_t* expired_count) {
  const std::vector<Snapshot>& snapshots = meta.snapshots();
  const size_t keep_tail = std::min(
      snapshots.size(), static_cast<size_t>(std::max(1, keep_last)));
  std::set<std::string> referenced;
  std::set<std::string> expired;
  *expired_count = 0;
  for (size_t i = 0; i < snapshots.size(); ++i) {
    const Snapshot& s = snapshots[i];
    const bool keep = i + keep_tail >= snapshots.size() ||
                      s.snapshot_id == meta.current_snapshot_id() ||
                      s.timestamp >= older_than;
    if (!keep) ++*expired_count;
    for (const ManifestPtr& m : s.manifests) {
      for (const DataFileRef& f : *m) {
        (keep ? referenced : expired).insert(f.path.str());
      }
    }
  }
  std::vector<std::string> out;
  std::set_difference(expired.begin(), expired.end(), referenced.begin(),
                      referenced.end(), std::back_inserter(out));
  return out;
}

TEST_F(TransactionTest, ExpiryMatchesTheSetDifferenceReference) {
  Schema schema(0, {{1, "d", FieldType::kDate, true}});
  PartitionSpec spec(1, {{1, Transform::kMonth, "m"}});
  // Directories whose byte order differs from their (directory, name)
  // order, the table root and bare names.
  const std::vector<std::string> dirs = {"/data/db/r/m=01/", "/data/db/r/m=0-1/",
                                         "/data/db/r/m=01-x/", "/data/db/r/",
                                         ""};
  int64_t merges = 0, filters = 0, rollbacks = 0, orphans = 0;
  int64_t expired_snapshots = 0, long_tails = 0;
  for (uint64_t seed = 1; seed <= 80; ++seed) {
    Rng rng(seed);
    const std::string name = "db.r" + std::to_string(seed);
    TableMetadata::Builder create(name, "/data/db/r", schema, spec);
    create.SetProperty(kPropMaxManifests,
                       std::to_string(rng.UniformInt(2, 6)));
    create.SetCreatedAt(clock_.Now());
    store_.Put(name, *create.Build());
    Table table(&store_, name, &clock_);

    std::vector<std::string> live;
    int next_file = 0;
    const auto new_file = [&] {
      const std::string& dir = dirs[static_cast<size_t>(
          rng.UniformInt(0, static_cast<int64_t>(dirs.size()) - 1))];
      return MakeFile(dir + "f" + std::to_string(next_file++),
                      "m=0" + std::to_string(rng.UniformInt(1, 3)),
                      rng.UniformInt(1, 1000));
    };
    const auto pick_live = [&] {
      std::vector<std::string> picked;
      const int64_t n = std::min<int64_t>(
          rng.UniformInt(1, 3), static_cast<int64_t>(live.size()));
      for (int64_t k = 0; k < n; ++k) {
        const auto at = static_cast<size_t>(
            rng.UniformInt(0, static_cast<int64_t>(live.size()) - 1));
        picked.push_back(live[at]);
        live.erase(live.begin() + static_cast<ptrdiff_t>(at));
      }
      return picked;
    };
    const int64_t commits = rng.UniformInt(4, 30);
    for (int64_t c = 0; c < commits; ++c) {
      clock_.AdvanceTo(clock_.Now() + rng.UniformInt(1, 3) * kHour);
      auto txn = table.NewTransaction();
      ASSERT_TRUE(txn.ok());
      const int64_t op = live.empty() ? 0 : rng.UniformInt(0, 3);
      std::vector<DataFile> added;
      const int64_t outputs = rng.UniformInt(op == 0 ? 1 : 0, 4);
      for (int64_t k = 0; k < outputs; ++k) added.push_back(new_file());
      Status staged;
      if (op == 0) {
        staged = txn->Append(added);
      } else if (op == 1) {
        staged = txn->RewriteFiles(pick_live(), added);
      } else if (op == 2) {
        staged = txn->Overwrite(pick_live(), added);
      } else {
        added.clear();
        staged = txn->DeleteFiles(pick_live());
      }
      ASSERT_TRUE(staged.ok()) << staged;
      ASSERT_TRUE(txn->Commit().ok());
      for (const DataFile& f : added) live.push_back(f.path);
      filters += op == 0 ? 0 : 1;
    }
    for (int round = 0; round < 2; ++round) {
      if (round == 0 && rng.Bernoulli(0.4)) {
        // Roll the current snapshot back to an earlier one.
        auto head = store_.LoadTable(name);
        ASSERT_TRUE(head.ok());
        const std::vector<Snapshot>& snapshots = (*head)->snapshots();
        const auto k = static_cast<size_t>(rng.UniformInt(
            0, static_cast<int64_t>(snapshots.size()) - 2));
        TableMetadata::Builder rollback(**head);
        rollback.AddSnapshot(snapshots[k]);
        rollback.SetSnapshots(snapshots);
        auto next = rollback.Build();
        ASSERT_TRUE(next.ok());
        ASSERT_NE((*next)->current_snapshot_id(),
                  (*next)->snapshots().back().snapshot_id);
        ASSERT_TRUE(store_.CommitTable(name, (*head)->version(), *next).ok());
        ++rollbacks;
      }
      auto meta = store_.LoadTable(name);
      ASSERT_TRUE(meta.ok());
      for (const Snapshot& s : (*meta)->snapshots()) {
        for (const ManifestPtr& m : s.manifests) {
          const std::set<int64_t> by(m->added_snapshot_column().begin(),
                                     m->added_snapshot_column().end());
          merges += by.size() > 1 ? 1 : 0;
        }
      }
      const SimTime older_than = rng.UniformInt(0, clock_.Now() + kHour);
      const int keep_last = static_cast<int>(rng.UniformInt(0, 5));
      long_tails += keep_last > 1 ? 1 : 0;
      int64_t want_expired = 0;
      const std::vector<std::string> want =
          ReferenceOrphans(**meta, older_than, keep_last, &want_expired);
      auto got = ExpireSnapshots(&store_, name, &clock_, older_than,
                                 keep_last);
      ASSERT_TRUE(got.ok()) << got.status();
      EXPECT_EQ(got->orphaned_paths, want)
          << "seed " << seed << " round " << round;
      EXPECT_EQ(got->expired_snapshots, want_expired)
          << "seed " << seed << " round " << round;
      orphans += static_cast<int64_t>(want.size());
      expired_snapshots += want_expired;
    }
  }
  // The histories exercised what the shortcut must get right.
  EXPECT_GT(merges, 0);
  EXPECT_GT(filters, 0);
  EXPECT_GT(rollbacks, 0);
  EXPECT_GT(orphans, 0);
  EXPECT_GT(expired_snapshots, 0);
  EXPECT_GT(long_tails, 0);
}

// --------------------------------------------------------- Table / scans

TEST_F(TransactionTest, PlanScanWholeTableAndPartition) {
  ASSERT_TRUE(AppendFiles({MakeFile("/a", "m=1995-01", 100),
                           MakeFile("/b", "m=1995-02", 200)})
                  .ok());
  Table table = MakeTable();
  auto full = table.PlanScan();
  ASSERT_TRUE(full.ok());
  EXPECT_EQ(full->files.size(), 2u);
  EXPECT_EQ(full->total_bytes, 300);
  auto pruned = table.PlanScan(std::string("m=1995-01"));
  ASSERT_TRUE(pruned.ok());
  EXPECT_EQ(pruned->files.size(), 1u);
  EXPECT_EQ(pruned->total_bytes, 100);
}

TEST_F(TransactionTest, PlanScanEmptyTable) {
  Table table = MakeTable();
  auto plan = table.PlanScan();
  ASSERT_TRUE(plan.ok());
  EXPECT_TRUE(plan->files.empty());
  EXPECT_EQ(plan->snapshot_id, 0);
}

// -------------------------------------------------------- MetadataTables

TEST_F(TransactionTest, PartitionsRowsAggregate) {
  ASSERT_TRUE(AppendFiles({MakeFile("/a", "m=1995-01", 100),
                           MakeFile("/b", "m=1995-01", 300),
                           MakeFile("/c", "m=1995-02", 50)})
                  .ok());
  auto meta = store_.LoadTable("db.t");
  MetadataTables tables(*meta);
  auto rows = tables.Partitions();
  ASSERT_EQ(rows.size(), 2u);
  const PartitionRow& jan = rows[0].partition == "m=1995-01" ? rows[0]
                                                             : rows[1];
  EXPECT_EQ(jan.file_count, 2);
  EXPECT_EQ(jan.total_bytes, 400);
  EXPECT_EQ(jan.smallest_file_bytes, 100);
  EXPECT_EQ(jan.largest_file_bytes, 300);
  EXPECT_DOUBLE_EQ(jan.avg_file_bytes(), 200.0);
}

TEST_F(TransactionTest, SnapshotsAndManifestsRows) {
  ASSERT_TRUE(AppendFiles({MakeFile("/a", "p", 100)}).ok());
  ASSERT_TRUE(AppendFiles({MakeFile("/b", "p", 100)}).ok());
  auto meta = store_.LoadTable("db.t");
  MetadataTables tables(*meta);
  auto snaps = tables.Snapshots();
  ASSERT_EQ(snaps.size(), 2u);
  EXPECT_EQ(snaps[0].operation, "append");
  EXPECT_EQ(snaps[1].parent_snapshot_id, snaps[0].snapshot_id);
  auto manifests = tables.Manifests();
  EXPECT_EQ(manifests.size(), 2u);
}

TEST_F(TransactionTest, FilesAddedAfterSupportsSnapshotScope) {
  ASSERT_TRUE(AppendFiles({MakeFile("/old", "p", 1)}).ok());
  auto mid = store_.LoadTable("db.t");
  const int64_t mid_snap = (*mid)->current_snapshot_id();
  ASSERT_TRUE(AppendFiles({MakeFile("/new", "p", 2)}).ok());
  MetadataTables tables(*store_.LoadTable("db.t"));
  auto fresh = tables.FilesAddedAfter(mid_snap);
  ASSERT_EQ(fresh.size(), 1u);
  EXPECT_EQ(fresh[0].path, "/new");
}

// -------------------------------------------------------------- Manifest

/// A manifest of `entries`, in order, in `builder`'s lineage.
ManifestPtr WriteManifest(TableMetadata::Builder* builder,
                          const std::vector<DataFile>& entries) {
  size_t name_bytes = 0;
  for (const DataFile& f : entries) {
    name_bytes += PathRef::Split(f.path).name.size();
  }
  ManifestWriter writer = builder->NewManifest(entries.size(), name_bytes);
  for (const DataFile& f : entries) writer.Add(f.view());
  return writer.Finish();
}

/// DataFile::operator== compares paths only, so a field-by-field check.
void ExpectSameFile(const DataFile& want, const DataFileRef& got) {
  EXPECT_EQ(got.path, want.path);
  EXPECT_EQ(got.partition, want.partition) << want.path;
  EXPECT_EQ(got.content, want.content) << want.path;
  EXPECT_EQ(got.file_size_bytes, want.file_size_bytes) << want.path;
  EXPECT_EQ(got.record_count, want.record_count) << want.path;
  EXPECT_EQ(got.clustered, want.clustered) << want.path;
  EXPECT_EQ(got.added_snapshot_id, want.added_snapshot_id) << want.path;
  EXPECT_EQ(got.sequence_number, want.sequence_number) << want.path;
}

/// Both contents, clustered on and off, an empty, a short and a long
/// partition key, a 15-byte and a 300-byte path; every number distinct.
std::vector<DataFile> FieldCoverageFiles() {
  const std::string long_key = "region=" + std::string(60, 'k');
  const std::string long_path = "/data/db/t/" + std::string(289, 'x');
  std::vector<DataFile> files = {
      {"/data/db/t/f001", "", FileContent::kData, 101, 11, false, 3, 4},
      {long_path, long_key, FileContent::kPositionDeletes, 202, 22, true, 5,
       6},
      {"/data/db/t/m=01/a", "m=01", FileContent::kData, 303, 33, true, 7, 8},
      {"/data/db/t/m=01/d", "m=01", FileContent::kPositionDeletes, 404, 44,
       false, 9, 10},
      {"/data/db/t/g", long_key, FileContent::kData, 505, 55, false, 11, 12},
  };
  EXPECT_EQ(files[0].path.size(), 15u);
  EXPECT_EQ(files[1].path.size(), 300u);
  return files;
}

TEST(ManifestTest, EveryFieldSurvivesTheColumns) {
  const std::vector<DataFile> files = FieldCoverageFiles();
  const Manifest manifest(42, files);
  EXPECT_EQ(manifest.manifest_id(), 42);
  ASSERT_EQ(manifest.file_count(), static_cast<int64_t>(files.size()));
  int64_t total_bytes = 0;
  size_t name_bytes = 0;
  for (size_t i = 0; i < files.size(); ++i) {
    ExpectSameFile(files[i], manifest.file(i));
    EXPECT_EQ(manifest.path(i), files[i].path);
    EXPECT_EQ(manifest.sequence_number_column()[i], files[i].sequence_number);
    total_bytes += files[i].file_size_bytes;
    name_bytes += PathRef::Split(files[i].path).name.size();
  }
  size_t visited = 0;
  for (const DataFileRef& f : manifest) ExpectSameFile(files[visited++], f);
  EXPECT_EQ(visited, files.size());
  EXPECT_EQ(manifest.total_bytes(), total_bytes);
  EXPECT_EQ(manifest.name_bytes(), name_bytes);
  // "/data/db/t/" and "/data/db/t/m=01/".
  EXPECT_EQ(manifest.directory_count(), 2u);

  EXPECT_EQ(manifest.partition_count(), 3);
  EXPECT_TRUE(manifest.ContainsPartition(""));
  EXPECT_TRUE(manifest.ContainsPartition(files[1].partition));
  EXPECT_FALSE(manifest.ContainsPartition("m=02"));
  std::vector<std::string> in_partition;
  EXPECT_TRUE(manifest.ForEachFile(files[1].partition,
                                   [&](const DataFileRef& f) {
                                     in_partition.push_back(f.path.str());
                                   }));
  EXPECT_EQ(in_partition,
            (std::vector<std::string>{files[1].path, files[4].path}));
  EXPECT_FALSE(manifest.ForEachFile(std::string("m=02"),
                                    [](const DataFileRef&) { FAIL(); }));
}

TEST_F(TransactionTest, LiveFilesKeepEveryFieldInCommitOrder) {
  std::vector<DataFile> files = FieldCoverageFiles();
  ASSERT_TRUE(AppendFiles({files[0], files[1], files[2]}).ok());
  ASSERT_TRUE(AppendFiles({files[3], files[4]}).ok());
  auto meta = store_.LoadTable("db.t");
  ASSERT_TRUE(meta.ok());
  const std::vector<Snapshot>& snapshots = (*meta)->snapshots();
  ASSERT_EQ(snapshots.size(), 2u);
  // A commit stamps its snapshot id and sequence number on its files.
  for (size_t i = 0; i < files.size(); ++i) {
    const Snapshot& by = snapshots[i < 3 ? 0 : 1];
    files[i].added_snapshot_id = by.snapshot_id;
    files[i].sequence_number = by.sequence_number;
  }
  const std::vector<DataFile> live = (*meta)->LiveFiles();
  ASSERT_EQ(live.size(), files.size());
  for (size_t i = 0; i < files.size(); ++i) {
    ExpectSameFile(files[i], live[i].view());
  }
  const std::vector<DataFile> in_partition = (*meta)->LiveFiles("m=01");
  ASSERT_EQ(in_partition.size(), 2u);
  ExpectSameFile(files[2], in_partition[0].view());
  ExpectSameFile(files[3], in_partition[1].view());
}

TEST(ManifestTest, MergeOutputIsTheConcatenationOfItsInputs) {
  const std::vector<DataFile> files = FieldCoverageFiles();
  Schema schema(0, {{1, "a", FieldType::kInt64, true}});
  TableMetadata::Builder builder("db.t", "/data/db/t", schema,
                                 PartitionSpec::Unpartitioned());
  const auto write = [&builder](const std::vector<DataFile>& entries) {
    return WriteManifest(&builder, entries);
  };
  // File counts grow with the ids, so the merge's smallest-first order
  // is the input order.
  const ManifestList inputs = {write({files[0]}),
                               write({files[1], files[2]}),
                               write({files[3], files[4]})};
  const ManifestList merged = MaybeMergeManifests(inputs, 1, &builder);
  ASSERT_EQ(merged.size(), 1u);
  EXPECT_GT(merged[0]->manifest_id(), inputs.back()->manifest_id());
  ASSERT_EQ(merged[0]->file_count(), static_cast<int64_t>(files.size()));
  for (size_t i = 0; i < files.size(); ++i) {
    ExpectSameFile(files[i], merged[0]->file(i));
  }
  EXPECT_EQ(merged[0]->total_bytes(),
            inputs[0]->total_bytes() + inputs[1]->total_bytes() +
                inputs[2]->total_bytes());
  EXPECT_EQ(merged[0]->partition_count(), 3);

  // A partial merge keeps the largest manifest as is.
  const ManifestList partial = MaybeMergeManifests(inputs, 2, &builder);
  ASSERT_EQ(partial.size(), 2u);
  EXPECT_EQ(partial[0], inputs[2]);
  ASSERT_EQ(partial[1]->file_count(), 3);
  for (size_t i = 0; i < 3; ++i) ExpectSameFile(files[i], partial[1]->file(i));
}

TEST(ManifestTest, PathsSplitAtTheLastSlash) {
  Schema schema(0, {{1, "a", FieldType::kInt64, true}});
  TableMetadata::Builder builder("db.t", "/data/db/t", schema,
                                 PartitionSpec::Unpartitioned());
  const std::string long_path =
      "/data/db/t/" + std::string(150, 'd') + "/" + std::string(138, 'n');
  ASSERT_EQ(long_path.size(), 300u);
  std::vector<DataFile> files;
  for (const std::string& path :
       {std::string("bare-name"), std::string("/f"), long_path,
        std::string("/x/a/1"), std::string("/x/b/1"), std::string("/x/a/2"),
        std::string("/x/c/1"), std::string("/x/b/2"), std::string("/x/a/3")}) {
    files.push_back(MakeFile(path, "p" + std::to_string(files.size() % 2), 10));
  }
  const ManifestPtr lineage = WriteManifest(&builder, files);
  // A private interner, as a hand-built snapshot may carry.
  const ManifestPtr standalone = std::make_shared<const Manifest>(7, files);
  for (const Manifest* m : {lineage.get(), standalone.get()}) {
    ASSERT_EQ(m->file_count(), static_cast<int64_t>(files.size()));
    size_t name_bytes = 0;
    for (size_t i = 0; i < files.size(); ++i) {
      EXPECT_EQ(m->path(i), files[i].path);
      EXPECT_EQ(m->file(i).path.str(), files[i].path);
      name_bytes += PathRef::Split(files[i].path).name.size();
    }
    EXPECT_EQ(m->name_bytes(), name_bytes);
    EXPECT_EQ(m->path(0).dir, "");
    EXPECT_EQ(m->path(0).name, "bare-name");
    EXPECT_EQ(m->path(1).dir, "/");
    EXPECT_EQ(m->path(1).name, "f");
    EXPECT_EQ(m->path(2).name, std::string(138, 'n'));
    // "", "/", the long one and the three interleaved ones, each once.
    EXPECT_EQ(m->directory_count(), 6u);
    EXPECT_EQ(m->path(3).dir.data(), m->path(5).dir.data());
    EXPECT_EQ(m->path(3).dir.data(), m->path(8).dir.data());
    EXPECT_EQ(m->path(4).dir.data(), m->path(7).dir.data());
    EXPECT_NE(m->path(3).dir.data(), m->path(4).dir.data());
  }
  // Merged into the lineage, the standalone manifest's entries are
  // re-interned there: same paths and partitions, the lineage's views.
  const ManifestList merged =
      MaybeMergeManifests({lineage, standalone}, 1, &builder);
  ASSERT_EQ(merged.size(), 1u);
  ASSERT_EQ(merged[0]->file_count(), 2 * lineage->file_count());
  for (size_t i = 0; i < 2 * files.size(); ++i) {
    const DataFile& want = files[i % files.size()];
    ExpectSameFile(want, merged[0]->file(i));
    EXPECT_EQ(merged[0]->path(i).dir.data(),
              lineage->path(i % files.size()).dir.data());
  }
  EXPECT_EQ(merged[0]->directory_count(), 6u);
}

TEST_F(TransactionTest, FiltersAndMergesKeepDirectoryViewsPointerEqual) {
  {
    auto meta = store_.LoadTable("db.t");
    TableMetadata::Builder builder(**meta);
    builder.SetProperty(kPropMaxManifests, "2");
    auto next = builder.Build();
    ASSERT_TRUE(next.ok());
    ASSERT_TRUE(store_.CommitTable("db.t", (*meta)->version(), *next).ok());
  }
  const std::string t = "/data/db/t/";
  ASSERT_TRUE(AppendFiles({MakeFile(t + "m=01/a1", "m=01", 1),
                           MakeFile(t + "m=02/b1", "m=02", 1),
                           MakeFile(t + "m=01/a2", "m=01", 1)})
                  .ok());
  ASSERT_TRUE(AppendFiles({MakeFile(t + "m=02/b2", "m=02", 1),
                           MakeFile(t + "m=03/c1", "m=03", 1)})
                  .ok());
  // The lineage's one view of each directory.
  std::map<std::string, const char*> view_of;
  auto before = store_.LoadTable("db.t");
  ASSERT_TRUE(before.ok());
  for (const ManifestPtr& m : (*before)->current_snapshot()->manifests) {
    for (size_t i = 0; i < static_cast<size_t>(m->file_count()); ++i) {
      const PathRef path = m->path(i);
      const auto [it, inserted] =
          view_of.emplace(std::string(path.dir), path.dir.data());
      EXPECT_EQ(it->second, path.dir.data()) << path.str();
    }
  }
  ASSERT_EQ(view_of.size(), 3u);
  // A third manifest forces a merge; the rewrite then filters the merged
  // manifest or the one it left.
  ASSERT_TRUE(AppendFiles({MakeFile(t + "m=01/a3", "m=01", 1)}).ok());
  {
    Table table = MakeTable();
    auto txn = table.NewTransaction();
    ASSERT_TRUE(txn->RewriteFiles({t + "m=01/a1", t + "m=02/b2"},
                                  {MakeFile(t + "m=01/c-1", "m=01", 2)})
                    .ok());
    ASSERT_TRUE(txn->Commit().ok());
  }
  auto meta = store_.LoadTable("db.t");
  ASSERT_TRUE(meta.ok());
  const Snapshot& head = *(*meta)->current_snapshot();
  ASSERT_LE(head.manifests.size(), 2u);
  int64_t live = 0;
  bool merged = false;
  for (const ManifestPtr& m : head.manifests) {
    size_t name_bytes = 0;
    std::set<int64_t> added_by;
    for (size_t i = 0; i < static_cast<size_t>(m->file_count()); ++i) {
      const PathRef path = m->path(i);
      ASSERT_EQ(view_of.count(std::string(path.dir)), 1u) << path.str();
      EXPECT_EQ(path.dir.data(), view_of[std::string(path.dir)])
          << path.str();
      name_bytes += path.name.size();
      added_by.insert(m->added_snapshot_column()[i]);
      ++live;
    }
    EXPECT_EQ(m->name_bytes(), name_bytes);
    merged = merged || added_by.size() > 1;
  }
  EXPECT_TRUE(merged);
  EXPECT_EQ(live, 5);
  EXPECT_FALSE((*meta)->IsLive(t + "m=01/a1"));
  EXPECT_TRUE((*meta)->IsLive(t + "m=01/c-1"));
}

// ----------------------------------------------------- Metadata builder

TEST(TableMetadataBuilderTest, ValidatesNameAndLocation) {
  Schema schema(0, {{1, "a", FieldType::kInt64, true}});
  {
    TableMetadata::Builder b("", "/loc", schema,
                             PartitionSpec::Unpartitioned());
    EXPECT_TRUE(b.Build().status().IsInvalidArgument());
  }
  {
    TableMetadata::Builder b("t", "relative", schema,
                             PartitionSpec::Unpartitioned());
    EXPECT_TRUE(b.Build().status().IsInvalidArgument());
  }
}

TEST(TableMetadataBuilderTest, ValidatesSpecAgainstSchema) {
  Schema schema(0, {{1, "a", FieldType::kInt64, true}});
  PartitionSpec bad(1, {{1, Transform::kMonth, "m"}});
  TableMetadata::Builder b("t", "/loc", schema, bad);
  EXPECT_TRUE(b.Build().status().IsInvalidArgument());
}

TEST(TableMetadataBuilderTest, TargetFileSizeProperty) {
  Schema schema(0, {{1, "a", FieldType::kInt64, true}});
  TableMetadata::Builder b("t", "/loc", schema,
                           PartitionSpec::Unpartitioned());
  b.SetProperty(kPropTargetFileSizeBytes, std::to_string(128 * kMiB));
  auto meta = b.Build();
  ASSERT_TRUE(meta.ok());
  EXPECT_EQ((*meta)->target_file_size_bytes(), 128 * kMiB);

  TableMetadata::Builder d("t", "/loc", schema,
                           PartitionSpec::Unpartitioned());
  EXPECT_EQ((*d.Build())->target_file_size_bytes(), 512 * kMiB);
}

}  // namespace
}  // namespace autocomp::lst
