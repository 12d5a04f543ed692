// IncrementalStatsIndex: O(delta) maintenance must be observationally
// identical to rescanning metadata (NFR2). Scripted single-thread
// operation sequences, rebuild triggers (expiry, drops, stale pins), a
// randomized multi-threaded property suite with per-commit
// index-vs-rescan cross-checks, and an end-to-end determinism test over
// all four generators × both collector modes.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <memory>
#include <optional>
#include <set>
#include <stop_token>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "catalog/catalog.h"
#include "catalog/control_plane.h"
#include "common/clock.h"
#include "common/random.h"
#include "core/observe.h"
#include "core/pipeline.h"
#include "core/ranking.h"
#include "core/stats_index.h"
#include "core/traits.h"
#include "lst/table.h"
#include "lst/transaction.h"
#include "sim/driver.h"
#include "sim/environment.h"
#include "sim/metrics.h"
#include "sim/presets.h"
#include "storage/namenode.h"
#include "workload/tpch.h"

namespace autocomp {
namespace {

lst::Schema TestSchema() {
  return lst::Schema(0, {{1, "d", lst::FieldType::kDate, true}});
}

lst::PartitionSpec TestSpec() {
  return lst::PartitionSpec(1, {{1, lst::Transform::kMonth, "m"}});
}

// Harness: a catalog plus every collector flavor over one shared index.
struct IndexHarness {
  SimulatedClock clock{0};
  storage::NameNode nn{&clock};
  catalog::Catalog catalog{&clock, &nn};
  catalog::ControlPlane control_plane{&catalog};
  std::shared_ptr<core::IncrementalStatsIndex> index;
  std::unique_ptr<core::StatsCollector> rescan;
  std::unique_ptr<core::IndexedStatsCollector> indexed;

  IndexHarness()
      : index(std::make_shared<core::IncrementalStatsIndex>(&catalog)),
        rescan(std::make_unique<core::StatsCollector>(&catalog, &control_plane,
                                                      &clock)),
        indexed(std::make_unique<core::IndexedStatsCollector>(
            &catalog, &control_plane, &clock, index, /*cross_check=*/true)) {}

  // Both paths must agree field for field, custom bag included.
  void ExpectAgreement(const core::Candidate& candidate) {
    auto a = indexed->Collect(candidate);  // cross-check mode self-verifies
    ASSERT_TRUE(a.ok()) << a.status();
    auto b = rescan->Collect(candidate);
    ASSERT_TRUE(b.ok()) << b.status();
    std::string why;
    EXPECT_TRUE(core::StatsEquivalent(*a, *b, &why))
        << candidate.id() << ": " << why;
  }

  // Checks every scope of one table: whole table, each live partition,
  // and the snapshot scope at the current replace watermark.
  void ExpectAllScopesAgree(const std::string& table) {
    core::Candidate whole;
    whole.table = table;
    ExpectAgreement(whole);

    auto meta = catalog.LoadTable(table);
    ASSERT_TRUE(meta.ok());
    for (const std::string& partition : (*meta)->LivePartitions()) {
      core::Candidate pc;
      pc.table = table;
      pc.scope = core::CandidateScope::kPartition;
      pc.partition = partition;
      ExpectAgreement(pc);
    }

    int64_t last_replace = 0;
    for (const lst::Snapshot& snap : (*meta)->snapshots()) {
      if (snap.operation == lst::SnapshotOperation::kReplace &&
          snap.snapshot_id > last_replace) {
        last_replace = snap.snapshot_id;
      }
    }
    if (last_replace > 0) {
      core::Candidate sc;
      sc.table = table;
      sc.scope = core::CandidateScope::kSnapshot;
      sc.after_snapshot_id = last_replace;
      ExpectAgreement(sc);
    }
  }
};

lst::DataFile MakeFile(const std::string& table_path, int64_t* counter,
                       const std::string& partition, int64_t size) {
  lst::DataFile f;
  f.path = table_path + "/" + partition + "/f" + std::to_string((*counter)++);
  f.partition = partition;
  f.file_size_bytes = size;
  f.record_count = 1;
  return f;
}

// ------------------------------------------- Scripted operation sequence

TEST(StatsIndexTest, ScriptedOperationsMatchRescanAfterEveryCommit) {
  IndexHarness h;
  ASSERT_TRUE(h.catalog.CreateDatabase("db").ok());
  auto table = h.catalog.CreateTable("db", "t", TestSchema(), TestSpec());
  ASSERT_TRUE(table.ok());
  int64_t counter = 0;

  // Empty table: index must agree before any snapshot exists.
  h.ExpectAllScopesAgree("db.t");

  // Append into two partitions.
  {
    auto txn = table->NewTransaction();
    ASSERT_TRUE(txn.ok());
    ASSERT_TRUE(txn->Append({MakeFile("/data/db/t", &counter, "m=2024-01", 5),
                             MakeFile("/data/db/t", &counter, "m=2024-01", 9),
                             MakeFile("/data/db/t", &counter, "m=2024-02", 64)})
                    .ok());
    ASSERT_TRUE(txn->Commit().ok());
  }
  h.ExpectAllScopesAgree("db.t");

  // Overwrite: replace one file, add one.
  {
    auto meta = table->Metadata();
    ASSERT_TRUE(meta.ok());
    const std::string victim = (*meta)->LiveFiles().front().path;
    auto txn = table->NewTransaction();
    ASSERT_TRUE(txn.ok());
    ASSERT_TRUE(
        txn->Overwrite({victim},
                       {MakeFile("/data/db/t", &counter, "m=2024-01", 7)})
            .ok());
    ASSERT_TRUE(txn->Commit().ok());
  }
  h.ExpectAllScopesAgree("db.t");

  // Rewrite (compaction): sets the replace watermark; the fresh set
  // empties and refills on the next append.
  {
    auto meta = table->Metadata();
    ASSERT_TRUE(meta.ok());
    std::vector<std::string> inputs;
    for (const lst::DataFile& f : (*meta)->LiveFiles(std::string("m=2024-01"))) {
      inputs.push_back(f.path);
    }
    ASSERT_FALSE(inputs.empty());
    auto txn = table->NewTransaction();
    ASSERT_TRUE(txn.ok());
    ASSERT_TRUE(
        txn->RewriteFiles(inputs,
                          {MakeFile("/data/db/t", &counter, "m=2024-01", 16)})
            .ok());
    ASSERT_TRUE(txn->Commit().ok());
  }
  h.ExpectAllScopesAgree("db.t");

  // Post-compaction appends are the snapshot-scope population.
  {
    h.clock.Advance(kMinute);
    auto txn = table->NewTransaction();
    ASSERT_TRUE(txn.ok());
    ASSERT_TRUE(txn->Append({MakeFile("/data/db/t", &counter, "m=2024-02", 3),
                             MakeFile("/data/db/t", &counter, "m=2024-03", 2)})
                    .ok());
    ASSERT_TRUE(txn->Commit().ok());
  }
  h.ExpectAllScopesAgree("db.t");
  // The first snapshot-scope query (after the rewrite) built the fresh
  // view; the append's delta kept it current.
  EXPECT_EQ(h.index->fresh_view_builds(), 1);

  // Overwrite a fresh file with one of equal size in the same partition:
  // both views lose and gain the same size in one merge.
  {
    auto meta = table->Metadata();
    ASSERT_TRUE(meta.ok());
    const auto files = (*meta)->LiveFiles(std::string("m=2024-03"));
    ASSERT_EQ(files.size(), 1u);
    auto txn = table->NewTransaction();
    ASSERT_TRUE(txn.ok());
    ASSERT_TRUE(
        txn->Overwrite({files.front().path},
                       {MakeFile("/data/db/t", &counter, "m=2024-03",
                                 files.front().file_size_bytes)})
            .ok());
    ASSERT_TRUE(txn->Commit().ok());
  }
  h.ExpectAllScopesAgree("db.t");

  // A second rewrite: the fresh view built above lives through a replace
  // commit (the delta empties it; no rebuild, no second build).
  {
    auto meta = table->Metadata();
    ASSERT_TRUE(meta.ok());
    std::vector<std::string> inputs;
    for (const lst::DataFile& f : (*meta)->LiveFiles(std::string("m=2024-02"))) {
      inputs.push_back(f.path);
    }
    ASSERT_EQ(inputs.size(), 2u);
    const int64_t rebuilds_before = h.index->rebuilds();
    auto txn = table->NewTransaction();
    ASSERT_TRUE(txn.ok());
    ASSERT_TRUE(
        txn->RewriteFiles(inputs,
                          {MakeFile("/data/db/t", &counter, "m=2024-02", 67)})
            .ok());
    ASSERT_TRUE(txn->Commit().ok());
    h.ExpectAllScopesAgree("db.t");
    EXPECT_EQ(h.index->rebuilds(), rebuilds_before);
    EXPECT_EQ(h.index->fresh_view_builds(), 1);
  }

  // One commit empties a partition and writes to it again.
  {
    h.clock.Advance(kMinute);
    auto meta = table->Metadata();
    ASSERT_TRUE(meta.ok());
    std::vector<std::string> victims;
    for (const lst::DataFile& f : (*meta)->LiveFiles(std::string("m=2024-01"))) {
      victims.push_back(f.path);
    }
    ASSERT_FALSE(victims.empty());
    auto txn = table->NewTransaction();
    ASSERT_TRUE(txn.ok());
    ASSERT_TRUE(
        txn->Overwrite(victims,
                       {MakeFile("/data/db/t", &counter, "m=2024-01", 4)})
            .ok());
    ASSERT_TRUE(txn->Commit().ok());
  }
  h.ExpectAllScopesAgree("db.t");

  // Delete files (a partition may disappear entirely).
  {
    auto meta = table->Metadata();
    ASSERT_TRUE(meta.ok());
    std::vector<std::string> victims;
    for (const lst::DataFile& f : (*meta)->LiveFiles(std::string("m=2024-03"))) {
      victims.push_back(f.path);
    }
    auto txn = table->NewTransaction();
    ASSERT_TRUE(txn.ok());
    ASSERT_TRUE(txn->DeleteFiles(victims).ok());
    ASSERT_TRUE(txn->Commit().ok());
    auto after = table->Metadata();
    ASSERT_TRUE(after.ok());
    EXPECT_TRUE((*after)->LiveFiles(std::string("m=2024-03")).empty());
  }
  h.ExpectAllScopesAgree("db.t");

  // The emptied partition is written to again.
  {
    auto txn = table->NewTransaction();
    ASSERT_TRUE(txn.ok());
    ASSERT_TRUE(txn->Append({MakeFile("/data/db/t", &counter, "m=2024-03", 8),
                             MakeFile("/data/db/t", &counter, "m=2024-03", 1)})
                    .ok());
    ASSERT_TRUE(txn->Commit().ok());
  }
  h.ExpectAllScopesAgree("db.t");

  // Snapshot expiry commits without a delta; the index must rebuild and
  // still agree (watermark recomputation included).
  {
    h.clock.Advance(kDay);
    const int64_t rebuilds_before = h.index->rebuilds();
    const int64_t builds_before = h.index->fresh_view_builds();
    auto expired = lst::ExpireSnapshots(&h.catalog, "db.t", &h.clock,
                                        h.clock.Now() - kHour, 1);
    ASSERT_TRUE(expired.ok()) << expired.status();
    ASSERT_GT(expired->expired_snapshots, 0);
    h.ExpectAllScopesAgree("db.t");
    EXPECT_GT(h.index->rebuilds(), rebuilds_before);
    // The rebuild dropped the fresh view; the next snapshot-scope query
    // built it again from its pinned metadata, once.
    auto meta = h.catalog.LoadTable("db.t");
    ASSERT_TRUE(meta.ok());
    const auto watermark = h.index->LastReplaceSnapshotId("db.t", *meta);
    ASSERT_TRUE(watermark.has_value());
    core::Candidate fresh;
    fresh.table = "db.t";
    fresh.scope = core::CandidateScope::kSnapshot;
    fresh.after_snapshot_id = *watermark;
    h.ExpectAgreement(fresh);
    EXPECT_EQ(h.index->fresh_view_builds(), builds_before + 1);
  }

  // Steady state: repeated collections are index hits, not fallbacks.
  const int64_t hits_before = h.indexed->index_hits();
  h.ExpectAllScopesAgree("db.t");
  EXPECT_GT(h.indexed->index_hits(), hits_before);
  EXPECT_GT(h.index->deltas_applied(), 0);
}

// ---------------------------------------------------- Query-level checks

TEST(StatsIndexTest, LivePartitionsAndWatermarkMatchMetadata) {
  IndexHarness h;
  ASSERT_TRUE(h.catalog.CreateDatabase("db").ok());
  auto table = h.catalog.CreateTable("db", "t", TestSchema(), TestSpec());
  ASSERT_TRUE(table.ok());
  int64_t counter = 0;
  {
    auto txn = table->NewTransaction();
    ASSERT_TRUE(txn.ok());
    ASSERT_TRUE(txn->Append({MakeFile("/data/db/t", &counter, "m=2024-03", 4),
                             MakeFile("/data/db/t", &counter, "m=2024-01", 8)})
                    .ok());
    ASSERT_TRUE(txn->Commit().ok());
  }
  auto meta = h.catalog.LoadTable("db.t");
  ASSERT_TRUE(meta.ok());
  auto partitions = h.index->LivePartitions("db.t", *meta);
  ASSERT_TRUE(partitions.has_value());
  EXPECT_EQ(*partitions, (*meta)->LivePartitions());

  auto watermark = h.index->LastReplaceSnapshotId("db.t", *meta);
  ASSERT_TRUE(watermark.has_value());
  EXPECT_EQ(*watermark, 0);

  {
    auto txn = table->NewTransaction();
    ASSERT_TRUE(txn.ok());
    std::vector<std::string> inputs;
    for (const lst::DataFile& f : (*meta)->LiveFiles(std::string("m=2024-01"))) {
      inputs.push_back(f.path);
    }
    ASSERT_TRUE(
        txn->RewriteFiles(inputs,
                          {MakeFile("/data/db/t", &counter, "m=2024-01", 12)})
            .ok());
    auto committed = txn->Commit();
    ASSERT_TRUE(committed.ok());
    meta = h.catalog.LoadTable("db.t");
    ASSERT_TRUE(meta.ok());
    watermark = h.index->LastReplaceSnapshotId("db.t", *meta);
    ASSERT_TRUE(watermark.has_value());
    EXPECT_EQ(*watermark, committed->snapshot_id);
  }
}

TEST(StatsIndexTest, StalePinnedMetadataFallsBackNotLies) {
  IndexHarness h;
  ASSERT_TRUE(h.catalog.CreateDatabase("db").ok());
  auto table = h.catalog.CreateTable("db", "t", TestSchema(), TestSpec());
  ASSERT_TRUE(table.ok());
  int64_t counter = 0;
  {
    auto txn = table->NewTransaction();
    ASSERT_TRUE(txn.ok());
    ASSERT_TRUE(
        txn->Append({MakeFile("/data/db/t", &counter, "m=2024-01", 5)}).ok());
    ASSERT_TRUE(txn->Commit().ok());
  }
  auto old_meta = h.catalog.LoadTable("db.t");
  ASSERT_TRUE(old_meta.ok());
  core::Candidate candidate;
  candidate.table = "db.t";
  // Materialize the entry at the old version, then advance the table.
  ASSERT_TRUE(h.index->TryCollect(candidate, *old_meta).has_value());
  {
    auto txn = table->NewTransaction();
    ASSERT_TRUE(txn.ok());
    ASSERT_TRUE(
        txn->Append({MakeFile("/data/db/t", &counter, "m=2024-01", 6)}).ok());
    ASSERT_TRUE(txn->Commit().ok());
  }
  // The entry is now newer than the stale pin: the index must refuse
  // rather than answer with the wrong version's aggregates.
  EXPECT_FALSE(h.index->TryCollect(candidate, *old_meta).has_value());
  EXPECT_FALSE(h.index->LivePartitions("db.t", *old_meta).has_value());
  // A fresh pin is served again.
  auto meta = h.catalog.LoadTable("db.t");
  ASSERT_TRUE(meta.ok());
  EXPECT_TRUE(h.index->TryCollect(candidate, *meta).has_value());
}

TEST(StatsIndexTest, DropTableEvictsEntry) {
  IndexHarness h;
  ASSERT_TRUE(h.catalog.CreateDatabase("db").ok());
  auto table = h.catalog.CreateTable("db", "t", TestSchema(), TestSpec());
  ASSERT_TRUE(table.ok());
  int64_t counter = 0;
  auto txn = table->NewTransaction();
  ASSERT_TRUE(txn.ok());
  ASSERT_TRUE(
      txn->Append({MakeFile("/data/db/t", &counter, "m=2024-01", 5)}).ok());
  ASSERT_TRUE(txn->Commit().ok());
  core::Candidate candidate;
  candidate.table = "db.t";
  auto meta = h.catalog.LoadTable("db.t");
  ASSERT_TRUE(meta.ok());
  ASSERT_TRUE(h.index->TryCollect(candidate, *meta).has_value());
  ASSERT_TRUE(h.catalog.DropTable("db.t").ok());

  // Recreate the table at the same version with different contents: an
  // entry that survived the drop would serve the old table's aggregates,
  // and the cross-checking collector would report the divergence.
  auto again = h.catalog.CreateTable("db", "t", TestSchema(), TestSpec());
  ASSERT_TRUE(again.ok());
  auto refill = again->NewTransaction();
  ASSERT_TRUE(refill.ok());
  ASSERT_TRUE(
      refill->Append({MakeFile("/data/db/t", &counter, "m=2024-02", 7)}).ok());
  ASSERT_TRUE(refill->Commit().ok());
  auto recreated = h.catalog.LoadTable("db.t");
  ASSERT_TRUE(recreated.ok());
  ASSERT_EQ((*recreated)->version(), (*meta)->version());
  const int64_t hits = h.indexed->index_hits();
  const int64_t fallbacks = h.indexed->index_fallbacks();
  h.ExpectAgreement(candidate);
  EXPECT_EQ(h.indexed->index_hits(), hits + 1);
  EXPECT_EQ(h.indexed->index_fallbacks(), fallbacks);
}

// ------------------------------------- Shared per-version partition maps

TEST(StatsIndexTest, PartitionMapsAreSharedUntilTheTableVersionMoves) {
  IndexHarness h;
  ASSERT_TRUE(h.catalog.CreateDatabase("db").ok());
  auto table = h.catalog.CreateTable("db", "t", TestSchema(), TestSpec());
  ASSERT_TRUE(table.ok());
  auto sibling = h.catalog.CreateTable("db", "u", TestSchema(), TestSpec());
  ASSERT_TRUE(sibling.ok());
  int64_t counter = 0;
  const auto commit_append = [&counter](lst::Table* target,
                                        const std::string& location,
                                        const std::string& partition,
                                        int64_t size) {
    auto txn = target->NewTransaction();
    ASSERT_TRUE(txn.ok());
    ASSERT_TRUE(
        txn->Append({MakeFile(location, &counter, partition, size)}).ok());
    ASSERT_TRUE(txn->Commit().ok());
  };
  // Collects through the index; every result must match a rescan.
  const auto collect = [&h](const core::Candidate& candidate) {
    auto indexed = h.indexed->Collect(candidate);
    auto rescanned = h.rescan->Collect(candidate);
    EXPECT_TRUE(indexed.ok() && rescanned.ok()) << candidate.id();
    if (!indexed.ok() || !rescanned.ok()) return core::CandidateStats{};
    std::string why;
    EXPECT_TRUE(core::StatsEquivalent(*indexed, *rescanned, &why))
        << candidate.id() << ": " << why;
    return std::move(*indexed);
  };

  commit_append(&*table, "/data/db/t", "m=2024-01", 5);
  commit_append(&*table, "/data/db/t", "m=2024-01", 9);
  commit_append(&*table, "/data/db/t", "m=2024-02", 64);
  commit_append(&*sibling, "/data/db/u", "m=2024-01", 3);

  core::Candidate whole;
  whole.table = "db.t";
  core::Candidate part = whole;
  part.scope = core::CandidateScope::kPartition;
  part.partition = "m=2024-01";
  core::Candidate fresh = whole;
  fresh.scope = core::CandidateScope::kSnapshot;
  fresh.after_snapshot_id = 0;

  // An unchanged table hands every caller the same map.
  const core::CandidateStats whole1 = collect(whole);
  const core::CandidateStats part1 = collect(part);
  const core::CandidateStats fresh1 = collect(fresh);
  ASSERT_NE(whole1.file_sizes_by_partition, nullptr);
  ASSERT_NE(part1.file_sizes_by_partition, nullptr);
  ASSERT_NE(fresh1.file_sizes_by_partition, nullptr);
  EXPECT_EQ(whole1.partition_sizes().size(), 2u);
  EXPECT_EQ(part1.partition_sizes().size(), 1u);
  EXPECT_EQ(collect(whole).file_sizes_by_partition,
            whole1.file_sizes_by_partition);
  EXPECT_EQ(collect(part).file_sizes_by_partition,
            part1.file_sizes_by_partition);
  EXPECT_EQ(collect(fresh).file_sizes_by_partition,
            fresh1.file_sizes_by_partition);

  // The same holds for the size lists, at every scope, and the partition
  // maps point at the partition lists instead of copying them.
  const auto same_list = [](const core::SizeList& a, const core::SizeList& b) {
    return &a.values() == &b.values();
  };
  EXPECT_TRUE(same_list(collect(whole).file_sizes, whole1.file_sizes));
  EXPECT_TRUE(same_list(collect(part).file_sizes, part1.file_sizes));
  EXPECT_TRUE(same_list(collect(fresh).file_sizes, fresh1.file_sizes));
  EXPECT_TRUE(same_list(whole1.partition_sizes().at("m=2024-01"),
                        part1.file_sizes));

  // A reader keeps walking the lists it holds while the table takes an
  // append, an overwrite and a replace commit below: the index never
  // edits a list in place, so the reader sees the same sizes throughout.
  const std::vector<std::pair<const core::SizeList*, std::vector<int64_t>>>
      held = {{&whole1.file_sizes, {5, 9, 64}},
              {&part1.file_sizes, {5, 9}},
              {&fresh1.file_sizes, {5, 9, 64}}};
  std::atomic<bool> reader_saw_change{false};
  std::atomic<int64_t> reader_passes{0};
  std::jthread reader([&](std::stop_token stop) {
    do {
      for (const auto& [list, sizes] : held) {
        if (!std::equal(list->begin(), list->end(), sizes.begin(),
                        sizes.end())) {
          reader_saw_change = true;
        }
      }
      reader_passes.fetch_add(1);
    } while (!stop.stop_requested());
  });

  // A commit to a sibling table leaves this table's maps alone.
  commit_append(&*sibling, "/data/db/u", "m=2024-02", 4);
  EXPECT_EQ(collect(whole).file_sizes_by_partition,
            whole1.file_sizes_by_partition);
  EXPECT_EQ(collect(part).file_sizes_by_partition,
            part1.file_sizes_by_partition);

  // A commit to the table itself moves its version: new maps.
  commit_append(&*table, "/data/db/t", "m=2024-01", 7);
  const core::CandidateStats whole2 = collect(whole);
  const core::CandidateStats part2 = collect(part);
  EXPECT_NE(whole2.file_sizes_by_partition, whole1.file_sizes_by_partition);
  EXPECT_NE(part2.file_sizes_by_partition, part1.file_sizes_by_partition);
  EXPECT_EQ(part2.partition_sizes().at("m=2024-01"),
            (std::vector<int64_t>{5, 7, 9}));
  // The maps handed out earlier are immutable: still the old version.
  EXPECT_EQ(part1.partition_sizes().at("m=2024-01"),
            (std::vector<int64_t>{5, 9}));
  EXPECT_FALSE(same_list(whole2.file_sizes, whole1.file_sizes));
  EXPECT_FALSE(same_list(part2.file_sizes, part1.file_sizes));

  // An overwrite moves the version again.
  {
    auto meta = h.catalog.LoadTable("db.t");
    ASSERT_TRUE(meta.ok());
    const auto victims = (*meta)->LiveFiles(std::string("m=2024-02"));
    ASSERT_EQ(victims.size(), 1u);
    auto txn = table->NewTransaction();
    ASSERT_TRUE(txn.ok());
    ASSERT_TRUE(
        txn->Overwrite({victims.front().path},
                       {MakeFile("/data/db/t", &counter, "m=2024-02", 65)})
            .ok());
    ASSERT_TRUE(txn->Commit().ok());
  }
  const core::CandidateStats whole3 = collect(whole);
  EXPECT_EQ(whole3.file_sizes, (std::vector<int64_t>{5, 7, 9, 65}));
  EXPECT_TRUE(same_list(collect(whole).file_sizes, whole3.file_sizes));

  // A replace commit moves the watermark; the snapshot-scope candidate
  // at the new watermark sees the new (empty, then refilled) fresh map.
  int64_t watermark = 0;
  {
    auto meta = h.catalog.LoadTable("db.t");
    ASSERT_TRUE(meta.ok());
    std::vector<std::string> inputs;
    for (const lst::DataFile& f :
         (*meta)->LiveFiles(std::string("m=2024-01"))) {
      inputs.push_back(f.path);
    }
    auto txn = table->NewTransaction();
    ASSERT_TRUE(txn.ok());
    ASSERT_TRUE(
        txn->RewriteFiles(inputs,
                          {MakeFile("/data/db/t", &counter, "m=2024-01", 21)})
            .ok());
    auto committed = txn->Commit();
    ASSERT_TRUE(committed.ok());
    watermark = committed->snapshot_id;
  }
  fresh.after_snapshot_id = watermark;
  const core::CandidateStats fresh2 = collect(fresh);
  EXPECT_NE(fresh2.file_sizes_by_partition, fresh1.file_sizes_by_partition);
  EXPECT_TRUE(fresh2.partition_sizes().empty());
  commit_append(&*table, "/data/db/t", "m=2024-03", 2);
  const core::CandidateStats fresh3 = collect(fresh);
  EXPECT_NE(fresh3.file_sizes_by_partition, fresh2.file_sizes_by_partition);
  EXPECT_EQ(fresh3.partition_sizes(),
            (core::PartitionSizes{{"m=2024-03", {2}}}));
  EXPECT_EQ(collect(fresh).file_sizes_by_partition,
            fresh3.file_sizes_by_partition);
  EXPECT_TRUE(same_list(collect(fresh).file_sizes, fresh3.file_sizes));
  EXPECT_EQ(fresh1.partition_sizes().size(), 2u);

  reader.request_stop();
  reader.join();
  EXPECT_GT(reader_passes.load(), 0);
  EXPECT_FALSE(reader_saw_change.load());
  for (const auto& [list, sizes] : held) EXPECT_EQ(list->values(), sizes);
}

// ------------------------------------------ Fresh views only on demand

// Hourly MOOP services over one TPC-H database, with appends between the
// cycles: only a snapshot-scope service asks for the fresh view, so only
// its index ever builds one.
TEST(StatsIndexTest, OnlySnapshotScopeServicesBuildFreshViews) {
  for (const sim::ScopeStrategy scope :
       {sim::ScopeStrategy::kTable, sim::ScopeStrategy::kHybrid,
        sim::ScopeStrategy::kSnapshot}) {
    SCOPED_TRACE(static_cast<int>(scope));
    sim::SimEnvironment env;
    ASSERT_TRUE(workload::SetupTpchDatabase(
                    &env.catalog(), &env.query_engine(), "db", kGiB,
                    engine::UntunedUserJobProfile(), 0)
                    .ok());
    const std::vector<std::string> tables = env.catalog().ListAllTables();
    ASSERT_FALSE(tables.empty());
    std::vector<workload::QueryEvent> writes;
    for (SimTime t = 10 * kMinute; t < 4 * kHour; t += 10 * kMinute) {
      workload::QueryEvent write;
      write.time = t;
      write.is_write = true;
      write.write.table = tables[writes.size() % tables.size()];
      write.write.logical_bytes = 4 * kMiB;
      writes.push_back(std::move(write));
    }
    sim::StrategyPreset preset;
    preset.scope = scope;
    preset.k = 5;
    auto service = sim::MakeMoopService(&env, preset);
    sim::MetricsRecorder metrics;
    sim::EventDriver driver(&env, &metrics);
    driver.AttachService(service.get());
    ASSERT_TRUE(driver.Run(writes, 4 * kHour).ok());

    const auto* collector = dynamic_cast<const core::IndexedStatsCollector*>(
        service->pipeline()->stages().collector.get());
    ASSERT_NE(collector, nullptr);
    const core::IncrementalStatsIndex& index = collector->index();
    EXPECT_GE(service->history().size(), 3u);
    EXPECT_GT(collector->index_hits(), 0);
    EXPECT_GT(index.deltas_applied(), 0);
    if (scope == sim::ScopeStrategy::kSnapshot) {
      EXPECT_GT(index.fresh_view_builds(), 0);
    } else {
      EXPECT_EQ(index.fresh_view_builds(), 0);
    }
  }
}

// ------------------------------------------- Randomized concurrent suite

class StatsIndexPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(StatsIndexPropertyTest, ConcurrentMixMatchesRescanAfterEveryCommit) {
  IndexHarness h;
  constexpr int kThreads = 3;
  constexpr int kStepsPerThread = 40;
  for (int t = 0; t < kThreads; ++t) {
    ASSERT_TRUE(h.catalog.CreateDatabase("db" + std::to_string(t)).ok());
  }
  ASSERT_TRUE(h.catalog.CreateDatabase("shared").ok());
  ASSERT_TRUE(
      h.catalog.CreateTable("shared", "hammer", TestSchema(), TestSpec())
          .ok());

  // Each worker owns one table (exclusive writer, so its per-commit
  // cross-checks are race-free) and also hammers the shared table with
  // CommitWithRetries appends to exercise delta application under CAS
  // races and out-of-order listener delivery.
  std::vector<std::thread> workers;
  std::vector<std::string> failures(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&h, &failures, t, seed = GetParam()]() {
      Rng rng(seed * 97 + static_cast<uint64_t>(t));
      const std::string db = "db" + std::to_string(t);
      auto table = h.catalog.CreateTable(db, "t", TestSchema(), TestSpec());
      if (!table.ok()) {
        failures[t] = "create: " + table.status().ToString();
        return;
      }
      const std::string qualified = db + ".t";
      const std::string location = "/data/" + db + "/t";
      int64_t counter = 0;
      std::set<std::string> live;
      for (int step = 0; step < kStepsPerThread; ++step) {
        const double pick = rng.NextDouble();
        auto txn = table->NewTransaction();
        if (!txn.ok()) {
          failures[t] = "txn: " + txn.status().ToString();
          return;
        }
        Status staged = Status::OK();
        std::vector<lst::DataFile> added;
        std::vector<std::string> removed;
        if (pick < 0.45 || live.empty()) {
          const int n = static_cast<int>(rng.UniformInt(1, 4));
          for (int i = 0; i < n; ++i) {
            added.push_back(MakeFile(
                location, &counter,
                "m=2024-0" + std::to_string(1 + rng.UniformInt(0, 2)),
                rng.UniformInt(1, 4096)));
          }
          staged = txn->Append(added);
        } else {
          for (const std::string& path : live) {
            if (rng.Bernoulli(0.4)) removed.push_back(path);
            if (removed.size() >= 3) break;
          }
          if (removed.empty()) removed.push_back(*live.begin());
          if (pick < 0.65) {
            added.push_back(
                MakeFile(location, &counter, "m=2024-01",
                         rng.UniformInt(1, 4096)));
            staged = txn->Overwrite(removed, added);
          } else if (pick < 0.85) {
            // Rewrite wants same-partition inputs; restage as a
            // single-victim replace to stay valid.
            removed.resize(1);
            added.push_back(
                MakeFile(location, &counter, "m=2024-02",
                         rng.UniformInt(1, 4096)));
            staged = txn->RewriteFiles(removed, added);
          } else {
            staged = txn->DeleteFiles(removed);
          }
        }
        if (!staged.ok()) {
          failures[t] = "stage: " + staged.ToString();
          return;
        }
        auto committed = txn->Commit();
        if (!committed.ok()) {
          failures[t] = "commit: " + committed.status().ToString();
          return;
        }
        for (const std::string& path : removed) live.erase(path);
        for (const lst::DataFile& f : added) live.insert(f.path);

        // Cross-check mode re-collects via rescan on every index hit and
        // fails loudly on divergence.
        core::Candidate candidate;
        candidate.table = qualified;
        auto stats = h.indexed->Collect(candidate);
        if (!stats.ok()) {
          failures[t] = "collect: " + stats.status().ToString();
          return;
        }
        if (stats->file_count != static_cast<int64_t>(live.size())) {
          failures[t] = "live-set drift at step " + std::to_string(step);
          return;
        }

        // Contend on the shared table.
        auto hammer = h.catalog.GetTable("shared.hammer");
        if (!hammer.ok()) continue;
        auto hammer_txn = hammer->NewTransaction();
        if (!hammer_txn.ok()) continue;
        std::vector<lst::DataFile> hfiles = {
            MakeFile("/data/shared/hammer", &counter,
                     "m=2024-0" + std::to_string(1 + t), t * 1000 + step + 1)};
        hfiles.back().path += "-w" + std::to_string(t);
        if (hammer_txn->Append(hfiles).ok()) {
          (void)hammer_txn->CommitWithRetries(10);
        }
      }
    });
  }
  for (std::thread& w : workers) w.join();
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(failures[t], "") << "worker " << t;
  }

  // Quiesced: every table (shared hammer included) agrees across scopes.
  for (const std::string& name : h.catalog.ListAllTables()) {
    h.ExpectAllScopesAgree(name);
  }
  EXPECT_GT(h.index->deltas_applied(), 0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, StatsIndexPropertyTest,
                         ::testing::Range(uint64_t{0}, uint64_t{6}));

// -------------------------------------------- End-to-end determinism

// Small fragmented fleet with some compacted (replace-snapshot) tables so
// the snapshot scope has non-trivial watermarks.
void BuildSmallFleet(catalog::Catalog* catalog, Rng* rng) {
  ASSERT_TRUE(catalog->CreateDatabase("db").ok());
  for (int t = 0; t < 24; ++t) {
    const std::string name = "t" + std::to_string(t);
    auto table = catalog->CreateTable("db", name, TestSchema(), TestSpec());
    ASSERT_TRUE(table.ok());
    int64_t counter = 0;
    const std::string location = "/data/db/" + name;
    std::vector<lst::DataFile> batch;
    const int files = static_cast<int>(rng->UniformInt(5, 30));
    const int partitions = static_cast<int>(rng->UniformInt(1, 4));
    for (int f = 0; f < files; ++f) {
      batch.push_back(MakeFile(location, &counter,
                               "m=2024-0" + std::to_string(1 + f % partitions),
                               rng->UniformInt(1, 32) * kMiB));
    }
    auto txn = table->NewTransaction();
    ASSERT_TRUE(txn.ok());
    ASSERT_TRUE(txn->Append(batch).ok());
    ASSERT_TRUE(txn->Commit().ok());
    if (t % 3 == 0) {
      // Compact one partition, then append fresh files over it.
      auto meta = table->Metadata();
      ASSERT_TRUE(meta.ok());
      std::vector<std::string> inputs;
      for (const lst::DataFile& f : (*meta)->LiveFiles(std::string("m=2024-01"))) {
        inputs.push_back(f.path);
      }
      auto rewrite = table->NewTransaction();
      ASSERT_TRUE(rewrite.ok());
      ASSERT_TRUE(rewrite
                      ->RewriteFiles(inputs, {MakeFile(location, &counter,
                                                       "m=2024-01", 256 * kMiB)})
                      .ok());
      ASSERT_TRUE(rewrite->Commit().ok());
      auto fresh = table->NewTransaction();
      ASSERT_TRUE(fresh.ok());
      ASSERT_TRUE(fresh
                      ->Append({MakeFile(location, &counter, "m=2024-01", kMiB),
                                MakeFile(location, &counter, "m=2024-02",
                                         2 * kMiB)})
                      .ok());
      ASSERT_TRUE(fresh->Commit().ok());
    }
  }
}

core::AutoCompPipeline MakeDecidePipeline(
    catalog::Catalog* catalog, const Clock* clock,
    std::shared_ptr<core::CandidateGenerator> generator,
    std::shared_ptr<core::StatsCollector> collector) {
  core::AutoCompPipeline::Stages stages;
  stages.generator = std::move(generator);
  stages.collector = std::move(collector);
  stages.traits = {std::make_shared<core::FileCountReductionTrait>(),
                   std::make_shared<core::FileEntropyTrait>(),
                   std::make_shared<core::ComputeCostTrait>(24.0, 1e12)};
  stages.ranker = std::make_shared<core::MoopRanker>(
      std::vector<core::MoopRanker::Objective>{
          {"file_count_reduction", 0.7, false},
          {"compute_cost_gbhr", 0.3, true}});
  stages.selector = std::make_shared<core::FixedKSelector>(100);
  stages.executor = nullptr;
  return core::AutoCompPipeline(std::move(stages), catalog, clock);
}

TEST(StatsIndexDeterminismTest, AllGeneratorsBitIdenticalAcrossCollectors) {
  SimulatedClock clock(0);
  storage::NameNode nn(&clock);
  catalog::Catalog catalog(&clock, &nn);
  catalog::ControlPlane control_plane(&catalog);
  Rng rng(11);
  BuildSmallFleet(&catalog, &rng);

  enum class Mode { kRescan, kIndexed };
  struct Baseline {
    std::vector<core::ScoredCandidate> ranked;
  };

  for (int g = 0; g < 4; ++g) {
    std::optional<Baseline> baseline;
    for (const Mode mode : {Mode::kRescan, Mode::kIndexed}) {
      std::shared_ptr<core::IncrementalStatsIndex> index;
      std::shared_ptr<core::StatsCollector> collector;
      if (mode == Mode::kIndexed) {
        index = std::make_shared<core::IncrementalStatsIndex>(&catalog);
        collector = std::make_shared<core::IndexedStatsCollector>(
            &catalog, &control_plane, &clock, index);
      } else {
        collector = std::make_shared<core::StatsCollector>(
            &catalog, &control_plane, &clock);
      }
      std::shared_ptr<core::CandidateGenerator> generator;
      switch (g) {
        case 0:
          generator = std::make_shared<core::TableScopeGenerator>();
          break;
        case 1:
          generator = std::make_shared<core::PartitionScopeGenerator>(index);
          break;
        case 2:
          generator = std::make_shared<core::HybridScopeGenerator>(index);
          break;
        default:
          generator = std::make_shared<core::SnapshotScopeGenerator>(index);
          break;
      }
      core::AutoCompPipeline pipeline =
          MakeDecidePipeline(&catalog, &clock, generator, collector);
      // Two runs: the second exercises the warm index path.
      for (int run = 0; run < 2; ++run) {
        auto report = pipeline.RunOnce();
        ASSERT_TRUE(report.ok()) << report.status();
        if (!baseline) {
          baseline = Baseline{report->ranked};
          continue;
        }
        ASSERT_EQ(report->ranked.size(), baseline->ranked.size())
            << "generator " << g;
        for (size_t i = 0; i < report->ranked.size(); ++i) {
          const core::ScoredCandidate& got = report->ranked[i];
          const core::ScoredCandidate& want = baseline->ranked[i];
          EXPECT_EQ(got.candidate().id(), want.candidate().id());
          // Bit-identical scores and traits, not just approximately equal:
          // the indexed path must reproduce the rescan's float reductions.
          EXPECT_EQ(got.score, want.score) << got.candidate().id();
          EXPECT_EQ(got.traited.traits, want.traited.traits)
              << got.candidate().id();
          std::string why;
          EXPECT_TRUE(core::StatsEquivalent(got.traited.observed.stats,
                                            want.traited.observed.stats, &why))
              << got.candidate().id() << ": " << why;
        }
      }
    }
  }
}

}  // namespace
}  // namespace autocomp
