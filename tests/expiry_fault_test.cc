// Snapshot expiry + metadata-footprint reaping under fault injection
// (label: fault). The retention service commits lineage truncations
// through the same CAS path user writes use; injected commit races and
// storage failures must never cost a live file, double-reference a
// file, or drift the quota accounting — the InvariantChecker is the
// oracle, exactly as the fleet simulator runs it per epoch.

#include <gtest/gtest.h>

#include <string>
#include <utility>

#include "catalog/catalog.h"
#include "catalog/control_plane.h"
#include "common/clock.h"
#include "fault/fault_injector.h"
#include "fault/invariant_checker.h"
#include "lst/metadata_json.h"
#include "lst/transaction.h"
#include "sim/fleet_driver.h"
#include "storage/namenode.h"

namespace autocomp {
namespace {

lst::Schema ExpirySchema() {
  return lst::Schema(0, {{1, "v", lst::FieldType::kInt64, true}});
}

lst::DataFile StoreFile(storage::NameNode* nn,
                        const std::string& path, int64_t size) {
  EXPECT_TRUE(nn->CreateFile(path, size, size / 100).ok());
  lst::DataFile f;
  f.path = path;
  f.file_size_bytes = size;
  f.record_count = size / 100;
  return f;
}

// Fault-free reference behaviour first: with a persisted metadata
// footprint, expiring a snapshot also reaps the manifest objects only
// that snapshot referenced — the storage-side leak the maintenance
// loop's wiring closes.
TEST(ExpiryFootprintTest, RetentionReapsOrphanedManifestObjects) {
  SimulatedClock clock(0);
  storage::NameNode nn(&clock);
  catalog::CatalogOptions catalog_options;
  catalog_options.persist_metadata = true;
  catalog::Catalog catalog(&clock, &nn, catalog_options);
  catalog::ControlPlane plane(&catalog);
  ASSERT_TRUE(catalog.CreateDatabase("db").ok());
  auto table = catalog.CreateTable("db", "t", ExpirySchema(),
                                   lst::PartitionSpec::Unpartitioned());
  ASSERT_TRUE(table.ok());
  {
    auto txn = table->NewTransaction();
    ASSERT_TRUE(txn->Append({StoreFile(&nn, "/data/db/t/s1", 100)}).ok());
    ASSERT_TRUE(txn->Commit().ok());
  }
  clock.AdvanceTo(kHour);
  {
    auto txn = table->NewTransaction();
    ASSERT_TRUE(txn->RewriteFiles({"/data/db/t/s1"},
                                  {StoreFile(&nn, "/data/db/t/c1", 90)})
                    .ok());
    ASSERT_TRUE(txn->Commit().ok());
  }
  // The append snapshot's manifest object is persisted and, pre-expiry,
  // still referenced by the lineage.
  ASSERT_TRUE(nn.Exists("/data/db/t/metadata/manifest-000001.avro"));

  catalog::TablePolicy policy;
  policy.snapshot_retention = kHour;
  plane.SetPolicy("db.t", policy);
  clock.AdvanceTo(10 * kHour);
  auto report = plane.RunRetentionFor("db.t");
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_EQ(report->snapshots_expired, 1);
  EXPECT_GE(report->metadata_objects_deleted, 1);
  EXPECT_FALSE(nn.Exists("/data/db/t/metadata/manifest-000001.avro"));
  // The retained lineage keeps its objects and its data.
  EXPECT_TRUE(nn.Exists("/data/db/t/c1"));
  auto metadata = catalog.LoadTable("db.t");
  ASSERT_TRUE(metadata.ok());
  for (const lst::Snapshot& snapshot : (*metadata)->snapshots()) {
    for (const lst::ManifestPtr& manifest : snapshot.manifests) {
      char name[64];
      std::snprintf(name, sizeof(name), "manifest-%06lld.avro",
                    static_cast<long long>(manifest->manifest_id()));
      EXPECT_TRUE(
          nn.Exists((*metadata)->location() + "/metadata/" + name))
          << name;
    }
  }
  const fault::InvariantChecker checker;
  EXPECT_TRUE(checker.CheckOrFail(catalog).ok());
}

// Retention sweeps under injected CAS races: whatever mix of expiry
// commits lands or aborts, no live file may be lost and every
// cross-layer invariant must hold.
TEST(ExpiryFaultTest, InjectedCommitRacesNeverLoseLiveFiles) {
  SimulatedClock clock(0);
  storage::NameNode nn(&clock);
  catalog::CatalogOptions catalog_options;
  catalog_options.persist_metadata = true;
  catalog::Catalog catalog(&clock, &nn, catalog_options);
  catalog::ControlPlane plane(&catalog);
  ASSERT_TRUE(catalog.CreateDatabase("db").ok());

  // Several tables, each with a rewrite lineage whose head replaces the
  // initial load — expiry has real orphans to delete.
  constexpr int kTables = 6;
  for (int i = 0; i < kTables; ++i) {
    const std::string t = "t" + std::to_string(i);
    auto table = catalog.CreateTable("db", t, ExpirySchema(),
                                     lst::PartitionSpec::Unpartitioned());
    ASSERT_TRUE(table.ok());
    const std::string dir = "/data/db/" + t;
    auto txn = table->NewTransaction();
    ASSERT_TRUE(txn->Append({StoreFile(&nn, dir + "/s1", 100)}).ok());
    ASSERT_TRUE(txn->Commit().ok());
    auto rewrite = table->NewTransaction();
    ASSERT_TRUE(rewrite
                    ->RewriteFiles({dir + "/s1"},
                                   {StoreFile(&nn, dir + "/c1", 90)})
                    .ok());
    ASSERT_TRUE(rewrite->Commit().ok());
    catalog::TablePolicy policy;
    policy.snapshot_retention = kHour;
    plane.SetPolicy("db." + t, policy);
  }

  fault::FaultInjectorOptions fault_options;
  fault_options.enabled = true;
  fault_options.seed = 1234567;
  fault_options.profile.sites[fault::kSiteRetentionExpire] = {
      {0.5, fault::FaultKind::kCasRaceConflict}};
  fault::FaultInjector injector(fault_options);
  catalog.SetFaultInjector(&injector);
  injector.set_armed(true);

  // Repeated sweeps with the clock marching: some expiry commits hit
  // injected races (and retry through the CAS loop), some sweeps run
  // after everything already expired and must be no-ops.
  for (int sweep = 0; sweep < 6; ++sweep) {
    clock.AdvanceTo(clock.Now() + 3 * kHour);
    const catalog::RetentionReport report = plane.RunRetentionService();
    EXPECT_EQ(report.tables_processed, kTables);
  }
  injector.set_armed(false);
  EXPECT_GT(injector.total_injected(), 0) << "vacuous fault profile";

  // No live-file loss across expiry: every table's current head file
  // still exists, and the full cross-layer audit passes.
  for (int i = 0; i < kTables; ++i) {
    EXPECT_TRUE(nn.Exists("/data/db/t" + std::to_string(i) + "/c1"));
  }
  const fault::InvariantChecker checker;
  EXPECT_TRUE(checker.CheckOrFail(catalog).ok());

  // Every lineage expired down to its head, so storage holds no data
  // file outside a current snapshot: the orphan audit passes, and then
  // flags exactly the one stray file planted under a table.
  fault::InvariantCheckerOptions orphan_options;
  orphan_options.check_orphans = true;
  const fault::InvariantChecker orphan_checker(orphan_options);
  EXPECT_TRUE(orphan_checker.CheckOrFail(catalog).ok());
  ASSERT_TRUE(nn.CreateFile("/data/db/t0/stray.parquet", 10, 1).ok());
  const auto violations = orphan_checker.Check(catalog);
  ASSERT_EQ(violations.size(), 1u);
  EXPECT_EQ(violations[0].message,
            "orphan data file in storage: /data/db/t0/stray.parquet");
}

// The simulated maintenance loop end to end: a multi-day fleet replay
// with per-epoch invariant audits, persisted metadata, fault injection
// AND the lane evictor — retention ticks (including the ones deferred
// across eviction) must expire 3-day lineages without ever tripping the
// checker.
TEST(ExpiryFaultTest, FleetMaintenanceLoopExpiresUnderFaultsAndEviction) {
  sim::FleetSimOptions options;
  options.days = 4;
  options.seed = 7;
  options.fleet.num_databases = 4;
  options.fleet.tables_per_db = 3;
  options.fleet.new_tables_per_day = 1;
  options.env.namenode.rpc_capacity_per_hour = 300;
  options.env.catalog.persist_metadata = true;
  options.driver.sample_interval = 4 * kHour;
  options.driver.retention_interval = kHour;
  options.check_invariants = true;
  options.max_resident_lanes = 2;
  options.evict_after_idle_hours = 2;
  options.env.fault.enabled = true;
  options.env.fault.seed = 424243;
  options.env.fault.profile.sites[fault::kSiteStorageOpen] = {
      {0.03, fault::FaultKind::kTimeout}};
  options.env.fault.profile.sites[fault::kSiteLstCommit] = {
      {0.05, fault::FaultKind::kCasRaceConflict}};
  options.env.fault.profile.sites[fault::kSiteRetentionExpire] = {
      {0.05, fault::FaultKind::kCasRaceConflict}};
  sim::FleetSimulation simulation(std::move(options));
  auto result = simulation.Run();
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_GT(result->faults_injected, 0);
  EXPECT_GT(result->events_executed, 0);
}

}  // namespace
}  // namespace autocomp
