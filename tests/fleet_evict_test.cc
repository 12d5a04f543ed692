// Bit-identity and bounded-residency tests for the fleet lane evictor
// (DESIGN.md §10). The contract under test: dehydrating lanes into
// checkpoints at ANY budget — even "evict everything, every hour" — and
// restoring them on their next due event must not change a single
// sample of the merged metrics, any total, or the injected-fault
// stream, across seeds, shard counts and pool sizes. The runs span
// enough days that 3-day snapshot retention actually expires lineage
// (with a persisted metadata footprint, so expiry is storage-visible
// and a mistimed deferred tick would diverge the RPC stream).

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <string>
#include <utility>

#include "catalog/catalog.h"
#include "common/blob.h"
#include "common/counter_rng.h"
#include "common/thread_pool.h"
#include "fault/fault_injector.h"
#include "fleet_reference.h"
#include "lst/metadata_blob.h"
#include "lst/metadata_json.h"
#include "lst/transaction.h"
#include "sim/fleet_driver.h"
#include "sim/metrics.h"
#include "storage/namenode.h"

namespace autocomp::sim {
namespace {

FleetSimOptions EvictableFleet(uint64_t seed) {
  FleetSimOptions options;
  // 4 days > the fleet's 3-day snapshot retention: day-0 lineage heads
  // expire mid-run, so the evictor's effective-retention wake is load
  // bearing, not vacuous.
  options.days = 4;
  options.seed = seed;
  options.fleet.num_databases = 6;
  options.fleet.tables_per_db = 3;
  options.fleet.new_tables_per_day = 2;
  // Low capacity so fleet-wide load crosses it and the epoch-load
  // timeout path fires — the cross-lane coupling eviction must not skew.
  options.env.namenode.rpc_capacity_per_hour = 200;
  // Persisted metadata makes snapshot expiry visible in storage (object
  // creates/deletes): any divergence in deferred retention ticks shows
  // up in total_files and the RPC tallies, not just catalog internals.
  options.env.catalog.persist_metadata = true;
  options.driver.sample_interval = 4 * kHour;
  options.driver.retention_interval = kHour;
  return options;
}

FleetSimResult RunOrDie(FleetSimOptions options) {
  FleetSimulation simulation(std::move(options));
  auto result = simulation.Run();
  EXPECT_TRUE(result.ok()) << result.status();
  if (!result.ok()) return {};
  return std::move(*result);
}

void ExpectSameReplay(const FleetSimResult& a, const FleetSimResult& b,
                      const std::string& label) {
  EXPECT_EQ(a.events_executed, b.events_executed) << label;
  EXPECT_EQ(a.total_files, b.total_files) << label;
  EXPECT_EQ(a.open_calls, b.open_calls) << label;
  EXPECT_EQ(a.faults_injected, b.faults_injected) << label;
  std::string why;
  EXPECT_TRUE(a.metrics.Equals(b.metrics, &why)) << label << ": " << why;
}

// The headline matrix: evict-everything-every-hour under a budget of
// one resident lane vs never-evict, across seeds × shards × pools.
TEST(FleetEvictionTest, AggressiveEvictionIsBitIdenticalAcrossMatrix) {
  for (const uint64_t seed : {7ull, 11ull}) {
    FleetSimOptions baseline = EvictableFleet(seed);
    baseline.sharded = false;
    const FleetSimResult reference = RunOrDie(std::move(baseline));

    for (const int shards : {1, 4}) {
      for (const int workers : {0, 2}) {
        std::unique_ptr<ThreadPool> pool;
        if (workers > 0) pool = std::make_unique<ThreadPool>(workers);
        FleetSimOptions options = EvictableFleet(seed);
        options.shards = shards;
        options.pool = pool.get();
        options.max_resident_lanes = 1;
        options.evict_after_idle_hours = 1;
        const FleetSimResult evicting = RunOrDie(std::move(options));
        const std::string label = "seed=" + std::to_string(seed) +
                                  " shards=" + std::to_string(shards) +
                                  " workers=" + std::to_string(workers);
        EXPECT_GT(evicting.lanes_evicted, 0) << label;
        EXPECT_GT(evicting.lanes_restored, 0) << label;
        EXPECT_GT(evicting.checkpoint_bytes, 0) << label;
        ExpectSameReplay(reference, evicting, label);
      }
    }
  }
}

// The evicting lazy path must also match the independent eager replay
// (EagerFleetReplay: every lane built at setup and advanced every hour).
TEST(FleetEvictionTest, EvictionMatchesEagerReference) {
  const FleetSimResult reference = EagerFleetReplay(EvictableFleet(7));

  FleetSimOptions options = EvictableFleet(7);
  options.max_resident_lanes = 2;
  const FleetSimResult evicting = RunOrDie(std::move(options));
  EXPECT_GT(evicting.lanes_evicted, 0);
  ExpectSameReplay(reference, evicting, "evict-vs-eager");
}

// Idle-rule-only configuration (no budget): lanes dehydrate one idle
// hour after their last real work and restore on their next event.
TEST(FleetEvictionTest, IdleRuleAloneEvictsAndStaysBitIdentical) {
  FleetSimOptions baseline = EvictableFleet(11);
  baseline.sharded = false;
  const FleetSimResult reference = RunOrDie(std::move(baseline));

  FleetSimOptions options = EvictableFleet(11);
  options.sharded = false;
  options.evict_after_idle_hours = 1;
  const FleetSimResult evicting = RunOrDie(std::move(options));
  EXPECT_GT(evicting.lanes_evicted, 0);
  // Residency accounting counts restores: every restore re-enters the
  // resident set, so restores + hydrations bound the eviction count.
  EXPECT_GE(evicting.lanes_restored + evicting.lanes_hydrated,
            evicting.lanes_evicted);
  ExpectSameReplay(reference, evicting, "idle-only");
}

// Fault injection draws from counter-based per-lane streams that are
// part of the checkpoint; eviction must not shift a single injection.
TEST(FleetEvictionTest, EvictionUnderFaultsIsBitIdentical) {
  const auto faulty = [](uint64_t seed) {
    FleetSimOptions options = EvictableFleet(seed);
    options.env.fault.enabled = true;
    options.env.fault.seed = seed * 1000003;
    options.env.fault.profile.sites[fault::kSiteStorageOpen] = {
        {0.05, fault::FaultKind::kTimeout}};
    options.env.fault.profile.sites[fault::kSiteLstCommit] = {
        {0.05, fault::FaultKind::kCasRaceConflict}};
    // Expiry commits draw from their own site: deferred retention ticks
    // must not shift a single maintenance-path injection either.
    options.env.fault.profile.sites[fault::kSiteRetentionExpire] = {
        {0.05, fault::FaultKind::kCasRaceConflict}};
    return options;
  };
  FleetSimOptions baseline = faulty(7);
  baseline.sharded = false;
  const FleetSimResult reference = RunOrDie(std::move(baseline));
  EXPECT_GT(reference.faults_injected, 0) << "vacuous fault profile";

  FleetSimOptions options = faulty(7);
  options.shards = 4;
  options.max_resident_lanes = 1;
  options.evict_after_idle_hours = 1;
  const FleetSimResult evicting = RunOrDie(std::move(options));
  EXPECT_GT(evicting.lanes_evicted, 0);
  ExpectSameReplay(reference, evicting, "faulty-evict");
}

// The budget is enforced before every wave and after every epoch: the
// lanes of a running wave (and those the day's onboarding restored) may
// push the resident set over the budget, and the next pass drains it
// back. The residency hook must observe that drain (counting both
// restores and evictions — a restore re-enters the resident set exactly
// like a first hydration, only the first hydration grows
// lanes_hydrated).
TEST(FleetEvictionTest, ResidencyHookObservesDrainToBudget) {
  FleetSimOptions options = EvictableFleet(7);
  options.sharded = false;
  options.max_resident_lanes = 2;
  bool exceeded = false;
  bool drained_after_exceeding = false;
  options.on_lane_residency = [&](const std::string&, int64_t resident,
                                  int64_t) {
    if (resident > 2) exceeded = true;
    if (exceeded && resident <= 2) drained_after_exceeding = true;
  };
  const FleetSimResult result = RunOrDie(std::move(options));
  EXPECT_GT(result.lanes_evicted, 0);
  EXPECT_GT(result.lanes_restored, 0);
  EXPECT_TRUE(exceeded) << "budget never stressed; test is vacuous";
  EXPECT_TRUE(drained_after_exceeding);
}

// A fleet_cold-shaped fleet: one-table lanes, fixed fleet-wide activity,
// daily retention ticks that wake dozing lanes together. A tiny budget
// must hold inside the epoch, not only after it: residency stays within
// budget + one wave (waves are capped at the budget) + the day's
// onboarded lanes, and the replay stays identical to the unbounded one.
// Fleet-wide: 100 writes and 25 reads a day, 20 onboards a day, and an
// hourly RPC capacity of one per lane.
FleetSimOptions ColdFleet(int lanes = 300, int days = 5) {
  FleetSimOptions options;
  options.days = days;
  options.seed = 7;
  options.fleet.num_databases = lanes;
  options.fleet.tables_per_db = 1;
  options.fleet.size_mu = std::log(128.0 * kMiB);
  options.fleet.size_sigma = 1.2;
  options.fleet.daily_write_fraction = 100.0 / lanes;
  options.fleet.daily_reads_per_table = 25.0 / lanes;
  options.fleet.new_tables_per_day = 20;
  options.env.namenode.rpc_capacity_per_hour = lanes;
  options.driver.sample_interval = 12 * kHour;
  options.driver.retention_interval = kDay;
  return options;
}

// The peak bytes of held checkpoints are a pure function of simulated
// state (evictions and restores are tallied between waves), the same for
// every shard layout, so they are guarded exactly: a blob-size regression
// fails here on any host. v4 blobs peaked at 5,121,032 bytes.
constexpr int64_t kColdFleetPeakCheckpointBytes = 2'595'354;

TEST(FleetEvictionTest, BudgetHoldsInsideTheEpoch) {
  FleetSimOptions baseline = ColdFleet();
  baseline.sharded = false;
  const FleetSimResult reference = RunOrDie(std::move(baseline));

  constexpr int64_t kBudget = 4;
  ThreadPool pool(2);
  for (const int shards : {0, 4}) {
    FleetSimOptions options = ColdFleet();
    options.max_resident_lanes = kBudget;
    options.evict_after_idle_hours = 12;
    options.sharded = shards > 0;
    options.shards = std::max(shards, 1);
    options.pool = shards > 0 ? &pool : nullptr;
    const int64_t onboarded = options.fleet.new_tables_per_day;
    const FleetSimResult bounded = RunOrDie(std::move(options));
    const std::string label = shards > 0 ? "shard4-pool2" : "seq";
    EXPECT_GT(bounded.lanes_evicted, 0) << label;
    EXPECT_LE(bounded.peak_resident_lanes, 2 * kBudget + onboarded) << label;
    EXPECT_LE(bounded.checkpoint_bytes,
              kColdFleetPeakCheckpointBytes +
                  kColdFleetPeakCheckpointBytes / 50)
        << label;
    ExpectSameReplay(reference, bounded, label);
  }
}

// fleet_cold's shape at toy scale (perfbench's fleet_cold replays 20,000
// lanes for 7 days): 400 lanes for 3 days, a 16-lane budget plus the
// 12 h idle rule, four shards on a three-worker pool. Most lanes are
// never touched after setup. Every lane owns a table, so each ghosted
// lane is served by a replay shared with the other lanes of its
// planned-load signature; the evictor checkpoints and retires the rest.
// All of it must match the eager reference.
TEST(FleetEvictionTest, ColdFleetMatchesEagerReference) {
  ThreadPool pool(3);
  for (const uint64_t seed : {7000ull, 1009000ull}) {
    FleetSimOptions base = ColdFleet(/*lanes=*/400, /*days=*/3);
    base.seed = seed;
    base.fleet.seed = seed;
    const FleetSimResult reference = EagerFleetReplay(base);
    FleetSimOptions options = base;
    options.shards = 4;
    options.pool = &pool;
    options.max_resident_lanes = 16;
    options.evict_after_idle_hours = 12;
    const FleetSimResult lazy = RunOrDie(std::move(options));
    const std::string label = "seed=" + std::to_string(seed);
    EXPECT_GT(lazy.lanes_ghosted, 0) << label;
    EXPECT_GT(lazy.lanes_evicted, 0) << label;
    EXPECT_GT(lazy.lanes_retired, 0) << label;
    ExpectSameReplay(reference, lazy, label);
  }
}

// ------------------------------------------------ checkpoint codec

lst::Schema EvictSchema() {
  return lst::Schema(0, {{1, "v", lst::FieldType::kInt64, true}});
}

// The binary metadata codec must round-trip the full snapshot/manifest/
// file tree exactly; the JSON serializer is the equality oracle.
TEST(MetadataBlobTest, RoundTripsLineageExactly) {
  SimulatedClock clock(0);
  storage::NameNode nn(&clock);
  catalog::Catalog catalog(&clock, &nn);
  ASSERT_TRUE(catalog.CreateDatabase("db").ok());
  auto table = catalog.CreateTable("db", "t", EvictSchema(),
                                   lst::PartitionSpec::Unpartitioned());
  ASSERT_TRUE(table.ok());
  const auto store_file = [&](const std::string& path, int64_t size) {
    EXPECT_TRUE(nn.CreateFile(path, size, size / 100).ok());
    lst::DataFile f;
    f.path = path;
    f.file_size_bytes = size;
    f.record_count = size / 100;
    return f;
  };
  {
    auto txn = table->NewTransaction();
    ASSERT_TRUE(txn->Append({store_file("/data/db/t/f1", 100),
                             store_file("/data/db/t/f2", 200)})
                    .ok());
    ASSERT_TRUE(txn->Commit().ok());
  }
  clock.AdvanceTo(kHour);
  {
    auto txn = table->NewTransaction();
    ASSERT_TRUE(txn->RewriteFiles({"/data/db/t/f1", "/data/db/t/f2"},
                                  {store_file("/data/db/t/c1", 290)})
                    .ok());
    ASSERT_TRUE(txn->Commit().ok());
  }
  auto metadata = catalog.LoadTable("db.t");
  ASSERT_TRUE(metadata.ok());

  common::BlobWriter writer;
  lst::TableMetadataToBlob(**metadata, &writer);
  const std::string blob = writer.Take();
  common::BlobReader reader(blob);
  auto restored = lst::TableMetadataFromBlob(&reader);
  ASSERT_TRUE(restored.ok()) << restored.status();
  EXPECT_TRUE(reader.exhausted());
  EXPECT_EQ(lst::TableMetadataToJson(**metadata),
            lst::TableMetadataToJson(**restored));
}

// A lineage exercising every field both codecs write: two month
// partitions plus a long partition key, a MoR delete file, clustered
// files, paths of very different lengths, removed paths from a rewrite,
// an overwrite and a delete, over five snapshots.
lst::TableMetadataPtr RichLineage(SimulatedClock* clock,
                                  catalog::Catalog* catalog) {
  EXPECT_TRUE(catalog->CreateDatabase("db").ok());
  auto table = catalog->CreateTable(
      "db", "t",
      lst::Schema(0, {{1, "id", lst::FieldType::kInt64, true},
                      {2, "d", lst::FieldType::kDate, true}}),
      lst::PartitionSpec(1, {{2, lst::Transform::kMonth, "m"}}));
  EXPECT_TRUE(table.ok());
  const auto file = [](std::string path, std::string partition,
                       lst::FileContent content, int64_t size,
                       bool clustered) {
    lst::DataFile f{std::move(path), std::move(partition), content, size,
                    size / 10};
    f.clustered = clustered;
    return f;
  };
  const std::string long_partition = "m=" + std::string(40, 'x');
  const std::string long_path =
      "/data/db/t/" + long_partition + "/" + std::string(250, 'p');
  const auto commit = [&](auto stage) {
    auto txn = table->NewTransaction();
    ASSERT_TRUE(txn.ok());
    ASSERT_TRUE(stage(&*txn).ok());
    ASSERT_TRUE(txn->Commit().ok());
    clock->Advance(kHour);
  };
  commit([&](lst::Transaction* txn) {
    return txn->Append(
        {file("/data/db/t/m=2024-01/a", "m=2024-01", lst::FileContent::kData,
              100, false),
         file("/data/db/t/m=2024-02/b", "m=2024-02", lst::FileContent::kData,
              200, true),
         file(long_path, long_partition, lst::FileContent::kData, 300,
              false)});
  });
  commit([&](lst::Transaction* txn) {
    return txn->Append({file("/data/db/t/m=2024-01/d1", "m=2024-01",
                             lst::FileContent::kPositionDeletes, 20, false)});
  });
  commit([&](lst::Transaction* txn) {
    return txn->RewriteFiles(
        {"/data/db/t/m=2024-01/a", "/data/db/t/m=2024-01/d1"},
        {file("/data/db/t/m=2024-01/c", "m=2024-01", lst::FileContent::kData,
              90, true)});
  });
  commit([&](lst::Transaction* txn) {
    return txn->Overwrite({"/data/db/t/m=2024-02/b"},
                          {file("/data/db/t/m=2024-02/o", "m=2024-02",
                                lst::FileContent::kData, 180, false)});
  });
  commit([&](lst::Transaction* txn) {
    return txn->DeleteFiles({long_path});
  });
  auto metadata = catalog->LoadTable("db.t");
  EXPECT_TRUE(metadata.ok());
  return *metadata;
}

// Both codecs' bytes are pinned: a change to how manifests hold their
// entries must not move a single byte of the checkpoint blob (whose
// layout kLaneBlobVersion names) or of the persisted JSON document.
TEST(MetadataBlobTest, CodecBytesArePinned) {
  SimulatedClock clock(1000);
  storage::NameNode nn(&clock);
  catalog::Catalog catalog(&clock, &nn);
  const lst::TableMetadataPtr metadata = RichLineage(&clock, &catalog);
  ASSERT_NE(metadata, nullptr);
  ASSERT_EQ(metadata->snapshots().size(), 5u);

  common::BlobWriter writer;
  lst::TableMetadataToBlob(*metadata, &writer);
  const std::string blob = writer.Take();
  const std::string json = lst::TableMetadataToJson(*metadata);
  // v5 front coding moved the blob pin (v4: 0x577745ae2e8f9a8f); the
  // JSON document is unchanged.
  EXPECT_EQ(CounterRng::HashString(blob), 0xd324e4770de2fd71ULL);
  EXPECT_EQ(CounterRng::HashString(json), 0xea72a73aabbf82b3ULL);

  common::BlobReader reader(blob);
  auto restored = lst::TableMetadataFromBlob(&reader);
  ASSERT_TRUE(restored.ok()) << restored.status();
  EXPECT_TRUE(reader.exhausted());
  EXPECT_EQ(lst::TableMetadataToJson(**restored), json);
}

// A held checkpoint must not carry the writer's doubling slack: Take()
// hands out an exact-capacity buffer holding the same bytes.
TEST(BlobWriterTest, TakeReturnsExactCapacity) {
  common::BlobWriter writer;
  for (int i = 0; i < 2000; ++i) {
    writer.WriteI64(int64_t{1} << (i % 60));
    writer.WriteString("/data/db/t/f" + std::to_string(i % 300));
  }
  writer.WriteF64(0.1);
  const size_t written = writer.size();
  const std::string blob = writer.Take();
  ASSERT_GT(blob.size(), 4096u);
  EXPECT_EQ(blob.size(), written);
  EXPECT_EQ(blob.capacity(), blob.size());

  common::BlobReader reader(blob);
  for (int i = 0; i < 2000; ++i) {
    EXPECT_EQ(reader.ReadI64(), int64_t{1} << (i % 60));
    EXPECT_EQ(reader.ReadString(), "/data/db/t/f" + std::to_string(i % 300));
  }
  EXPECT_EQ(reader.ReadF64(), 0.1);
  EXPECT_TRUE(reader.exhausted());
}

}  // namespace
}  // namespace autocomp::sim
